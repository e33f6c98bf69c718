//! Analytically seeded performance models shipped with the crate.
//!
//! The paper calibrates its models by benchmarking on the target machine
//! (§4.1, "the underlying hardware plays an important role"). That
//! calibration exists here too ([`crate::builder`]), but the framework also
//! ships *default* models so that selection behaves deterministically in
//! tests and on machines where no calibration pass has run.
//!
//! The default models are not fitted. Every analytic cost function here is
//! linear within a segment, and `curve()` turns it into the exact line
//! through two of its points per segment: one segment over sizes 1–10,000
//! for most variants, and for adaptive variants a two-piece [`CostCurve`]
//! split at the transition threshold (paper Table 1), so their piecewise
//! behaviour is kept rather than smoothed the way a calibrated model's
//! single cubic smooths it. The functions are analytic stand-ins whose
//! shapes and crossovers encode the orderings the paper reports:
//!
//! * array variants: smallest footprint and base allocation, linear
//!   `contains`;
//! * chained JDK hashes: heavy per-entry allocation, flat per-op costs;
//! * open-hash profiles (Fig. 5d/e narrative): FastUtil densest and
//!   cheapest to allocate but with insert/lookup costs that degrade with
//!   size (long probe chains near 90% occupancy), Koloboke sparsest with
//!   flat fast ops, Eclipse between;
//! * compact variants: small *footprint* but high allocation churn (dense
//!   vector doubling plus index-table rebuilds re-copy the payload);
//! * hash variants additionally pay a **per-instance base allocation** (the
//!   minimum table they allocate up front) — this is what makes array and
//!   adaptive variants win the allocation dimension for the paper's
//!   many-tiny-collections applications (lusearch, h2);
//! * `HashArrayList`: O(1) lookups for extra memory; its *middle* cost is
//!   **deliberately modelled as equal to `ArrayList`'s**, reproducing the
//!   model limitation the paper reports in §5.1 ("our model assumes that
//!   cost of removing an element by index is identical on both variants"),
//!   which is what makes the multi-phase experiment mis-select during the
//!   *search and remove* phase (Fig. 6).
//!
//! Time unit: nanoseconds per operation. Alloc unit: bytes (per operation,
//! plus a per-instance base). Footprint unit: bytes per instance at maximum
//! size.

use std::sync::OnceLock;

use cs_collections::{LibraryProfile, ListKind, MapKind, SetKind};
use cs_profile::OpKind;

use crate::curve::CostCurve;
use crate::dimension::CostDimension;
use crate::perf::{PerformanceModel, VariantCostModel};
use crate::poly::Polynomial;

/// Adaptive thresholds used by the analytic curves (paper Table 1).
const LIST_T: f64 = 80.0;
const SET_T: f64 = 40.0;
const MAP_T: f64 = 50.0;

/// Exact line through the analytic curve at `x0` and `x1`.
fn seg_poly(f: &dyn Fn(f64) -> f64, x0: f64, x1: f64) -> Polynomial {
    let slope = (f(x1) - f(x0)) / (x1 - x0);
    Polynomial::from_coeffs(vec![f(x0) - slope * x0, slope])
}

/// Converts a (piecewise-)linear analytic cost function into a [`CostCurve`].
/// Every curve in this module is linear within a segment, so two samples per
/// segment reproduce it exactly — no fit noise in the shipped defaults.
fn curve(f: impl Fn(f64) -> f64, brk: Option<f64>) -> CostCurve {
    match brk {
        None => CostCurve::from(seg_poly(&f, 1.0, 10_000.0)),
        Some(t) => CostCurve::piecewise(
            t,
            seg_poly(&f, 1.0, t.max(2.0)),
            seg_poly(&f, t + 1.0, 10_000.0),
        ),
    }
}

/// Describes one variant's analytic cost curves.
struct Curves {
    /// time(s) per op, indexed by OpKind.
    time: [fn(f64) -> f64; 4],
    /// alloc bytes per op, indexed by OpKind.
    alloc: [fn(f64) -> f64; 4],
    /// base allocation per instance (minimum tables etc.) at max size s.
    alloc_instance: fn(f64) -> f64,
    /// footprint bytes per instance at size s.
    footprint: fn(f64) -> f64,
    /// Piecewise breakpoint (the adaptive transition threshold), if any.
    brk: Option<f64>,
}

fn build_variant(curves: &Curves) -> VariantCostModel {
    let mut m = VariantCostModel::new();
    for op in OpKind::ALL {
        let t = curves.time[op.index()];
        let a = curves.alloc[op.index()];
        m.set_op_cost(CostDimension::Time, op, curve(t, curves.brk));
        m.set_op_cost(CostDimension::Alloc, op, curve(a, curves.brk));
        // Alloc *rate*: the same per-op churn curves as Alloc but with no
        // per-instance base — it prices steady-state bytes/op, the
        // observable cs-heap attribution measures live.
        m.set_op_cost(CostDimension::AllocRate, op, curve(a, curves.brk));
    }
    m.set_instance_cost(
        CostDimension::Alloc,
        curve(curves.alloc_instance, curves.brk),
    );
    m.set_instance_cost(
        CostDimension::Footprint,
        curve(curves.footprint, curves.brk),
    );
    m
}

fn zero(_s: f64) -> f64 {
    0.0
}

// ---------------------------------------------------------------------------
// Lists
// ---------------------------------------------------------------------------

fn list_curves(kind: ListKind) -> Curves {
    match kind {
        ListKind::Array => Curves {
            time: [
                |_| 3.0,            // populate: amortized append
                |s| 5.0 + 0.6 * s,  // contains: half-array scan
                |s| 5.0 + 0.8 * s,  // iterate
                |s| 8.0 + 0.25 * s, // middle: memmove half
            ],
            alloc: [|_| 12.0, zero, zero, zero],
            alloc_instance: |_| 80.0, // default capacity 10 × 8 bytes
            footprint: |s| 40.0 + 9.6 * s,
            brk: None,
        },
        ListKind::Linked => Curves {
            time: [
                |_| 10.0,
                |s| 8.0 + 1.5 * s, // pointer-chasing scan
                |s| 10.0 + 3.0 * s,
                |s| 12.0 + 1.0 * s, // walk to middle
            ],
            alloc: [|_| 40.0, zero, zero, zero],
            alloc_instance: |_| 0.0, // nodes only, no base table
            footprint: |s| 48.0 + 40.0 * s,
            brk: None,
        },
        ListKind::HashArray => Curves {
            time: [
                |_| 22.0, // append + hash-index upkeep
                |_| 12.0, // O(1) membership
                |s| 6.0 + 0.8 * s,
                // Deliberately identical to ArrayList (paper §5.1 model
                // limitation; reality is slower — see Fig. 6).
                |s| 8.0 + 0.25 * s,
            ],
            alloc: [|_| 48.0, zero, zero, zero],
            alloc_instance: |_| 336.0, // array base + index table minimum
            footprint: |s| 96.0 + 57.6 * s,
            brk: None,
        },
        ListKind::Adaptive => Curves {
            time: [
                |s| if s <= LIST_T { 4.0 } else { 23.0 },
                |s| if s <= LIST_T { 5.5 + 0.6 * s } else { 12.0 },
                |s| 6.0 + 0.85 * s,
                |s| 9.0 + 0.25 * s,
            ],
            alloc: [|s| if s <= LIST_T { 13.0 } else { 42.0 }, zero, zero, zero],
            alloc_instance: |s| if s <= LIST_T { 84.0 } else { 420.0 },
            footprint: |s| {
                if s <= LIST_T {
                    44.0 + 9.6 * s
                } else {
                    100.0 + 57.6 * s
                }
            },
            brk: Some(LIST_T),
        },
    }
}

// ---------------------------------------------------------------------------
// Sets
// ---------------------------------------------------------------------------

fn set_curves(kind: SetKind) -> Curves {
    match kind {
        SetKind::Chained => Curves {
            time: [
                |_| 30.0, // entry allocation dominates
                |s| 15.0 + 0.002 * s,
                |s| 8.0 + 2.0 * s,
                |s| 30.0 + 0.002 * s,
            ],
            alloc: [|_| 50.0, zero, zero, zero],
            alloc_instance: |_| 160.0, // 16-bucket base table
            footprint: |s| 64.0 + 50.0 * s,
            brk: None,
        },
        SetKind::Open(LibraryProfile::Koloboke) => Curves {
            time: [
                |s| 18.0 + 0.002 * s, // sparsest table: flat everywhere
                |s| 9.0 + 0.002 * s,  // fastest lookups at every size
                |s| 6.0 + 1.6 * s,    // scans a half-empty table
                |s| 24.0 + 0.002 * s,
            ],
            alloc: [|_| 34.0, zero, zero, zero],
            alloc_instance: |_| 256.0, // min capacity 16, sparse slots
            footprint: |s| 64.0 + 32.0 * s,
            brk: None,
        },
        SetKind::Open(LibraryProfile::Eclipse) => Curves {
            time: [
                |s| 19.0 + 0.020 * s, // degrades mid-range (Fig. 5d/e)
                |s| 9.2 + 0.0155 * s,
                |s| 6.0 + 1.25 * s,
                |s| 26.0 + 0.020 * s,
            ],
            alloc: [|_| 24.0, zero, zero, zero],
            alloc_instance: |_| 128.0,
            footprint: |s| 48.0 + 21.5 * s,
            brk: None,
        },
        SetKind::Open(LibraryProfile::FastUtil) => Curves {
            time: [
                |s| 19.0 + 0.040 * s, // densest table: long probe chains
                |s| 9.5 + 0.028 * s,
                |s| 6.0 + 1.05 * s,
                |s| 30.0 + 0.040 * s,
            ],
            alloc: [|_| 18.0, zero, zero, zero],
            alloc_instance: |_| 64.0, // min capacity 4, dense slots
            footprint: |s| 32.0 + 17.8 * s,
            brk: None,
        },
        SetKind::Linked => Curves {
            time: [
                |_| 36.0,
                |s| 15.5 + 0.002 * s,
                |s| 8.0 + 1.5 * s,
                |s| 34.0 + 0.002 * s,
            ],
            alloc: [|_| 62.0, zero, zero, zero],
            alloc_instance: |_| 200.0,
            footprint: |s| 80.0 + 62.0 * s,
            brk: None,
        },
        SetKind::Array => Curves {
            time: [
                |s| 4.0 + 0.5 * s, // duplicate check scans
                |s| 4.0 + 0.6 * s,
                |s| 4.0 + 0.8 * s,
                |s| 6.0 + 0.6 * s,
            ],
            alloc: [|_| 10.0, zero, zero, zero],
            alloc_instance: |_| 16.0,
            footprint: |s| 16.0 + 9.6 * s,
            brk: None,
        },
        SetKind::Compact => Curves {
            time: [
                |_| 24.0,
                |s| 13.0 + 0.006 * s,
                |s| 5.0 + 0.9 * s, // dense storage iterates fast
                |s| 28.0 + 0.006 * s,
            ],
            // Low footprint but high allocation churn: the dense vector
            // doubles-and-copies and the index table is rebuilt on growth.
            alloc: [|_| 40.0, zero, zero, zero],
            alloc_instance: |_| 96.0,
            footprint: |s| 40.0 + 19.5 * s,
            brk: None,
        },
        SetKind::Adaptive => Curves {
            time: [
                |s| if s <= SET_T { 4.5 + 0.5 * s } else { 22.0 },
                |s| if s <= SET_T { 4.5 + 0.6 * s } else { 10.0 },
                |s| 5.5 + 1.0 * s,
                |s| if s <= SET_T { 7.0 + 0.6 * s } else { 26.0 },
            ],
            alloc: [|s| if s <= SET_T { 11.0 } else { 30.0 }, zero, zero, zero],
            alloc_instance: |s| if s <= SET_T { 16.0 } else { 280.0 },
            footprint: |s| {
                if s <= SET_T {
                    20.0 + 9.6 * s
                } else {
                    68.0 + 32.0 * s
                }
            },
            brk: Some(SET_T),
        },
    }
}

// ---------------------------------------------------------------------------
// Maps (mirror the sets, with a value payload widening every footprint)
// ---------------------------------------------------------------------------

fn map_curves(kind: MapKind) -> Curves {
    match kind {
        MapKind::Chained => Curves {
            time: [
                |_| 32.0,
                |s| 16.0 + 0.002 * s,
                |s| 9.0 + 2.2 * s,
                |s| 32.0 + 0.002 * s,
            ],
            alloc: [|_| 58.0, zero, zero, zero],
            alloc_instance: |_| 160.0,
            footprint: |s| 64.0 + 58.0 * s,
            brk: None,
        },
        MapKind::Open(LibraryProfile::Koloboke) => Curves {
            time: [
                |s| 20.0 + 0.002 * s,
                |s| 9.5 + 0.002 * s,
                |s| 7.0 + 1.7 * s,
                |s| 26.0 + 0.002 * s,
            ],
            alloc: [|_| 50.0, zero, zero, zero],
            alloc_instance: |_| 384.0,
            footprint: |s| 64.0 + 48.0 * s,
            brk: None,
        },
        MapKind::Open(LibraryProfile::Eclipse) => Curves {
            time: [
                |s| 21.0 + 0.020 * s,
                |s| 9.7 + 0.0155 * s,
                |s| 7.0 + 1.35 * s,
                |s| 28.0 + 0.020 * s,
            ],
            alloc: [|_| 36.0, zero, zero, zero],
            alloc_instance: |_| 192.0,
            footprint: |s| 48.0 + 32.0 * s,
            brk: None,
        },
        MapKind::Open(LibraryProfile::FastUtil) => Curves {
            time: [
                |s| 21.0 + 0.040 * s,
                |s| 10.0 + 0.028 * s,
                |s| 7.0 + 1.15 * s,
                |s| 32.0 + 0.040 * s,
            ],
            alloc: [|_| 28.0, zero, zero, zero],
            alloc_instance: |_| 96.0,
            footprint: |s| 32.0 + 26.7 * s,
            brk: None,
        },
        MapKind::Linked => Curves {
            time: [
                |_| 38.0,
                |s| 16.5 + 0.002 * s,
                |s| 9.0 + 1.7 * s,
                |s| 36.0 + 0.002 * s,
            ],
            alloc: [|_| 70.0, zero, zero, zero],
            alloc_instance: |_| 220.0,
            footprint: |s| 80.0 + 70.0 * s,
            brk: None,
        },
        MapKind::Array => Curves {
            time: [
                |s| 4.5 + 0.5 * s,
                |s| 4.5 + 0.6 * s,
                |s| 5.0 + 0.9 * s,
                |s| 7.0 + 0.6 * s,
            ],
            alloc: [|_| 18.0, zero, zero, zero],
            alloc_instance: |_| 24.0,
            footprint: |s| 24.0 + 17.6 * s,
            brk: None,
        },
        MapKind::Compact => Curves {
            time: [
                |_| 26.0,
                |s| 13.5 + 0.006 * s,
                |s| 6.0 + 1.0 * s,
                |s| 30.0 + 0.006 * s,
            ],
            alloc: [|_| 54.0, zero, zero, zero],
            alloc_instance: |_| 128.0,
            footprint: |s| 40.0 + 29.0 * s,
            brk: None,
        },
        MapKind::Adaptive => Curves {
            time: [
                |s| if s <= MAP_T { 5.0 + 0.5 * s } else { 24.0 },
                |s| if s <= MAP_T { 5.0 + 0.6 * s } else { 10.5 },
                |s| 6.5 + 1.1 * s,
                |s| if s <= MAP_T { 8.0 + 0.6 * s } else { 28.0 },
            ],
            alloc: [|s| if s <= MAP_T { 19.0 } else { 42.0 }, zero, zero, zero],
            alloc_instance: |s| if s <= MAP_T { 24.0 } else { 408.0 },
            footprint: |s| {
                if s <= MAP_T {
                    28.0 + 17.6 * s
                } else {
                    68.0 + 48.0 * s
                }
            },
            brk: Some(MAP_T),
        },
    }
}

/// The default list performance model (all four [`ListKind`] variants).
///
/// # Examples
///
/// ```
/// use cs_collections::ListKind;
/// use cs_model::default_models;
///
/// let model = default_models::list_model();
/// assert_eq!(model.len(), ListKind::ALL.len());
/// ```
pub fn list_model() -> &'static PerformanceModel<ListKind> {
    static MODEL: OnceLock<PerformanceModel<ListKind>> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut m = PerformanceModel::new();
        for kind in ListKind::ALL {
            m.insert_variant(kind, build_variant(&list_curves(kind)));
        }
        m
    })
}

/// The default set performance model (all eight [`SetKind`] variants).
pub fn set_model() -> &'static PerformanceModel<SetKind> {
    static MODEL: OnceLock<PerformanceModel<SetKind>> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut m = PerformanceModel::new();
        for kind in SetKind::ALL {
            m.insert_variant(kind, build_variant(&set_curves(kind)));
        }
        m
    })
}

/// The default map performance model (all eight [`MapKind`] variants).
pub fn map_model() -> &'static PerformanceModel<MapKind> {
    static MODEL: OnceLock<PerformanceModel<MapKind>> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut m = PerformanceModel::new();
        for kind in MapKind::ALL {
            m.insert_variant(kind, build_variant(&map_curves(kind)));
        }
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_profile::{OpCounters, WorkloadProfile};

    fn lookup_profile(populate: u64, contains: u64, size: usize) -> WorkloadProfile {
        let mut c = OpCounters::new();
        c.add(OpKind::Populate, populate);
        c.add(OpKind::Contains, contains);
        WorkloadProfile::new(c, size)
    }

    #[test]
    fn models_cover_all_kinds() {
        assert_eq!(list_model().len(), 4);
        assert_eq!(set_model().len(), 8);
        assert_eq!(map_model().len(), 8);
    }

    #[test]
    fn lookup_heavy_large_list_prefers_hash_array() {
        let w = lookup_profile(500, 100, 500);
        let best = list_model()
            .best_variant(CostDimension::Time, &[w])
            .unwrap();
        assert_eq!(best, ListKind::HashArray);
    }

    #[test]
    fn small_set_prefers_array_for_footprint() {
        let w = lookup_profile(10, 5, 10);
        let best = set_model()
            .best_variant(CostDimension::Footprint, &[w])
            .unwrap();
        assert_eq!(best, SetKind::Array);
    }

    #[test]
    fn lookup_heavy_set_prefers_koloboke_for_time() {
        let w = lookup_profile(500, 10_000, 500);
        let best = set_model().best_variant(CostDimension::Time, &[w]).unwrap();
        assert_eq!(best, SetKind::Open(LibraryProfile::Koloboke));
    }

    #[test]
    fn fastutil_degrades_past_eclipse_then_koloboke() {
        // The Fig. 5d/e narrative encoded as total workload cost: populate s
        // elements plus 100 lookups, per instance.
        let m = set_model();
        let tc = |k: SetKind, s: usize| {
            m.total_cost(k, CostDimension::Time, &lookup_profile(s as u64, 100, s))
        };
        let (fu, ec, ko, ch) = (
            SetKind::Open(LibraryProfile::FastUtil),
            SetKind::Open(LibraryProfile::Eclipse),
            SetKind::Open(LibraryProfile::Koloboke),
            SetKind::Chained,
        );
        // Small sizes: fastutil is time-eligible under R_alloc (< 1.2× JDK).
        assert!(tc(fu, 100) < 1.2 * tc(ch, 100));
        // Medium sizes: fastutil's time penalty crosses the 1.2× threshold…
        assert!(tc(fu, 700) > 1.2 * tc(ch, 700));
        // …while eclipse is still fine at 500 and crosses later…
        assert!(tc(ec, 500) < 1.2 * tc(ch, 500));
        assert!(tc(ec, 1000) > 1.2 * tc(ch, 1000));
        // …and koloboke never crosses.
        assert!(tc(ko, 1000) < 1.2 * tc(ch, 1000));
    }

    #[test]
    fn per_insert_alloc_ordering_matches_fig5_narrative() {
        let m = set_model();
        let alloc = |k: SetKind| {
            m.variant(k)
                .unwrap()
                .op_cost(CostDimension::Alloc, OpKind::Populate, 300.0)
        };
        assert!(
            alloc(SetKind::Open(LibraryProfile::FastUtil))
                < alloc(SetKind::Open(LibraryProfile::Eclipse))
        );
        assert!(
            alloc(SetKind::Open(LibraryProfile::Eclipse))
                < alloc(SetKind::Open(LibraryProfile::Koloboke))
        );
        assert!(alloc(SetKind::Open(LibraryProfile::Koloboke)) < alloc(SetKind::Compact));
        assert!(alloc(SetKind::Compact) < alloc(SetKind::Chained));
    }

    #[test]
    fn hash_variants_pay_base_allocation_per_instance() {
        let m = map_model();
        let base = |k: MapKind| {
            m.variant(k)
                .unwrap()
                .instance_cost(CostDimension::Alloc, 15.0)
        };
        assert!(base(MapKind::Array) < base(MapKind::Open(LibraryProfile::FastUtil)));
        assert!(
            base(MapKind::Open(LibraryProfile::FastUtil))
                < base(MapKind::Open(LibraryProfile::Koloboke))
        );
    }

    #[test]
    fn footprint_ordering_matches_paper() {
        let m = set_model();
        let fp = |k: SetKind| {
            m.variant(k)
                .unwrap()
                .instance_cost(CostDimension::Footprint, 500.0)
        };
        assert!(fp(SetKind::Array) < fp(SetKind::Open(LibraryProfile::FastUtil)));
        assert!(
            fp(SetKind::Open(LibraryProfile::FastUtil))
                < fp(SetKind::Open(LibraryProfile::Eclipse))
        );
        assert!(
            fp(SetKind::Open(LibraryProfile::Eclipse))
                < fp(SetKind::Open(LibraryProfile::Koloboke))
        );
        assert!(fp(SetKind::Open(LibraryProfile::Koloboke)) < fp(SetKind::Chained));
        assert!(fp(SetKind::Chained) < fp(SetKind::Linked));
    }

    #[test]
    fn hasharray_middle_reproduces_paper_model_limitation() {
        // HashArrayList's modelled `middle` cost must equal ArrayList's —
        // this is the documented source of the Fig. 6 mis-selection.
        let m = list_model();
        let middle = |k: ListKind| {
            m.variant(k)
                .unwrap()
                .op_cost(CostDimension::Time, OpKind::Middle, 400.0)
        };
        assert!((middle(ListKind::HashArray) - middle(ListKind::Array)).abs() < 1.0);
    }

    #[test]
    fn alloc_rate_is_alloc_without_the_instance_term() {
        let m = map_model();
        let v = m.variant(MapKind::Chained).unwrap();
        // Per-op curves agree with the Alloc dimension…
        for op in OpKind::ALL {
            let a = v.op_cost(CostDimension::Alloc, op, 200.0);
            let r = v.op_cost(CostDimension::AllocRate, op, 200.0);
            assert!((a - r).abs() < 1e-9, "{op}: {a} vs {r}");
        }
        // …but the per-instance base allocation is not charged.
        assert_eq!(v.instance_cost(CostDimension::AllocRate, 200.0), 0.0);
        assert!(v.instance_cost(CostDimension::Alloc, 200.0) > 0.0);
    }

    #[test]
    fn linked_list_alloc_rate_dwarfs_array() {
        // The BENCH_alloc switch rides on this ordering: per-node churn
        // (Linked) must price far above amortized-array churn on the
        // alloc-rate dimension.
        let m = list_model();
        let rate = |k: ListKind| {
            m.variant(k)
                .unwrap()
                .op_cost(CostDimension::AllocRate, OpKind::Populate, 100.0)
        };
        assert!(rate(ListKind::Linked) >= 2.0 * rate(ListKind::Array));
    }

    #[test]
    fn adaptive_map_beats_chained_for_small_lookup_workloads() {
        // The lusearch situation: many maps holding < 20 elements.
        let w = lookup_profile(15, 40, 15);
        let m = map_model();
        let tc_adaptive = m.total_cost(MapKind::Adaptive, CostDimension::Alloc, &w);
        let tc_chained = m.total_cost(MapKind::Chained, CostDimension::Alloc, &w);
        assert!(tc_adaptive < tc_chained);
    }

    #[test]
    fn koloboke_beats_adaptive_for_uniform_large_sets() {
        // With uniformly large sizes the plain open hash must beat the
        // adaptive variant (which pays transition + indirection).
        let w = lookup_profile(500, 1000, 500);
        let m = set_model();
        let tc_ko = m.total_cost(
            SetKind::Open(LibraryProfile::Koloboke),
            CostDimension::Time,
            &w,
        );
        let tc_ad = m.total_cost(SetKind::Adaptive, CostDimension::Time, &w);
        assert!(tc_ko < tc_ad);
    }
}
