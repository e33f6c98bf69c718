//! The model builder: calibrates performance models by micro-benchmarking
//! every variant over the paper's factorial plan (§4.1.2, Table 3).
//!
//! | Factor | Levels |
//! |---|---|
//! | Collection size | 10, 50, 100, 150, …, 1000 |
//! | Scenario | populate, contains, iterate, middle |
//! | Data type | `i64` (the paper uses `Integer`) |
//! | Data distribution | uniform |
//!
//! Each (variant, scenario, size) cell is one routine that
//! [`time_per_iter`] times with the paper's steady-state protocol: a
//! warm-up, then measured samples, of which the median is the cell's cost.
//! The routines are public per abstraction ([`time_list_cell`],
//! [`time_set_cell`], [`time_map_cell`]), so the cost ladder's per-variant
//! rows time exactly what the calibration fits. The memory dimensions are
//! *exact* — read from the structures' [`cs_collections::HeapSize`] byte
//! accounting rather than a GC profiler (see DESIGN.md, substitution
//! table).

use std::time::Duration;

use cs_collections::{
    AnyList, AnyMap, AnySet, HeapSize, ListKind, ListOps, MapKind, MapOps, SetKind, SetOps,
};
use cs_profile::OpKind;

use crate::dimension::CostDimension;
use crate::perf::{PerformanceModel, VariantCostModel};
use crate::poly::Polynomial;
use crate::timing::{time_per_iter, Timing, QUICK_SAMPLE, SAMPLE};

/// Configuration of a calibration run.
///
/// # Examples
///
/// ```
/// use cs_model::builder::BuilderConfig;
/// use cs_model::timing::SAMPLE;
///
/// let full = BuilderConfig::paper();
/// assert_eq!(full.sizes.len(), 21);
/// assert_eq!(full.sample, SAMPLE);
/// let quick = BuilderConfig::quick();
/// assert!(quick.sizes.len() < full.sizes.len());
/// ```
#[derive(Debug, Clone)]
pub struct BuilderConfig {
    /// Collection sizes to sample (Table 3).
    pub sizes: Vec<usize>,
    /// Length of one [`time_per_iter`] sample of each cell.
    pub sample: Duration,
}

impl BuilderConfig {
    /// The paper's full factorial plan (Table 3) at the full [`SAMPLE`].
    pub fn paper() -> Self {
        let mut sizes = vec![10, 50];
        sizes.extend((2..=20).map(|i| i * 50)); // 100, 150, …, 1000
        BuilderConfig {
            sizes,
            sample: SAMPLE,
        }
    }

    /// Five of the plan's sizes at the [`QUICK_SAMPLE`], for smoke runs
    /// (under a minute).
    pub fn quick() -> Self {
        BuilderConfig {
            sizes: vec![10, 100, 250, 500, 1000],
            sample: QUICK_SAMPLE,
        }
    }
}

impl Default for BuilderConfig {
    fn default() -> Self {
        BuilderConfig::paper()
    }
}

/// Step between the keys the Contains cell looks up. 23 is prime and
/// divides no plan size, so the walk visits every key of a `0..size`
/// collection before it repeats one.
const STRIDE: i64 = 23;

/// What a cell needs from one abstraction, so lists, sets and maps share
/// the cell routines.
trait Subject: HeapSize {
    type Kind: Copy;
    fn create(kind: Self::Kind) -> Self;
    fn add(&mut self, key: i64);
    fn lookup(&self, key: i64) -> bool;
    fn traverse(&self) -> u64;
    /// One middle insert+remove pair that leaves the contents unchanged.
    fn middle(&mut self);
    fn size(&self) -> usize;
}

impl Subject for AnyList<i64> {
    type Kind = ListKind;
    fn create(kind: ListKind) -> Self {
        AnyList::new(kind)
    }
    fn add(&mut self, key: i64) {
        self.push(key);
    }
    fn lookup(&self, key: i64) -> bool {
        self.contains(&key)
    }
    fn traverse(&self) -> u64 {
        let mut acc = 0_u64;
        self.for_each_value(&mut |v| acc = acc.wrapping_add(*v as u64));
        acc
    }
    fn middle(&mut self) {
        let mid = ListOps::len(self) / 2;
        self.list_insert(mid, -1);
        self.list_remove(mid);
    }
    fn size(&self) -> usize {
        ListOps::len(self)
    }
}

impl Subject for AnySet<i64> {
    type Kind = SetKind;
    fn create(kind: SetKind) -> Self {
        AnySet::new(kind)
    }
    fn add(&mut self, key: i64) {
        self.insert(key);
    }
    fn lookup(&self, key: i64) -> bool {
        self.contains(&key)
    }
    fn traverse(&self) -> u64 {
        let mut acc = 0_u64;
        self.for_each_value(&mut |v| acc = acc.wrapping_add(*v as u64));
        acc
    }
    fn middle(&mut self) {
        // Sets have no positional middle; the critical cost is a
        // remove+reinsert pair, linear on array variants.
        let key = SetOps::len(self) as i64 / 2;
        self.set_remove(&key);
        self.insert(key);
    }
    fn size(&self) -> usize {
        SetOps::len(self)
    }
}

impl Subject for AnyMap<i64, i64> {
    type Kind = MapKind;
    fn create(kind: MapKind) -> Self {
        AnyMap::new(kind)
    }
    fn add(&mut self, key: i64) {
        self.map_insert(key, key);
    }
    fn lookup(&self, key: i64) -> bool {
        self.map_get(&key).is_some()
    }
    fn traverse(&self) -> u64 {
        let mut acc = 0_u64;
        self.for_each_entry(&mut |_, v| acc = acc.wrapping_add(*v as u64));
        acc
    }
    fn middle(&mut self) {
        let key = MapOps::len(self) as i64 / 2;
        self.map_remove(&key);
        self.map_insert(key, key);
    }
    fn size(&self) -> usize {
        MapOps::len(self)
    }
}

/// A fresh `kind` collection holding `0..size`.
fn filled<S: Subject>(kind: S::Kind, size: usize) -> S {
    let mut subject = S::create(kind);
    (0..size as i64).for_each(|key| subject.add(key));
    subject
}

/// Times one call of the (`kind`, `op`, `size`) cell's routine. Per call,
/// Populate fills a fresh collection with `0..size` and drops it; Contains
/// looks up one key of a prebuilt `0..size` collection, walking the keys
/// with [`STRIDE`]; Iterate is one traversal; Middle one insert+remove
/// pair.
fn time_cell<S: Subject>(kind: S::Kind, op: OpKind, size: usize, sample: Duration) -> Timing {
    match op {
        OpKind::Populate => time_per_iter(sample, || filled::<S>(kind, size).size()),
        OpKind::Contains => {
            let subject = filled::<S>(kind, size);
            let mut key = 0;
            time_per_iter(sample, || {
                key = (key + STRIDE) % size.max(1) as i64;
                subject.lookup(key)
            })
        }
        OpKind::Iterate => {
            let subject = filled::<S>(kind, size);
            time_per_iter(sample, || subject.traverse())
        }
        OpKind::Middle => {
            let mut subject = filled::<S>(kind, size);
            time_per_iter(sample, || subject.middle())
        }
    }
}

/// Times one call of a list cell's routine: `op` on a `size`-element
/// `kind` list, each sample `sample` long. The calibration's per-op cost
/// divides a Populate call by `size` and a Middle call by 2.
pub fn time_list_cell(kind: ListKind, op: OpKind, size: usize, sample: Duration) -> Timing {
    time_cell::<AnyList<i64>>(kind, op, size, sample)
}

/// Times one call of a set cell's routine (see [`time_list_cell`]).
pub fn time_set_cell(kind: SetKind, op: OpKind, size: usize, sample: Duration) -> Timing {
    time_cell::<AnySet<i64>>(kind, op, size, sample)
}

/// Times one call of a map cell's routine (see [`time_list_cell`]).
pub fn time_map_cell(kind: MapKind, op: OpKind, size: usize, sample: Duration) -> Timing {
    time_cell::<AnyMap<i64, i64>>(kind, op, size, sample)
}

/// Calibrates one variant: a time curve per op from its cells, and the
/// populate allocation and the footprint from one filled collection per
/// size, read outside the timing.
fn build_variant_model<S: Subject>(kind: S::Kind, cfg: &BuilderConfig) -> VariantCostModel {
    let xs: Vec<f64> = cfg.sizes.iter().map(|&s| s as f64).collect();
    let fit = |ys: &[f64]| Polynomial::fit(&xs, ys, Polynomial::PAPER_DEGREE);
    let mut model = VariantCostModel::new();
    // (bytes allocated per populated element, footprint) per size.
    let memory: Vec<(f64, f64)> = cfg
        .sizes
        .iter()
        .map(|&size| {
            let subject = filled::<S>(kind, size);
            (
                subject.allocated_bytes() as f64 / size.max(1) as f64,
                subject.heap_bytes() as f64,
            )
        })
        .collect();

    for op in OpKind::ALL {
        let (times, allocs): (Vec<f64>, Vec<f64>) = cfg
            .sizes
            .iter()
            .zip(&memory)
            .map(|(&size, &(alloc, _))| {
                let per_call = time_cell::<S>(kind, op, size, cfg.sample).median_ns;
                match op {
                    OpKind::Populate => (per_call / size.max(1) as f64, alloc),
                    OpKind::Middle => (per_call / 2.0, 0.0),
                    OpKind::Contains | OpKind::Iterate => (per_call, 0.0),
                }
            })
            .unzip();
        let tpoly = fit(&times).unwrap_or_else(|_| {
            Polynomial::constant(times.iter().sum::<f64>() / times.len() as f64)
        });
        model.set_op_cost(CostDimension::Time, op, tpoly);
        model.set_op_cost(
            CostDimension::Alloc,
            op,
            fit(&allocs).unwrap_or_else(|_| Polynomial::zero()),
        );
    }
    let footprints: Vec<f64> = memory.iter().map(|&(_, footprint)| footprint).collect();
    model.set_instance_cost(
        CostDimension::Footprint,
        fit(&footprints).unwrap_or_else(|_| Polynomial::zero()),
    );
    model
}

/// Calibrates a list model on this machine.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use cs_model::builder::{build_list_model, BuilderConfig};
///
/// let cfg = BuilderConfig {
///     sample: Duration::from_micros(50),
///     ..BuilderConfig::quick()
/// };
/// let model = build_list_model(&cfg);
/// assert_eq!(model.len(), 4);
/// ```
pub fn build_list_model(cfg: &BuilderConfig) -> PerformanceModel<ListKind> {
    let mut model = PerformanceModel::new();
    for kind in ListKind::ALL {
        model.insert_variant(kind, build_variant_model::<AnyList<i64>>(kind, cfg));
    }
    model
}

/// Calibrates a set model on this machine.
pub fn build_set_model(cfg: &BuilderConfig) -> PerformanceModel<SetKind> {
    let mut model = PerformanceModel::new();
    for kind in SetKind::ALL {
        model.insert_variant(kind, build_variant_model::<AnySet<i64>>(kind, cfg));
    }
    model
}

/// Calibrates a map model on this machine.
pub fn build_map_model(cfg: &BuilderConfig) -> PerformanceModel<MapKind> {
    let mut model = PerformanceModel::new();
    for kind in MapKind::ALL {
        model.insert_variant(kind, build_variant_model::<AnyMap<i64, i64>>(kind, cfg));
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BuilderConfig {
        BuilderConfig {
            sizes: vec![10, 50, 200, 600, 1000],
            sample: Duration::from_micros(50),
        }
    }

    #[test]
    fn calibrated_list_model_covers_all_kinds_and_ops() {
        let m = build_list_model(&tiny());
        assert_eq!(m.len(), 4);
        for kind in ListKind::ALL {
            let v = m.variant(kind).unwrap();
            for op in OpKind::ALL {
                let c = v.op_cost(CostDimension::Time, op, 100.0);
                assert!(c.is_finite(), "{kind}/{op} time model not finite");
            }
            assert!(v.instance_cost(CostDimension::Footprint, 500.0) > 0.0);
        }
    }

    #[test]
    fn measured_array_contains_grows_with_size() {
        let m = build_list_model(&tiny());
        let v = m.variant(ListKind::Array).unwrap();
        let small = v.op_cost(CostDimension::Time, OpKind::Contains, 50.0);
        let large = v.op_cost(CostDimension::Time, OpKind::Contains, 1000.0);
        assert!(
            large > small,
            "linear scan must grow with size: {small} vs {large}"
        );
    }

    #[test]
    fn measured_footprint_orders_array_under_chained_sets() {
        let m = build_set_model(&tiny());
        let fp = |k: SetKind| {
            m.variant(k)
                .unwrap()
                .instance_cost(CostDimension::Footprint, 800.0)
        };
        assert!(fp(SetKind::Array) < fp(SetKind::Chained));
    }

    #[test]
    fn measured_alloc_is_zero_for_lookups() {
        let m = build_map_model(&tiny());
        let v = m.variant(MapKind::Chained).unwrap();
        assert_eq!(
            v.op_cost(CostDimension::Alloc, OpKind::Contains, 500.0),
            0.0
        );
    }
}
