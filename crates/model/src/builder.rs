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
//! Each (variant, scenario, size) cell follows the paper's steady-state
//! protocol: warm-up iterations followed by measured iterations, averaging
//! the per-operation cost. Time is measured with [`std::time::Instant`];
//! the memory dimensions are *exact* — read from the structures'
//! [`cs_collections::HeapSize`] byte accounting rather than a GC
//! profiler (see DESIGN.md, substitution table).

use std::time::Instant;

use cs_collections::{
    AnyList, AnyMap, AnySet, HeapSize, ListKind, ListOps, MapKind, MapOps, SetKind, SetOps,
};
use cs_profile::OpKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dimension::CostDimension;
use crate::perf::{PerformanceModel, VariantCostModel};
use crate::poly::Polynomial;

/// Configuration of a calibration run.
///
/// # Examples
///
/// ```
/// use cs_model::builder::BuilderConfig;
///
/// let full = BuilderConfig::paper();
/// assert_eq!(full.warmup_iters, 15);
/// assert_eq!(full.measured_iters, 30);
/// let quick = BuilderConfig::quick();
/// assert!(quick.sizes.len() < full.sizes.len());
/// ```
#[derive(Debug, Clone)]
pub struct BuilderConfig {
    /// Collection sizes to sample (Table 3).
    pub sizes: Vec<usize>,
    /// Unmeasured warm-up iterations per cell (paper: 15).
    pub warmup_iters: usize,
    /// Measured iterations per cell (paper: 30).
    pub measured_iters: usize,
    /// Operations per timed batch inside one iteration.
    pub batch: usize,
    /// Polynomial degree of the fitted models (paper: 3).
    pub degree: usize,
    /// RNG seed for the uniform key distribution.
    pub seed: u64,
}

impl BuilderConfig {
    /// The paper's full factorial plan (Table 3) and steady-state protocol.
    pub fn paper() -> Self {
        let mut sizes = vec![10, 50];
        sizes.extend((2..=20).map(|i| i * 50)); // 100, 150, …, 1000
        BuilderConfig {
            sizes,
            warmup_iters: 15,
            measured_iters: 30,
            batch: 64,
            degree: Polynomial::PAPER_DEGREE,
            seed: 0x5eed,
        }
    }

    /// A reduced plan for tests and smoke runs (seconds, not minutes).
    pub fn quick() -> Self {
        BuilderConfig {
            sizes: vec![10, 100, 250, 500, 1000],
            warmup_iters: 1,
            measured_iters: 3,
            batch: 16,
            degree: Polynomial::PAPER_DEGREE,
            seed: 0x5eed,
        }
    }
}

impl Default for BuilderConfig {
    fn default() -> Self {
        BuilderConfig::paper()
    }
}

/// One measured cell of the factorial plan.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Average nanoseconds per operation.
    time_ns: f64,
    /// Average bytes allocated per operation (populate only; zero elsewhere).
    alloc_bytes: f64,
    /// Heap footprint of the populated structure (bytes).
    footprint: f64,
}

/// Times `reps` repetitions of `f`, returning average ns per repetition.
fn time_per_rep(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / reps.max(1) as f64
}

/// Generic scenario driver: everything the bench loop needs from one
/// abstraction, so lists/sets/maps share the measurement protocol.
trait Subject {
    fn fresh(&self) -> Self;
    fn populate_one(&mut self, key: i64);
    fn lookup(&self, key: i64) -> bool;
    fn iterate(&self) -> u64;
    fn middle(&mut self);
    fn footprint(&self) -> usize;
    fn allocated(&self) -> u64;
    fn len(&self) -> usize;
}

struct ListSubject {
    kind: ListKind,
    inner: AnyList<i64>,
}

impl Subject for ListSubject {
    fn fresh(&self) -> Self {
        ListSubject {
            kind: self.kind,
            inner: AnyList::new(self.kind),
        }
    }
    fn populate_one(&mut self, key: i64) {
        self.inner.push(key);
    }
    fn lookup(&self, key: i64) -> bool {
        self.inner.contains(&key)
    }
    fn iterate(&self) -> u64 {
        let mut acc = 0_u64;
        self.inner
            .for_each_value(&mut |v| acc = acc.wrapping_add(*v as u64));
        acc
    }
    fn middle(&mut self) {
        let mid = ListOps::len(&self.inner) / 2;
        self.inner.list_insert(mid, -1);
        self.inner.list_remove(mid);
    }
    fn footprint(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated(&self) -> u64 {
        self.inner.allocated_bytes()
    }
    fn len(&self) -> usize {
        ListOps::len(&self.inner)
    }
}

struct SetSubject {
    kind: SetKind,
    inner: AnySet<i64>,
}

impl Subject for SetSubject {
    fn fresh(&self) -> Self {
        SetSubject {
            kind: self.kind,
            inner: AnySet::new(self.kind),
        }
    }
    fn populate_one(&mut self, key: i64) {
        self.inner.insert(key);
    }
    fn lookup(&self, key: i64) -> bool {
        self.inner.contains(&key)
    }
    fn iterate(&self) -> u64 {
        let mut acc = 0_u64;
        self.inner
            .for_each_value(&mut |v| acc = acc.wrapping_add(*v as u64));
        acc
    }
    fn middle(&mut self) {
        // Sets have no positional middle; the critical cost is a
        // remove+reinsert pair, linear on array variants.
        let len = SetOps::len(&self.inner) as i64;
        let key = len / 2;
        self.inner.set_remove(&key);
        self.inner.insert(key);
    }
    fn footprint(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated(&self) -> u64 {
        self.inner.allocated_bytes()
    }
    fn len(&self) -> usize {
        SetOps::len(&self.inner)
    }
}

struct MapSubject {
    kind: MapKind,
    inner: AnyMap<i64, i64>,
}

impl Subject for MapSubject {
    fn fresh(&self) -> Self {
        MapSubject {
            kind: self.kind,
            inner: AnyMap::new(self.kind),
        }
    }
    fn populate_one(&mut self, key: i64) {
        self.inner.map_insert(key, key);
    }
    fn lookup(&self, key: i64) -> bool {
        self.inner.map_get(&key).is_some()
    }
    fn iterate(&self) -> u64 {
        let mut acc = 0_u64;
        self.inner
            .for_each_entry(&mut |_, v| acc = acc.wrapping_add(*v as u64));
        acc
    }
    fn middle(&mut self) {
        let len = MapOps::len(&self.inner) as i64;
        let key = len / 2;
        self.inner.map_remove(&key);
        self.inner.map_insert(key, key);
    }
    fn footprint(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated(&self) -> u64 {
        self.inner.allocated_bytes()
    }
    fn len(&self) -> usize {
        MapOps::len(&self.inner)
    }
}

/// Measures one (variant, op, size) cell.
fn measure_cell<S: Subject>(
    proto: &S,
    op: OpKind,
    size: usize,
    cfg: &BuilderConfig,
    rng: &mut StdRng,
) -> Cell {
    let mut times = Vec::with_capacity(cfg.measured_iters);
    let mut alloc = 0.0;
    let mut footprint = 0.0;

    for iter in 0..(cfg.warmup_iters + cfg.measured_iters) {
        let measured = iter >= cfg.warmup_iters;
        let cell = match op {
            OpKind::Populate => {
                let mut subj = proto.fresh();
                let t = time_per_rep(size, || {
                    // Uniform keys, dense enough to exercise duplicates in
                    // sets/maps only rarely.
                    let key = subj.len() as i64;
                    subj.populate_one(std::hint::black_box(key));
                });
                Cell {
                    time_ns: t,
                    alloc_bytes: subj.allocated() as f64 / size.max(1) as f64,
                    footprint: subj.footprint() as f64,
                }
            }
            OpKind::Contains => {
                let mut subj = proto.fresh();
                for k in 0..size as i64 {
                    subj.populate_one(k);
                }
                let keys: Vec<i64> = (0..cfg.batch)
                    .map(|_| rng.gen_range(0..size.max(1) as i64))
                    .collect();
                let mut i = 0;
                let t = time_per_rep(cfg.batch, || {
                    let hit = subj.lookup(std::hint::black_box(keys[i]));
                    std::hint::black_box(hit);
                    i += 1;
                });
                Cell {
                    time_ns: t,
                    alloc_bytes: 0.0,
                    footprint: subj.footprint() as f64,
                }
            }
            OpKind::Iterate => {
                let mut subj = proto.fresh();
                for k in 0..size as i64 {
                    subj.populate_one(k);
                }
                let t = time_per_rep(cfg.batch.min(16), || {
                    std::hint::black_box(subj.iterate());
                });
                Cell {
                    time_ns: t,
                    alloc_bytes: 0.0,
                    footprint: subj.footprint() as f64,
                }
            }
            OpKind::Middle => {
                let mut subj = proto.fresh();
                for k in 0..size as i64 {
                    subj.populate_one(k);
                }
                let t = time_per_rep(cfg.batch, || {
                    subj.middle();
                }) / 2.0; // insert+remove pair → per op
                Cell {
                    time_ns: t,
                    alloc_bytes: 0.0,
                    footprint: subj.footprint() as f64,
                }
            }
        };
        if measured {
            times.push(cell.time_ns);
            alloc = cell.alloc_bytes;
            footprint = cell.footprint;
        }
    }
    // Median is robuster than mean against scheduler noise.
    times.sort_by(f64::total_cmp);
    let time_ns = times[times.len() / 2];
    Cell {
        time_ns,
        alloc_bytes: alloc,
        footprint,
    }
}

/// Calibrates one variant from measured cells.
fn build_variant_model<S: Subject>(proto: &S, cfg: &BuilderConfig) -> VariantCostModel {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let xs: Vec<f64> = cfg.sizes.iter().map(|&s| s as f64).collect();
    let mut model = VariantCostModel::new();
    let mut footprints = vec![0.0; cfg.sizes.len()];

    for op in OpKind::ALL {
        let mut times = Vec::with_capacity(cfg.sizes.len());
        let mut allocs = Vec::with_capacity(cfg.sizes.len());
        for (i, &size) in cfg.sizes.iter().enumerate() {
            let cell = measure_cell(proto, op, size, cfg, &mut rng);
            times.push(cell.time_ns);
            allocs.push(cell.alloc_bytes);
            if op == OpKind::Populate {
                footprints[i] = cell.footprint;
            }
        }
        let tpoly = Polynomial::fit(&xs, &times, cfg.degree).unwrap_or_else(|_| {
            Polynomial::constant(times.iter().sum::<f64>() / times.len() as f64)
        });
        let apoly =
            Polynomial::fit(&xs, &allocs, cfg.degree).unwrap_or_else(|_| Polynomial::zero());
        let epoints: Vec<f64> = times
            .iter()
            .zip(allocs.iter())
            .map(|(&t, &a)| t + 0.05 * a)
            .collect();
        let epoly =
            Polynomial::fit(&xs, &epoints, cfg.degree).unwrap_or_else(|_| Polynomial::zero());
        model.set_op_cost(CostDimension::Time, op, tpoly);
        model.set_op_cost(CostDimension::Alloc, op, apoly);
        model.set_op_cost(CostDimension::Energy, op, epoly);
    }
    let fpoly =
        Polynomial::fit(&xs, &footprints, cfg.degree).unwrap_or_else(|_| Polynomial::zero());
    model.set_instance_cost(CostDimension::Footprint, fpoly);
    model
}

/// Calibrates a list model on this machine.
///
/// # Examples
///
/// ```
/// use cs_model::builder::{build_list_model, BuilderConfig};
///
/// let model = build_list_model(&BuilderConfig::quick());
/// assert_eq!(model.len(), 4);
/// ```
pub fn build_list_model(cfg: &BuilderConfig) -> PerformanceModel<ListKind> {
    let mut model = PerformanceModel::new();
    for kind in ListKind::ALL {
        let proto = ListSubject {
            kind,
            inner: AnyList::new(kind),
        };
        model.insert_variant(kind, build_variant_model(&proto, cfg));
    }
    model
}

/// Calibrates a set model on this machine.
pub fn build_set_model(cfg: &BuilderConfig) -> PerformanceModel<SetKind> {
    let mut model = PerformanceModel::new();
    for kind in SetKind::ALL {
        let proto = SetSubject {
            kind,
            inner: AnySet::new(kind),
        };
        model.insert_variant(kind, build_variant_model(&proto, cfg));
    }
    model
}

/// Calibrates a map model on this machine.
pub fn build_map_model(cfg: &BuilderConfig) -> PerformanceModel<MapKind> {
    let mut model = PerformanceModel::new();
    for kind in MapKind::ALL {
        let proto = MapSubject {
            kind,
            inner: AnyMap::new(kind),
        };
        model.insert_variant(kind, build_variant_model(&proto, cfg));
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BuilderConfig {
        BuilderConfig {
            sizes: vec![10, 50, 200, 600, 1000],
            warmup_iters: 0,
            measured_iters: 1,
            batch: 8,
            degree: 3,
            seed: 7,
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
