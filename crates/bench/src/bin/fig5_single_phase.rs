//! Regenerates paper Fig. 5 (single-phase micro-benchmarks).
//!
//! ```text
//! cargo run --release -p cs-bench --bin fig5_single_phase [instances_per_iter]
//! ```
//!
//! Scenario (paper §5.1): each iteration creates and populates
//! `instances_per_iter` collection instances of a given size, then runs 100
//! random lookups on each. For every collection size 100..1000:
//!
//! * Fig. 5a–c — execution time of CollectionSwitch (rule `R_time`) vs the
//!   JDK defaults (ArrayList / HashSet / HashMap);
//! * Fig. 5d–e — bytes allocated by CollectionSwitch (rule `R_alloc`) vs
//!   HashSet / HashMap.
//!
//! The `switched_to` column is the paper's transition marker: the variant
//! the allocation context converged to at that size.

use std::rc::Rc;
use std::time::Instant;

use cs_bench::scale_arg;
use cs_collections::{AnyList, AnyMap, AnySet, ListKind, MapKind, SetKind};
use cs_core::{SelectionRule, Switch};
use cs_workloads::drive::{DriveList, DriveMap, DriveSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference-typed list element emulating the JVM's boxed `Integer` (see
/// `fig6_multi_phase`); sets and maps use native `i64` keys, where the
/// chained map's per-node allocations already reproduce the JDK cost shape.
type JInt = Rc<i64>;

const WARMUP_ITERS: usize = 4; // adaptation happens here (paper: 15)
const MEASURED_ITERS: usize = 6; // paper: 30
const LOOKUPS: usize = 100;

fn main() {
    let instances = scale_arg(400);
    println!("# Fig. 5: single-phase scenario, {instances} instances/iter, {LOOKUPS} lookups each");

    run_list_section(instances);
    run_set_section::<TimeMetric>(instances, "5b", "HashSet", SelectionRule::r_time());
    run_map_section::<TimeMetric>(instances, "5c", "HashMap", SelectionRule::r_time());
    run_set_section::<AllocMetric>(instances, "5d", "HashSet", SelectionRule::r_alloc());
    run_map_section::<AllocMetric>(instances, "5e", "HashMap", SelectionRule::r_alloc());
}

/// What a series measures: wall time (Fig. 5a–c) or allocated bytes (5d–e).
trait Metric {
    const UNIT: &'static str;
    fn begin() -> Self;
    fn note_allocated(&mut self, allocated_bytes: u64);
    fn finish(self) -> f64;
}

struct TimeMetric(Instant);

impl Metric for TimeMetric {
    const UNIT: &'static str = "ms";
    fn begin() -> Self {
        TimeMetric(Instant::now())
    }
    fn note_allocated(&mut self, _allocated_bytes: u64) {}
    fn finish(self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}

struct AllocMetric(u64);

impl Metric for AllocMetric {
    const UNIT: &'static str = "MB";
    fn begin() -> Self {
        AllocMetric(0)
    }
    fn note_allocated(&mut self, allocated_bytes: u64) {
        self.0 += allocated_bytes;
    }
    fn finish(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }
}

/// One measured scenario iteration over `make`-produced lists.
fn list_iteration<M: Metric, L: DriveList<JInt>>(
    instances: usize,
    size: usize,
    rng: &mut StdRng,
    mut make: impl FnMut() -> L,
) -> f64 {
    let mut metric = M::begin();
    let mut hits = 0usize;
    for _ in 0..instances {
        let mut c = make();
        for v in 0..size as i64 {
            c.push(Rc::new(v));
        }
        for _ in 0..LOOKUPS {
            let key = Rc::new(rng.gen_range(0..(size as i64 * 2)));
            hits += usize::from(c.contains(&key));
        }
        metric.note_allocated(c.allocated_bytes());
    }
    std::hint::black_box(hits);
    metric.finish()
}

fn set_iteration<M: Metric, S: DriveSet<i64>>(
    instances: usize,
    size: usize,
    rng: &mut StdRng,
    mut make: impl FnMut() -> S,
) -> f64 {
    let mut metric = M::begin();
    let mut hits = 0usize;
    for _ in 0..instances {
        let mut c = make();
        for v in 0..size as i64 {
            c.insert(v);
        }
        for _ in 0..LOOKUPS {
            let key = rng.gen_range(0..(size as i64 * 2));
            hits += usize::from(c.contains(&key));
        }
        metric.note_allocated(c.allocated_bytes());
    }
    std::hint::black_box(hits);
    metric.finish()
}

fn map_iteration<M: Metric, P: DriveMap<i64, i64>>(
    instances: usize,
    size: usize,
    rng: &mut StdRng,
    mut make: impl FnMut() -> P,
) -> f64 {
    let mut metric = M::begin();
    let mut hits = 0usize;
    for _ in 0..instances {
        let mut c = make();
        for v in 0..size as i64 {
            c.insert(v, v);
        }
        for _ in 0..LOOKUPS {
            let key = rng.gen_range(0..(size as i64 * 2));
            hits += usize::from(c.get(&key));
        }
        metric.note_allocated(c.allocated_bytes());
    }
    std::hint::black_box(hits);
    metric.finish()
}

/// Median over the measured iterations, after adaptation warm-up.
fn steady_state(mut iteration: impl FnMut(bool) -> f64) -> f64 {
    for _ in 0..WARMUP_ITERS {
        iteration(true);
    }
    let mut samples: Vec<f64> = (0..MEASURED_ITERS).map(|_| iteration(false)).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn run_list_section(instances: usize) {
    println!();
    println!("# Fig. 5a: time vs JDK ArrayList (rule R_time)");
    println!("size\tarraylist_ms\tcollectionswitch_ms\tswitched_to");
    for size in (100..=1000).step_by(100) {
        let mut rng = StdRng::seed_from_u64(5);
        let baseline = steady_state(|_| {
            list_iteration::<TimeMetric, _>(instances, size, &mut rng, || {
                AnyList::<JInt>::new(ListKind::Array)
            })
        });
        let engine = Switch::builder().rule(SelectionRule::r_time()).build();
        let ctx = engine.list_context::<JInt>(ListKind::Array);
        let mut rng = StdRng::seed_from_u64(5);
        let cs = steady_state(|_| {
            let t =
                list_iteration::<TimeMetric, _>(instances, size, &mut rng, || ctx.create_list());
            engine.analyze_now();
            t
        });
        println!("{size}\t{baseline:.2}\t{cs:.2}\t{}", ctx.current_kind());
    }
}

fn run_set_section<M: Metric>(
    instances: usize,
    figure: &str,
    baseline_name: &str,
    rule: SelectionRule,
) {
    println!();
    println!(
        "# Fig. {figure}: {} vs JDK {baseline_name} (rule {})",
        M::UNIT,
        rule.name()
    );
    println!(
        "size\t{baseline_name}_{u}\tcollectionswitch_{u}\tswitched_to",
        u = M::UNIT
    );
    for size in (100..=1000).step_by(100) {
        let mut rng = StdRng::seed_from_u64(5);
        let baseline = steady_state(|_| {
            set_iteration::<M, _>(instances, size, &mut rng, || {
                AnySet::<i64>::new(SetKind::Chained)
            })
        });
        let engine = Switch::builder().rule(rule.clone()).build();
        let ctx = engine.set_context::<i64>(SetKind::Chained);
        let mut rng = StdRng::seed_from_u64(5);
        let cs = steady_state(|_| {
            let t = set_iteration::<M, _>(instances, size, &mut rng, || ctx.create_set());
            engine.analyze_now();
            t
        });
        println!("{size}\t{baseline:.2}\t{cs:.2}\t{}", ctx.current_kind());
    }
}

fn run_map_section<M: Metric>(
    instances: usize,
    figure: &str,
    baseline_name: &str,
    rule: SelectionRule,
) {
    println!();
    println!(
        "# Fig. {figure}: {} vs JDK {baseline_name} (rule {})",
        M::UNIT,
        rule.name()
    );
    println!(
        "size\t{baseline_name}_{u}\tcollectionswitch_{u}\tswitched_to",
        u = M::UNIT
    );
    for size in (100..=1000).step_by(100) {
        let mut rng = StdRng::seed_from_u64(5);
        let baseline = steady_state(|_| {
            map_iteration::<M, _>(instances, size, &mut rng, || {
                AnyMap::<i64, i64>::new(MapKind::Chained)
            })
        });
        let engine = Switch::builder().rule(rule.clone()).build();
        let ctx = engine.map_context::<i64, i64>(MapKind::Chained);
        let mut rng = StdRng::seed_from_u64(5);
        let cs = steady_state(|_| {
            let t = map_iteration::<M, _>(instances, size, &mut rng, || ctx.create_map());
            engine.analyze_now();
            t
        });
        println!("{size}\t{baseline:.2}\t{cs:.2}\t{}", ctx.current_kind());
    }
}
