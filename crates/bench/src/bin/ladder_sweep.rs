//! The cost ladder: what one iteration of each critical collection op
//! costs, on every variant and behind each layer the framework adds.
//!
//! ```text
//! cargo run --release -p cs-bench --bin ladder_sweep -- [--quick] [--out PATH]
//! ```
//!
//! Writes `BENCH_ladder.json` (schema in EXPERIMENTS.md): one row per id,
//! each timed by [`time_per_iter`] (`cs_model::timing`, the loop the model
//! builder calibrates with) and recording the median and IQR of
//! nanoseconds per iteration, the collection ops one iteration runs and
//! the sample count. The rows are
//!
//! * `list_contains/<kind>/<size>`, `set_populate/…` and `map_get/…`: the
//!   model builder's own List Contains, Set Populate and Map Contains
//!   cells on the raw `Any*` variants at sizes 10, 100 and 1000, so they
//!   are raw points of the Table 3 calibration (a lookup walks the keys
//!   with stride 23; a populate iteration fills and drops a fresh set);
//! * `dispatch/…`: 256 pushes and 256 lookups through the closed-world
//!   enum, a boxed `dyn ListOps` and a direct `ArrayList` (DESIGN.md §4.1);
//! * `monitoring/…`: 128 pushes and 128 lookups on a raw `AnyList`, a
//!   monitored switch handle on the first window's clock schedule and in
//!   the steady state, and an unmonitored one (DESIGN.md §4.2);
//! * `runtime/…`: one lookup over 1,000 keys in a raw `ShardedHashMap` and
//!   in a cs-runtime `ConcurrentMap` (DESIGN.md §7), on one thread and, in
//!   the `_2t` rows, while a second thread runs the same lookups on the
//!   same map. On a machine with one hardware thread the `_2t` rows time
//!   preemption, not contention; the stamp's `hw_threads` says which.
//!
//! The only gate is completeness: every row carries a finite, positive
//! time. No row's time is judged against another's. The binary installs
//! no global allocator, so the handles' ops run as they do in a program
//! that does not count its heap.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use cs_bench::{run_sweep, Sweep};
use cs_collections::{AnyList, ArrayList, ListKind, ListOps, MapKind, SetKind, ShardedHashMap};
use cs_core::{SelectionRule, Switch, SwitchList};
use cs_model::builder::{time_list_cell, time_map_cell, time_set_cell};
use cs_model::timing::{time_per_iter, Timing, QUICK_SAMPLE, SAMPLE};
use cs_profile::{OpKind, WindowConfig};
use cs_runtime::Runtime;
use cs_telemetry::Json;

/// Collection sizes of the per-variant rows.
const SIZES: [usize; 3] = [10, 100, 1000];

/// Keys of the runtime rows' maps.
const RUNTIME_KEYS: u64 = 1000;

/// One ladder row: its id, the collection ops one iteration runs, and
/// the set-up that builds its input and then times one iteration at the
/// given sample length.
type Row = (String, usize, Box<dyn FnOnce(Duration) -> Timing>);

fn row(id: impl Into<String>, ops: usize, time: impl FnOnce(Duration) -> Timing + 'static) -> Row {
    (id.into(), ops, Box::new(time))
}

fn main() -> ExitCode {
    run_sweep("ladder_sweep", std::env::args().skip(1), sweep)
}

fn sweep(sweep: &mut Sweep) -> Json {
    println!("id\tmedian_ns\tiqr_ns\tops_per_iter");
    let sample = if sweep.quick() { QUICK_SAMPLE } else { SAMPLE };
    let mut rows = Vec::new();
    for (id, ops_per_iter, time) in ladder() {
        let t = time(sample);
        println!("{id}\t{:.1}\t{:.1}\t{ops_per_iter}", t.median_ns, t.iqr_ns);
        sweep.check(t.median_ns.is_finite() && t.median_ns > 0.0, || {
            format!(
                "{id}: {} ns per iteration is not a finite positive time",
                t.median_ns
            )
        });
        rows.push(
            Json::object()
                .field("id", id)
                .field("ops_per_iter", ops_per_iter)
                .field("samples", t.samples)
                .field("median_ns", t.median_ns)
                .field("iqr_ns", t.iqr_ns),
        );
    }
    Json::object().field("rows", Json::Array(rows))
}

/// Every row, in the order they run.
fn ladder() -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in ListKind::ALL {
        for size in SIZES {
            rows.push(row(
                format!("list_contains/{kind}/{size}"),
                1,
                move |sample| time_list_cell(kind, OpKind::Contains, size, sample),
            ));
        }
    }
    for kind in SetKind::ALL {
        for size in SIZES {
            rows.push(row(
                format!("set_populate/{kind}/{size}"),
                size,
                move |sample| time_set_cell(kind, OpKind::Populate, size, sample),
            ));
        }
    }
    for kind in MapKind::ALL {
        for size in SIZES {
            rows.push(row(format!("map_get/{kind}/{size}"), 1, move |sample| {
                time_map_cell(kind, OpKind::Contains, size, sample)
            }));
        }
    }

    rows.push(row("dispatch/enum_push_contains", 512, |sample| {
        time_per_iter(sample, || {
            let mut list = AnyList::new(ListKind::Array);
            push_contains(&mut list, 256, ListOps::push, |l, v| {
                ListOps::contains(l, v)
            })
        })
    }));
    rows.push(row("dispatch/boxed_dyn_push_contains", 512, |sample| {
        time_per_iter(sample, || {
            let mut list: Box<dyn ListOps<i64>> = Box::new(ArrayList::new());
            push_contains(&mut *list, 256, |l, v| l.push(v), |l, v| l.contains(v))
        })
    }));
    rows.push(row("dispatch/direct_push_contains", 512, |sample| {
        time_per_iter(sample, || {
            let mut list = ArrayList::new();
            push_contains(&mut list, 256, ArrayList::push, |l, v| l.contains(v))
        })
    }));

    rows.push(row("monitoring/raw_any_list", 256, |sample| {
        time_per_iter(sample, || {
            let mut list = AnyList::new(ListKind::Array);
            push_contains(&mut list, 128, ListOps::push, |l, v| {
                ListOps::contains(l, v)
            })
        })
    }));
    // A window of usize::MAX monitors every instance and is never
    // analysed, so every instance runs on the first window's clock
    // schedule; a window of 0 monitors none, the unmonitored fast path.
    for (id, window_size) in [
        ("monitoring/monitored_handle_first_window", usize::MAX),
        ("monitoring/unmonitored_handle", 0),
    ] {
        rows.push(row(id, 256, move |sample| {
            let engine = Switch::builder()
                .window(WindowConfig {
                    window_size,
                    ..WindowConfig::default()
                })
                .build();
            let ctx = engine.list_context::<i64>(ListKind::Array);
            time_per_iter(sample, || {
                let mut list = ctx.create_list();
                assert_eq!(list.is_monitored(), window_size > 0);
                push_contains(&mut list, 128, SwitchList::push, SwitchList::contains)
            })
        }));
    }
    // The steady state perfbench's apps run: the default window of 100, one
    // analysed window before timing, then a pass every 128 created
    // instances. The impossible rule keeps the site on `array`, so the row
    // differs from `raw_any_list` by monitoring and analysis alone.
    rows.push(row("monitoring/monitored_handle_steady", 256, |sample| {
        let engine = Switch::builder().rule(SelectionRule::impossible()).build();
        let ctx = engine.list_context::<i64>(ListKind::Array);
        let instance = || {
            let mut list = ctx.create_list();
            push_contains(&mut list, 128, SwitchList::push, SwitchList::contains)
        };
        (0..100).for_each(|_| _ = instance());
        engine.analyze_now();
        // 100 instances of 256 ops: one op in 100 is clocked.
        assert_eq!(ctx.core().clock_period(), 100);
        let mut created = 0u64;
        time_per_iter(sample, || {
            created += 1;
            if created.is_multiple_of(128) {
                engine.analyze_now();
            }
            instance()
        })
    }));

    // The concurrent rows run at the default `RuntimeConfig`. 65 ops a key
    // fill one analysed window, so the shards clock on its budget (one op
    // in 253) rather than the first window's one in 8. The impossible rule
    // keeps the site on `chained`.
    for (suffix, contended) in [("", false), ("_2t", true)] {
        let id = |name| format!("runtime/{name}{suffix}");
        rows.push(row(id("sharded_map_get"), 1, move |sample| {
            let map = ShardedHashMap::new();
            for key in 0..RUNTIME_KEYS {
                map.insert(key, key);
            }
            time_lookups(sample, contended, |key| map.read(&key, |v| *v))
        }));
        rows.push(row(id("concurrent_map_get"), 1, move |sample| {
            let runtime = Runtime::new(Switch::builder().rule(SelectionRule::impossible()).build());
            let map = runtime.concurrent_map::<u64, u64>(MapKind::Chained);
            for key in 0..RUNTIME_KEYS {
                map.insert(key, key);
            }
            for _ in 0..64 {
                (0..RUNTIME_KEYS).for_each(|key| _ = map.get(&key));
            }
            runtime.flush();
            runtime.analyze_now();
            assert_eq!(map.stats().rounds, 1, "one analysed window");
            time_lookups(sample, contended, |key| map.get(&key))
        }));
    }
    rows
}

/// Times one lookup of a rotating key through `get`. With `contended`, a
/// scoped second thread runs the same lookup loop from the middle of the
/// key range until the timing returns, and is joined before this does.
fn time_lookups<R>(sample: Duration, contended: bool, get: impl Fn(u64) -> R + Sync) -> Timing {
    let get = &get;
    let lookups = |mut key: u64| {
        move || {
            key = (key + 13) % RUNTIME_KEYS;
            get(key)
        }
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        if contended {
            scope.spawn(|| {
                let mut lookup = lookups(RUNTIME_KEYS / 2);
                while !done.load(Ordering::Relaxed) {
                    std::hint::black_box(lookup());
                }
            });
        }
        let timing = time_per_iter(sample, lookups(0));
        done.store(true, Ordering::Relaxed);
        timing
    })
}

/// One iteration of the dispatch and monitoring rows: push `0..n`, then
/// look each value up, through the row's own `push` and `contains`.
fn push_contains<L: ?Sized>(
    list: &mut L,
    n: i64,
    push: impl Fn(&mut L, i64),
    contains: impl Fn(&mut L, &i64) -> bool,
) -> usize {
    for v in 0..n {
        push(list, v);
    }
    let mut hits = 0;
    for v in 0..n {
        hits += usize::from(contains(list, &v));
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row ids are stable: recorded runs and EXPERIMENTS.md's before and
    /// after table are keyed on them.
    #[test]
    fn the_ladder_holds_its_71_row_ids_in_order() {
        let lists = ["array", "linked", "hasharray", "adaptive"];
        let sets_and_maps = [
            "chained",
            "open-koloboke",
            "open-eclipse",
            "open-fastutil",
            "linkedhash",
            "array",
            "compact",
            "adaptive",
        ];
        let mut expected = Vec::new();
        for (group, kinds) in [
            ("list_contains", &lists[..]),
            ("set_populate", &sets_and_maps[..]),
            ("map_get", &sets_and_maps[..]),
        ] {
            for kind in kinds {
                for size in [10, 100, 1000] {
                    expected.push(format!("{group}/{kind}/{size}"));
                }
            }
        }
        for id in [
            "dispatch/enum_push_contains",
            "dispatch/boxed_dyn_push_contains",
            "dispatch/direct_push_contains",
            "monitoring/raw_any_list",
            "monitoring/monitored_handle_first_window",
            "monitoring/unmonitored_handle",
            "monitoring/monitored_handle_steady",
            "runtime/sharded_map_get",
            "runtime/concurrent_map_get",
            "runtime/sharded_map_get_2t",
            "runtime/concurrent_map_get_2t",
        ] {
            expected.push(id.to_owned());
        }
        let ids: Vec<String> = ladder().into_iter().map(|(id, ..)| id).collect();
        assert_eq!(ids.len(), 71);
        assert_eq!(ids, expected);
    }
}
