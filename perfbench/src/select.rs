//! The Fig. 7 analysis-cost loop: `select_variant` over the aggregated
//! history of a 100- and a 10,000-instance window (the paper reports
//! < 285 ns per call), timed in batches recorded as `model` spans.

use std::hint::black_box;

use cs_collections::ListKind;
use cs_core::{select_variant, SelectionRule};
use cs_model::default_models;
use cs_profile::{OpCounters, OpKind, ProfileHistogram, WorkloadProfile};

use crate::trace::Tracer;

const BATCHES: usize = 7;
const CALLS_PER_BATCH: u64 = 2_000;

/// Span names of the batches, per window size.
pub const W100: &str = "select_variant.w100";
/// See [`W100`].
pub const W10K: &str = "select_variant.w10k";

fn history(window: usize) -> ProfileHistogram {
    let mut hist = ProfileHistogram::new();
    for i in 0..window {
        let mut c = OpCounters::new();
        c.add(OpKind::Populate, 50);
        c.add(OpKind::Contains, 120);
        c.add(OpKind::Iterate, 2);
        c.add(OpKind::Middle, 1);
        hist.add(&WorkloadProfile::new(c, 10 + (i % 700)));
    }
    hist
}

/// Runs the loop for both window sizes under one `fig7` span, one `model`
/// span per batch of calls.
pub fn trace(tracer: &mut Tracer) {
    let model = default_models::list_model();
    let rule = SelectionRule::r_time();
    let root = tracer.open();
    for (window, name) in [(100, W100), (10_000, W10K)] {
        let hist = history(window);
        let call = || {
            black_box(select_variant(
                model,
                &rule,
                ListKind::Array,
                black_box(&hist),
            ))
        };
        for _ in 0..CALLS_PER_BATCH {
            call();
        }
        for _ in 0..BATCHES {
            let open = tracer.open();
            for _ in 0..CALLS_PER_BATCH {
                call();
            }
            tracer.close(open, root.id, name, "model", CALLS_PER_BATCH);
        }
    }
    tracer.close(root, 0, "fig7", "bench", 1);
}
