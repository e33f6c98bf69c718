//! Tracing on the handle op path: an unclocked monitored op skips its op
//! span only while tracing is off, so `Full` mode must still record one
//! `OpRecord` span for every monitored handle op.
//!
//! One `#[test]` only: the trace mode is process global, and an
//! integration-test binary gets its own process.

use cs_collections::ListKind;
use cs_core::Switch;
use cs_trace::{Phase, TraceMode};

#[test]
fn full_mode_spans_every_monitored_handle_op() {
    cs_trace::reset();
    cs_trace::set_mode(TraceMode::Full);
    let engine = Switch::builder().build();
    let ctx = engine.list_context::<u64>(ListKind::Array);
    let mut monitored = ctx.create_list();
    assert!(monitored.is_monitored());
    for v in 0..100 {
        monitored.push(v);
        monitored.contains(&v);
    }
    cs_trace::set_mode(TraceMode::Off);
    let counts = cs_trace::snapshot().phase_counts();
    assert_eq!(
        counts[Phase::OpRecord.index()],
        200,
        "one op span per monitored op, clocked or not"
    );
}
