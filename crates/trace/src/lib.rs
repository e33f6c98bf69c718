//! # cs-trace
//!
//! Dependency-free span tracing and self-overhead accounting for the
//! CollectionSwitch adaptation pipeline.
//!
//! The paper's central empirical claim is that continuous workload
//! monitoring and cost-model re-evaluation are cheap enough to leave on in
//! production. This crate turns that claim into a measured, continuously
//! exported number: every stage of the adaptation pipeline — op record,
//! buffer flush, profile ingest, model evaluation, selection decision,
//! switch execution, post-switch verification — is wrapped in a [`Phase`]-
//! tagged span, and the accountant attributes every framework nanosecond
//! against the application op time it rode along with.
//!
//! ## Design
//!
//! * **Per-thread fixed rings, no locks on the span path.** Each thread
//!   owns a [`RING_CAPACITY`]-slot ring of packed span records plus
//!   monotonic per-phase aggregates. The owning thread is the only writer;
//!   readers ([`snapshot`]) walk the rings racily. Entering and exiting a
//!   span allocates nothing and takes no lock (self-lint rule
//!   `no-alloc-in-span-path`); the single exception is a thread's very
//!   first span, which registers its ring.
//! * **Sampled fast path for ops.** [`op_span`] in [`TraceMode::Sampled`]
//!   measures one op in [`OP_SAMPLE_MASK`]` + 1` and scales the measurement
//!   back up, so the common op pays one atomic load and one thread-local
//!   tick — no clock read.
//! * **Off means off.** The default mode is [`TraceMode::Off`]; every
//!   instrumentation point then costs one relaxed atomic load.
//!
//! ## Quickstart
//!
//! ```
//! use cs_trace::{Phase, TraceMode};
//!
//! cs_trace::set_mode(TraceMode::Sampled);
//! {
//!     let _decision = cs_trace::span(Phase::Decision, 7);
//!     let _eval = cs_trace::span(Phase::ModelEval, 7); // nested
//! }
//! cs_trace::add_app_time(1_000, 5_000_000); // 1k ops, 5ms of app time
//!
//! let snap = cs_trace::snapshot();
//! let overhead = snap.overhead();
//! assert!(overhead.ratio() < 1.0);
//! cs_trace::set_mode(TraceMode::Off);
//! ```
//!
//! The telemetry bridge (`cs-telemetry::export_trace`) mirrors the
//! accountant into `cs_trace_*` metric series; the flight recorder
//! freezes [`TraceSnapshot::last_spans`] into JSONL incident records.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod phase;
mod ring;
mod snapshot;
mod span;

pub use phase::{Phase, PHASE_COUNT};
pub use ring::{SpanRecord, RING_CAPACITY, SPAN_BUCKET_BOUNDS_NS, SPAN_BUCKET_COUNT};
pub use snapshot::{overhead, snapshot, OverheadReport, ThreadTrace, TraceSnapshot};
pub use span::{
    add_app_time, credit_app_ops, enabled, mode, now_ns, op_span, registered_threads, reset,
    set_mode, span, tracer_costs, Span, TraceMode, TracerCosts, OP_SAMPLE_MASK,
};

// Snapshots cross threads by construction; losing `Send + Sync` on the
// snapshot types must fail the build here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TraceSnapshot>();
    assert_send_sync::<SpanRecord>();
    assert_send_sync::<OverheadReport>();
};
