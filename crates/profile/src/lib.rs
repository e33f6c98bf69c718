//! # cs-profile
//!
//! Workload-profiling primitives for the CollectionSwitch reproduction
//! (paper §3.1 and §4.3, "Monitoring the Collections Usage").
//!
//! An allocation context monitors a *sample* of the collection instances it
//! creates. Each monitored instance, and each shard of a concurrent runtime
//! handle, carries an [`OpRecorder`]: it counts the paper's *critical
//! operations* ([`OpKind`]), tracks the maximum size the collection
//! reaches, and owns the stream's [`ClockSampler`] and the one
//! instrumented op, [`OpRecorder::measure`] (alloc guard, sampled clock,
//! op span). When the instance ends its life-cycle (in Rust: `Drop`,
//! replacing the paper's `WeakReference` polling), the recorder is folded
//! into a [`WorkloadProfile`] and pushed into the context's
//! [`ProfileSink`].
//!
//! [`WindowConfig`]/[`WindowState`] implement the paper's *monitored window*
//! and *finished ratio*: a context monitors `window_size` instances per
//! round and only analyzes the round once at least `finished_ratio` of them
//! have finished.
//!
//! ## Example
//!
//! ```
//! use cs_profile::{ClockSampler, OpKind, OpRecorder, ProfileSink};
//!
//! let sink = ProfileSink::bounded(8);
//! let mut rec = OpRecorder::new(ClockSampler::new(8, 0));
//! rec.count(OpKind::Populate, 42);
//! let clocked = rec.tick();
//! assert!(rec.measure(0, OpKind::Contains, clocked, || (true, 42)));
//! sink.push(rec.finish());
//!
//! let profiles = sink.drain();
//! assert_eq!(profiles.len(), 1);
//! assert_eq!(profiles[0].count(OpKind::Contains), 1);
//! assert_eq!(profiles[0].max_size(), 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod histogram;
mod op;
mod profile;
mod sample;
mod sink;
mod window;

pub use histogram::{BucketAgg, ProfileHistogram};
pub use op::{ops_instrumented, OpCounters, OpKind, OpRecorder};
pub use profile::WorkloadProfile;
pub use sample::ClockSampler;
pub use sink::ProfileSink;
pub use window::{WindowConfig, WindowState};
