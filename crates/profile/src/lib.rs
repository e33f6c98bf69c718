//! # cs-profile
//!
//! Workload-profiling primitives for the CollectionSwitch reproduction
//! (paper §3.1 and §4.3, "Monitoring the Collections Usage").
//!
//! An allocation context monitors a *sample* of the collection instances it
//! creates. Each monitored instance carries an [`OpRecorder`] that counts the
//! paper's *critical operations* ([`OpKind`]) and tracks the maximum size the
//! collection reaches. When the instance ends its life-cycle (in Rust:
//! `Drop`, replacing the paper's `WeakReference` polling), the recorder is
//! folded into a [`WorkloadProfile`] and pushed into the context's
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
//! use cs_profile::{OpKind, OpRecorder, ProfileSink};
//!
//! let sink = ProfileSink::bounded(8);
//! let mut rec = OpRecorder::new();
//! rec.record(OpKind::Populate);
//! rec.record(OpKind::Contains);
//! rec.observe_size(42);
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
pub use op::{OpCounters, OpKind, OpRecorder};
pub use profile::WorkloadProfile;
pub use sample::ClockSampler;
pub use sink::ProfileSink;
pub use window::{WindowConfig, WindowState};
