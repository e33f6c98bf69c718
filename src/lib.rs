//! # collection-switch
//!
//! Facade crate for the CollectionSwitch reproduction. Re-exports the whole
//! stack so applications can depend on a single crate:
//!
//! * [`collections`] — the collection-variant substrate ([`cs_collections`]).
//! * [`profile`] — workload profiling primitives ([`cs_profile`]).
//! * [`model`] — performance models and the model builder ([`cs_model`]).
//! * [`core`] — the adaptive selection framework ([`cs_core`]).
//! * [`runtime`] — the sharded concurrent selection runtime, recording
//!   each op in the shard it locks ([`cs_runtime`]).
//! * [`telemetry`] — metrics registry, event sinks, decision audit stream,
//!   and Prometheus/JSON exposition ([`cs_telemetry`]).
//! * [`workloads`] — workload generators and synthetic applications
//!   ([`cs_workloads`]).
//! * [`analyzer`] — static allocation-site extraction, the variant advisor,
//!   runtime drift checks, and the workspace self-lint ([`cs_analyzer`]).
//! * [`trace`] — adaptation-pipeline span tracing and self-overhead
//!   accounting ([`cs_trace`]).
//! * [`state`] — crash-safe snapshot store for learned selection state:
//!   atomic writes, per-record checksums, lenient corruption-quarantining
//!   loads ([`cs_state`]).
//! * [`heap`] — allocation observability: the opt-in counting global
//!   allocator, scoped per-site attribution guards, and process heap/RSS
//!   observables ([`cs_heap`]).
//! * [`obs`] — the live operational plane: embedded scrape/debug HTTP
//!   server, windowed time-series over the metrics registry, and op-mix
//!   drift detection ([`cs_obs`]).
//!
//! ## Quickstart
//!
//! ```
//! use collection_switch::prelude::*;
//!
//! // Build an engine with the paper's default configuration and the
//! // R_time selection rule (Table 4).
//! let engine = Switch::builder().rule(SelectionRule::r_time()).build();
//! let ctx = engine.list_context::<i64>(ListKind::Array);
//!
//! // Allocation sites call `create_list` instead of a concrete constructor.
//! for _ in 0..200 {
//!     let mut list = ctx.create_list();
//!     for v in 0..64 {
//!         list.push(v);
//!     }
//!     for v in 0..64 {
//!         assert!(list.contains(&v));
//!     }
//! }
//! engine.analyze_now();
//! // The context may now instantiate a lookup-friendly variant.
//! let _ = ctx.current_kind();
//! ```

pub use cs_analyzer as analyzer;
pub use cs_collections as collections;
pub use cs_core as core;
pub use cs_heap as heap;
pub use cs_model as model;
pub use cs_obs as obs;
pub use cs_profile as profile;
pub use cs_runtime as runtime;
pub use cs_state as state;
pub use cs_telemetry as telemetry;
pub use cs_trace as trace;
pub use cs_workloads as workloads;

/// Commonly used items, re-exported in one place.
pub mod prelude {
    pub use cs_collections::{
        AnyList, AnyMap, AnySet, ListKind, ListOps, MapKind, MapOps, SetKind, SetOps,
    };
    pub use cs_core::{
        EngineEvent, GuardrailConfig, ListContext, MapContext, SelectionRule, SetContext, Switch,
        SwitchList, SwitchMap, SwitchSet, WarmStartReport,
    };
    pub use cs_heap::{AllocGuard, CountingAlloc, HeapAccount};
    pub use cs_model::{CostDimension, PerformanceModel};
    pub use cs_obs::{ObsBuilder, ObsHandle, RuntimeObsExt, SwitchObsExt};
    pub use cs_runtime::{ConcurrentMap, ConcurrentSet, Runtime, RuntimeConfig};
    pub use cs_telemetry::{
        validate_prometheus_text, JsonlSink, MetricsRegistry, MetricsSink, TelemetrySnapshot,
    };
    pub use cs_trace::{Phase, TraceMode, TraceSnapshot};
}
