//! # cs-core
//!
//! The CollectionSwitch framework: runtime selection of collection variants
//! driven by allocation-site workload profiles (Costa & Andrzejak, CGO'18).
//!
//! ## Architecture (paper Fig. 1 / Fig. 2)
//!
//! * [`Switch`] — the engine: global configuration (selection rule, window
//!   parameters), the performance models, the context registry, the
//!   transition log, and the periodic analyzer (background thread at the
//!   *monitoring rate*, or explicit [`Switch::analyze_now`]).
//! * [`ListContext`] / [`SetContext`] / [`MapContext`] — *adaptive
//!   allocation contexts*: one per instrumented allocation site. They
//!   instantiate the site's current variant, monitor a window of created
//!   instances, and switch the variant used for future instantiations when
//!   a [`SelectionRule`] finds a better candidate.
//! * [`SwitchList`] / [`SwitchSet`] / [`SwitchMap`] — the handles returned
//!   by `create_*`: thin wrappers that forward to the underlying variant
//!   and, on a monitored subset of instances, count critical operations and
//!   report a workload profile when dropped.
//!
//! ## Quickstart
//!
//! ```
//! use cs_collections::ListKind;
//! use cs_core::{SelectionRule, Switch};
//!
//! let engine = Switch::builder().rule(SelectionRule::r_time()).build();
//! let ctx = engine.list_context::<i64>(ListKind::Array);
//!
//! // The instrumented allocation site: `ctx.create_list()` in place of
//! // `new ArrayList<>()` (paper Fig. 4).
//! for _ in 0..200 {
//!     let mut list = ctx.create_list();
//!     for v in 0..150 {
//!         list.push(v);
//!     }
//!     for v in 0..150 {
//!         assert!(list.contains(&v));
//!     }
//! }
//! engine.analyze_now();
//! // The lookup-heavy workload drove the site to a hash-indexed variant.
//! assert_ne!(ctx.current_kind(), ListKind::Array);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod context;
mod engine;
mod event;
mod guard;
mod handles;
mod kind_ext;
mod rules;
mod select;
mod state;
mod subscriber;

pub use context::{AnyContext, ContextCore, ContextStats, ListContext, MapContext, SetContext};
pub use engine::{
    ContextSummary, EngineHealth, Models, SiteManifestEntry, Switch, SwitchBuilder, SwitchConfig,
    WeakSwitch,
};
pub use event::{
    AnalyzerPanicEvent, CandidateEstimate, DegradedEvent, EngineEvent, ModelFallbackEvent,
    QuarantineEvent, RollbackEvent, SelectionExplanation, SelectionOutcome, TransitionEvent,
    WarmStartEvent, WarmStartSiteEvent, WarmStartSiteOutcome,
};
pub use guard::{GuardrailConfig, TransitionBudget};
pub use handles::{SwitchList, SwitchMap, SwitchSet};
pub use kind_ext::Kind;
pub use rules::{Criterion, ParseRuleError, SelectionRule};
pub use select::{
    adaptive_eligible, select_variant, select_variant_explained, select_variant_filtered,
    ExplainedSelection, Selection,
};
pub use state::{
    SnapshotPolicy, StatePersister, StatePersisterStats, WarmStartReport,
    SNAPSHOT_LATENCY_BOUNDS_NS, SNAPSHOT_LATENCY_BUCKETS,
};
pub use subscriber::EngineEventSink;

// Compile-time thread-safety contract: the engine and everything the
// concurrent runtime (`cs-runtime`) shares across threads must stay
// `Send + Sync`. If a future change smuggles an `Rc`/`RefCell`/raw pointer
// into one of these types, the build fails here — not at some distant call
// site inside another crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Switch>();
    assert_send_sync::<ContextCore<cs_collections::ListKind>>();
    assert_send_sync::<ContextCore<cs_collections::SetKind>>();
    assert_send_sync::<ContextCore<cs_collections::MapKind>>();
    assert_send_sync::<ListContext<u64>>();
    assert_send_sync::<SetContext<u64>>();
    assert_send_sync::<MapContext<u64, u64>>();
    assert_send_sync::<TransitionBudget>();
    assert_send_sync::<EngineEvent>();
};
