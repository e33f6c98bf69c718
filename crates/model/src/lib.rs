//! # cs-model
//!
//! Performance models for collection variants, and the benchmarking model
//! builder that calibrates them (paper §4.1).
//!
//! The paper models the cost of each *critical operation* of each variant as
//! a degree-3 polynomial of the collection size, fitted by least squares to
//! micro-benchmark results collected over a factorial plan (Table 3). The
//! framework then estimates the total cost of running an observed workload
//! `W` on a candidate variant `V` as
//!
//! ```text
//! tc_W(V) = Σ_op  N_op,W · cost_op,V(s)          (s = max observed size)
//! ```
//!
//! This crate provides:
//!
//! * [`Polynomial`] — degree-d least-squares fitting and evaluation.
//! * [`CostDimension`] — the cost dimensions (time, allocation, footprint
//!   and allocation rate).
//! * [`PerformanceModel`] — per-(variant, dimension, op) polynomials with
//!   the `tc` total-cost evaluation.
//! * [`builder`] — the micro-benchmark harness that calibrates a model on
//!   the current hardware (the paper's "Model Builder" component).
//! * [`default_models`] — analytically seeded models shipped with the crate
//!   so the framework runs deterministically without a calibration pass.
//! * [`threshold`] — the transition-threshold analysis of adaptive
//!   collections (paper Fig. 3 / Table 1).
//! * [`persist`] — plain-text model serialization.
//!
//! ## Example
//!
//! ```
//! use cs_collections::ListKind;
//! use cs_model::{default_models, CostDimension};
//! use cs_profile::{OpCounters, OpKind, WorkloadProfile};
//!
//! let model = default_models::list_model();
//! let mut ops = OpCounters::new();
//! ops.add(OpKind::Populate, 500);
//! ops.add(OpKind::Contains, 10_000);
//! let w = WorkloadProfile::new(ops, 500);
//!
//! // A lookup-heavy workload at size 500 favours the hash-indexed list.
//! let tc_array = model.total_cost(ListKind::Array, CostDimension::Time, &w);
//! let tc_hash = model.total_cost(ListKind::HashArray, CostDimension::Time, &w);
//! assert!(tc_hash < tc_array);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
mod curve;
pub mod default_models;
mod dimension;
mod perf;
pub mod persist;
mod poly;
pub mod threshold;

pub use curve::CostCurve;
pub use dimension::CostDimension;
pub use perf::{PerformanceModel, VariantCostModel};
pub use poly::{FitError, Polynomial};
