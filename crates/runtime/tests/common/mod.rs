//! Helpers shared by the runtime's integration tests.

use cs_core::Kind;
use cs_model::{CostDimension, PerformanceModel, Polynomial, VariantCostModel};
use cs_profile::OpKind;

/// A model with a flat per-op time cost for every variant: `default` is
/// claimed to cost 100 ns/op and `cheap` 1 ns/op (a predicted 100x win
/// reality will contradict on a populated collection); every other variant
/// is priced out, so the engine can only try `cheap`.
pub fn inverted_model<K: Kind>(cheap: K, default: K) -> PerformanceModel<K> {
    let mut model = PerformanceModel::new();
    for &kind in K::all() {
        let cost = match kind {
            k if k == cheap => 1.0,
            k if k == default => 100.0,
            _ => 10_000.0,
        };
        let mut variant = VariantCostModel::new();
        for op in OpKind::ALL {
            variant.set_op_cost(CostDimension::Time, op, Polynomial::constant(cost));
        }
        model.insert_variant(kind, variant);
    }
    model
}
