//! Performance models keyed by variant kind, with the paper's total-cost
//! evaluation.

use std::sync::Arc;

use cs_profile::{OpKind, WorkloadProfile};

use crate::curve::CostCurve;
use crate::dimension::CostDimension;

/// The cost model of a single collection variant: one polynomial per
/// (dimension, critical operation), plus one *per-instance* polynomial per
/// dimension.
///
/// Per-operation polynomials are evaluated at the workload's maximum size
/// `s` and weighted by the operation counts (`Σ N_op · cost_op(s)`); the
/// per-instance polynomial is evaluated once per instance. The footprint
/// dimension is naturally a per-instance cost (the structure's size at `s`),
/// while time and allocation are per-operation costs.
///
/// # Examples
///
/// ```
/// use cs_model::{CostDimension, Polynomial, VariantCostModel};
/// use cs_profile::OpKind;
///
/// let mut m = VariantCostModel::new();
/// m.set_op_cost(
///     CostDimension::Time,
///     OpKind::Contains,
///     Polynomial::from_coeffs(vec![0.0, 2.0]), // 2 ns per element scanned
/// );
/// assert_eq!(m.op_cost(CostDimension::Time, OpKind::Contains, 100.0), 200.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VariantCostModel {
    // Dense (dimension × op) storage: the analyzer evaluates these curves in
    // its inner loop, where a hash lookup per access would dominate the
    // sub-microsecond analysis budget (paper Fig. 7).
    op_costs: [[Option<CostCurve>; 4]; 5],
    instance_costs: [Option<CostCurve>; 5],
}

impl VariantCostModel {
    /// Creates an empty model (all costs zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-operation cost curve for `(dimension, op)`.
    pub fn set_op_cost(
        &mut self,
        dimension: CostDimension,
        op: OpKind,
        curve: impl Into<CostCurve>,
    ) {
        self.op_costs[dimension.index()][op.index()] = Some(curve.into());
    }

    /// Sets the per-instance cost curve for `dimension`.
    pub fn set_instance_cost(&mut self, dimension: CostDimension, curve: impl Into<CostCurve>) {
        self.instance_costs[dimension.index()] = Some(curve.into());
    }

    /// Cost of one execution of `op` at collection size `size` along
    /// `dimension`. Missing entries cost zero.
    #[inline]
    pub fn op_cost(&self, dimension: CostDimension, op: OpKind, size: f64) -> f64 {
        self.op_costs[dimension.index()][op.index()]
            .as_ref()
            .map_or(0.0, |p| p.eval(size))
    }

    /// Per-instance cost at maximum size `size` along `dimension`.
    #[inline]
    pub fn instance_cost(&self, dimension: CostDimension, size: f64) -> f64 {
        self.instance_costs[dimension.index()]
            .as_ref()
            .map_or(0.0, |p| p.eval(size))
    }

    /// The paper's `tc_W(V)` for one workload profile:
    /// `instance(s) + Σ_op N_op · cost_op(s)` with `s = max_size`.
    pub fn total_cost(&self, dimension: CostDimension, profile: &WorkloadProfile) -> f64 {
        let s = profile.max_size() as f64;
        let mut tc = self.instance_cost(dimension, s);
        for (op, n) in profile.counters().iter_nonzero() {
            tc += n as f64 * self.op_cost(dimension, op, s);
        }
        tc
    }

    /// Iterates over the per-operation entries. Used by [`crate::persist`].
    pub fn iter_op_costs(&self) -> impl Iterator<Item = (CostDimension, OpKind, &CostCurve)> + '_ {
        CostDimension::ALL.into_iter().flat_map(move |d| {
            OpKind::ALL.into_iter().filter_map(move |o| {
                self.op_costs[d.index()][o.index()]
                    .as_ref()
                    .map(|p| (d, o, p))
            })
        })
    }

    /// Iterates over the per-instance entries. Used by [`crate::persist`].
    pub fn iter_instance_costs(&self) -> impl Iterator<Item = (CostDimension, &CostCurve)> + '_ {
        CostDimension::ALL
            .into_iter()
            .filter_map(move |d| self.instance_costs[d.index()].as_ref().map(|p| (d, p)))
    }
}

/// A full performance model: one [`VariantCostModel`] per variant kind of an
/// abstraction (`K` is [`ListKind`](cs_collections::ListKind),
/// [`SetKind`](cs_collections::SetKind) or
/// [`MapKind`](cs_collections::MapKind)).
///
/// Variants are kept in insertion order, so everything that walks them —
/// [`PerformanceModel::kinds`], ties in
/// [`PerformanceModel::best_variant`], the line order of
/// [`persist::to_text`](crate::persist::to_text) — is deterministic.
/// Clones share their variants until one of them is changed.
///
/// # Examples
///
/// ```
/// use cs_collections::SetKind;
/// use cs_model::{default_models, CostDimension};
/// use cs_profile::{OpCounters, OpKind, WorkloadProfile};
///
/// let model = default_models::set_model();
/// let mut ops = OpCounters::new();
/// ops.add(OpKind::Populate, 10);
/// let small = WorkloadProfile::new(ops, 10);
/// // A tiny set is cheapest to build as an array.
/// let best = model
///     .best_variant(CostDimension::Footprint, &[small])
///     .unwrap();
/// assert_eq!(best, SetKind::Array);
/// ```
#[derive(Debug, Clone)]
pub struct PerformanceModel<K> {
    // A family has at most 8 variants: a linear scan finds one faster than
    // hashing its kind would. Shared copy-on-write, so the copy of the
    // shipped models every engine build takes is a reference count, not a
    // deep clone of every curve.
    variants: Arc<Vec<(K, VariantCostModel)>>,
}

impl<K: Copy + Eq> PerformanceModel<K> {
    /// Creates an empty model with no variants.
    pub fn new() -> Self {
        PerformanceModel {
            variants: Arc::new(Vec::new()),
        }
    }

    /// Adds or replaces the cost model of `kind`. A replaced variant keeps
    /// its place in the order.
    pub fn insert_variant(&mut self, kind: K, model: VariantCostModel) {
        *self.variant_entry(kind) = model;
    }

    /// The cost model of `kind`, appended empty if missing.
    pub(crate) fn variant_entry(&mut self, kind: K) -> &mut VariantCostModel {
        let variants = Arc::make_mut(&mut self.variants);
        let at = match variants.iter().position(|(k, _)| *k == kind) {
            Some(at) => at,
            None => {
                variants.push((kind, VariantCostModel::new()));
                variants.len() - 1
            }
        };
        &mut variants[at].1
    }

    /// The cost model of `kind`, if calibrated.
    #[inline]
    pub fn variant(&self, kind: K) -> Option<&VariantCostModel> {
        self.variants
            .iter()
            .find_map(|(k, model)| (*k == kind).then_some(model))
    }

    /// Kinds present in this model, in insertion order.
    pub fn kinds(&self) -> impl Iterator<Item = K> + '_ {
        self.variants.iter().map(|(kind, _)| *kind)
    }

    /// Number of calibrated variants.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Returns `true` if no variants are calibrated.
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// `tc_W(V)` for one profile; zero for unknown variants.
    pub fn total_cost(&self, kind: K, dimension: CostDimension, profile: &WorkloadProfile) -> f64 {
        self.variant(kind)
            .map_or(0.0, |m| m.total_cost(dimension, profile))
    }

    /// The paper's `TC_D(V)`: total cost summed over all monitored profiles.
    pub fn summed_cost(
        &self,
        kind: K,
        dimension: CostDimension,
        profiles: &[WorkloadProfile],
    ) -> f64 {
        profiles
            .iter()
            .map(|p| self.total_cost(kind, dimension, p))
            .sum()
    }

    /// `TC_D(V)` over an aggregated [`ProfileHistogram`](cs_profile::ProfileHistogram)
    /// — the O(#buckets)
    /// form the analyzer uses, evaluating each bucket at its largest
    /// observed size (the paper's max-size overestimate, §3.1.1).
    pub fn histogram_cost(
        &self,
        kind: K,
        dimension: CostDimension,
        histogram: &cs_profile::ProfileHistogram,
    ) -> f64 {
        let Some(vm) = self.variant(kind) else {
            return 0.0;
        };
        let mut tc = 0.0;
        for bucket in histogram.occupied() {
            let s = bucket.max_size as f64;
            tc += bucket.instances as f64 * vm.instance_cost(dimension, s);
            for (op, n) in bucket.counters.iter_nonzero() {
                tc += n as f64 * vm.op_cost(dimension, op, s);
            }
        }
        tc
    }

    /// The calibrated variant with the lowest summed cost along `dimension`
    /// (the first inserted among equals), or `None` if the model is empty.
    pub fn best_variant(
        &self,
        dimension: CostDimension,
        profiles: &[WorkloadProfile],
    ) -> Option<K> {
        self.kinds().min_by(|&a, &b| {
            self.summed_cost(a, dimension, profiles)
                .total_cmp(&self.summed_cost(b, dimension, profiles))
        })
    }
}

impl<K: Copy + Eq> Default for PerformanceModel<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Polynomial;
    use cs_profile::OpCounters;

    fn profile(contains: u64, max: usize) -> WorkloadProfile {
        let mut c = OpCounters::new();
        c.add(OpKind::Contains, contains);
        WorkloadProfile::new(c, max)
    }

    #[test]
    fn total_cost_weights_op_counts() {
        let mut m = VariantCostModel::new();
        m.set_op_cost(
            CostDimension::Time,
            OpKind::Contains,
            Polynomial::from_coeffs(vec![1.0, 0.5]),
        );
        let p = profile(10, 100);
        // 10 ops × (1 + 0.5·100) = 510
        assert!((m.total_cost(CostDimension::Time, &p) - 510.0).abs() < 1e-9);
    }

    #[test]
    fn instance_cost_added_once() {
        let mut m = VariantCostModel::new();
        m.set_instance_cost(
            CostDimension::Footprint,
            Polynomial::from_coeffs(vec![16.0, 8.0]),
        );
        let p = profile(1000, 50);
        assert!((m.total_cost(CostDimension::Footprint, &p) - 416.0).abs() < 1e-9);
    }

    #[test]
    fn missing_entries_cost_zero() {
        let m = VariantCostModel::new();
        assert_eq!(m.total_cost(CostDimension::Time, &profile(5, 5)), 0.0);
    }

    #[test]
    fn summed_cost_over_profiles() {
        use cs_collections::ListKind;
        let mut vm = VariantCostModel::new();
        vm.set_op_cost(
            CostDimension::Time,
            OpKind::Contains,
            Polynomial::constant(2.0),
        );
        let mut pm = PerformanceModel::new();
        pm.insert_variant(ListKind::Array, vm);
        let profiles = vec![profile(3, 10), profile(7, 20)];
        assert!(
            (pm.summed_cost(ListKind::Array, CostDimension::Time, &profiles) - 20.0).abs() < 1e-9
        );
    }

    #[test]
    fn best_variant_picks_minimum() {
        use cs_collections::ListKind;
        let mut cheap = VariantCostModel::new();
        cheap.set_op_cost(
            CostDimension::Time,
            OpKind::Contains,
            Polynomial::constant(1.0),
        );
        let mut pricey = VariantCostModel::new();
        pricey.set_op_cost(
            CostDimension::Time,
            OpKind::Contains,
            Polynomial::constant(9.0),
        );
        let mut pm = PerformanceModel::new();
        pm.insert_variant(ListKind::HashArray, cheap);
        pm.insert_variant(ListKind::Array, pricey);
        let best = pm
            .best_variant(CostDimension::Time, &[profile(5, 5)])
            .unwrap();
        assert_eq!(best, ListKind::HashArray);
    }

    #[test]
    fn histogram_cost_matches_summed_cost_per_bucket() {
        use cs_collections::ListKind;
        use cs_profile::ProfileHistogram;
        let mut vm = VariantCostModel::new();
        vm.set_op_cost(
            CostDimension::Time,
            OpKind::Contains,
            Polynomial::from_coeffs(vec![2.0, 0.5]),
        );
        vm.set_instance_cost(CostDimension::Time, Polynomial::constant(7.0));
        let mut pm = PerformanceModel::new();
        pm.insert_variant(ListKind::Array, vm);
        // Sizes in different power-of-two buckets: exact agreement.
        let profiles = vec![profile(3, 10), profile(7, 500)];
        let hist = ProfileHistogram::from_profiles(&profiles);
        let a = pm.summed_cost(ListKind::Array, CostDimension::Time, &profiles);
        let b = pm.histogram_cost(ListKind::Array, CostDimension::Time, &hist);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn histogram_cost_overestimates_merged_buckets() {
        use cs_collections::ListKind;
        use cs_profile::ProfileHistogram;
        let mut vm = VariantCostModel::new();
        vm.set_op_cost(
            CostDimension::Time,
            OpKind::Contains,
            Polynomial::from_coeffs(vec![0.0, 1.0]),
        );
        let mut pm = PerformanceModel::new();
        pm.insert_variant(ListKind::Array, vm);
        // 100 and 128 share a bucket; the bucket evaluates at 128.
        let profiles = vec![profile(10, 100), profile(10, 128)];
        let hist = ProfileHistogram::from_profiles(&profiles);
        let exact = pm.summed_cost(ListKind::Array, CostDimension::Time, &profiles);
        let agg = pm.histogram_cost(ListKind::Array, CostDimension::Time, &hist);
        assert!(agg >= exact);
        assert!((agg - 20.0 * 128.0).abs() < 1e-9);
    }

    #[test]
    fn empty_model_has_no_best() {
        use cs_collections::ListKind;
        let pm: PerformanceModel<ListKind> = PerformanceModel::new();
        assert!(pm
            .best_variant(CostDimension::Time, &[profile(1, 1)])
            .is_none());
        assert!(pm.is_empty());
    }

    #[test]
    fn a_changed_clone_leaves_the_original_alone() {
        use cs_collections::ListKind;
        let flat = |cost: f64| {
            let mut vm = VariantCostModel::new();
            vm.set_op_cost(
                CostDimension::Time,
                OpKind::Contains,
                Polynomial::constant(cost),
            );
            vm
        };
        let mut original = PerformanceModel::new();
        original.insert_variant(ListKind::Array, flat(1.0));
        let mut copy = original.clone();
        copy.insert_variant(ListKind::Array, flat(9.0));
        copy.insert_variant(ListKind::Linked, flat(2.0));
        let cost = |pm: &PerformanceModel<ListKind>| {
            pm.total_cost(ListKind::Array, CostDimension::Time, &profile(1, 1))
        };
        assert_eq!((original.len(), cost(&original)), (1, 1.0));
        assert_eq!((copy.len(), cost(&copy)), (2, 9.0));
        assert!(copy.kinds().eq([ListKind::Array, ListKind::Linked]));
    }
}
