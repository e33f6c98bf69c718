//! The decision and its audit cannot drift: over random histories, every
//! shipped rule and random quarantine masks, the winner that
//! `select_variant_filtered` returns (the criteria-only pricing an analysis
//! pass decides with) is the one `select_variant_explained` reports, with
//! the same primary ratio, for lists, sets and maps.

use proptest::prelude::*;

use cs_collections::{ListKind, MapKind, SetKind};
use cs_core::{select_variant_explained, select_variant_filtered, Kind, SelectionRule};
use cs_model::{default_models, PerformanceModel};
use cs_profile::{OpCounters, OpKind, ProfileHistogram, WorkloadProfile};

/// One monitored instance: its max size and its count of each op.
type Instance = (usize, (u64, u64, u64, u64));

fn instances() -> impl Strategy<Value = Vec<Instance>> {
    let count = || prop_oneof![1 => Just(0u64), 3 => 0u64..400];
    let mix = (count(), count(), count(), count());
    proptest::collection::vec((0usize..5_001, mix), 1..201)
}

fn history(instances: &[Instance]) -> ProfileHistogram {
    let mut history = ProfileHistogram::new();
    for &(size, (populate, contains, iterate, middle)) in instances {
        let mut ops = OpCounters::new();
        for (op, n) in OpKind::ALL
            .into_iter()
            .zip([populate, contains, iterate, middle])
        {
            ops.add(op, n);
        }
        history.add(&WorkloadProfile::new(ops, size));
    }
    history
}

fn shipped_rules() -> [SelectionRule; 6] {
    [
        SelectionRule::r_time(),
        SelectionRule::r_alloc(),
        SelectionRule::r_footprint(),
        SelectionRule::r_energy(),
        SelectionRule::r_alloc_rate(),
        SelectionRule::impossible(),
    ]
}

/// Both entry points, from `current`, with the kinds whose bit is set in
/// `quarantined` barred.
fn agree<K: Kind + std::fmt::Debug>(
    model: &PerformanceModel<K>,
    current: usize,
    quarantined: u8,
    history: &ProfileHistogram,
) {
    let current = K::all()[current % K::all().len()];
    let eligible = |k: K| quarantined & (1 << k.index()) == 0;
    for rule in shipped_rules() {
        let decided = select_variant_filtered(model, &rule, current, history, eligible);
        let explained = select_variant_explained(model, &rule, current, history, eligible);
        let audited = explained.selection;
        prop_assert_eq!(
            decided.map(|s| (s.kind, s.primary_ratio.to_bits())),
            audited.map(|s| (s.kind, s.primary_ratio.to_bits())),
            "{} from {current}",
            rule.name()
        );
        // The audit's own rows back its winner: satisfied, at its ratio.
        if let Some(winner) = audited {
            let row = explained
                .candidates
                .iter()
                .find(|row| row.variant == winner.kind.to_string())
                .expect("the winner has an audit row");
            prop_assert!(row.satisfied && row.excluded.is_none());
            prop_assert_eq!(row.primary_ratio.to_bits(), winner.primary_ratio.to_bits());
        }
    }
}

proptest! {
    #[test]
    fn decision_and_audit_agree_for_every_family_and_rule(
        instances in instances(),
        current in 0usize..8,
        quarantined in 0u8..=255,
    ) {
        let history = history(&instances);
        agree::<ListKind>(default_models::list_model(), current, quarantined, &history);
        agree::<SetKind>(default_models::set_model(), current, quarantined, &history);
        agree::<MapKind>(default_models::map_model(), current, quarantined, &history);
    }
}
