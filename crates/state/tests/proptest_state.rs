//! Property tests for the decode-what-you-salvage invariant (ISSUE 6
//! satellite): round-tripping an arbitrary snapshot through arbitrary
//! prefix truncation or single-byte corruption never panics, and every
//! record the loader yields verified its checksum — i.e. is bit-identical
//! to a record the writer produced.
//!
//! Unlike the chaos harness (which uses sync-free payloads to assert
//! *exact* quarantine accounting), these inputs are adversarial: random
//! u64 counters can embed bytes that look like sync markers, so the
//! loader may attempt false frames mid-payload. The invariant under test
//! is that such attempts can only ever *fail* (and be quarantined), never
//! fabricate a record.

use proptest::collection;
use proptest::prelude::*;

use cs_state::{
    decode_lenient, encode_snapshot, MetaRecord, ModelBlobRecord, Record, SiteRecord, Snapshot,
};

fn name_strategy() -> BoxedStrategy<String> {
    collection::vec(0usize..36, 1..12)
        .prop_map(|idxs| {
            idxs.into_iter()
                .map(|i| b"abcdefghijklmnopqrstuvwxyz0123456789"[i] as char)
                .collect()
        })
        .boxed()
}

fn site_strategy() -> BoxedStrategy<SiteRecord> {
    (
        name_strategy(),
        0usize..3,
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(|(name, abs, (rounds, switches, history))| SiteRecord {
            name,
            abstraction: ["list", "set", "map"][abs].to_owned(),
            default_kind: "array".into(),
            current_kind: "hasharray".into(),
            rounds,
            switches,
            history_instances: history,
        })
        .boxed()
}

fn snapshot_strategy() -> BoxedStrategy<Snapshot> {
    (
        (0u64..u64::MAX, 0u64..u64::MAX),
        // Indexed names keep site keys unique, so last-wins dedup cannot
        // silently drop a generated record and break the count checks.
        collection::vec(site_strategy(), 0..8).prop_map(|mut sites| {
            for (i, site) in sites.iter_mut().enumerate() {
                site.name = format!("{}-{i}", site.name);
            }
            sites
        }),
    )
        .prop_map(|((seq, created), sites)| Snapshot {
            meta: Some(MetaRecord {
                seq,
                created_unix_nanos: created,
                rule: "R_time".into(),
                site_count: sites.len() as u32,
            }),
            sites,
            models: vec![ModelBlobRecord {
                family: "lists".into(),
                text: "# collectionswitch model v1\n".into(),
            }],
        })
        .boxed()
}

/// Every record the loader yields must be bit-identical to a written one.
fn assert_salvage_invariant(salvaged: &Snapshot, originals: &[Record]) {
    for record in salvaged.records() {
        assert!(
            originals.contains(&record),
            "loader fabricated a record: {record:?}"
        );
    }
}

proptest! {
    #[test]
    fn truncated_prefix_never_panics_and_never_fabricates(
        snapshot in snapshot_strategy(),
        cut_seed in 0usize..usize::MAX,
    ) {
        let bytes = encode_snapshot(&snapshot);
        let originals = snapshot.records();
        let cut = cut_seed % (bytes.len() + 1);
        let report = decode_lenient(&bytes[..cut]);
        assert_salvage_invariant(&report.snapshot, &originals);
        // Loss is accounted: what was written is either loaded,
        // quarantined, or beyond the cut.
        prop_assert!(report.stats.records_loaded <= originals.len() as u64);
        prop_assert!(report.stats.bytes_total == cut as u64);
    }

    #[test]
    fn single_byte_corruption_never_panics_and_never_fabricates(
        snapshot in snapshot_strategy(),
        position_seed in 0usize..usize::MAX,
        xor in 1u64..256,
    ) {
        let mut bytes = encode_snapshot(&snapshot);
        let originals = snapshot.records();
        let position = position_seed % bytes.len();
        bytes[position] ^= xor as u8;
        let report = decode_lenient(&bytes);
        assert_salvage_invariant(&report.snapshot, &originals);
        // A single damaged byte costs at most one real record; false frames
        // inside random payloads may add quarantine counts but never
        // loaded records.
        prop_assert!(report.stats.records_loaded + 1 >= originals.len() as u64);
    }

    #[test]
    fn clean_round_trip_is_lossless(snapshot in snapshot_strategy()) {
        let bytes = encode_snapshot(&snapshot);
        let report = decode_lenient(&bytes);
        prop_assert!(report.stats.is_clean());
        prop_assert_eq!(report.stats.records_loaded, snapshot.records().len() as u64);
        prop_assert_eq!(&report.snapshot.sites, &snapshot.sites);
        prop_assert_eq!(&report.snapshot.meta, &snapshot.meta);
    }
}
