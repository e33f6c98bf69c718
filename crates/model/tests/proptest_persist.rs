//! Property tests for the model persistence layer.
//!
//! Round-trip: `from_text(to_text(m))` must reproduce `m` exactly for
//! arbitrary models (Rust's shortest-representation float formatting makes
//! the text round-trip lossless). Rejection: corrupted serializations —
//! non-finite values, absurd magnitudes, truncation, trailing garbage —
//! must fail to parse rather than poison selection.

use proptest::prelude::*;

use cs_collections::ListKind;
use cs_model::{persist, CostCurve, CostDimension, PerformanceModel, Polynomial, VariantCostModel};
use cs_profile::OpKind;

/// One generated cost-curve record: which slot it fills and its curve.
#[derive(Debug, Clone)]
struct Entry {
    kind: ListKind,
    dim: CostDimension,
    /// `None` = per-instance cost, `Some(op)` = per-op cost.
    op: Option<OpKind>,
    curve: CostCurve,
}

/// Coefficients are drawn as integers and divided by a power of two, so the
/// values exercise fractional floats while staying exactly representable
/// (and well inside the parser's magnitude cap).
fn coeff(raw: i64) -> f64 {
    raw as f64 / 1024.0
}

fn poly(scale_raw: u32, coeff_raws: Vec<i64>) -> Polynomial {
    // Scale must be strictly positive for the parser to accept it.
    Polynomial::from_parts(
        coeff_raws.into_iter().map(coeff).collect(),
        f64::from(scale_raw) / 16.0,
    )
}

fn entry_strategy() -> impl Strategy<Value = Entry> {
    let slot = (0usize..4, 0usize..4, 0usize..5);
    let poly_params = (
        1u32..50_000,
        proptest::collection::vec(-1_000_000_i64..1_000_000, 1..5),
    );
    let pw_extra = (
        1u32..5_000,
        proptest::collection::vec(-1_000_000_i64..1_000_000, 1..5),
    );
    // curve_pick: 0-2 plain polynomial, 3 piecewise (thresholds from the
    // scale domain keep them positive and representable).
    (slot, poly_params, pw_extra, 0u8..4).prop_map(
        |((kind_i, dim_i, op_i), (scale, coeffs), (scale2, coeffs2), curve_pick)| {
            let curve = if curve_pick == 3 {
                CostCurve::piecewise(
                    f64::from(scale2),
                    poly(scale, coeffs),
                    poly(scale2, coeffs2),
                )
            } else {
                CostCurve::Poly(poly(scale, coeffs))
            };
            Entry {
                kind: ListKind::ALL[kind_i],
                dim: CostDimension::ALL[dim_i],
                op: if op_i == 4 {
                    None
                } else {
                    Some(OpKind::ALL[op_i])
                },
                curve,
            }
        },
    )
}

fn entries_strategy() -> impl Strategy<Value = Vec<Entry>> {
    proptest::collection::vec(entry_strategy(), 1..24)
}

fn build_model(entries: &[Entry]) -> PerformanceModel<ListKind> {
    let mut pending: Vec<(ListKind, VariantCostModel)> = Vec::new();
    for entry in entries {
        let vm = match pending.iter_mut().find(|(k, _)| *k == entry.kind) {
            Some((_, vm)) => vm,
            None => {
                pending.push((entry.kind, VariantCostModel::new()));
                &mut pending.last_mut().expect("just pushed").1
            }
        };
        match entry.op {
            Some(op) => vm.set_op_cost(entry.dim, op, entry.curve.clone()),
            None => vm.set_instance_cost(entry.dim, entry.curve.clone()),
        }
    }
    let mut model = PerformanceModel::new();
    for (kind, vm) in pending {
        model.insert_variant(kind, vm);
    }
    model
}

/// Canonical, order-independent view of a serialized model.
fn sorted_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

/// Replaces the last whitespace-separated token of the first record line
/// (always a numeric curve token) with `payload`.
fn corrupt_last_token(text: &str, payload: &str) -> String {
    let mut out = String::new();
    let mut done = false;
    for line in text.lines() {
        if !done && !line.starts_with('#') && !line.trim().is_empty() {
            let cut = line.rfind(' ').expect("record lines have spaces");
            out.push_str(&line[..cut + 1]);
            out.push_str(payload);
            done = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    assert!(done, "no record line to corrupt");
    out
}

proptest! {
    #[test]
    fn round_trip_preserves_every_curve(entries in entries_strategy()) {
        let model = build_model(&entries);
        let text = persist::to_text(&model);
        let restored: PerformanceModel<ListKind> =
            persist::from_text(&text).expect("self-produced text must parse");
        prop_assert_eq!(restored.len(), model.len());
        // Re-serializing the restored model must reproduce the same records
        // (order-independent): the round-trip lost nothing.
        prop_assert_eq!(sorted_lines(&persist::to_text(&restored)), sorted_lines(&text));
    }

    #[test]
    fn non_finite_values_are_rejected(entries in entries_strategy(), pick in 0usize..3) {
        let text = persist::to_text(&build_model(&entries));
        let payload = ["NaN", "inf", "-inf"][pick];
        let corrupted = corrupt_last_token(&text, payload);
        prop_assert!(persist::from_text::<ListKind>(&corrupted).is_err());
    }

    #[test]
    fn absurd_magnitudes_are_rejected(entries in entries_strategy()) {
        let text = persist::to_text(&build_model(&entries));
        let corrupted = corrupt_last_token(&text, "1e30");
        prop_assert!(persist::from_text::<ListKind>(&corrupted).is_err());
    }

    #[test]
    fn truncated_files_are_rejected(entries in entries_strategy()) {
        let text = persist::to_text(&build_model(&entries));
        // Cut the first record line after its tag: what remains is a
        // recognizable but incomplete record.
        let record_start = text
            .lines()
            .scan(0usize, |pos, line| {
                let start = *pos;
                *pos += line.len() + 1;
                Some((start, line))
            })
            .find(|(_, line)| !line.starts_with('#') && !line.trim().is_empty())
            .map(|(start, _)| start)
            .expect("model has at least one record");
        let truncated = &text[..record_start + "op ".len()];
        prop_assert!(persist::from_text::<ListKind>(truncated).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected(entries in entries_strategy(), pick in 0usize..3) {
        let mut text = persist::to_text(&build_model(&entries));
        text.push_str(
            [
                "!!! trailing garbage\n",
                "op array time push poly 1 2 three\n",
                "op array time push spline 1 2\n",
            ][pick],
        );
        prop_assert!(persist::from_text::<ListKind>(&text).is_err());
    }
}
