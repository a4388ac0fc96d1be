//! Property tests for code-level aggregation: the [`CodeGrouper`] over a
//! [`GroupLayout`] must be byte-identical to the scalar [`Grouper`]
//! reference across NDV regimes — single-group columns, the 63/64/65
//! bitmap-word boundaries of the direct accumulator, large domains that
//! overflow into the `u64`-keyed hash kernel, and multi-column radix
//! products that push a per-column-small key set over
//! [`DIRECT_GROUPS_LIMIT`] — plus arbitrary morsel-style merge splits.

use cvr_core::agg::{
    aggregate_columns, CodeDecoder, CodeGrouper, GroupLayout, Grouper, DIRECT_GROUPS_LIMIT,
};
use cvr_data::queries::query;
use cvr_data::value::Value;
use proptest::prelude::*;

/// Domains covering every accumulator regime: NDV 1, the bitmap word
/// boundaries of the direct accumulator, mid-size direct domains, and a
/// domain past the direct limit (hash kernel).
fn domain_from(sel: u8) -> u64 {
    match sel % 6 {
        0 => 1,
        1 => 63,
        2 => 64,
        3 => 65,
        4 => 2 + (sel as u64 * 7) % 198,
        _ => DIRECT_GROUPS_LIMIT + 7,
    }
}

/// One row of raw code entropy (reduced into each column's domain) plus a
/// term.
type RawRow = ((u64, u64, u64), i64);

/// 1–3 group columns (domain selectors) plus per-row raw rows.
fn grouped_rows() -> impl Strategy<Value = (Vec<u8>, Vec<RawRow>)> {
    (
        prop::collection::vec(0u8..255, 1..4),
        prop::collection::vec(
            ((0u64..1 << 62, 0u64..1 << 62, 0u64..1 << 62), -1000i64..1000),
            0..200,
        ),
    )
}

fn codes_for(domains: &[u64], raw: &(u64, u64, u64)) -> Vec<u64> {
    [raw.0, raw.1, raw.2].iter().zip(domains).map(|(&r, &d)| r % d).collect()
}

fn layout_for(domains: &[u64]) -> GroupLayout<'static> {
    // IntOffset decoders with distinct references so columns are
    // distinguishable in the decoded keys.
    GroupLayout::try_new(
        domains
            .iter()
            .enumerate()
            .map(|(c, &d)| (d, CodeDecoder::IntOffset(c as i64 * 10)))
            .collect(),
    )
    .expect("test domains compose")
}

fn decoded_key(codes: &[u64]) -> Vec<Value> {
    codes.iter().enumerate().map(|(c, &code)| Value::Int(c as i64 * 10 + code as i64)).collect()
}

proptest! {
    #[test]
    fn code_grouper_matches_reference_across_ndv_regimes(
        (sels, rows) in grouped_rows()
    ) {
        let domains: Vec<u64> = sels.iter().map(|&s| domain_from(s)).collect();
        let layout = layout_for(&domains);
        let q = query(2, 1);
        let mut code = CodeGrouper::for_layout(&layout);
        let mut reference = Grouper::new();
        for (raw, term) in &rows {
            let codes = codes_for(&domains, raw);
            let mut id = 0u64;
            for (c, &code_c) in codes.iter().enumerate() {
                id = id * code.radix(c) + code_c;
            }
            code.add(id, *term);
            reference.add(decoded_key(&codes), *term);
        }
        prop_assert_eq!(code.len(), reference.len());
        prop_assert_eq!(code.finish(&layout, &q), reference.finish(&q));
    }

    #[test]
    fn merge_splits_match_single_pass(
        (sels, rows) in grouped_rows(),
        chunk in 1usize..64,
    ) {
        let domains: Vec<u64> = sels.iter().map(|&s| domain_from(s)).collect();
        let layout = layout_for(&domains);
        let q = query(2, 1);
        let compose = |g: &CodeGrouper, codes: &[u64]| {
            codes.iter().enumerate().fold(0u64, |id, (c, &code_c)| id * g.radix(c) + code_c)
        };
        let mut whole = CodeGrouper::for_layout(&layout);
        for (raw, term) in &rows {
            let id = compose(&whole, &codes_for(&domains, raw));
            whole.add(id, *term);
        }
        // Morsel-style: per-chunk partials merged in chunk order.
        let mut merged = CodeGrouper::for_layout(&layout);
        for part_rows in rows.chunks(chunk) {
            let mut part = CodeGrouper::for_layout(&layout);
            for (raw, term) in part_rows {
                let id = compose(&part, &codes_for(&domains, raw));
                part.add(id, *term);
            }
            merged.merge(part);
        }
        prop_assert_eq!(merged.finish(&layout, &q), whole.finish(&layout, &q));
    }

    #[test]
    fn aggregate_columns_matches_reference(
        rows in prop::collection::vec((0u8..5, 0u8..7, -1000i64..1000), 0..120)
    ) {
        // Two group columns (one int-flavored, one string-flavored) through
        // the interned-dictionary path vs the per-row clone reference.
        let col_a: Vec<Value> = rows.iter().map(|(a, _, _)| Value::Int(*a as i64)).collect();
        let col_b: Vec<Value> = rows.iter().map(|(_, b, _)| Value::str(format!("g{b}"))).collect();
        let terms: Vec<i64> = rows.iter().map(|(_, _, t)| *t).collect();
        let q = query(2, 1);
        let mut reference = Grouper::new();
        for (i, &term) in terms.iter().enumerate() {
            reference.add(vec![col_a[i].clone(), col_b[i].clone()], term);
        }
        let got = aggregate_columns(&q, &[col_a, col_b], &terms);
        prop_assert_eq!(got, reference.finish(&q));
    }
}

#[test]
fn multi_column_radix_overflow_lands_in_hash_path() {
    // Each column individually fits the direct accumulator, but the radix
    // product overflows DIRECT_GROUPS_LIMIT — the layout must switch to the
    // hash kernel and still agree with the reference.
    let domains = [1000u64, 1000, 7];
    let layout = layout_for(&domains);
    assert!(layout.total_domain() > DIRECT_GROUPS_LIMIT);
    assert!(!layout.is_direct());
    let q = query(3, 2);
    let mut code = CodeGrouper::for_layout(&layout);
    let mut reference = Grouper::new();
    for i in 0..5000u64 {
        let codes = [(i * 37) % 1000, (i * 91) % 1000, i % 7];
        let mut id = 0u64;
        for (c, &code_c) in codes.iter().enumerate() {
            id = id * code.radix(c) + code_c;
        }
        code.add(id, i as i64 % 97 - 48);
        reference.add(decoded_key(&codes), i as i64 % 97 - 48);
    }
    assert_eq!(code.finish(&layout, &q), reference.finish(&q));
}

#[test]
fn u64_radix_overflow_has_no_layout() {
    // Domains whose product overflows u64 composition cannot form a layout
    // at all; engines fall back to the Value-keyed reference.
    let cols: Vec<(u64, CodeDecoder)> =
        (0..3).map(|_| (u64::MAX / 3, CodeDecoder::IntOffset(0))).collect();
    assert!(GroupLayout::try_new(cols).is_none());
}
