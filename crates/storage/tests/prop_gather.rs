//! Property tests for positional-gather charging: every way the engine
//! charges a gather must emit the same page reads, in the same order and
//! op segmentation, as the per-position rule below — the rule
//! `StoredColumn::charge_gather` applied before gathers were charged on
//! page changes. The rule maps each position to the byte offset of its
//! value (RLE runs located by binary search), reads a page whenever the
//! offset's page differs from the previous position's, and charges a
//! dictionary column's whole dictionary prefix first.
//!
//! Checked for plain, RLE and bit-packed integers and dictionary and plain
//! strings, on single-page and multi-page columns, for ascending and
//! arbitrary-order position lists, including empty and one-position lists.

use cvr_storage::column::{GatherPages, StoredColumn};
use cvr_storage::encode::{Column, IntColumn, StrColumn, RLE_RUN_BYTES};
use cvr_storage::io::{pages_for, BufferPool, IoLog, IoSession, PageId, PAGE_SIZE};
use proptest::prelude::*;

/// The per-position charging rule (the oracle).
fn oracle_gather(col: &StoredColumn, positions: &[u32], io: &IoSession) {
    io.begin_op();
    let (file, total) = (col.file_id(), col.column.encoded_bytes());
    let mut last_page = u32::MAX;
    let mut touch = |byte_off: u64| {
        let page = (byte_off / PAGE_SIZE) as u32;
        if page != last_page {
            io.read_page(PageId { file, page }, (total - page as u64 * PAGE_SIZE).min(PAGE_SIZE));
            last_page = page;
        }
    };
    match &col.column {
        Column::Int(IntColumn::Plain { width, .. }) => {
            positions.iter().for_each(|&p| touch(p as u64 * *width as u64))
        }
        Column::Int(rle @ IntColumn::Rle { .. }) => {
            positions.iter().for_each(|&p| touch(rle.run_containing(p) as u64 * RLE_RUN_BYTES))
        }
        Column::Int(IntColumn::Packed { packed, .. }) => {
            let k = packed.lanes_per_word() as u64;
            positions.iter().for_each(|&p| touch(p as u64 / k * 8))
        }
        Column::Str(StrColumn::Dict { dict, codes }) => {
            let dict_bytes: u64 = dict.iter().map(|s| 1 + s.len() as u64).sum();
            for page in 0..pages_for(dict_bytes) {
                let bytes = (dict_bytes - page as u64 * PAGE_SIZE).min(PAGE_SIZE);
                io.read_page(PageId { file, page }, bytes);
            }
            let k = codes.lanes_per_word() as u64;
            positions.iter().for_each(|&p| touch(dict_bytes + p as u64 / k * 8))
        }
        Column::Str(StrColumn::Plain { values, bytes }) => {
            let avg = if values.is_empty() { 1 } else { (*bytes / values.len() as u64).max(1) };
            positions.iter().for_each(|&p| touch(p as u64 * avg))
        }
    }
}

/// The log one charging function leaves on a recording session.
fn log_of(charge: impl FnOnce(&IoSession)) -> IoLog {
    let io = IoSession::recording(BufferPool::unbounded());
    charge(&io);
    io.take_log()
}

/// SplitMix64, for deterministic column contents from one seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A column of `n` values in encoding `kind` (0 plain ints, 1 RLE, 2 packed,
/// 3 dictionary strings, 4 plain strings). `wide` stretches values so the
/// column spans several pages even at small `n`.
fn column(kind: u8, n: usize, wide: bool, seed: u64) -> StoredColumn {
    let r = |i: usize| mix(seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let col = match kind {
        0 => {
            let spread = if wide { 1 << 40 } else { 200 };
            Column::Int(IntColumn::plain((0..n).map(|i| (r(i) % spread) as i64).collect()))
        }
        1 => {
            // Short runs, so a wide column has thousands of 12-byte runs.
            let run = if wide { 2 } else { 50 };
            Column::Int(IntColumn::rle(&(0..n).map(|i| (i / run) as i64 % 7).collect::<Vec<_>>()))
        }
        2 => {
            let spread = if wide { 1 << 30 } else { 60 };
            let values: Vec<i64> = (0..n).map(|i| (r(i) % spread) as i64 - 5).collect();
            Column::Int(IntColumn::packed(&values).unwrap_or_else(|| IntColumn::plain(values)))
        }
        3 => {
            // A long-valued dictionary pushes the codes past page 0.
            let distinct = if wide { 700 } else { 9 };
            let pad = if wide { 60 } else { 1 };
            let values: Vec<String> = (0..n)
                .map(|i| format!("{:0pad$}", r(i) % distinct, pad = pad + (r(i) % 3) as usize))
                .collect();
            Column::Str(StrColumn::dict(&values))
        }
        _ => {
            let len = if wide { 30 } else { 3 };
            let values: Vec<String> =
                (0..n).map(|i| "s".repeat(1 + (r(i) % len) as usize)).collect();
            Column::Str(StrColumn::plain(values))
        }
    };
    StoredColumn::new("c", col)
}

/// `count` positions over `n` values: strictly ascending or in arbitrary
/// order with repeats.
fn positions(n: usize, count: usize, ascending: bool, seed: u64) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    let mut out: Vec<u32> =
        (0..count).map(|i| (mix(seed ^ !(i as u64)) % n as u64) as u32).collect();
    if ascending {
        out.sort_unstable();
        out.dedup();
    } else if count > 3 {
        // Bursts of one position, like fact rows sharing a foreign key.
        out[1] = out[0];
        out[2] = out[0];
    }
    out
}

/// Check every charging path against the oracle for one column.
fn check(
    col: &StoredColumn,
    pos: &[u32],
    ascending: bool,
    block: usize,
) -> Result<(), TestCaseError> {
    let want = log_of(|io| oracle_gather(col, pos, io));

    // The general entry point, in the given order.
    prop_assert_eq!(log_of(|io| col.charge_gather(pos.iter().copied(), io)), want.clone());

    // The row → page table (single-page columns touch page 0).
    let mut rec = GatherPages::new();
    for &p in pos {
        rec.touch(col.row_pages().map_or(0, |pages| pages[p as usize]));
    }
    prop_assert_eq!(log_of(|io| col.charge_pages(&rec, io)), want.clone());
    for &p in pos {
        prop_assert_eq!(col.row_pages().map_or(0, |pages| pages[p as usize]), col.page_of(p));
    }

    // Page-by-page recording of ascending positions, in blocks.
    if ascending {
        let mut rec = GatherPages::new();
        pos.chunks(block.max(1)).for_each(|b| col.record_ascending(b, &mut rec));
        prop_assert_eq!(log_of(|io| col.charge_pages(&rec, io)), want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn every_charging_path_matches_the_per_position_rule(
        kind in 0u8..5,
        n in 0usize..12_000,
        wide in any::<bool>(),
        count in 0usize..400,
        ascending in any::<bool>(),
        block in 1usize..700,
        seed in any::<u64>(),
    ) {
        let col = column(kind, n, wide, seed);
        let pos = positions(n, count, ascending, seed);
        check(&col, &pos, ascending, block)?;
    }
}

#[test]
fn empty_and_single_position_lists_on_single_and_multi_page_columns() {
    let mut multi_page = [false; 5];
    for kind in 0..5u8 {
        for wide in [false, true] {
            let col = column(kind, 9_000, wide, 7);
            multi_page[kind as usize] |= col.pages() > 1;
            for pos in [vec![], vec![0], vec![8_999], vec![4_321]] {
                check(&col, &pos, true, 3).unwrap();
                check(&col, &pos, false, 3).unwrap();
            }
            // Every position, ascending: each page of the column in turn,
            // in blocks that straddle the page boundaries in every way.
            let all: Vec<u32> = (0..9_000).collect();
            for block in [1, 3, 7, 512] {
                check(&col, &all, true, block).unwrap();
            }
        }
    }
    assert_eq!(multi_page, [true; 5], "every encoding must reach a multi-page column");
}
