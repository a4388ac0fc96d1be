//! Positional value extraction — the materialization half of late
//! materialization.
//!
//! Once predicates have produced a position list, the surviving plan needs
//! actual values: measure columns at fact positions (ascending — cheap,
//! page-local) and dimension attributes at foreign-key-derived positions
//! (arbitrary order — the "out-of-order extraction" cost the invisible join
//! is designed to minimize, Section 5.4).
//!
//! Ascending gathers run a block of positions at a time ([`BLOCK`]): the
//! encoding is matched once per block, RLE columns keep a run cursor from
//! block to block, and the page charge is found page by page
//! ([`StoredColumn::record_ascending`]) rather than position by position.

use crate::agg::CodeDecoder;
use crate::poslist::PosList;
use cvr_data::value::Value;
use cvr_storage::column::{GatherPages, StoredColumn};
use cvr_storage::encode::{Column, IntColumn, RunCursor, StrColumn};
use cvr_storage::io::IoSession;

/// Positions per block of a block-at-a-time gather: small enough that a
/// block's intermediates stay in the core's cache.
pub(crate) const BLOCK: usize = 512;

/// Charge a gather of the ascending positions of `pos` — the same op
/// [`StoredColumn::charge_gather`] charges for them, found page by page.
pub(crate) fn charge_ascending(col: &StoredColumn, pos: &PosList, io: &IoSession) {
    let mut rec = GatherPages::new();
    pos.for_each_block(BLOCK, |block| col.record_ascending(block, &mut rec));
    col.charge_pages(&rec, io);
}

/// Reads an integer column at ascending positions, block by block (blocks
/// of at most [`BLOCK`] positions). Charges nothing.
pub(crate) struct IntReader<'a> {
    int: &'a IntColumn,
    runs: RunCursor<'a>,
    scratch: Box<[u64; BLOCK]>,
}

impl<'a> IntReader<'a> {
    /// A reader positioned before the first value of `int`.
    pub(crate) fn new(int: &'a IntColumn) -> IntReader<'a> {
        let runs = match int {
            IntColumn::Rle { runs, .. } => runs.as_slice(),
            _ => &[],
        };
        IntReader { int, runs: RunCursor::new(runs), scratch: Box::new([0; BLOCK]) }
    }

    /// Values at `positions` (ascending, after every position read
    /// before), written to the front of `out`.
    #[inline]
    pub(crate) fn read(&mut self, positions: &[u32], out: &mut [i64]) {
        match self.int {
            IntColumn::Plain { values, .. } => {
                for (o, &p) in out.iter_mut().zip(positions) {
                    *o = values[p as usize];
                }
            }
            IntColumn::Rle { runs, .. } => {
                for (o, &p) in out.iter_mut().zip(positions) {
                    *o = runs[self.runs.seek(p)].value;
                }
            }
            IntColumn::Packed { reference, packed } => {
                let codes = &mut self.scratch[..positions.len()];
                packed.gather(positions, codes);
                for (o, &c) in out.iter_mut().zip(codes.iter()) {
                    *o = reference + c as i64;
                }
            }
        }
    }
}

/// Gather integer values at the (ascending) positions of `pos`.
pub fn gather_ints(col: &StoredColumn, pos: &PosList, io: &IoSession) -> Vec<i64> {
    charge_ascending(col, pos, io);
    let mut reader = IntReader::new(col.column.as_int());
    let mut out = vec![0; pos.count() as usize];
    let mut at = 0;
    pos.for_each_block(BLOCK, |block| {
        reader.read(block, &mut out[at..]);
        at += block.len();
    });
    out
}

/// Gather string values (as [`Value`]s) at ascending positions.
pub fn gather_strs(col: &StoredColumn, pos: &PosList, io: &IoSession) -> Vec<Value> {
    charge_ascending(col, pos, io);
    let s = col.column.as_str();
    pos.iter().map(|p| Value::Str(s.value_at(p).into())).collect()
}

/// Gather any column at ascending positions as [`Value`]s.
pub fn gather_values(col: &StoredColumn, pos: &PosList, io: &IoSession) -> Vec<Value> {
    match &col.column {
        Column::Int(_) => gather_ints(col, pos, io).into_iter().map(Value::Int).collect(),
        Column::Str(_) => gather_strs(col, pos, io),
    }
}

/// Extract values at *arbitrary-order* positions (dimension lookups keyed by
/// fact order). Charges a positional gather in the given order — page
/// re-touches resolve through the buffer pool, but the access pattern is
/// honest.
pub fn extract_at(col: &StoredColumn, positions: &[u32], io: &IoSession) -> Vec<Value> {
    col.charge_gather(positions.iter().copied(), io);
    values_at(col, positions)
}

/// The values at arbitrary-order `positions`, charging nothing (the read
/// half of [`extract_at`]).
pub(crate) fn values_at(col: &StoredColumn, positions: &[u32]) -> Vec<Value> {
    match &col.column {
        Column::Int(IntColumn::Plain { values, .. }) => {
            positions.iter().map(|&p| Value::Int(values[p as usize])).collect()
        }
        // An empty run directory with non-empty positions panics inside the
        // cursor, at the fault site, like a binary search would.
        Column::Int(IntColumn::Rle { runs, .. }) => {
            let mut cursor = RunCursor::new(runs);
            positions.iter().map(|&p| Value::Int(cursor.value_at(p))).collect()
        }
        Column::Int(IntColumn::Packed { reference, packed }) => {
            positions.iter().map(|&p| Value::Int(reference + packed.get(p) as i64)).collect()
        }
        Column::Str(StrColumn::Plain { values, .. }) => {
            positions.iter().map(|&p| Value::Str(values[p as usize].clone())).collect()
        }
        Column::Str(StrColumn::Dict { dict, codes }) => {
            positions.iter().map(|&p| Value::Str(dict[codes.get(p) as usize].clone())).collect()
        }
    }
}

/// The code space of a stored column — how positions map to dense `u32`
/// codes and how codes decode back to [`Value`]s. This is the extraction
/// half of code-level aggregation: group columns are read as codes (no
/// string materialization, no per-row clones) and decoded once per group at
/// finish.
///
/// Derived purely from column-header metadata
/// ([`IntColumn::code_bounds`], the dictionary length), so every morsel
/// derives the *same* space and codes stay globally consistent. Plain
/// string columns have no global code assignment and return `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeSpace {
    /// Integer column: `code = value - reference`, `code < domain`.
    Int {
        /// The column minimum (frame of reference).
        reference: i64,
        /// One past the largest code.
        domain: u64,
    },
    /// Dictionary string column: codes are the dictionary codes.
    Dict {
        /// Number of dictionary entries.
        domain: u64,
    },
}

impl CodeSpace {
    /// The code space of `col`, when it has one.
    pub fn of(col: &StoredColumn) -> Option<CodeSpace> {
        match &col.column {
            Column::Int(_) => col
                .int_code_bounds()
                .map(|(reference, domain)| CodeSpace::Int { reference, domain }),
            Column::Str(s @ StrColumn::Dict { .. }) => {
                Some(CodeSpace::Dict { domain: s.dict_parts().0.len() as u64 })
            }
            Column::Str(StrColumn::Plain { .. }) => None,
        }
    }

    /// Number of distinct codes (`codes < domain`).
    pub fn domain(&self) -> u64 {
        match self {
            CodeSpace::Int { domain, .. } | CodeSpace::Dict { domain } => *domain,
        }
    }

    /// The finish-time decoder for this space over `col`. A dictionary
    /// decoder borrows the column's dictionary; entries are cloned only as
    /// groups decode, once per group — never per row.
    pub fn decoder<'a>(&self, col: &'a StoredColumn) -> CodeDecoder<'a> {
        match self {
            CodeSpace::Int { reference, .. } => CodeDecoder::IntOffset(*reference),
            CodeSpace::Dict { .. } => CodeDecoder::Dict(col.column.as_str().dict_parts().0),
        }
    }
}

/// Extract codes at *arbitrary-order* positions — the code-level
/// counterpart of [`extract_at`], charging the identical positional gather.
/// `space` must be [`CodeSpace::of`] this column.
pub fn extract_codes_at(
    space: &CodeSpace,
    col: &StoredColumn,
    positions: &[u32],
    io: &IoSession,
) -> Vec<u32> {
    col.charge_gather(positions.iter().copied(), io);
    let mut out = Vec::with_capacity(positions.len());
    match (&col.column, space) {
        (Column::Int(int), CodeSpace::Int { reference, .. }) => match int {
            IntColumn::Plain { values, .. } => {
                for &p in positions {
                    out.push((values[p as usize] - reference) as u32);
                }
            }
            IntColumn::Rle { runs, .. } => {
                let mut cursor = RunCursor::new(runs);
                for &p in positions {
                    out.push((cursor.value_at(p) - reference) as u32);
                }
            }
            // `code_bounds` reference for packed columns is the frame of
            // reference itself, so the stored delta *is* the code.
            IntColumn::Packed { packed, .. } => {
                for &p in positions {
                    out.push(packed.get(p) as u32);
                }
            }
        },
        (Column::Str(s @ StrColumn::Dict { .. }), CodeSpace::Dict { .. }) => {
            for &p in positions {
                out.push(s.code_at(p));
            }
        }
        _ => panic!("code space does not match column encoding"),
    }
    out
}

/// Gather codes at the *ascending* positions of `pos` — the code-level
/// counterpart of [`gather_values`], charging the identical gather.
pub fn gather_codes(
    space: &CodeSpace,
    col: &StoredColumn,
    pos: &PosList,
    io: &IoSession,
) -> Vec<u32> {
    charge_ascending(col, pos, io);
    let mut out = vec![0; pos.count() as usize];
    let mut at = 0;
    match (&col.column, space) {
        (Column::Int(int), CodeSpace::Int { reference, .. }) => {
            let mut reader = IntReader::new(int);
            let mut values = [0i64; BLOCK];
            pos.for_each_block(BLOCK, |block| {
                reader.read(block, &mut values);
                for (o, &v) in out[at..].iter_mut().zip(&values[..block.len()]) {
                    *o = (v - reference) as u32;
                }
                at += block.len();
            });
        }
        (Column::Str(StrColumn::Dict { codes, .. }), CodeSpace::Dict { .. }) => {
            let mut scratch = [0u64; BLOCK];
            pos.for_each_block(BLOCK, |block| {
                codes.gather(block, &mut scratch);
                for (o, &c) in out[at..].iter_mut().zip(&scratch[..block.len()]) {
                    *o = c as u32;
                }
                at += block.len();
            });
        }
        _ => panic!("code space does not match column encoding"),
    }
    out
}

/// Decode an entire column to owned [`Value`]s (early materialization /
/// tuple construction). Charges a full scan.
pub fn decode_all(col: &StoredColumn, io: &IoSession) -> Vec<Value> {
    col.charge_scan(io);
    match &col.column {
        Column::Int(int) => int.decode().into_iter().map(Value::Int).collect(),
        Column::Str(s) => s.decode().into_iter().map(Value::Str).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_storage::encode::{IntColumn, StrColumn};

    fn rle_col() -> StoredColumn {
        let mut values = Vec::new();
        for v in 0..20i64 {
            values.extend(std::iter::repeat_n(v * 10, 7));
        }
        StoredColumn::new("c", Column::Int(IntColumn::rle(&values)))
    }

    #[test]
    fn gather_ints_plain_and_rle_agree() {
        let mut values = Vec::new();
        for v in 0..20i64 {
            values.extend(std::iter::repeat_n(v * 10, 7));
        }
        let plain = StoredColumn::new("c", Column::Int(IntColumn::plain(values)));
        let rle = rle_col();
        let pos = PosList::Explicit { positions: vec![0, 6, 7, 69, 139], universe: 140 };
        let io = IoSession::unmetered();
        assert_eq!(gather_ints(&plain, &pos, &io), gather_ints(&rle, &pos, &io));
        assert_eq!(gather_ints(&rle, &pos, &io), vec![0, 0, 10, 90, 190]);
    }

    #[test]
    fn gather_over_range() {
        let col = rle_col();
        let io = IoSession::unmetered();
        let pos = PosList::Range { start: 5, end: 9, universe: 140 };
        assert_eq!(gather_ints(&col, &pos, &io), vec![0, 0, 10, 10]);
    }

    #[test]
    fn gather_strs_dict_and_plain_agree() {
        let values: Vec<String> = (0..100).map(|i| format!("v{}", i % 9)).collect();
        let plain = StoredColumn::new("c", Column::Str(StrColumn::plain(values.clone())));
        let dict = StoredColumn::new("c", Column::Str(StrColumn::dict(&values)));
        let pos = PosList::Explicit { positions: vec![0, 8, 9, 99], universe: 100 };
        let io = IoSession::unmetered();
        assert_eq!(gather_strs(&plain, &pos, &io), gather_strs(&dict, &pos, &io));
    }

    #[test]
    fn extract_at_arbitrary_order() {
        let col = rle_col();
        let io = IoSession::unmetered();
        let got = extract_at(&col, &[139, 0, 70], &io);
        assert_eq!(got, vec![Value::Int(190), Value::Int(0), Value::Int(100)]);
    }

    #[test]
    fn extract_at_memoized_rle_handles_all_access_patterns() {
        let col = rle_col();
        let io = IoSession::unmetered();
        // Bursty (same run), forward-adjacent, and random back-jumps: the
        // memoized cursor must agree with per-position binary search.
        let patterns: [&[u32]; 3] =
            [&[0, 1, 2, 3, 4], &[0, 7, 14, 21, 28], &[139, 0, 70, 69, 70, 1, 138]];
        for positions in patterns {
            let got = extract_at(&col, positions, &io);
            let want: Vec<Value> =
                positions.iter().map(|&p| Value::Int(col.column.as_int().value_at(p))).collect();
            assert_eq!(got, want, "{positions:?}");
        }
    }

    #[test]
    fn code_space_per_encoding() {
        let rle = rle_col();
        let space = CodeSpace::of(&rle).expect("rle ints have a code space");
        assert_eq!(space, CodeSpace::Int { reference: 0, domain: 191 });
        let vals: Vec<String> = (0..100).map(|i| format!("v{}", i % 9)).collect();
        let dict = StoredColumn::new("c", Column::Str(StrColumn::dict(&vals)));
        assert_eq!(CodeSpace::of(&dict), Some(CodeSpace::Dict { domain: 9 }));
        let plain = StoredColumn::new("c", Column::Str(StrColumn::plain(vals)));
        assert_eq!(CodeSpace::of(&plain), None, "plain strings have no global codes");
    }

    #[test]
    fn codes_decode_back_to_extracted_values() {
        let vals: Vec<String> = (0..100).map(|i| format!("v{}", i % 9)).collect();
        let cols = [
            rle_col(),
            StoredColumn::new(
                "p",
                Column::Int(
                    IntColumn::packed(&(0..140).map(|i| 1992 + i % 7).collect::<Vec<_>>()).unwrap(),
                ),
            ),
            StoredColumn::new("s", Column::Str(StrColumn::dict(&vals))),
        ];
        let io = IoSession::unmetered();
        let positions = [99u32, 0, 63, 64, 65, 7, 99];
        for col in &cols {
            let space = CodeSpace::of(col).expect("code space");
            let decoder = space.decoder(col);
            let codes = extract_codes_at(&space, col, &positions, &io);
            let want = extract_at(col, &positions, &io);
            let got: Vec<Value> = codes
                .iter()
                .map(|&c| {
                    assert!((c as u64) < space.domain());
                    match &decoder {
                        crate::agg::CodeDecoder::IntOffset(r) => Value::Int(r + c as i64),
                        crate::agg::CodeDecoder::Dict(d) => Value::Str(d[c as usize].clone()),
                        crate::agg::CodeDecoder::Values(v) => v[c as usize].clone(),
                    }
                })
                .collect();
            assert_eq!(got, want, "{}", col.name);
        }
    }

    #[test]
    fn gather_codes_matches_extract_codes_and_charges_identically() {
        let col = rle_col();
        let space = CodeSpace::of(&col).unwrap();
        let positions = vec![0u32, 6, 7, 69, 139];
        let pos = PosList::Explicit { positions: positions.clone(), universe: 140 };
        let a = IoSession::unmetered();
        let gathered = gather_codes(&space, &col, &pos, &a);
        let b = IoSession::unmetered();
        let extracted = extract_codes_at(&space, &col, &positions, &b);
        assert_eq!(gathered, extracted);
        assert_eq!(a.stats().bytes_read, b.stats().bytes_read);
        // And the charge equals the Value-materializing gather's.
        let c = IoSession::unmetered();
        gather_ints(&col, &pos, &c);
        assert_eq!(a.stats().bytes_read, c.stats().bytes_read);
        assert_eq!(a.stats().pages_read, c.stats().pages_read);
    }

    #[test]
    fn decode_all_round_trips() {
        let col = rle_col();
        let io = IoSession::unmetered();
        let vals = decode_all(&col, &io);
        assert_eq!(vals.len(), 140);
        assert_eq!(vals[0], Value::Int(0));
        assert_eq!(vals[139], Value::Int(190));
        assert_eq!(io.stats().bytes_read, col.bytes());
    }
}
