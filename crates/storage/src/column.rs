//! Column-store table storage: named, encoded, metered columns.
//!
//! A [`ColumnStore`] holds one [`StoredColumn`] per table column. Each stored
//! column owns a [`FileId`] so buffer-pool residency and I/O charging work at
//! page grain, like the heap files on the row side — but here a query only
//! touches the files of the columns it reads, which is the column-store's
//! core I/O advantage.
//!
//! Charging helpers:
//! * [`StoredColumn::charge_scan`] — a full sequential read (predicate
//!   application, block iteration over a whole column);
//! * [`StoredColumn::charge_gather`] — positional extraction (late
//!   materialization): only the pages covering the requested positions are
//!   fetched, in position order.

use crate::encode::{Column, IntColumn, RunCursor, StrColumn, RLE_RUN_BYTES};
use crate::io::{pages_for, FileId, IoSession, PageId, PAGE_SIZE};
use cvr_data::table::TableData;
use std::sync::OnceLock;

/// The pages one positional gather touches, recorded on page changes: a
/// position on the same page as the one before it adds nothing. This is
/// the charge of one [`StoredColumn::charge_gather`] op minus the
/// dictionary prefix, which [`StoredColumn::charge_pages`] adds.
///
/// Recording is separate from charging so a fused extraction loop can
/// record several columns' gathers as it goes and charge them afterwards,
/// op by op, in the order separate gathers would have charged them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatherPages {
    pages: Vec<u32>,
    last: u32,
}

impl Default for GatherPages {
    fn default() -> GatherPages {
        GatherPages { pages: Vec::new(), last: u32::MAX }
    }
}

impl GatherPages {
    /// An empty record.
    pub fn new() -> GatherPages {
        GatherPages::default()
    }

    /// Record a touch of `page`; repeats of the previous page are dropped.
    #[inline]
    pub fn touch(&mut self, page: u32) {
        if page != self.last {
            self.pages.push(page);
            self.last = page;
        }
    }
}

/// One encoded column plus its storage identity.
#[derive(Debug)]
pub struct StoredColumn {
    /// Column name (matches the logical schema).
    pub name: String,
    /// The encoded payload.
    pub column: Column,
    file: FileId,
    /// On-disk bytes, computed once: the column is immutable, and every
    /// page charge needs the size of the page it reads.
    bytes: u64,
    /// Bytes of the dictionary prefix of a dictionary column (`None` for
    /// every other encoding), computed once for the same reason.
    dict_bytes: Option<u64>,
    /// Lazily computed zone-map bounds (see
    /// [`StoredColumn::int_code_bounds`]): the value sweep for plain/RLE
    /// integers runs at most once per column, not once per query.
    code_bounds: OnceLock<Option<(i64, u64)>>,
    /// Lazily built position → code table (see [`StoredColumn::row_codes`]).
    row_codes: OnceLock<Option<Box<[u32]>>>,
    /// Lazily built position → page table (see [`StoredColumn::row_pages`]).
    row_pages: OnceLock<Option<Box<[u32]>>>,
}

impl StoredColumn {
    /// Wrap an encoded column under `name`.
    pub fn new(name: impl Into<String>, column: Column) -> StoredColumn {
        let dict_bytes = match &column {
            Column::Str(s @ StrColumn::Dict { .. }) => Some(s.dict_bytes()),
            _ => None,
        };
        StoredColumn {
            name: name.into(),
            bytes: column.encoded_bytes(),
            dict_bytes,
            column,
            file: FileId::fresh(),
            code_bounds: OnceLock::new(),
            row_codes: OnceLock::new(),
            row_pages: OnceLock::new(),
        }
    }

    /// Cached [`IntColumn::code_bounds`] of an integer column (`None` for
    /// string columns) — the zone-map header a real store keeps next to
    /// the data, computed once per column.
    pub fn int_code_bounds(&self) -> Option<(i64, u64)> {
        *self.code_bounds.get_or_init(|| match &self.column {
            Column::Int(int) => int.code_bounds(),
            Column::Str(_) => None,
        })
    }

    /// The code of every position, built once per column: `value -
    /// reference` for integers with [`StoredColumn::int_code_bounds`], the
    /// dictionary code for dictionary strings, `None` for columns without a
    /// code space (plain strings, integers wider than `u32`). Phase 3 looks
    /// group codes up here by dimension row instead of decoding per row.
    /// Built from the in-memory column; it charges no I/O.
    pub fn row_codes(&self) -> Option<&[u32]> {
        self.row_codes
            .get_or_init(|| match &self.column {
                Column::Int(int) => {
                    let (reference, _) = self.int_code_bounds()?;
                    Some(int.decode().into_iter().map(|v| (v - reference) as u32).collect())
                }
                Column::Str(StrColumn::Dict { codes, .. }) => {
                    Some(codes.iter().map(|c| c as u32).collect())
                }
                Column::Str(StrColumn::Plain { .. }) => None,
            })
            .as_deref()
    }

    /// The page [`StoredColumn::charge_gather`] touches for every position,
    /// built once per column, for gathers in arbitrary order (dimension
    /// rows in fact order). `None` when the column has a single page: every
    /// position then touches page 0. Built from the in-memory column; it
    /// charges no I/O.
    pub fn row_pages(&self) -> Option<&[u32]> {
        self.row_pages
            .get_or_init(|| {
                if self.pages() == 1 {
                    return None;
                }
                let n = self.column.len() as u32;
                Some((0..n).map(|p| self.page_of(p)).collect())
            })
            .as_deref()
    }

    /// On-disk bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// On-disk pages.
    pub fn pages(&self) -> u32 {
        pages_for(self.bytes())
    }

    /// Storage file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Bytes of `page` (the last page of a file may be short).
    fn page_bytes(&self, page: u32) -> u64 {
        (self.bytes - page as u64 * PAGE_SIZE).min(PAGE_SIZE)
    }

    /// Charge a full sequential scan of this column.
    pub fn charge_scan(&self, io: &IoSession) {
        io.begin_op();
        io.read_file_sequential(self.file, self.bytes());
    }

    /// Charge the slice of a sequential scan covering positions
    /// `[start, end)` of `n` total values.
    ///
    /// The byte range uses the same position → byte mapping as
    /// [`StoredColumn::charge_gather`] (run offsets for RLE, proportional
    /// share `[start·B/n, end·B/n)` otherwise), so consecutive position
    /// ranges tile the file exactly: morsel workers that split `[0, n)`
    /// among themselves charge, in aggregate and in morsel order, the same
    /// page sequence as one [`StoredColumn::charge_scan`] — shared boundary
    /// pages resolve to buffer-pool hits on replay — and a positional gather
    /// within a scanned morsel never touches a page the morsel's scan
    /// missed.
    pub fn charge_scan_range(&self, start: u32, end: u32, io: &IoSession) {
        io.begin_op();
        let n = self.column.len() as u64;
        let total = self.bytes();
        if n == 0 || total == 0 {
            // Degenerate columns still occupy one page, like charge_scan.
            if start == 0 {
                io.read_page(PageId { file: self.file, page: 0 }, total.min(PAGE_SIZE));
            }
            return;
        }
        if start >= end {
            return;
        }
        let (byte_lo, byte_hi) = match &self.column {
            // RLE: charge whole runs, matching charge_gather's offsets; a
            // run straddling a morsel boundary is charged by both sides and
            // dedups to a pool hit.
            Column::Int(rle @ IntColumn::Rle { .. }) => {
                let lo = rle.run_containing(start) as u64 * RLE_RUN_BYTES;
                let hi = (rle.run_containing(end - 1) as u64 + 1) * RLE_RUN_BYTES;
                (lo, hi.min(total))
            }
            // Packed: charge whole 8-byte words, matching charge_gather's
            // word offsets; a word shared by two morsels dedups to a hit.
            Column::Int(IntColumn::Packed { packed, .. }) => {
                let k = packed.lanes_per_word() as u64;
                let lo = start as u64 / k * 8;
                let hi = ((end - 1) as u64 / k + 1) * 8;
                (lo, hi.min(total))
            }
            // Dict: the dictionary prefix (needed to decode anything) plus
            // the word-aligned slice of the packed codes — the same offsets
            // charge_gather touches, so a gather within a scanned morsel
            // never reaches a page the morsel's scan missed. Every fragment
            // charges the dictionary; repeated pages dedup to pool hits.
            Column::Str(StrColumn::Dict { codes, .. }) => {
                let dict_bytes = self.dict_bytes.unwrap_or(0);
                let k = codes.lanes_per_word() as u64;
                let hi = dict_bytes + ((end - 1) as u64 / k + 1) * 8;
                if start == 0 {
                    // The code slice is contiguous with the dictionary.
                    (0, hi.min(total))
                } else {
                    if dict_bytes > 0 {
                        let last = ((dict_bytes - 1) / PAGE_SIZE) as u32;
                        for page in 0..=last {
                            io.read_page(PageId { file: self.file, page }, self.page_bytes(page));
                        }
                    }
                    (dict_bytes + start as u64 / k * 8, hi.min(total))
                }
            }
            _ => (start as u64 * total / n, (end as u64 * total / n).min(total)),
        };
        if byte_hi <= byte_lo {
            return; // this slice of a highly-compressed column is sub-byte
        }
        let first = (byte_lo / PAGE_SIZE) as u32;
        let last = ((byte_hi - 1) / PAGE_SIZE) as u32;
        for page in first..=last {
            io.read_page(PageId { file: self.file, page }, self.page_bytes(page));
        }
    }

    /// The page a positional gather touches for `pos`.
    ///
    /// Page mapping per encoding:
    /// * plain ints — `pos × width`;
    /// * RLE — byte offset of the containing run;
    /// * packed ints — offset of the 8-byte word holding the lane;
    /// * dictionary strings — code word offset after the dictionary prefix
    ///   (the dictionary itself is charged in full once per gather: it is
    ///   small and needed to decode anything);
    /// * plain strings — approximated with the column's mean value length
    ///   (exact per-value offsets would require scanning, which positional
    ///   extraction precisely avoids).
    ///
    /// The page never decreases as `pos` grows. RLE locates the run by
    /// binary search; bulk paths use a [`RunCursor`] instead.
    pub fn page_of(&self, pos: u32) -> u32 {
        let p = pos as u64;
        let byte = match &self.column {
            Column::Int(IntColumn::Plain { width, .. }) => p * *width as u64,
            Column::Int(rle @ IntColumn::Rle { .. }) => return run_page(rle.run_containing(pos)),
            Column::Int(IntColumn::Packed { packed, .. }) => p / packed.lanes_per_word() as u64 * 8,
            Column::Str(StrColumn::Dict { codes, .. }) => {
                self.dict_bytes.unwrap_or(0) + p / codes.lanes_per_word() as u64 * 8
            }
            Column::Str(StrColumn::Plain { values, bytes }) => p * mean_len(values.len(), *bytes),
        };
        (byte / PAGE_SIZE) as u32
    }

    /// Record the pages a gather of `positions` (any order) touches: one
    /// [`StoredColumn::page_of`] a position, except that RLE columns follow
    /// the positions with a [`RunCursor`] instead of a binary search each.
    fn record_gather(&self, positions: impl IntoIterator<Item = u32>, rec: &mut GatherPages) {
        if let Column::Int(IntColumn::Rle { runs, .. }) = &self.column {
            let mut cursor = RunCursor::new(runs);
            for p in positions {
                rec.touch(run_page(cursor.seek(p)));
            }
        } else {
            positions.into_iter().for_each(|p| rec.touch(self.page_of(p)));
        }
    }

    /// [`StoredColumn::record_gather`] for *ascending* `positions`, with
    /// [`StoredColumn::page_of`] calls proportional to the pages rather
    /// than the positions: pages never decrease along ascending positions,
    /// so the positions on each page are skipped by a binary search.
    /// Successive calls continue one gather, so a long position list may be
    /// recorded block by block.
    pub fn record_ascending(&self, positions: &[u32], rec: &mut GatherPages) {
        let mut rest = positions;
        while let Some(&first) = rest.first() {
            let page = self.page_of(first);
            rec.touch(page);
            rest = &rest[rest.partition_point(|&p| self.page_of(p) <= page)..];
        }
    }

    /// Charge one recorded gather as one op: the whole dictionary prefix of
    /// a dictionary column, then the recorded pages.
    pub fn charge_pages(&self, rec: &GatherPages, io: &IoSession) {
        io.begin_op();
        if let Some(dict_bytes) = self.dict_bytes {
            for page in 0..pages_for(dict_bytes) {
                let bytes = (dict_bytes - page as u64 * PAGE_SIZE).min(PAGE_SIZE);
                io.read_page(PageId { file: self.file, page }, bytes);
            }
        }
        for &page in &rec.pages {
            io.read_page(PageId { file: self.file, page }, self.page_bytes(page));
        }
    }

    /// Charge a positional gather of `positions`, in the given order: the
    /// pages [`StoredColumn::page_of`] maps them to, each change of page
    /// one read (see [`GatherPages`]). Ascending positions fetch only the
    /// distinct pages containing them.
    pub fn charge_gather(&self, positions: impl IntoIterator<Item = u32>, io: &IoSession) {
        let mut rec = GatherPages::new();
        self.record_gather(positions, &mut rec);
        self.charge_pages(&rec, io);
    }
}

/// The page holding run `run` of an RLE column.
fn run_page(run: usize) -> u32 {
    (run as u64 * RLE_RUN_BYTES / PAGE_SIZE) as u32
}

/// Mean on-disk value length of a plain string column (at least 1 byte),
/// the position → byte scale its gathers use.
fn mean_len(values: usize, bytes: u64) -> u64 {
    if values == 0 {
        1
    } else {
        (bytes / values as u64).max(1)
    }
}

/// Per-column encoding decision for a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingChoice {
    /// Let the encoder pick (RLE/dict when they shrink the column).
    Auto,
    /// Force uncompressed (the Figure 7 compression-removed runs).
    Plain,
}

/// A column-store resident table.
#[derive(Debug)]
pub struct ColumnStore {
    /// Table name.
    pub table: String,
    columns: Vec<StoredColumn>,
    rows: usize,
}

impl ColumnStore {
    /// Encode every column of `data` with `choice`.
    pub fn from_table(data: &TableData, choice: EncodingChoice) -> ColumnStore {
        let columns = data
            .schema
            .columns
            .iter()
            .zip(&data.columns)
            .map(|(def, col)| {
                StoredColumn::new(def.name, Column::encode(col, choice == EncodingChoice::Auto))
            })
            .collect();
        ColumnStore { table: data.schema.name.to_string(), columns, rows: data.num_rows() }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> &StoredColumn {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("column store {} has no column {name}", self.table))
    }

    /// All stored columns.
    pub fn columns(&self) -> &[StoredColumn] {
        &self.columns
    }

    /// Total on-disk bytes across all columns.
    pub fn bytes(&self) -> u64 {
        self.columns.iter().map(StoredColumn::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::schema::{ColumnDef, TableSchema};
    use cvr_data::table::ColumnData;
    use cvr_data::value::DataType;

    fn table() -> TableData {
        let n = 100_000usize;
        TableData::new(
            TableSchema {
                name: "t",
                columns: vec![
                    ColumnDef { name: "sorted", dtype: DataType::Int },
                    ColumnDef { name: "random", dtype: DataType::Int },
                    ColumnDef { name: "lowcard", dtype: DataType::Str },
                ],
            },
            vec![
                ColumnData::Int((0..n as i64).map(|i| i / 1000).collect()),
                ColumnData::Int((0..n as i64).map(|i| (i * 2_654_435_761) % 1_000_000).collect()),
                ColumnData::Str((0..n).map(|i| format!("R{}", i % 5)).collect()),
            ],
        )
    }

    #[test]
    fn auto_encodings_choose_sensibly() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Auto);
        assert!(cs.column("sorted").column.as_int().is_rle());
        assert!(!cs.column("random").column.as_int().is_rle());
        assert!(cs.column("lowcard").column.as_str().is_dict());
    }

    #[test]
    fn plain_choice_disables_compression() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Plain);
        assert!(!cs.column("sorted").column.as_int().is_rle());
        assert!(!cs.column("lowcard").column.as_str().is_dict());
    }

    #[test]
    fn compressed_store_is_smaller() {
        let t = table();
        let auto = ColumnStore::from_table(&t, EncodingChoice::Auto);
        let plain = ColumnStore::from_table(&t, EncodingChoice::Plain);
        assert!(auto.bytes() < plain.bytes());
    }

    #[test]
    fn scan_charges_all_pages_of_one_column_only() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Plain);
        let io = IoSession::unmetered();
        let col = cs.column("random");
        col.charge_scan(&io);
        let stats = io.stats();
        assert_eq!(stats.pages_read as u32, col.pages());
        assert_eq!(stats.bytes_read, col.bytes());
    }

    #[test]
    fn gather_touches_few_pages_for_few_positions() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Plain);
        let io = IoSession::unmetered();
        let col = cs.column("random");
        col.charge_gather([5u32, 6, 7, 50_000], &io);
        let stats = io.stats();
        assert!(stats.pages_read <= 2, "read {} pages", stats.pages_read);
        assert!(stats.pages_read < col.pages() as u64);
    }

    #[test]
    fn gather_on_rle_touches_run_pages() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Auto);
        let io = IoSession::unmetered();
        // 100 runs ⇒ entire RLE column is one page.
        cs.column("sorted").charge_gather((0..100u32).chain([99_999]), &io);
        assert_eq!(io.stats().pages_read, 1);
    }

    #[test]
    fn gather_on_dict_charges_dictionary_once() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Auto);
        let io = IoSession::unmetered();
        cs.column("lowcard").charge_gather([0u32, 99_999], &io);
        // dict page (also containing the first codes) + maybe the final code page
        assert!(io.stats().pages_read <= 2);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        let cs = ColumnStore::from_table(&table(), EncodingChoice::Auto);
        cs.column("nope");
    }

    #[test]
    fn scan_range_slices_tile_the_full_scan() {
        // Splitting [0, n) into arbitrary consecutive ranges and replaying
        // the recorded charges in order must equal one full charge_scan,
        // for every encoding.
        let t = table();
        for choice in [EncodingChoice::Auto, EncodingChoice::Plain] {
            let cs = ColumnStore::from_table(&t, choice);
            for name in ["sorted", "random", "lowcard"] {
                let col = cs.column(name);
                let n = t.num_rows() as u32;
                let serial = IoSession::unmetered();
                col.charge_scan(&serial);

                let merged = IoSession::unmetered();
                let bounds = [0u32, 1, 7_000, 7_001, 33_333, 99_999, n];
                for w in bounds.windows(2) {
                    let rec = IoSession::recording(merged.pool().clone());
                    col.charge_scan_range(w[0], w[1], &rec);
                    merged.replay(&rec.take_log());
                }
                let (a, b) = (serial.stats(), merged.stats());
                assert_eq!(a.bytes_read, b.bytes_read, "{name} bytes");
                assert_eq!(a.pages_read, b.pages_read, "{name} pages");
                assert_eq!(a.seeks, b.seeks, "{name} seeks");
            }
        }
    }
}
