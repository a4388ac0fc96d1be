//! Phase 3 of the invisible join as one pass: from surviving fact
//! positions straight to group sums.
//!
//! "Minimal out-of-order extraction" (Section 5.4) runs here a block of
//! [`BLOCK`] surviving positions at a time. For each block the pass reads
//! the foreign keys, turns them into dimension rows (the key itself for
//! reassigned dense keys, a table built once per store for DATE — see
//! [`KeyRows`]), looks each group column's code up by dimension row in a
//! table built once per column ([`StoredColumn::row_codes`]), composes the
//! group ids, reads the measures and adds the terms. Every intermediate
//! lives in block buffers reused for the whole pass; encodings, the
//! aggregate and the accumulator are matched once per block, never per
//! row.
//!
//! The I/O is charged exactly as separate gathers charge it. Each gather's
//! pages are recorded on page changes while the pass runs — ascending fact
//! gathers page by page ([`StoredColumn::record_ascending`]), dimension
//! gathers through a row → page table ([`StoredColumn::row_pages`]) — and
//! charged after it, one op per gather in plan order: per group column its
//! dimension's foreign-key gather (on first use, followed in serial plans
//! by the join table's key-column scan) and then its dimension gather;
//! then one gather per measure.

use crate::agg::{AggPartial, AggStrategy};
use crate::extract::{values_at, IntReader, BLOCK};
use crate::poslist::Positions;
use crate::projection::{CStoreDb, KeyRows};
use cvr_data::queries::{AggExpr, SsbQuery};
use cvr_data::schema::Dim;
use cvr_storage::column::{GatherPages, StoredColumn};
use cvr_storage::io::IoSession;

/// A fact foreign-key column the pass reads, and its join to dimension
/// rows.
struct FkRead<'a> {
    dim: Dim,
    col: &'a StoredColumn,
    rows: &'a KeyRows,
    /// The key column whose scan the serial plan charges as its join-table
    /// build (non-dense dimensions only).
    key_scan: Option<&'a StoredColumn>,
}

/// A group column: the foreign key that reaches it and its lookup tables.
struct GroupRead<'a> {
    /// Index into [`Phase3::fks`].
    fk: usize,
    col: &'a StoredColumn,
    /// Dimension row → code (code-level aggregation only).
    codes: Option<&'a [u32]>,
    /// Dimension row → page; `None` for a single-page column.
    pages: Option<&'a [u32]>,
}

/// Phase 3 of one query execution, built once and shared read-only by
/// every morsel.
pub(crate) struct Phase3<'a> {
    agg: AggExpr,
    strat: &'a AggStrategy<'a>,
    /// One per grouped dimension, in order of first use by the group-by.
    fks: Vec<FkRead<'a>>,
    /// One per group column, in group-by order.
    groups: Vec<GroupRead<'a>>,
    measures: Vec<&'a StoredColumn>,
}

impl<'a> Phase3<'a> {
    /// Phase 3 of `q` over `db` under `strat`. With `key_scans`, the pass
    /// charges each non-dense dimension's join-table key scan itself (the
    /// serial plan); otherwise the caller charged it up front.
    pub fn new(
        db: &'a CStoreDb,
        q: &SsbQuery,
        strat: &'a AggStrategy<'a>,
        key_scans: bool,
    ) -> Phase3<'a> {
        let mut fks: Vec<FkRead<'a>> = Vec::new();
        let mut groups = Vec::with_capacity(q.group_by.len());
        for g in &q.group_by {
            let dim = db.dim(g.dim);
            let fk = match fks.iter().position(|f| f.dim == g.dim) {
                Some(fk) => fk,
                None => {
                    fks.push(FkRead {
                        dim: g.dim,
                        col: db.fact.column(g.dim.fact_fk_column()),
                        rows: dim.key_rows(),
                        key_scan: (key_scans && !dim.dense_keys)
                            .then(|| dim.store.column(g.dim.key_column())),
                    });
                    fks.len() - 1
                }
            };
            let col = dim.store.column(g.column);
            let codes = strat
                .is_code_level()
                .then(|| col.row_codes().expect("code-level group columns have a code space"));
            groups.push(GroupRead { fk, col, codes, pages: col.row_pages() });
        }
        let measures = q.aggregate.fact_columns().iter().map(|c| db.fact.column(c)).collect();
        Phase3 { agg: q.aggregate, strat, fks, groups, measures }
    }

    /// Extract and partially aggregate the rows at `positions`, charging
    /// their gathers on `io`.
    pub fn run(&self, positions: Positions<'_>, io: &IoSession) -> AggPartial {
        let mut partial = self.strat.new_partial();
        let reader = |col: &'a StoredColumn| IntReader::new(col.column.as_int());
        let mut fk_readers: Vec<IntReader<'a>> = self.fks.iter().map(|f| reader(f.col)).collect();
        let mut measure_readers: Vec<IntReader<'a>> =
            self.measures.iter().map(|&c| reader(c)).collect();
        let mut fk_pages = vec![GatherPages::new(); self.fks.len()];
        let mut group_pages = vec![GatherPages::new(); self.groups.len()];
        let mut measure_pages = vec![GatherPages::new(); self.measures.len()];
        let mut keys = [0i64; BLOCK];
        let mut rows = vec![[0u32; BLOCK]; self.fks.len()];
        let mut inputs = vec![[0i64; BLOCK]; self.measures.len()];
        let mut ids = [0u64; BLOCK];
        let mut terms = [0i64; BLOCK];

        positions.for_each_block(BLOCK, |block| {
            let n = block.len();
            for (f, fk) in self.fks.iter().enumerate() {
                fk.col.record_ascending(block, &mut fk_pages[f]);
                fk_readers[f].read(block, &mut keys);
                fk.rows.rows_of(&keys[..n], &mut rows[f]);
            }
            for (g, pages) in self.groups.iter().zip(&mut group_pages) {
                match g.pages {
                    Some(table) => {
                        rows[g.fk][..n].iter().for_each(|&r| pages.touch(table[r as usize]))
                    }
                    None => pages.touch(0),
                }
            }
            for (m, col) in self.measures.iter().enumerate() {
                col.record_ascending(block, &mut measure_pages[m]);
                measure_readers[m].read(block, &mut inputs[m]);
            }
            let measures: Vec<&[i64]> = inputs.iter().map(|m| &m[..n]).collect();
            self.agg.terms(&measures, &mut terms[..n]);
            match &mut partial {
                AggPartial::Code(grouper) => {
                    let ids = &mut ids[..n];
                    ids.fill(0);
                    for (c, g) in self.groups.iter().enumerate() {
                        let codes = g.codes.expect("code tables");
                        let rows = rows[g.fk][..n].iter();
                        grouper.compose(c, ids, rows.map(|&r| codes[r as usize]));
                    }
                    grouper.add_block(ids, &terms[..n]);
                }
                AggPartial::Value(grouper) => {
                    let mut cols: Vec<_> = self
                        .groups
                        .iter()
                        .map(|g| values_at(g.col, &rows[g.fk][..n]).into_iter())
                        .collect();
                    for &term in &terms[..n] {
                        let key = cols.iter_mut().map(|c| c.next().expect("aligned")).collect();
                        grouper.add(key, term);
                    }
                }
            }
        });

        let mut charged = vec![false; self.fks.len()];
        for (g, pages) in self.groups.iter().zip(&group_pages) {
            if !charged[g.fk] {
                charged[g.fk] = true;
                let fk = &self.fks[g.fk];
                fk.col.charge_pages(&fk_pages[g.fk], io);
                if let Some(keycol) = fk.key_scan {
                    keycol.charge_scan(io);
                }
            }
            g.col.charge_pages(pages, io);
        }
        for (col, pages) in self.measures.iter().zip(&measure_pages) {
            col.charge_pages(pages, io);
        }
        partial
    }
}
