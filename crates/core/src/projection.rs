//! C-Store physical layout: sorted projections with reassigned keys.
//!
//! Section 5.4.2's between-predicate rewriting needs two properties the
//! paper calls out explicitly, both established here at load time:
//!
//! 1. **Hierarchy-sorted dimensions.** CUSTOMER and SUPPLIER are sorted by
//!    (region, nation, city), PART by (mfgr, category, brand1), DATE by
//!    datekey — "sorting from left-to-right will result in predicates on
//!    any of those three columns producing a contiguous range output".
//! 2. **Key reassignment by dictionary encoding.** After sorting, the
//!    CUSTOMER/SUPPLIER/PART keys are rewritten to the dense sequence
//!    `0..n`, and the fact table's foreign keys are rewritten through the
//!    same dictionary — so a foreign key *is* the dimension row position
//!    and phase 3 of the invisible join becomes "a fast array look-up".
//!    DATE keeps its `yyyymmdd` keys (not dense), exactly the case where
//!    the paper says a real join must be performed.
//!
//! The fact projection is sorted by (orderdate, quantity, discount): "only
//! one of the seventeen columns in the fact table can be sorted (and two
//! others secondarily sorted)".

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use cvr_data::gen::SsbTables;
use cvr_data::schema::Dim;
use cvr_data::table::{ColumnData, TableData};
use cvr_storage::column::{ColumnStore, EncodingChoice};

/// Sort hierarchy per dimension (leading columns of the projection).
pub fn dim_sort_columns(dim: Dim) -> &'static [&'static str] {
    match dim {
        Dim::Customer => &["c_region", "c_nation", "c_city", "c_custkey"],
        Dim::Supplier => &["s_region", "s_nation", "s_city", "s_suppkey"],
        Dim::Part => &["p_mfgr", "p_category", "p_brand1", "p_partkey"],
        Dim::Date => &["d_datekey"],
    }
}

/// Fact projection sort order.
pub const FACT_SORT: [&str; 3] = ["lo_orderdate", "lo_quantity", "lo_discount"];

/// One dimension's storage.
pub struct DimStore {
    /// Encoded, hierarchy-sorted columns.
    pub store: ColumnStore,
    /// Sorted logical data (used by tuple construction paths).
    pub sorted: TableData,
    /// True when keys were reassigned to the dense sequence `0..n`.
    pub dense_keys: bool,
    /// The key column's name.
    key_column: &'static str,
    /// The key → row join table, built on first use (see
    /// [`DimStore::key_rows`]).
    key_rows: OnceLock<KeyRows>,
}

/// Marks a key with no dimension row in a [`KeyRows::Direct`] table.
const NO_ROW: u32 = u32::MAX;

/// How a fact foreign key finds its dimension row.
#[derive(Debug)]
pub(crate) enum KeyRows {
    /// Reassigned dense keys: the key *is* the row ("a fast array
    /// look-up").
    Dense,
    /// Non-dense keys (DATE's `yyyymmdd`, about 61 k slots):
    /// `rows[key - reference]`.
    Direct {
        /// The smallest key.
        reference: i64,
        /// Row per key offset; `u32::MAX` where no row has that key.
        rows: Box<[u32]>,
    },
}

impl KeyRows {
    /// Dimension rows of the foreign keys `keys`, written to the front of
    /// `rows`. Panics when a key has no row: fact FKs always join.
    #[inline]
    pub(crate) fn rows_of(&self, keys: &[i64], rows: &mut [u32]) {
        match self {
            KeyRows::Dense => {
                for (r, &k) in rows.iter_mut().zip(keys) {
                    *r = k as u32;
                }
            }
            KeyRows::Direct { reference, rows: table } => {
                for (r, &k) in rows.iter_mut().zip(keys) {
                    let row = table.get(k.wrapping_sub(*reference) as usize).copied();
                    *r = row.filter(|&row| row != NO_ROW).expect("fact FK must join its dimension");
                }
            }
        }
    }
}

impl DimStore {
    /// The key → row join table of this dimension, built once per store
    /// from the in-memory key column (it charges no I/O; plans that model
    /// building a join table charge its key-column scan themselves). The
    /// first row wins when keys repeat, like a hash join build.
    pub(crate) fn key_rows(&self) -> &KeyRows {
        self.key_rows.get_or_init(|| {
            if self.dense_keys {
                return KeyRows::Dense;
            }
            let keycol = self.store.column(self.key_column);
            let keys = keycol.column.as_int().decode();
            let (reference, span) =
                keycol.int_code_bounds().expect("dimension keys span a u32 code range");
            let mut rows = vec![NO_ROW; span as usize];
            for (row, &k) in keys.iter().enumerate().rev() {
                rows[(k - reference) as usize] = row as u32;
            }
            KeyRows::Direct { reference, rows: rows.into_boxed_slice() }
        })
    }
}

/// The C-Store database: fact + dimension projections at one compression
/// setting.
pub struct CStoreDb {
    /// Original logical tables (planning statistics only).
    pub tables: Arc<SsbTables>,
    /// Whether RLE/dictionary encodings were applied.
    pub compression: bool,
    /// The fact projection, sorted by [`FACT_SORT`], FKs remapped.
    pub fact: ColumnStore,
    /// Sorted logical fact data (kept for early-materialization stitching
    /// oracles in tests; columns are shared with `fact`'s source).
    pub fact_rows: usize,
    dims: HashMap<Dim, DimStore>,
}

/// Sort permutation of `table` by `columns` (lexicographic, ascending).
pub fn sort_permutation(table: &TableData, columns: &[&str]) -> Vec<u32> {
    let cols: Vec<&ColumnData> = columns.iter().map(|c| table.column(c)).collect();
    let mut perm: Vec<u32> = (0..table.num_rows() as u32).collect();
    perm.sort_by(|&a, &b| {
        for c in &cols {
            let ord = match c {
                ColumnData::Int(v) => v[a as usize].cmp(&v[b as usize]),
                ColumnData::Str(v) => v[a as usize].cmp(&v[b as usize]),
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    });
    perm
}

impl CStoreDb {
    /// Build projections over `tables` at the given compression setting.
    pub fn build(tables: Arc<SsbTables>, compression: bool) -> CStoreDb {
        let choice = if compression { EncodingChoice::Auto } else { EncodingChoice::Plain };

        // --- Dimensions: sort, then reassign keys densely. ---
        let mut dims = HashMap::new();
        let mut key_remaps: HashMap<Dim, HashMap<i64, i64>> = HashMap::new();
        for d in Dim::ALL {
            let src = tables.dim(d);
            let perm = sort_permutation(src, dim_sort_columns(d));
            let mut sorted = src.permuted(&perm);
            let dense = d.dense_keys();
            if dense {
                let key_idx = sorted.schema.col(d.key_column());
                let old_keys = match &sorted.columns[key_idx] {
                    ColumnData::Int(v) => v.clone(),
                    ColumnData::Str(_) => unreachable!("dimension keys are ints"),
                };
                let remap: HashMap<i64, i64> =
                    old_keys.iter().enumerate().map(|(p, &k)| (k, p as i64)).collect();
                sorted.columns[key_idx] = ColumnData::Int((0..sorted.num_rows() as i64).collect());
                key_remaps.insert(d, remap);
            }
            let store = ColumnStore::from_table(&sorted, choice);
            let key_column = d.key_column();
            let key_rows = OnceLock::new();
            dims.insert(d, DimStore { store, sorted, dense_keys: dense, key_column, key_rows });
        }

        // --- Fact: remap FKs, then sort by (orderdate, quantity, discount). ---
        let mut fact_logical = tables.lineorder.clone();
        for d in [Dim::Customer, Dim::Supplier, Dim::Part] {
            let remap = &key_remaps[&d];
            let idx = fact_logical.schema.col(d.fact_fk_column());
            if let ColumnData::Int(v) = &mut fact_logical.columns[idx] {
                for k in v.iter_mut() {
                    *k = remap[k];
                }
            }
        }
        let perm = sort_permutation(&fact_logical, &FACT_SORT);
        let fact_sorted = fact_logical.permuted(&perm);
        let fact = ColumnStore::from_table(&fact_sorted, choice);

        CStoreDb { tables, compression, fact, fact_rows: fact_sorted.num_rows(), dims }
    }

    /// Dimension storage.
    pub fn dim(&self, d: Dim) -> &DimStore {
        &self.dims[&d]
    }

    /// Number of fact rows.
    pub fn fact_rows(&self) -> usize {
        self.fact_rows
    }

    /// Total encoded bytes of the fact projection.
    pub fn fact_bytes(&self) -> u64 {
        self.fact.bytes()
    }

    /// Total encoded bytes including dimensions.
    pub fn total_bytes(&self) -> u64 {
        self.fact.bytes() + Dim::ALL.iter().map(|d| self.dims[d].store.bytes()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;

    fn db(compression: bool) -> CStoreDb {
        CStoreDb::build(Arc::new(SsbConfig { sf: 0.001, seed: 11 }.generate()), compression)
    }

    #[test]
    fn dims_sorted_by_hierarchy() {
        let db = db(true);
        let cust = &db.dim(Dim::Customer).sorted;
        let regions = cust.column("c_region").strs();
        assert!(regions.windows(2).all(|w| w[0] <= w[1]), "regions must be sorted");
        // Within a region, nations sorted.
        let nations = cust.column("c_nation").strs();
        for i in 1..cust.num_rows() {
            if regions[i - 1] == regions[i] {
                assert!(nations[i - 1] <= nations[i]);
            }
        }
    }

    #[test]
    fn key_rows_join_every_fact_key_to_its_dimension_row() {
        let db = db(true);
        assert!(matches!(db.dim(Dim::Customer).key_rows(), KeyRows::Dense));
        let date = db.dim(Dim::Date);
        let KeyRows::Direct { rows, .. } = date.key_rows() else {
            panic!("DATE keys span a few tens of thousands of slots")
        };
        assert!(rows.len() < 70_000);
        let keys = date.sorted.column("d_datekey").ints();
        let fks = db.fact.column("lo_orderdate").column.as_int().decode();
        let mut direct = vec![0; fks.len()];
        date.key_rows().rows_of(&fks, &mut direct);
        for (&fk, &row) in fks.iter().zip(&direct) {
            assert_eq!(keys[row as usize], fk);
        }
    }

    #[test]
    #[should_panic(expected = "must join")]
    fn key_rows_reject_keys_without_a_row() {
        let db = db(true);
        db.dim(Dim::Date).key_rows().rows_of(&[19920100], &mut [0]);
    }

    #[test]
    fn dense_keys_are_positions() {
        let db = db(true);
        for d in [Dim::Customer, Dim::Supplier, Dim::Part] {
            let keys = db.dim(d).sorted.column(d.key_column()).ints();
            for (p, &k) in keys.iter().enumerate() {
                assert_eq!(k, p as i64, "{d:?} key must equal its position");
            }
            assert!(db.dim(d).dense_keys);
        }
        // DATE keys stay yyyymmdd.
        let dk = db.dim(Dim::Date).sorted.column("d_datekey").ints();
        assert_eq!(dk[0], 19920101);
        assert!(!db.dim(Dim::Date).dense_keys);
    }

    #[test]
    fn fact_fks_reference_remapped_dims() {
        let db = db(true);
        let n_cust = db.dim(Dim::Customer).sorted.num_rows() as i64;
        let fks = db.fact.column("lo_custkey");
        let decoded = fks.column.as_int().decode();
        assert!(decoded.iter().all(|&k| k >= 0 && k < n_cust));
    }

    #[test]
    fn fk_remap_preserves_join_semantics() {
        // Joining through remapped keys must relate the same logical rows:
        // check via customer city strings.
        let tables = Arc::new(SsbConfig { sf: 0.001, seed: 13 }.generate());
        let db = CStoreDb::build(tables.clone(), true);
        // Original join: row i -> custkey -> city.
        let orig_fk = tables.lineorder.column("lo_custkey").ints();
        let orig_city = tables.customer.column("c_city").strs();
        let mut expected: Vec<String> = (0..tables.lineorder.num_rows())
            .map(|i| orig_city[(orig_fk[i] - 1) as usize].clone())
            .collect();
        // Projection join: sorted fact fk == position into sorted customer.
        let new_fk = db.fact.column("lo_custkey").column.as_int().decode();
        let new_city = db.dim(Dim::Customer).sorted.column("c_city").strs();
        let mut got: Vec<String> = new_fk.iter().map(|&k| new_city[k as usize].clone()).collect();
        expected.sort();
        got.sort();
        assert_eq!(expected, got);
    }

    #[test]
    fn fact_sorted_by_orderdate_then_quantity() {
        let db = db(false);
        let od = db.fact.column("lo_orderdate").column.as_int().decode();
        assert!(od.windows(2).all(|w| w[0] <= w[1]));
        let qty = db.fact.column("lo_quantity").column.as_int().decode();
        for i in 1..od.len() {
            if od[i - 1] == od[i] {
                assert!(qty[i - 1] <= qty[i]);
            }
        }
    }

    #[test]
    fn compression_shrinks_sorted_columns() {
        let comp = db(true);
        let plain = db(false);
        assert!(comp.fact_bytes() < plain.fact_bytes());
        // orderdate is fully sorted: RLE must be chosen.
        assert!(comp.fact.column("lo_orderdate").column.as_int().is_rle());
        assert!(!plain.fact.column("lo_orderdate").column.as_int().is_rle());
    }

    #[test]
    fn region_predicate_selects_contiguous_dim_positions() {
        let db = db(true);
        let cust = &db.dim(Dim::Customer).sorted;
        let regions = cust.column("c_region").strs();
        let matching: Vec<usize> = (0..cust.num_rows()).filter(|&i| regions[i] == "ASIA").collect();
        if matching.len() > 1 {
            assert_eq!(matching[matching.len() - 1] - matching[0] + 1, matching.len());
        }
    }
}
