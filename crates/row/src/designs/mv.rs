//! The materialized-view design (Figure 6 `MV`).
//!
//! One view per query flight, holding *exactly* the fact columns that
//! flight's queries need — "the optimal view for a given flight has only the
//! columns needed to answer queries in that flight. We do not pre-join
//! columns from different tables in these views" (Section 4). Views are
//! partitioned by `orderdate` year like the traditional design ("System X is
//! able to partition each materialized view optimally").
//!
//! Plans are the traditional plans with the scan retargeted at the view, so
//! the design's entire advantage is I/O: a flight-1 view row is ~24 bytes
//! against ~90 for the full 17-column tuple.

use std::collections::HashMap;
use std::sync::Arc;

use crate::designs::common::{
    aggregate_and_finish, dim_needed_columns, int_col, join_order, qualifying_years,
};
use crate::ops::{BoxedOp, ChainOp, HashJoin, SeqScan};
use crate::tuple::OpSchema;
use cvr_data::gen::SsbTables;
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_storage::heap::{HeapFile, PartitionedHeap};
use cvr_storage::io::IoSession;

/// One per-flight materialized view.
pub struct MaterializedView {
    /// Fact columns stored in the view.
    pub columns: Vec<&'static str>,
    /// The view's storage, partitioned by `orderdate` year.
    pub heap: PartitionedHeap,
}

/// The MV design: per-flight views plus the dimension heaps.
pub struct MvDb {
    tables: Arc<SsbTables>,
    /// Views indexed by flight number − 1.
    views: Vec<MaterializedView>,
    dims: HashMap<Dim, HeapFile>,
    use_bloom: bool,
}

impl MvDb {
    /// Build the per-flight views.
    pub fn build(tables: Arc<SsbTables>) -> MvDb {
        let years: Vec<i64> =
            int_col(&tables.lineorder, "lo_orderdate").iter().map(|d| d / 10_000).collect();
        let mut views = Vec::new();
        for flight in 1..=4u8 {
            // Union of the flight's queries' fact columns.
            let mut columns: Vec<&'static str> = Vec::new();
            for q in all_queries().iter().filter(|q| q.id.flight == flight) {
                for c in q.fact_columns() {
                    if !columns.contains(&c) {
                        columns.push(c);
                    }
                }
            }
            let projected = tables.lineorder.project(&columns);
            let heap = PartitionedHeap::build(&projected, |i| years[i]);
            views.push(MaterializedView { columns, heap });
        }
        let dims = Dim::ALL.iter().map(|&d| (d, HeapFile::build(tables.dim(d)))).collect();
        MvDb { tables, views, dims, use_bloom: true }
    }

    /// The view serving `flight` (1..=4).
    pub fn view(&self, flight: u8) -> &MaterializedView {
        &self.views[(flight - 1) as usize]
    }

    /// Total bytes across all views (Section 6.2 accounting).
    pub fn bytes(&self) -> u64 {
        self.views.iter().map(|v| v.heap.bytes()).sum()
    }

    /// Execute `q` against its flight's view.
    pub fn execute(&self, q: &SsbQuery, io: &IoSession) -> QueryOutput {
        let view = self.view(q.id.flight);
        let needed = q.fact_columns();
        fn make<'a>(
            heap: &'a HeapFile,
            view_cols: &[&'static str],
            needed: &[&'static str],
            q: &SsbQuery,
            io: &'a IoSession,
        ) -> BoxedOp<'a> {
            let mut scan = SeqScan::new(heap, view_cols, needed, io);
            for p in &q.fact_predicates {
                scan = scan.with_predicate(view_cols, p.column, p.pred.clone());
            }
            Box::new(scan)
        }
        let heaps = match qualifying_years(&self.tables, q) {
            Some(years) => view.heap.select(move |y| years.contains(&y)),
            None => view.heap.all(),
        };
        let mut pipeline: BoxedOp<'_> = Box::new(ChainOp::new(
            OpSchema::new(needed.iter().copied()),
            heaps.into_iter().map(|h| make(h, &view.columns, &needed, q, io)).collect(),
        ));
        for dim in join_order(&self.tables, q) {
            let restricted = !q.dim_predicates_on(dim).is_empty();
            let heap = &self.dims[&dim];
            let schema = self.tables.schema.dim(dim);
            let cols: Vec<&str> = schema.columns.iter().map(|c| c.name).collect();
            let needed_dim = dim_needed_columns(q, dim);
            let mut scan = SeqScan::new(heap, &cols, &needed_dim, io);
            for p in q.dim_predicates_on(dim) {
                scan = scan.with_predicate(&cols, p.column, p.pred.clone());
            }
            pipeline = Box::new(HashJoin::new(
                pipeline,
                Box::new(scan),
                dim.fact_fk_column(),
                dim.key_column(),
                self.use_bloom && restricted,
            ));
        }
        aggregate_and_finish(q, pipeline)
    }
}
