//! Unit tests for the Volcano operators, on hand-checkable inputs.

use crate::ops::*;
use crate::tuple::{OpSchema, Tuple};
use cvr_data::queries::Pred;
use cvr_data::schema::{ColumnDef, TableSchema};
use cvr_data::table::{ColumnData, TableData};
use cvr_data::value::{DataType, Value};
use cvr_index::btree::{ikey, BPlusTree};
use cvr_storage::heap::HeapFile;
use cvr_storage::io::IoSession;

fn vals(schema: &[&str], rows: Vec<Vec<i64>>) -> BoxedOp<'static> {
    let tuples: Vec<Tuple> =
        rows.into_iter().map(|r| r.into_iter().map(Value::Int).collect()).collect();
    Box::new(ValuesOp::new(OpSchema::new(schema.iter().copied()), tuples))
}

fn ints(op: BoxedOp<'_>) -> Vec<Vec<i64>> {
    drain(op).into_iter().map(|t| t.into_iter().map(|v| v.as_int()).collect()).collect()
}

#[test]
fn filter_keeps_matching_tuples() {
    let child = vals(&["a"], vec![vec![1], vec![5], vec![3]]);
    let f = Filter::new(child, "a", Pred::Between(Value::Int(2), Value::Int(4)));
    assert_eq!(ints(Box::new(f)), vec![vec![3]]);
}

#[test]
fn project_subsets_and_reorders() {
    let child = vals(&["a", "b"], vec![vec![1, 10], vec![2, 20]]);
    let p = Project::new(child, &["b", "a"]);
    assert_eq!(ints(Box::new(p)), vec![vec![10, 1], vec![20, 2]]);
}

#[test]
fn hash_join_inner_semantics() {
    let probe = vals(&["k", "x"], vec![vec![1, 100], vec![2, 200], vec![3, 300], vec![2, 201]]);
    let build = vals(&["k2", "y"], vec![vec![2, 7], vec![3, 8], vec![9, 9]]);
    let j = HashJoin::new(probe, build, "k", "k2", false);
    let mut got = ints(Box::new(j));
    got.sort();
    assert_eq!(got, vec![vec![2, 200, 2, 7], vec![2, 201, 2, 7], vec![3, 300, 3, 8]]);
}

#[test]
fn hash_join_duplicate_build_keys() {
    let probe = vals(&["k"], vec![vec![5]]);
    let build = vals(&["k2", "tag"], vec![vec![5, 1], vec![5, 2], vec![5, 3]]);
    let j = HashJoin::new(probe, build, "k", "k2", false);
    let mut got = ints(Box::new(j));
    got.sort();
    assert_eq!(got.len(), 3, "all build matches must be emitted");
    assert_eq!(got[0], vec![5, 5, 1]);
}

#[test]
fn hash_join_with_bloom_same_result() {
    let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i % 50, i]).collect();
    let build_rows: Vec<Vec<i64>> = (0..10).map(|i| vec![i * 5, i]).collect();
    let a = HashJoin::new(
        vals(&["k", "x"], rows.clone()),
        vals(&["k2", "y"], build_rows.clone()),
        "k",
        "k2",
        false,
    );
    let b = HashJoin::new(vals(&["k", "x"], rows), vals(&["k2", "y"], build_rows), "k", "k2", true);
    let mut xs = ints(Box::new(a));
    let mut ys = ints(Box::new(b));
    xs.sort();
    ys.sort();
    assert_eq!(xs, ys);
}

#[test]
fn merge_join_on_sorted_inputs() {
    let left = vals(&["k", "x"], vec![vec![1, 10], vec![2, 20], vec![2, 21], vec![4, 40]]);
    let right = vals(&["k2", "y"], vec![vec![2, 5], vec![3, 6], vec![4, 7]]);
    let j = MergeJoin::new(left, right, "k", "k2");
    let mut got = ints(Box::new(j));
    got.sort();
    assert_eq!(got, vec![vec![2, 20, 2, 5], vec![2, 21, 2, 5], vec![4, 40, 4, 7]]);
}

#[test]
fn sort_op_orders_by_key_prefix() {
    let child = vals(&["a", "b"], vec![vec![2, 1], vec![1, 9], vec![2, 0], vec![1, 3]]);
    let s = SortOp::new(child, &["a", "b"]);
    assert_eq!(ints(Box::new(s)), vec![vec![1, 3], vec![1, 9], vec![2, 0], vec![2, 1]]);
}

#[test]
fn hash_agg_groups_and_sums() {
    let child = vals(&["g", "v"], vec![vec![1, 10], vec![2, 5], vec![1, 7], vec![2, 5]]);
    let agg = HashAgg::sum_of(child, &["g"], "v");
    assert_eq!(ints(Box::new(agg)), vec![vec![1, 17], vec![2, 10]]);
}

#[test]
fn hash_agg_scalar_group() {
    let child = vals(&["v"], vec![vec![4], vec![6]]);
    let agg = HashAgg::sum_of(child, &[], "v");
    assert_eq!(ints(Box::new(agg)), vec![vec![10]]);
}

#[test]
fn hash_agg_custom_term() {
    let child = vals(&["a", "b"], vec![vec![3, 4], vec![5, 6]]);
    let agg = HashAgg::new(child, &[], |t| t[0].as_int() * t[1].as_int());
    assert_eq!(ints(Box::new(agg)), vec![vec![42]]);
}

#[test]
fn chain_concatenates_in_order() {
    let a = vals(&["x"], vec![vec![1], vec![2]]);
    let b = vals(&["x"], vec![vec![3]]);
    let c = ChainOp::new(OpSchema::new(["x"]), vec![a, b]);
    assert_eq!(ints(Box::new(c)), vec![vec![1], vec![2], vec![3]]);
}

#[test]
fn chain_of_no_parts_is_an_empty_stream() {
    let c = ChainOp::new(OpSchema::new(["x"]), Vec::new());
    assert_eq!(c.schema(), &OpSchema::new(["x"]));
    assert!(ints(Box::new(c)).is_empty());
}

#[test]
#[should_panic(expected = "agree on schema")]
fn chain_rejects_mismatched_schemas() {
    let a = vals(&["x"], vec![]);
    let b = vals(&["y"], vec![]);
    ChainOp::new(OpSchema::new(["x"]), vec![a, b]);
}

#[test]
fn seq_scan_with_pushed_predicates() {
    let table = TableData::new(
        TableSchema {
            name: "t",
            columns: vec![
                ColumnDef { name: "a", dtype: DataType::Int },
                ColumnDef { name: "s", dtype: DataType::Str },
                ColumnDef { name: "b", dtype: DataType::Int },
            ],
        },
        vec![
            ColumnData::Int((0..100).collect()),
            ColumnData::Str((0..100).map(|i| format!("tag{}", i % 3)).collect()),
            ColumnData::Int((0..100).map(|i| i * 2).collect()),
        ],
    );
    let heap = HeapFile::build(&table);
    let io = IoSession::unmetered();
    let cols = ["a", "s", "b"];
    let scan = SeqScan::new(&heap, &cols, &["b", "a"], &io)
        .with_predicate(&cols, "a", Pred::Lt(Value::Int(10)))
        .with_predicate(&cols, "s", Pred::Eq(Value::str("tag1")));
    let got = ints(Box::new(scan));
    // a in {1,4,7} (a % 3 == 1 and a < 10); output is (b, a) = (2a, a).
    assert_eq!(got, vec![vec![2, 1], vec![8, 4], vec![14, 7]]);
}

#[test]
fn index_scans_yield_keys_and_rids() {
    let entries: Vec<_> = (0..50i64).map(|i| (ikey(i % 10), i as u32)).collect();
    let tree = BPlusTree::bulk_load(entries);
    let io = IoSession::unmetered();
    let full = IndexFullScanOp::new(&tree, &["v"], "rid", &io);
    let rows = drain(Box::new(full));
    assert_eq!(rows.len(), 50);
    assert_eq!(rows[0].len(), 2, "(key, rid)");
    let range = IndexRangeScanOp::new(
        &tree,
        &["v"],
        "rid",
        &Pred::Between(Value::Int(3), Value::Int(4)),
        &io,
    );
    let rows = drain(Box::new(range));
    assert_eq!(rows.len(), 10); // values 3 and 4, five rids each
    assert!(rows.iter().all(|t| (3..=4).contains(&t[0].as_int())));
}

#[test]
fn bitmap_fetch_projects_requested_rids() {
    let table = TableData::new(
        TableSchema { name: "t", columns: vec![ColumnDef { name: "a", dtype: DataType::Int }] },
        vec![ColumnData::Int((0..100).map(|i| i * 3).collect())],
    );
    let heap = HeapFile::build(&table);
    let io = IoSession::unmetered();
    let fetch = BitmapFetch::new(&heap, &["a"], &["a"], vec![0, 10, 99], &io);
    assert_eq!(ints(Box::new(fetch)), vec![vec![0], vec![30], vec![297]]);
}
