//! Shared planning helpers for the row-store designs.

use crate::ops::{drain, BoxedOp, HashAgg};
use cvr_data::gen::SsbTables;
use cvr_data::queries::{DimPredicate, Pred, SsbQuery};
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_data::table::{ColumnData, TableData};

/// Fraction of dimension rows matching the query's predicates on `dim`
/// (an "optimizer statistic": computed from catalog data, charging no I/O).
pub fn dim_selectivity(tables: &SsbTables, q: &SsbQuery, dim: Dim) -> f64 {
    let preds = q.dim_predicates_on(dim);
    if preds.is_empty() {
        return 1.0;
    }
    let table = tables.dim(dim);
    let n = table.num_rows();
    if n == 0 {
        return 1.0;
    }
    let matches =
        (0..n).filter(|&i| preds.iter().all(|p| p.pred.matches(&table.value(i, p.column)))).count();
    matches as f64 / n as f64
}

/// Row indices of `dim` satisfying the query's predicates on it.
pub fn dim_matching_rows(tables: &SsbTables, q: &SsbQuery, dim: Dim) -> Vec<u32> {
    let preds = q.dim_predicates_on(dim);
    let table = tables.dim(dim);
    (0..table.num_rows() as u32)
        .filter(|&i| preds.iter().all(|p| p.pred.matches(&table.value(i as usize, p.column))))
        .collect()
}

/// Dimension keys satisfying the query's predicates on `dim`.
pub fn dim_matching_keys(tables: &SsbTables, q: &SsbQuery, dim: Dim) -> Vec<i64> {
    let table = tables.dim(dim);
    let keys = table.column(dim.key_column()).ints();
    dim_matching_rows(tables, q, dim).into_iter().map(|r| keys[r as usize]).collect()
}

/// The `orderdate`-partition years a query's date predicates allow, or
/// `None` when the query does not restrict the DATE dimension (scan all
/// partitions). Derived from the DATE dimension like a partition-pruning
/// optimizer would from its catalog.
pub fn qualifying_years(tables: &SsbTables, q: &SsbQuery) -> Option<Vec<i64>> {
    let preds = q.dim_predicates_on(Dim::Date);
    if preds.is_empty() {
        return None;
    }
    Some(matching_years(&tables.date, &preds))
}

/// The distinct `d_year`s, ascending, of the `date` rows satisfying all of
/// `preds` — the partition-pruning rule, shared with the planner's
/// estimate of it.
pub fn matching_years(date: &TableData, preds: &[&DimPredicate]) -> Vec<i64> {
    let cols: Vec<(&ColumnData, &Pred)> =
        preds.iter().map(|p| (date.column(p.column), &p.pred)).collect();
    let mut out: Vec<i64> = Vec::new();
    for (row, &year) in date.column("d_year").ints().iter().enumerate() {
        // DATE ascends by day, so a year already found is usually the
        // last one pushed: skip the rest of its days.
        if out.last() != Some(&year)
            && cols.iter().all(|(col, pred)| match col {
                ColumnData::Int(v) => pred.matches_int(v[row]),
                ColumnData::Str(v) => pred.matches_str(&v[row]),
            })
        {
            out.push(year);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Group-by column names of `q`, in declaration order (e.g. `d_year`).
pub fn group_col_names(q: &SsbQuery) -> Vec<&'static str> {
    q.group_by.iter().map(|g| g.column).collect()
}

/// Columns the plan must carry for dimension `dim`: its key plus any
/// group-by attributes the query takes from it.
pub fn dim_needed_columns(q: &SsbQuery, dim: Dim) -> Vec<&'static str> {
    let mut cols = vec![dim.key_column()];
    for g in &q.group_by {
        if g.dim == dim && !cols.contains(&g.column) {
            cols.push(g.column);
        }
    }
    cols
}

/// Dimensions the plan must join, most selective restriction first,
/// unrestricted (group-by-only) dimensions last.
pub fn join_order(tables: &SsbTables, q: &SsbQuery) -> Vec<Dim> {
    let mut dims: Vec<(Dim, f64)> =
        q.touched_dims().into_iter().map(|d| (d, dim_selectivity(tables, q, d))).collect();
    dims.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    dims.into_iter().map(|(d, _)| d).collect()
}

/// Build the aggregate term closure for `q` against `schema` (fact measure
/// columns must be present under their `lo_*` names).
pub fn agg_term<'a>(
    q: &SsbQuery,
    schema: &crate::tuple::OpSchema,
) -> impl Fn(&crate::tuple::Tuple) -> i64 + 'a {
    let agg = q.aggregate;
    let idx: Vec<usize> = agg.fact_columns().iter().map(|c| schema.idx(c)).collect();
    move |t| {
        let inputs: Vec<i64> = idx.iter().map(|&i| t[i].as_int()).collect();
        agg.term(&inputs)
    }
}

/// Cap a plan with grouped aggregation and normalize into a [`QueryOutput`].
pub fn aggregate_and_finish<'a>(q: &SsbQuery, child: BoxedOp<'a>) -> QueryOutput {
    let groups = group_col_names(q);
    let term = agg_term(q, child.schema());
    let agg = HashAgg::new(child, &groups, term);
    finish_from_agg(q, Box::new(agg))
}

/// Drain an aggregation operator (group cols ++ agg) into a [`QueryOutput`].
pub fn finish_from_agg<'a>(q: &SsbQuery, agg: BoxedOp<'a>) -> QueryOutput {
    let rows = drain(agg);
    if rows.is_empty() && q.group_by.is_empty() {
        // Scalar aggregate over zero rows: canonicalize as 0.
        return QueryOutput::scalar(0);
    }
    QueryOutput::new(
        rows.into_iter()
            .map(|mut t| {
                let sum = t.pop().expect("agg column").as_int();
                (t, sum)
            })
            .collect(),
    )
}

/// True when `pred` over the sorted `domain` selects a contiguous slice of
/// it (drives key-range vs per-key index access).
pub fn selects_contiguous(domain: &[i64], pred: &Pred) -> bool {
    let mut started = false;
    let mut ended = false;
    for &v in domain {
        let m = pred.matches_int(v);
        if m && ended {
            return false;
        }
        if m {
            started = true;
        } else if started {
            ended = true;
        }
    }
    true
}

/// Extract the integer column `name` from `data` (helper for builders).
pub fn int_col<'a>(data: &'a cvr_data::table::TableData, name: &str) -> &'a [i64] {
    match data.column(name) {
        ColumnData::Int(v) => v,
        ColumnData::Str(_) => panic!("{name} is not an int column"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::query;

    fn tables() -> SsbTables {
        SsbConfig { sf: 0.002, seed: 71 }.generate()
    }

    #[test]
    fn selectivity_bounds_and_ordering() {
        let t = tables();
        let q31 = query(3, 1); // c_region (1/5), s_region (1/5), d_year 92-97 (~6/7)
        let c = dim_selectivity(&t, &q31, Dim::Customer);
        let d = dim_selectivity(&t, &q31, Dim::Date);
        assert!(c > 0.05 && c < 0.5, "region selectivity ~0.2, got {c}");
        assert!(d > 0.7, "6-of-7-years selectivity, got {d}");
        // Unrestricted dimension has selectivity 1.
        assert_eq!(dim_selectivity(&t, &q31, Dim::Part), 1.0);
    }

    #[test]
    fn matching_keys_satisfy_predicates() {
        let t = tables();
        let q = query(2, 1); // p_category = MFGR#12
        let keys = dim_matching_keys(&t, &q, Dim::Part);
        assert!(!keys.is_empty());
        let cats = t.part.column("p_category").strs();
        let pkeys = t.part.column("p_partkey").ints();
        for k in keys {
            let row = pkeys.iter().position(|&p| p == k).unwrap();
            assert_eq!(cats[row], "MFGR#12");
        }
    }

    #[test]
    fn qualifying_years_prune_correctly() {
        let t = tables();
        assert_eq!(qualifying_years(&t, &query(1, 1)), Some(vec![1993]));
        assert_eq!(qualifying_years(&t, &query(1, 2)), Some(vec![1994]));
        let y31 = qualifying_years(&t, &query(3, 1)).unwrap();
        assert_eq!(y31, vec![1992, 1993, 1994, 1995, 1996, 1997]);
        // Q2.1 has no date restriction.
        assert_eq!(qualifying_years(&t, &query(2, 1)), None);
    }

    #[test]
    fn join_order_puts_most_selective_first() {
        let t = tables();
        let q = query(4, 3); // s_nation (1/25) tighter than c_region (1/5)
        let order = join_order(&t, &q);
        let s_pos = order.iter().position(|&d| d == Dim::Supplier).unwrap();
        let c_pos = order.iter().position(|&d| d == Dim::Customer).unwrap();
        assert!(s_pos < c_pos, "supplier restriction is more selective");
        // Unrestricted group-by dims come last.
        assert_eq!(order.len(), q.touched_dims().len());
    }

    #[test]
    fn dim_needed_columns_key_plus_groups() {
        let q = query(3, 1);
        assert_eq!(dim_needed_columns(&q, Dim::Customer), vec!["c_custkey", "c_nation"]);
        assert_eq!(dim_needed_columns(&q, Dim::Date), vec!["d_datekey", "d_year"]);
    }

    #[test]
    fn selects_contiguous_detection() {
        use cvr_data::queries::Pred;
        use cvr_data::value::Value;
        let domain = [1i64, 2, 3, 4, 5, 6];
        assert!(selects_contiguous(&domain, &Pred::Between(Value::Int(2), Value::Int(4))));
        assert!(selects_contiguous(&domain, &Pred::Eq(Value::Int(6))));
        assert!(!selects_contiguous(&domain, &Pred::InSet(vec![Value::Int(1), Value::Int(5)])));
        // Empty selection counts as contiguous.
        assert!(selects_contiguous(&domain, &Pred::Eq(Value::Int(99))));
    }

    #[test]
    fn group_names_match_query_order() {
        let q = query(4, 2);
        assert_eq!(group_col_names(&q), vec!["d_year", "s_nation", "p_category"]);
    }
}
