//! The two statement streams, generated from the workload seed.
//!
//! * `adhoc` — the 13 paper queries, then generated queries from
//!   consecutive `WorkloadConfig` seeds, deduplicated by SQL: no statement
//!   repeats, so every one is planned and executed.
//! * `drilldown` — a fixed set of base filters, each reissued with a fixed
//!   set of GROUP BY / aggregate combinations. Every (filter, combination)
//!   pair runs once, the stream cycles through the filters in an order
//!   drawn from the workload seed, and two statements sharing a filter are
//!   never adjacent.
//!
//! Statement `i` of a stream is a pure function of the seed and `i`.
//! Streams are generated from consecutive `WorkloadConfig` seeds.

use cvr_data::queries::{all_queries, AggExpr, GroupColumn, SsbQuery};
use cvr_data::workload::WorkloadConfig;
use cvr_server::parser::render_sql;
use std::collections::{HashMap, HashSet};

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Adhoc,
    Drilldown,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "adhoc" => Some(Kind::Adhoc),
            "drilldown" => Some(Kind::Drilldown),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Adhoc => "adhoc",
            Kind::Drilldown => "drilldown",
        }
    }
}

/// Distinct statements in an `adhoc` stream: more than any run can issue.
const ADHOC_LEN: usize = 60_000;
/// Base filters in a `drilldown` stream; a filter recurs every this many
/// statements.
const DRILL_FILTERS: usize = 250;
/// GROUP BY / aggregate combinations per `drilldown` filter.
const DRILL_COMBOS: usize = 240;
/// Statements in a warm-up stream.
const WARMUP_LEN: usize = 20_000;

/// A statement stream: distinct SQL texts, issued once each, in order.
pub struct Stream {
    sqls: Vec<String>,
    /// Filter class (same dimension and fact predicates) of each statement.
    filters: Vec<u32>,
}

impl Stream {
    /// The timed stream of workload `kind` at `seed`.
    pub fn new(kind: Kind, seed: u64) -> Stream {
        match kind {
            Kind::Adhoc => adhoc(seed, ADHOC_LEN, true, &HashSet::new()),
            Kind::Drilldown => drilldown(seed),
        }
    }

    /// A warm-up stream that shares no statement with `timed`: it fills
    /// the cache to its budget and builds the lazily constructed row
    /// designs before timing.
    pub fn warmup(seed: u64, timed: &Stream) -> Stream {
        let exclude: HashSet<&str> = timed.sqls.iter().map(String::as_str).collect();
        adhoc(seed ^ (1 << 63), WARMUP_LEN, false, &exclude)
    }

    /// The SQL of statement `i`, or `None` past the end of the stream.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.sqls.get(i).map(String::as_str)
    }

    /// Properties of the first `n` statements: the share that repeat an
    /// earlier statement's SQL exactly, and the share that repeat an
    /// earlier statement's filter (same dimension and fact predicates).
    pub fn repeat_shares(&self, n: usize) -> (f64, f64) {
        let (mut seen, mut seen_filters) = (HashSet::new(), HashSet::new());
        let (mut exact, mut filter, mut total) = (0usize, 0usize, 0usize);
        for (sql, class) in self.sqls.iter().zip(&self.filters).take(n) {
            total += 1;
            exact += !seen.insert(sql) as usize;
            filter += !seen_filters.insert(class) as usize;
        }
        let share = |k: usize| if total == 0 { 0.0 } else { k as f64 / total as f64 };
        (share(exact), share(filter))
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a well-mixed hash of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first `WorkloadConfig` seed of a stream's seed space: distinct
/// spaces for distinct `salt`s, consecutive seeds within one.
fn seed_base(seed: u64, salt: u64) -> u64 {
    mix(seed ^ salt.wrapping_mul(GOLDEN)) & !0xFFFF
}

/// Generated queries from consecutive `WorkloadConfig` seeds.
fn generated(base: u64) -> impl Iterator<Item = SsbQuery> {
    (0u64..).flat_map(move |k| WorkloadConfig { seed: base + k, count: 255 }.generate())
}

/// The filter part of a query, as a comparable key.
fn filter_key(q: &SsbQuery) -> String {
    format!("{:?}|{:?}", q.dim_predicates, q.fact_predicates)
}

/// Collects distinct statements with their filter classes.
#[derive(Default)]
struct Collector {
    sqls: Vec<String>,
    filters: Vec<u32>,
    seen: HashSet<String>,
    filter_ids: HashMap<String, u32>,
}

impl Collector {
    /// Add `q` unless its SQL is already present or excluded.
    fn push(&mut self, q: &SsbQuery, exclude: &HashSet<&str>) {
        let sql = render_sql(q);
        if exclude.contains(sql.as_str()) || !self.seen.insert(sql.clone()) {
            return;
        }
        let next = self.filter_ids.len() as u32;
        let class = *self.filter_ids.entry(filter_key(q)).or_insert(next);
        self.sqls.push(sql);
        self.filters.push(class);
    }

    fn finish(self) -> Stream {
        Stream { sqls: self.sqls, filters: self.filters }
    }
}

fn adhoc(seed: u64, len: usize, paper: bool, exclude: &HashSet<&str>) -> Stream {
    let mut b = Collector::default();
    if paper {
        for q in all_queries() {
            b.push(&q, exclude);
        }
    }
    for q in generated(seed_base(seed, 1)) {
        if b.sqls.len() >= len {
            break;
        }
        b.push(&q, exclude);
    }
    b.finish()
}

/// Filters and combinations are the same at every seed, like a
/// dashboard's, so that seeds differ in order rather than in what runs: a
/// window covers under a third of the pairs, and a few costly filters make
/// up much of a filter set's cost. The seed draws the order the filters
/// cycle in. Round `r` pairs the filter at position `f` with combination
/// `(r + f) % DRILL_COMBOS`, so the seed also draws which combinations
/// each filter meets first, and a window of a few rounds runs every
/// combination about equally often.
fn drilldown(seed: u64) -> Stream {
    // Base filters: distinct predicate sets, in a seeded order.
    let mut seen = HashSet::new();
    let mut filters: Vec<SsbQuery> = generated(seed_base(0, 2))
        .filter(|q| seen.insert(filter_key(q)))
        .take(DRILL_FILTERS)
        .collect();
    for k in (1..filters.len()).rev() {
        filters.swap(k, (mix(seed ^ 0xD811 ^ k as u64) % (k as u64 + 1)) as usize);
    }
    // Drill combinations: distinct GROUP BY + aggregate pairs.
    let mut seen = HashSet::new();
    let combos: Vec<(Vec<GroupColumn>, AggExpr)> = generated(seed_base(0, 3))
        .map(|q| (q.group_by, q.aggregate))
        .filter(|c| seen.insert(format!("{c:?}")))
        .take(DRILL_COMBOS)
        .collect();
    let mut b = Collector::default();
    for round in 0..DRILL_COMBOS {
        for (f, filter) in filters.iter().enumerate() {
            let (group_by, aggregate) = &combos[(round + f) % DRILL_COMBOS];
            let q =
                SsbQuery { group_by: group_by.clone(), aggregate: *aggregate, ..filter.clone() };
            b.push(&q, &HashSet::new());
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(s: &Stream, n: usize) -> Vec<String> {
        (0..n).map_while(|i| s.get(i)).map(str::to_string).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for kind in [Kind::Adhoc, Kind::Drilldown] {
            let a = prefix(&Stream::new(kind, 7), 3000);
            assert_eq!(a, prefix(&Stream::new(kind, 7), 3000), "{kind:?}");
            assert_ne!(a, prefix(&Stream::new(kind, 8), 3000), "{kind:?}");
        }
    }

    #[test]
    fn adhoc_never_repeats() {
        let s = Stream::new(Kind::Adhoc, 3);
        assert_eq!(s.sqls.len(), ADHOC_LEN);
        assert_eq!(s.repeat_shares(ADHOC_LEN).0, 0.0);
        let warm = Stream::warmup(3, &s);
        let timed: HashSet<_> = prefix(&s, ADHOC_LEN).into_iter().collect();
        assert!(prefix(&warm, WARMUP_LEN).iter().all(|w| !timed.contains(w)));
    }

    #[test]
    fn drilldown_repeats_filters_but_never_statements() {
        let s = Stream::new(Kind::Drilldown, 5);
        assert_eq!(s.sqls.len(), DRILL_FILTERS * DRILL_COMBOS);
        let (exact, filter) = s.repeat_shares(5000);
        assert_eq!(exact, 0.0);
        assert!(filter > 0.9, "filter-repeat share {filter}");
        for i in 1..5000 {
            assert_ne!(
                s.filters[i - 1],
                s.filters[i],
                "statements {} and {i} share a filter",
                i - 1
            );
        }
    }
}
