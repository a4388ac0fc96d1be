//! The invisible join (Section 5.4) — the paper's new operator.
//!
//! A late-materialized star join that "rewrites joins into predicates on the
//! foreign key columns in the fact table", executed in three phases:
//!
//! 1. **Dimension predicate → key predicate.** Each dimension's predicates
//!    run over its (sorted, compressed) columns, producing a position list.
//!    If the matching positions are contiguous, *between-predicate
//!    rewriting* (Section 5.4.2) turns the join into a `lo <= fk <= hi`
//!    range test; otherwise the matching keys go into a hash set — "in
//!    which case a hash join is simulated".
//! 2. **Fact foreign-key probes.** Each key predicate is applied to its FK
//!    column like any other column predicate (RLE-direct where the column
//!    is sorted), and the per-dimension position lists are intersected into
//!    the final fact position list `P`.
//! 3. **Minimal out-of-order extraction.** Only now, with all predicates
//!    applied, are dimension attributes fetched: dense reassigned keys make
//!    the FK value *be* the dimension row position ("a fast array
//!    look-up"); DATE's non-dense `yyyymmdd` keys take the real join the
//!    paper describes, through a key → row table. Extraction and
//!    aggregation run as one pass per position list (`phase3.rs`).

use crate::agg::{AggPartial, AggStrategy};
use crate::config::EngineConfig;
use crate::ctx::{QueryCtx, QueryError};
use crate::extract::gather_ints;
use crate::morsel::{grid, intersect_ascending, try_run_morsels, Parallelism};
use crate::phase3::Phase3;
use crate::poslist::{PosList, Positions};
use crate::projection::CStoreDb;
use crate::scan::{scan_int, scan_int_range, scan_pred, scan_pred_range, IntScanPred};
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::schema::Dim;
use cvr_index::hashidx::IntHashSet;
use cvr_storage::io::{IoLog, IoSession, IoStats};
use std::time::Duration;

/// The rewritten join predicate applied to a fact FK column in phase 2.
pub enum FactKeyPred {
    /// `lo <= fk <= hi` — the between-predicate rewriting fast path.
    Between(i64, i64),
    /// Hash-set membership — the general fallback.
    KeySet(IntHashSet),
}

impl FactKeyPred {
    /// Human-readable tag, used by plan-inspection tests and examples.
    pub fn kind(&self) -> &'static str {
        match self {
            FactKeyPred::Between(..) => "between",
            FactKeyPred::KeySet(..) => "hash-set",
        }
    }

    /// Run `f` with the scan-layer form of this key predicate:
    /// between-rewritten joins become interval predicates
    /// (SWAR-kernel-eligible on packed FK columns); hash sets stay opaque
    /// per-value tests.
    fn with_scan_pred<R>(&self, f: impl FnOnce(&IntScanPred<'_>) -> R) -> R {
        match self {
            FactKeyPred::Between(lo, hi) => f(&IntScanPred::Range { lo: *lo, hi: *hi }),
            FactKeyPred::KeySet(set) => {
                let test = |v: i64| set.contains(v);
                f(&IntScanPred::Test(&test))
            }
        }
    }
}

/// Tuning knobs for the invisible join, beyond the Figure 7 configuration:
/// used by the ablation study that isolates between-predicate rewriting
/// ("this performance difference is largely due to the between-predicate
/// rewriting optimization", Section 6.3.2).
#[derive(Debug, Clone, Copy)]
pub struct InvisibleOptions {
    /// Attempt between-predicate rewriting (default). When false, phase 1
    /// always builds a key hash set — the "another way of thinking about a
    /// column-oriented semijoin" baseline of Section 5.4.2.
    pub between_rewriting: bool,
}

impl Default for InvisibleOptions {
    fn default() -> Self {
        InvisibleOptions { between_rewriting: true }
    }
}

/// Phase 1 for one dimension: evaluate its predicates and rewrite to a fact
/// key predicate. Returns `None` when the dimension has no predicates.
pub fn phase1_key_pred(
    db: &CStoreDb,
    q: &SsbQuery,
    dim: Dim,
    cfg: EngineConfig,
    io: &IoSession,
) -> Option<FactKeyPred> {
    phase1_key_pred_opts(db, q, dim, cfg, InvisibleOptions::default(), io)
}

/// [`phase1_key_pred`] with explicit [`InvisibleOptions`].
pub fn phase1_key_pred_opts(
    db: &CStoreDb,
    q: &SsbQuery,
    dim: Dim,
    cfg: EngineConfig,
    opts: InvisibleOptions,
    io: &IoSession,
) -> Option<FactKeyPred> {
    let preds = q.dim_predicates_on(dim);
    if preds.is_empty() {
        return None;
    }
    let store = db.dim(dim);
    let mut dpos: Option<PosList> = None;
    for p in &preds {
        let col = store.store.column(p.column);
        let pl = scan_pred(col, &p.pred, cfg.block_iteration, io);
        dpos = Some(match dpos {
            None => pl,
            Some(acc) => acc.intersect(&pl),
        });
    }
    let dpos = dpos.expect("at least one predicate");
    // Between-predicate rewriting: the *runtime* contiguity check the paper
    // describes ("the code that evaluates predicates against the dimension
    // table is capable of detecting whether the result set is contiguous").
    let key_pred = if opts.between_rewriting && !dpos.is_empty() && dpos.is_contiguous() {
        if store.dense_keys {
            // Keys are positions.
            FactKeyPred::Between(dpos.first().unwrap() as i64, dpos.last().unwrap() as i64)
        } else {
            // DATE: keys ascend with position, so a contiguous position run
            // is a contiguous key range; fetch the two boundary keys.
            let keycol = store.store.column(dim.key_column());
            let bounds = PosList::Explicit {
                positions: if dpos.first() == dpos.last() {
                    vec![dpos.first().unwrap()]
                } else {
                    vec![dpos.first().unwrap(), dpos.last().unwrap()]
                },
                universe: dpos.universe(),
            };
            let vals = gather_ints(keycol, &bounds, io);
            FactKeyPred::Between(vals[0], *vals.last().unwrap())
        }
    } else {
        // General case: collect matching keys into a hash set ("the hash
        // table should easily fit in memory since dimension tables are
        // typically small and the table contains only keys").
        let keycol = store.store.column(dim.key_column());
        let keys = gather_ints(keycol, &dpos, io);
        FactKeyPred::KeySet(IntHashSet::from_keys(keys))
    };
    Some(key_pred)
}

/// Phase 2: apply one key predicate to its fact FK column.
pub fn phase2_probe(
    db: &CStoreDb,
    dim: Dim,
    key_pred: &FactKeyPred,
    cfg: EngineConfig,
    io: &IoSession,
) -> PosList {
    let col = db.fact.column(dim.fact_fk_column());
    key_pred.with_scan_pred(|pred| scan_int(col, pred, cfg.block_iteration, io))
}

/// A reusable record of the *filter* half (phases 1+2) of one invisible-join
/// execution: the exact I/O charges those phases made, in order, plus the
/// surviving fact positions. [`execute_warm`] replays the charges and skips
/// straight to phase 3, producing output and accounting byte-identical to a
/// cold run at a fraction of the work. A capture is only valid for the same
/// store contents, query filter, engine config, fact order, and — for
/// parallel executions — the same morsel grid; callers key their caches
/// accordingly and [`execute_warm`] re-checks the grid shape.
#[derive(Debug, Clone)]
pub struct FilterCapture {
    /// Coordinator-side step logs in charge order: serial captures hold
    /// phase 1 and phase 2 alternating per restricted dimension, then the
    /// fact-predicate scans; parallel captures hold phase 1 only.
    coordinator_logs: Vec<IoLog>,
    /// Per-morsel phase-2 logs (parallel captures only), replayed op-major
    /// exactly like a cold run.
    morsel_logs: Vec<IoLog>,
    /// The surviving fact positions.
    positions: CapturedPositions,
}

/// How the surviving positions were recorded — mirrors the execution shape.
#[derive(Debug, Clone)]
enum CapturedPositions {
    /// One global position list (serial execution).
    Serial(PosList),
    /// Ascending absolute-position fragments, one per morsel (parallel
    /// execution); reusable only on an identical morsel grid.
    Morsels(Vec<Vec<u32>>),
}

impl FilterCapture {
    /// Fact rows surviving the filter.
    pub fn survivors(&self) -> u64 {
        match &self.positions {
            CapturedPositions::Serial(p) => p.count() as u64,
            CapturedPositions::Morsels(f) => f.iter().map(|v| v.len() as u64).sum(),
        }
    }

    /// Approximate heap footprint, for cache budget accounting.
    pub fn approx_bytes(&self) -> usize {
        let logs = self.coordinator_logs.iter().chain(self.morsel_logs.iter());
        let log_bytes: usize = logs.map(|l| l.entries().len() * 12 + l.num_ops() * 8 + 64).sum();
        let pos_bytes = match &self.positions {
            CapturedPositions::Serial(p) => p.count() as usize * 4 + 32,
            CapturedPositions::Morsels(f) => f.iter().map(|v| v.len() * 4 + 32).sum(),
        };
        log_bytes + pos_bytes + std::mem::size_of::<FilterCapture>()
    }
}

/// Run one charging step. When `capture` is live the step runs against a
/// fresh recording session whose log is immediately replayed onto `io`
/// (charge-identical to running live — replay re-issues the same
/// `read_page` calls in the same order) and then retained for later warm
/// replays.
fn charge_step<R>(
    io: &IoSession,
    capture: &mut Option<&mut Vec<IoLog>>,
    f: impl FnOnce(&IoSession) -> R,
) -> R {
    match capture {
        None => f(io),
        Some(logs) => {
            let rio = IoSession::recording(io.pool().clone());
            let out = f(&rio);
            let log = rio.take_log();
            io.replay(&log);
            logs.push(log);
            out
        }
    }
}

/// Phases 1+2 of the serial plan: per restricted dimension, rewrite its
/// predicates to a fact key predicate and probe the FK column, intersecting
/// position lists; then apply the fact measure predicates (flight 1) like
/// any other column predicate. Each charging step is optionally captured.
fn filter_serial(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    opts: InvisibleOptions,
    io: &IoSession,
    capture: &mut Option<&mut Vec<IoLog>>,
    ctx: &QueryCtx,
) -> Result<PosList, QueryError> {
    let n = db.fact_rows() as u32;
    let mut pos: Option<PosList> = None;
    for dim in q.restricted_dims() {
        ctx.check()?;
        let mut span = ctx.span("probe", dim.fact_fk_column(), io);
        let key_pred = charge_step(io, capture, |s| {
            phase1_key_pred_opts(db, q, dim, cfg, opts, s).expect("restricted dim has predicates")
        });
        let pl = charge_step(io, capture, |s| phase2_probe(db, dim, &key_pred, cfg, s));
        span.rows(pl.count() as u64);
        pos = Some(match pos {
            None => pl,
            Some(acc) => acc.intersect(&pl),
        });
    }
    for p in &q.fact_predicates {
        ctx.check()?;
        let mut span = ctx.span("scan", p.column, io);
        let col = db.fact.column(p.column);
        let pl = charge_step(io, capture, |s| scan_pred(col, &p.pred, cfg.block_iteration, s));
        span.rows(pl.count() as u64);
        pos = Some(match pos {
            None => pl,
            Some(acc) => acc.intersect(&pl),
        });
    }
    let pos = pos.unwrap_or_else(|| PosList::all(n));
    // Account the surviving position list — the filter's materialized
    // intermediate (upper bound for range/bitmap representations).
    ctx.charge(pos.count() as usize * 4)?;
    Ok(pos)
}

/// Charge building the key → row join tables of the non-dense grouped
/// dimensions (DATE) on `io`: a key-column scan and the table's memory. The
/// serial plan charges the scan inside phase 3 instead; parallel and warm
/// executions charge it up front, where a shared table would be built. The
/// table itself is built once per store ([`crate::projection::DimStore::key_rows`]).
fn charge_join_tables(
    db: &CStoreDb,
    q: &SsbQuery,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<(), QueryError> {
    let mut group_dims: Vec<Dim> = Vec::new();
    for g in &q.group_by {
        if !group_dims.contains(&g.dim) {
            group_dims.push(g.dim);
        }
    }
    for dim in group_dims {
        if !db.dim(dim).dense_keys {
            ctx.check()?;
            let keycol = db.dim(dim).store.column(dim.key_column());
            keycol.charge_scan(io);
            ctx.charge(keycol.column.len() * 12)?; // decoded keys + hash-table entries
        }
    }
    Ok(())
}

/// Phase 3 over one position list: minimal out-of-order extraction of group
/// and measure values at the surviving positions, partially aggregated on
/// group ids, in one pass (see [`Phase3`]).
fn phase3_partial(
    q: &SsbQuery,
    phase3: &Phase3<'_>,
    pos: Positions<'_>,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<AggPartial, QueryError> {
    ctx.check()?;
    // Account the gathered group/measure arrays this phase materializes.
    let width = q.group_by.len() + q.aggregate.fact_columns().len();
    ctx.charge(pos.count().saturating_mul(8 * width.max(1)))?;
    Ok(phase3.run(pos, io))
}

/// The serial plan's phase 3 over the final position list, under its
/// "extract-aggregate" span: the DATE join table's key scan is charged
/// here, where the serial plan always built the table.
fn extract_aggregate(
    db: &CStoreDb,
    q: &SsbQuery,
    pos: &PosList,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<QueryOutput, QueryError> {
    // Dimension attributes are extracted as codes when every group column
    // has a code space (see [`AggStrategy`]), so no strings are
    // materialized per row.
    let strat = AggStrategy::for_query(db, q);
    let phase3 = Phase3::new(db, q, &strat, true);
    let mut span = ctx.span("extract-aggregate", "", io);
    let partial = phase3_partial(q, &phase3, Positions::List(pos), io, ctx)?;
    let out = strat.finish(partial, q);
    span.rows(out.len() as u64);
    Ok(out)
}

/// Execute `q` with the invisible join (infallible test shorthand).
#[cfg(test)]
pub(crate) fn execute(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    io: &IoSession,
) -> QueryOutput {
    execute_opts(db, q, cfg, InvisibleOptions::default(), io)
}

/// Execute `q` with explicit [`InvisibleOptions`].
pub(crate) fn execute_opts(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    opts: InvisibleOptions,
    io: &IoSession,
) -> QueryOutput {
    try_execute_opts(db, q, cfg, opts, io, &QueryCtx::unbounded())
        .unwrap_or_else(|e| std::panic::panic_any(e))
}

/// Execute `q` with the invisible join (default options), honouring `ctx`.
pub(crate) fn try_execute(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<QueryOutput, QueryError> {
    try_execute_opts(db, q, cfg, InvisibleOptions::default(), io, ctx)
}

/// Fallible, lifecycle-aware form of [`execute_opts`]: checks `ctx` between
/// filter steps and phases, charging materialized intermediates against its
/// memory budget.
pub(crate) fn try_execute_opts(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    opts: InvisibleOptions,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<QueryOutput, QueryError> {
    // Phases 1+2 per restricted dimension, then fact predicates.
    let pos = filter_serial(db, q, cfg, opts, io, &mut None, ctx)?;
    // Phase 3: dimension attribute extraction at the final position list.
    extract_aggregate(db, q, &pos, io, ctx)
}

/// Parallel invisible join with an unbounded lifecycle (test shorthand).
#[cfg(test)]
pub(crate) fn execute_par(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    par: Parallelism,
    io: &IoSession,
) -> QueryOutput {
    try_execute_par(db, q, cfg, par, io, &QueryCtx::unbounded())
        .unwrap_or_else(|e| std::panic::panic_any(e))
}

/// Execute `q` with the invisible join across `par.threads` morsel workers.
///
/// Phase 1 (dimension predicate → key predicate) stays on the coordinator —
/// dimension tables are small and its charges must precede the fact probes,
/// exactly as in [`try_execute`]. Phases 2 and 3 run as one pipelined fan-out:
/// each morsel probes every foreign-key predicate over its slice of the fact
/// position space, applies the fact predicates, extracts group and measure
/// values at its surviving positions, and partially aggregates. The
/// coordinator replays per-morsel I/O logs and merges partial aggregates in
/// morsel order, making both the result and the accounting byte-identical
/// to the serial path. Workers poll `ctx` at morsel boundaries and the
/// whole fan-out aborts on the first failure.
pub(crate) fn try_execute_par(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    par: Parallelism,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<QueryOutput, QueryError> {
    if par.is_serial() {
        return try_execute(db, q, cfg, io, ctx);
    }
    Ok(execute_par_impl(db, q, cfg, par, io, false, ctx)?.0)
}

/// The parallel plan, optionally capturing its filter phases. Each morsel
/// charges phase 2 and phase 3 into *separate* recording sessions; because
/// every morsel of one query runs the same structural op sequence, replaying
/// the phase-2 logs op-major and then the phase-3 logs op-major reconstructs
/// exactly the charge order of a single combined interleave — and lets a
/// warm execution replay the filter logs alone.
fn execute_par_impl(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    par: Parallelism,
    io: &IoSession,
    capturing: bool,
    ctx: &QueryCtx,
) -> Result<(QueryOutput, Option<FilterCapture>), QueryError> {
    let n = db.fact_rows() as u32;

    // Phase 1 (serial): dimension predicates rewritten to fact key
    // predicates, charged on the main session like the serial plan.
    let mut coordinator_logs: Vec<IoLog> = Vec::new();
    let key_preds: Vec<(Dim, FactKeyPred)> = {
        let mut cap = if capturing { Some(&mut coordinator_logs) } else { None };
        let mut preds = Vec::new();
        for dim in q.restricted_dims() {
            ctx.check()?;
            let kp = charge_step(io, &mut cap, |s| {
                phase1_key_pred(db, q, dim, cfg, s).expect("restricted dim has predicates")
            });
            preds.push((dim, kp));
        }
        preds
    };

    // Non-dense grouped dimensions (DATE) need a key → row join table; the
    // serial plan charges building it inside phase 3, the morsels share it,
    // so it is charged here, up front. Never captured: it depends on the
    // group-by, not the filter, and is charged live (identically) on warm
    // executions.
    charge_join_tables(db, q, io, ctx)?;

    // The aggregation strategy is derived from column-header metadata only
    // (no charges) and shared read-only with phase 3's lookup tables, so
    // every morsel extracts codes in the same global code spaces.
    let strat = AggStrategy::for_query(db, q);
    let phase3 = Phase3::new(db, q, &strat, false);

    // Per-operator output tallies for tracing: one slot per key predicate
    // then per fact predicate. Each morsel's fragment count for an operator
    // sums (over morsels) to exactly the serial plan's per-operator output
    // cardinality, so EXPLAIN ANALYZE reports identical actuals at any
    // thread count. Allocated only when a tracer is attached.
    let tallies: Option<Vec<std::sync::atomic::AtomicU64>> = ctx.traced().then(|| {
        (0..key_preds.len() + q.fact_predicates.len())
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect()
    });
    let tally = |slot: usize, rows: usize| {
        if let Some(t) = &tallies {
            t[slot].fetch_add(rows as u64, std::sync::atomic::Ordering::Relaxed);
        }
    };

    // The fan-out fuses phases 2 and 3, so per-operator wall/I/O cannot be
    // separated; the span carries the combined measurement plus the
    // per-worker breakdown, and the per-operator row tallies become leaf
    // records under it once the morsels have merged.
    let mut span = ctx.span("extract-aggregate", "", io);

    let pool = io.pool().clone();
    let results = try_run_morsels(n, par, ctx, |_, range| {
        // Phase 2 over this morsel: every key predicate and fact predicate,
        // intersected into the morsel's surviving positions.
        let rio2 = IoSession::recording(pool.clone());
        let mut pos: Option<Vec<u32>> = None;
        for (slot, (dim, key_pred)) in key_preds.iter().enumerate() {
            let col = db.fact.column(dim.fact_fk_column());
            let frag = key_pred.with_scan_pred(|pred| {
                scan_int_range(col, range.start, range.end, pred, cfg.block_iteration, &rio2)
            });
            tally(slot, frag.len());
            pos = Some(match pos {
                None => frag,
                Some(acc) => intersect_ascending(&acc, &frag),
            });
        }
        for (slot, p) in q.fact_predicates.iter().enumerate() {
            let col = db.fact.column(p.column);
            let frag =
                scan_pred_range(col, range.start, range.end, &p.pred, cfg.block_iteration, &rio2);
            tally(key_preds.len() + slot, frag.len());
            pos = Some(match pos {
                None => frag,
                Some(acc) => intersect_ascending(&acc, &frag),
            });
        }
        let pos = pos.unwrap_or_else(|| range.collect());
        ctx.charge(pos.len() * 4)?; // this morsel's surviving positions

        // Phase 3 over this morsel: minimal out-of-order extraction at the
        // surviving positions, then partial aggregation on group ids.
        let rio3 = IoSession::recording(pool.clone());
        let partial = phase3_partial(q, &phase3, Positions::Slice(&pos), &rio3, ctx)?;
        // A captured fragment lives in the cache, which budgets it by its
        // length: drop the intersections' spare capacity.
        let frag = capturing.then(|| {
            let mut pos = pos;
            pos.shrink_to_fit();
            pos
        });
        Ok((rio2.take_log(), rio3.take_log(), frag, partial))
    })?;

    // Deterministic merge: partial aggregates fold in morsel order, and the
    // per-morsel I/O logs replay op-major — phase 2 then phase 3 —
    // reconstructing the serial plan's charge order (see
    // `IoSession::replay_interleaved`).
    let mut merged = strat.new_partial();
    let mut logs2 = Vec::with_capacity(results.len());
    let mut logs3 = Vec::with_capacity(results.len());
    let mut frags = Vec::new();
    for (l2, l3, frag, partial) in results {
        logs2.push(l2);
        logs3.push(l3);
        if let Some(f) = frag {
            frags.push(f);
        }
        merged.merge(partial);
    }
    io.replay_interleaved(&logs2);
    io.replay_interleaved(&logs3);
    let out = strat.finish(merged, q);
    span.rows(out.len() as u64);
    drop(span);
    if let (Some(tracer), Some(tallies)) = (ctx.tracer(), &tallies) {
        use std::sync::atomic::Ordering;
        let mut slot = 0;
        for (dim, _) in &key_preds {
            let rows = tallies[slot].load(Ordering::Relaxed);
            tracer.leaf(
                "probe",
                dim.fact_fk_column(),
                Some(rows),
                Duration::ZERO,
                IoStats::default(),
            );
            slot += 1;
        }
        for p in &q.fact_predicates {
            let rows = tallies[slot].load(Ordering::Relaxed);
            tracer.leaf("scan", p.column, Some(rows), Duration::ZERO, IoStats::default());
            slot += 1;
        }
    }
    let capture = capturing.then_some(FilterCapture {
        coordinator_logs,
        morsel_logs: logs2,
        positions: CapturedPositions::Morsels(frags),
    });
    Ok((out, capture))
}

/// Cold capture with an unbounded lifecycle (test shorthand).
#[cfg(test)]
pub(crate) fn execute_capture(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    par: Parallelism,
    io: &IoSession,
) -> (QueryOutput, FilterCapture) {
    try_execute_capture(db, q, cfg, par, io, &QueryCtx::unbounded())
        .unwrap_or_else(|e| std::panic::panic_any(e))
}

/// Execute `q` cold (default options) and capture its filter phases for
/// later [`try_execute_warm`] reuse. Charges on `io` are byte-identical to
/// [`try_execute_par`] / [`try_execute`] at the same `par`.
pub(crate) fn try_execute_capture(
    db: &CStoreDb,
    q: &SsbQuery,
    cfg: EngineConfig,
    par: Parallelism,
    io: &IoSession,
    ctx: &QueryCtx,
) -> Result<(QueryOutput, FilterCapture), QueryError> {
    if par.is_serial() {
        let mut logs: Vec<IoLog> = Vec::new();
        let pos =
            filter_serial(db, q, cfg, InvisibleOptions::default(), io, &mut Some(&mut logs), ctx)?;
        let out = extract_aggregate(db, q, &pos, io, ctx)?;
        let capture = FilterCapture {
            coordinator_logs: logs,
            morsel_logs: Vec::new(),
            positions: CapturedPositions::Serial(pos),
        };
        Ok((out, capture))
    } else {
        let (out, capture) = execute_par_impl(db, q, cfg, par, io, true, ctx)?;
        Ok((out, capture.expect("parallel capture requested")))
    }
}

/// Warm re-execution with an unbounded lifecycle (test shorthand).
#[cfg(test)]
pub(crate) fn execute_warm(
    db: &CStoreDb,
    q: &SsbQuery,
    par: Parallelism,
    io: &IoSession,
    capture: &FilterCapture,
) -> Option<QueryOutput> {
    try_execute_warm(db, q, par, io, capture, &QueryCtx::unbounded())
        .unwrap_or_else(|e| std::panic::panic_any(e))
}

/// Execute `q` warm: replay the captured filter charges, then run phase 3
/// live over the captured positions. Output and accounting are
/// byte-identical to a cold execution at the same `par`. The outer `Err`
/// is a lifecycle abort; the inner `None` is a capture-shape mismatch
/// (serial capture vs parallel run or vice versa, or a different morsel
/// grid) — the caller falls back to a cold execution.
pub(crate) fn try_execute_warm(
    db: &CStoreDb,
    q: &SsbQuery,
    par: Parallelism,
    io: &IoSession,
    capture: &FilterCapture,
    ctx: &QueryCtx,
) -> Result<Option<QueryOutput>, QueryError> {
    let n = db.fact_rows() as u32;
    if par.is_serial() {
        let CapturedPositions::Serial(pos) = &capture.positions else {
            return Ok(None);
        };
        {
            let mut replay = ctx.span("filter-replay", "cached filter charges", io);
            for log in &capture.coordinator_logs {
                io.replay(log);
            }
            replay.rows(pos.count() as u64);
        }
        Ok(Some(extract_aggregate(db, q, pos, io, ctx)?))
    } else {
        let CapturedPositions::Morsels(frags) = &capture.positions else {
            return Ok(None);
        };
        let (_, count) = grid(n, par);
        if frags.len() != count {
            return Ok(None);
        }
        // Replay phases 1 and 2 from the capture; charge the join tables
        // live between them, exactly where the cold plan charges them.
        let mut replay = ctx.span("filter-replay", "cached filter charges", io);
        for log in &capture.coordinator_logs {
            io.replay(log);
        }
        charge_join_tables(db, q, io, ctx)?;
        io.replay_interleaved(&capture.morsel_logs);
        replay.rows(frags.iter().map(Vec::len).sum::<usize>() as u64);
        drop(replay);
        // Phase 3 live, over the same morsel grid and the captured
        // surviving positions, borrowed in place.
        let strat = AggStrategy::for_query(db, q);
        let phase3 = Phase3::new(db, q, &strat, false);
        let mut span = ctx.span("extract-aggregate", "", io);
        let pool = io.pool().clone();
        let results = try_run_morsels(n, par, ctx, |i, _range| {
            let rio = IoSession::recording(pool.clone());
            let partial = phase3_partial(q, &phase3, Positions::Slice(&frags[i]), &rio, ctx)?;
            Ok((rio.take_log(), partial))
        })?;
        let mut merged = strat.new_partial();
        let mut logs = Vec::with_capacity(results.len());
        for (log, partial) in results {
            logs.push(log);
            merged.merge(partial);
        }
        io.replay_interleaved(&logs);
        let out = strat.finish(merged, q);
        span.rows(out.len() as u64);
        drop(span);
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::{all_queries, query};
    use cvr_data::reference;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn db() -> CStoreDb {
        CStoreDb::build(Arc::new(SsbConfig { sf: 0.002, seed: 17 }.generate()), true)
    }

    #[test]
    fn matches_reference_on_all_queries() {
        let db = db();
        let io = IoSession::unmetered();
        for q in all_queries() {
            let expected = reference::evaluate(&db.tables, &q);
            let got = execute(&db, &q, EngineConfig::FULL, &io);
            assert_eq!(got, expected, "invisible join disagrees on {}", q.id);
        }
    }

    #[test]
    fn region_predicate_rewrites_to_between() {
        let db = db();
        let io = IoSession::unmetered();
        // Q3.1: c_region = 'ASIA' — hierarchy-sorted customer ⇒ contiguous.
        let kp = phase1_key_pred(&db, &query(3, 1), Dim::Customer, EngineConfig::FULL, &io)
            .expect("customer restricted");
        assert_eq!(kp.kind(), "between");
    }

    #[test]
    fn city_in_set_falls_back_to_hash() {
        let db = db();
        let io = IoSession::unmetered();
        // Q3.3: c_city IN ('UNITED KI1','UNITED KI5') — two disjoint ranges.
        let kp = phase1_key_pred(&db, &query(3, 3), Dim::Customer, EngineConfig::FULL, &io)
            .expect("customer restricted");
        // With a large enough dimension both cities exist and are disjoint;
        // at tiny scales one may be absent (still correct either way).
        assert!(kp.kind() == "hash-set" || kp.kind() == "between");
    }

    #[test]
    fn date_year_rewrites_to_datekey_between() {
        let db = db();
        let io = IoSession::unmetered();
        let kp = phase1_key_pred(&db, &query(1, 1), Dim::Date, EngineConfig::FULL, &io)
            .expect("date restricted");
        match kp {
            FactKeyPred::Between(lo, hi) => {
                assert_eq!(lo, 19930101);
                assert_eq!(hi, 19931231);
            }
            FactKeyPred::KeySet(_) => panic!("year predicate must rewrite to between"),
        }
    }

    #[test]
    fn mfgr_in_set_is_contiguous_after_sorting() {
        let db = db();
        let io = IoSession::unmetered();
        // Q4.1: p_mfgr IN ('MFGR#1','MFGR#2') — adjacent under mfgr-sorted
        // parts, so the runtime detector still finds a contiguous range.
        let kp = phase1_key_pred(&db, &query(4, 1), Dim::Part, EngineConfig::FULL, &io)
            .expect("part restricted");
        assert_eq!(kp.kind(), "between");
    }

    #[test]
    fn block_and_tuple_modes_agree() {
        let db = db();
        let io = IoSession::unmetered();
        let tuple_cfg = EngineConfig::parse("TICL");
        for q in all_queries() {
            assert_eq!(
                execute(&db, &q, EngineConfig::FULL, &io),
                execute(&db, &q, tuple_cfg, &io),
                "{}",
                q.id
            );
        }
    }

    #[test]
    fn warm_executions_are_byte_identical_to_cold() {
        use cvr_storage::io::BufferPool;
        let db = db();
        for par in [Parallelism::serial(), Parallelism { threads: 4, morsel_rows: 512 }] {
            for q in all_queries() {
                let cold_io = IoSession::new(BufferPool::unbounded());
                let cold = if par.is_serial() {
                    execute(&db, &q, EngineConfig::FULL, &cold_io)
                } else {
                    execute_par(&db, &q, EngineConfig::FULL, par, &cold_io)
                };
                let cap_io = IoSession::new(BufferPool::unbounded());
                let (captured, capture) =
                    execute_capture(&db, &q, EngineConfig::FULL, par, &cap_io);
                assert_eq!(captured, cold, "capture changed the answer on {}", q.id);
                assert_eq!(cap_io.stats(), cold_io.stats(), "capture charges on {}", q.id);
                let warm_io = IoSession::new(BufferPool::unbounded());
                let warm =
                    execute_warm(&db, &q, par, &warm_io, &capture).expect("matching capture shape");
                assert_eq!(warm, cold, "warm answer on {}", q.id);
                assert_eq!(warm_io.stats(), cold_io.stats(), "warm charges on {}", q.id);
                assert!(capture.approx_bytes() > 0);
            }
        }
    }

    #[test]
    fn warm_rejects_mismatched_shapes() {
        let db = db();
        let io = IoSession::unmetered();
        let q = query(3, 1);
        let par = Parallelism { threads: 4, morsel_rows: 512 };
        let (_, serial_cap) =
            execute_capture(&db, &q, EngineConfig::FULL, Parallelism::serial(), &io);
        let (_, par_cap) = execute_capture(&db, &q, EngineConfig::FULL, par, &io);
        assert!(execute_warm(&db, &q, par, &io, &serial_cap).is_none());
        assert!(execute_warm(&db, &q, Parallelism::serial(), &io, &par_cap).is_none());
        // A different grid (different morsel size) is rejected too.
        let other = Parallelism { threads: 4, morsel_rows: 1024 };
        if crate::morsel::grid(db.fact_rows() as u32, other).1
            != crate::morsel::grid(db.fact_rows() as u32, par).1
        {
            assert!(execute_warm(&db, &q, other, &io, &par_cap).is_none());
        }
    }

    /// Tables whose PART brands are padded so `p_brand1` spans several
    /// pages in both stores: plain values of about 90 bytes in the
    /// uncompressed store, and in the compressed store a dictionary prefix
    /// that ends two code words before a page boundary, so the first parts'
    /// codes and the rest's sit on different pages. (At the scale factors
    /// the benchmarks use, every dimension column fits in one page.)
    fn multi_page_brand_tables() -> cvr_data::gen::SsbTables {
        use cvr_data::table::ColumnData;
        use cvr_storage::io::PAGE_SIZE;
        let mut tables = SsbConfig { sf: 0.01, seed: 23 }.generate();
        let idx = tables.part.schema.col("p_brand1");
        let ColumnData::Str(brands) = &mut tables.part.columns[idx] else {
            unreachable!("p_brand1 is a string column")
        };
        let mut distinct = brands.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let pad = 80;
        let dict_bytes: u64 = distinct.iter().map(|b| (b.len() + 2 + pad) as u64).sum();
        let extra = (2 * PAGE_SIZE - 16 - dict_bytes % PAGE_SIZE) % PAGE_SIZE;
        let (per_brand, rest) = (extra / distinct.len() as u64, extra % distinct.len() as u64);
        for b in brands.iter_mut() {
            let more = per_brand + if *b == distinct[0] { rest } else { 0 };
            *b = format!("{b}-{}", "x".repeat(pad + more as usize));
        }
        tables
    }

    /// Phase 3's charges as separate gathers in plan order: per group
    /// column, its foreign-key gather on first use (then, for DATE, the
    /// join table's key scan) and its dimension gather; then one gather
    /// per measure.
    fn separate_gathers(db: &CStoreDb, q: &SsbQuery, pos: &PosList, io: &IoSession) {
        let mut dim_rows: Vec<(Dim, Vec<u32>)> = Vec::new();
        for g in &q.group_by {
            if !dim_rows.iter().any(|(d, _)| *d == g.dim) {
                let fk_col = db.fact.column(g.dim.fact_fk_column());
                fk_col.charge_gather(pos.iter(), io);
                let fks = fk_col.column.as_int().decode();
                let rows = if db.dim(g.dim).dense_keys {
                    pos.iter().map(|p| fks[p as usize] as u32).collect()
                } else {
                    let keycol = db.dim(g.dim).store.column(g.dim.key_column());
                    keycol.charge_scan(io);
                    let keys = keycol.column.as_int().decode();
                    let map: HashMap<i64, u32> =
                        keys.iter().enumerate().map(|(r, &k)| (k, r as u32)).collect();
                    pos.iter().map(|p| map[&fks[p as usize]]).collect()
                };
                dim_rows.push((g.dim, rows));
            }
            let rows = &dim_rows.iter().find(|(d, _)| *d == g.dim).expect("joined").1;
            db.dim(g.dim).store.column(g.column).charge_gather(rows.iter().copied(), io);
        }
        for c in q.aggregate.fact_columns() {
            db.fact.column(c).charge_gather(pos.iter(), io);
        }
    }

    #[test]
    fn fused_pass_charges_like_separate_gathers_on_multi_page_dimension_columns() {
        use crate::agg::AggStrategy;
        use cvr_storage::io::BufferPool;
        let tables = Arc::new(multi_page_brand_tables());
        for compressed in [true, false] {
            let db = CStoreDb::build(tables.clone(), compressed);
            let brand = db.dim(Dim::Part).store.column("p_brand1");
            let pages = brand.row_pages().expect("p_brand1 spans several pages");
            assert!(pages.iter().min() < pages.iter().max(), "rows on different pages");
            let cfg = EngineConfig::parse(if compressed { "tICL" } else { "tIcL" });
            // Q2.1 over every part reaches both sides of the page boundary.
            let mut all_parts = query(2, 1);
            all_parts.dim_predicates.retain(|p| p.dim != Dim::Part);
            for q in [query(2, 1), query(2, 3), all_parts] {
                let ctx = QueryCtx::unbounded();
                let opts = InvisibleOptions::default();
                let io = IoSession::unmetered();
                let pos = filter_serial(&db, &q, cfg, opts, &io, &mut None, &ctx).unwrap();
                let strat = AggStrategy::for_query(&db, &q);
                assert_eq!(strat.is_code_level(), compressed, "{}", q.id);

                let fused = IoSession::recording(BufferPool::unbounded());
                let partial = Phase3::new(&db, &q, &strat, true).run(Positions::List(&pos), &fused);
                assert_eq!(strat.finish(partial, &q), reference::evaluate(&tables, &q), "{}", q.id);
                let separate = IoSession::recording(BufferPool::unbounded());
                separate_gathers(&db, &q, &pos, &separate);
                let (fused, separate) = (fused.take_log(), separate.take_log());
                assert_eq!(fused, separate, "{} charges", q.id);
                // Over every part, the brand gather changes pages back and
                // forth.
                if q.dim_predicates.iter().all(|p| p.dim != Dim::Part) {
                    let brand_reads =
                        fused.entries().iter().filter(|(p, _)| p.file == brand.file_id()).count();
                    let dict_pages = if compressed { 2 } else { 0 };
                    assert!(brand_reads > dict_pages + 2, "{} brand pages", q.id);
                }

                // Morsel fragments charge, merged, like the serial pass
                // (repeated boundary pages resolve to pool hits).
                let par = Parallelism { threads: 3, morsel_rows: 1024 };
                let (serial_io, par_io) = (IoSession::unmetered(), IoSession::unmetered());
                let serial = execute(&db, &q, cfg, &serial_io);
                assert_eq!(execute_par(&db, &q, cfg, par, &par_io), serial, "{}", q.id);
                let (a, b) = (serial_io.stats(), par_io.stats());
                assert_eq!(
                    (a.pages_read, a.bytes_read, a.seeks),
                    (b.pages_read, b.bytes_read, b.seeks)
                );
            }
        }
    }

    #[test]
    fn uncompressed_db_agrees() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 17 }.generate());
        let comp = CStoreDb::build(tables.clone(), true);
        let plain = CStoreDb::build(tables, false);
        let io = IoSession::unmetered();
        let cfg_c = EngineConfig::parse("tICL");
        let cfg_p = EngineConfig::parse("tIcL");
        for q in all_queries() {
            assert_eq!(execute(&comp, &q, cfg_c, &io), execute(&plain, &q, cfg_p, &io), "{}", q.id);
        }
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::{all_queries, query};
    use std::sync::Arc;

    #[test]
    fn disabling_rewriting_preserves_results() {
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.002, seed: 61 }.generate()), true);
        let io = IoSession::unmetered();
        let no_rewrite = InvisibleOptions { between_rewriting: false };
        for q in all_queries() {
            assert_eq!(
                execute(&db, &q, EngineConfig::FULL, &io),
                execute_opts(&db, &q, EngineConfig::FULL, no_rewrite, &io),
                "{}",
                q.id
            );
        }
    }

    #[test]
    fn disabling_rewriting_forces_hash_sets() {
        let db = CStoreDb::build(Arc::new(SsbConfig { sf: 0.002, seed: 61 }.generate()), true);
        let io = IoSession::unmetered();
        let no_rewrite = InvisibleOptions { between_rewriting: false };
        let q = query(3, 1); // region predicates: rewritable when enabled
        let with = phase1_key_pred(&db, &q, Dim::Customer, EngineConfig::FULL, &io).unwrap();
        let without =
            phase1_key_pred_opts(&db, &q, Dim::Customer, EngineConfig::FULL, no_rewrite, &io)
                .unwrap();
        assert_eq!(with.kind(), "between");
        assert_eq!(without.kind(), "hash-set");
    }
}
