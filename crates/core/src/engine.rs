//! The column engine facade: one entry point over every plan shape.

use crate::config::EngineConfig;
use crate::ctx::{catch_injected, QueryCtx, QueryError};
use crate::morsel::Parallelism;
use crate::projection::CStoreDb;
use crate::{em, invisible, lmjoin};
use cvr_data::gen::SsbTables;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_storage::io::IoSession;
use std::sync::Arc;

/// A built column engine holding both compression variants of the storage,
/// dispatching each query to the plan shape its [`EngineConfig`] selects:
///
/// * `L` + `I` → the [`invisible`] join;
/// * `L` + `i` → the classic [`lmjoin`] (late-materialized hash join);
/// * `l` → [`em`] (tuples constructed at the scan, row-style execution).
pub struct ColumnEngine {
    compressed: CStoreDb,
    plain: CStoreDb,
}

impl ColumnEngine {
    /// Build both storage variants over `tables`.
    pub fn new(tables: Arc<SsbTables>) -> ColumnEngine {
        ColumnEngine {
            compressed: CStoreDb::build(tables.clone(), true),
            plain: CStoreDb::build(tables, false),
        }
    }

    /// The storage serving `config`.
    pub fn db(&self, config: EngineConfig) -> &CStoreDb {
        if config.compression {
            &self.compressed
        } else {
            &self.plain
        }
    }

    /// Execute `q` under `config` at the process-default parallelism: the
    /// `CVR_THREADS` environment variable when set, otherwise the machine's
    /// available parallelism (see [`Parallelism::from_env`]). Results and
    /// I/O accounting are byte-identical at every thread count.
    pub fn execute(&self, q: &SsbQuery, config: EngineConfig, io: &IoSession) -> QueryOutput {
        self.execute_with(q, config, Parallelism::from_env(), io)
    }

    /// Execute `q` under `config` with an explicit [`Parallelism`].
    ///
    /// `par.threads == 1` takes the serial code path; larger values run the
    /// morsel-driven parallel pipeline of the selected plan shape, merging
    /// partial aggregates and per-morsel I/O logs in morsel order.
    pub fn execute_with(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        par: Parallelism,
        io: &IoSession,
    ) -> QueryOutput {
        self.try_execute_with(q, config, par, io, &QueryCtx::unbounded())
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Fallible [`ColumnEngine::execute_with`]: the selected plan shape
    /// checks `ctx` at phase and morsel boundaries and aborts with a typed
    /// [`QueryError`] on cancellation, deadline expiry, or a blown memory
    /// budget. Injected storage faults surface as [`QueryError::Io`].
    pub fn try_execute_with(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        par: Parallelism,
        io: &IoSession,
        ctx: &QueryCtx,
    ) -> Result<QueryOutput, QueryError> {
        let db = self.db(config);
        // The serial plans stay: running `threads == 1` through the morsel
        // pipeline gives the same outputs and bytes/pages/seeks, but it is
        // slower. Measured at sf 0.02 on a 2-vCPU Xeon VM, median of 21
        // runs per paper query, two passes: the 13 queries took 12.4–12.7 ms
        // at `tICL` against 9.9–10.2 ms serial (Q3.1: 1.33–1.36 ms against
        // 0.78–0.80 ms), and +9% at `tiCL`; `TICL` moved +3% and +30%.
        catch_injected(|| {
            if par.is_serial() {
                if !config.late_materialization {
                    em::try_execute(db, q, config, io, ctx)
                } else if config.invisible_join {
                    invisible::try_execute(db, q, config, io, ctx)
                } else {
                    lmjoin::try_execute(db, q, config, io, ctx)
                }
            } else if !config.late_materialization {
                em::try_execute_par(db, q, config, par, io, ctx)
            } else if config.invisible_join {
                invisible::try_execute_par(db, q, config, par, io, ctx)
            } else {
                lmjoin::try_execute_par(db, q, config, par, io, ctx)
            }
        })?
    }

    /// Execute `q` with the invisible join under explicit ablation
    /// [`crate::invisible::InvisibleOptions`] (serial path).
    ///
    /// The per-shape `execute*` free functions are crate-private; this is
    /// the one sanctioned way to reach the invisible join's phase-level
    /// switches from outside the crate. With default options it is
    /// equivalent to [`ColumnEngine::execute_with`] at
    /// [`Parallelism::serial`] under an invisible-join configuration.
    pub fn execute_ablation(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        opts: crate::invisible::InvisibleOptions,
        io: &IoSession,
    ) -> QueryOutput {
        invisible::execute_opts(self.db(config), q, config, opts, io)
    }

    /// Execute a *planner-chosen* plan: `config` plus an explicit fact-
    /// predicate evaluation order (see `SsbQuery::with_fact_order`).
    ///
    /// This is deliberately just "permute, then [`ColumnEngine::execute_with`]":
    /// a planned execution is byte-identical — outputs *and* I/O accounting —
    /// to handing the engine the same configuration and predicate order
    /// directly, which is what the differential harness pins.
    pub fn execute_planned(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        fact_order: &[usize],
        par: Parallelism,
        io: &IoSession,
    ) -> QueryOutput {
        self.execute_with(&q.with_fact_order(fact_order), config, par, io)
    }

    /// Fallible [`ColumnEngine::execute_planned`].
    pub fn try_execute_planned(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        fact_order: &[usize],
        par: Parallelism,
        io: &IoSession,
        ctx: &QueryCtx,
    ) -> Result<QueryOutput, QueryError> {
        self.try_execute_with(&q.with_fact_order(fact_order), config, par, io, ctx)
    }

    /// [`ColumnEngine::try_execute_planned`], additionally capturing the
    /// filter phases for later warm reuse when the plan shape supports it
    /// (the invisible join under late materialization). Charges on `io` are
    /// byte-identical to an uncaptured execution.
    pub fn try_execute_planned_capture(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        fact_order: &[usize],
        par: Parallelism,
        io: &IoSession,
        ctx: &QueryCtx,
    ) -> Result<(QueryOutput, Option<crate::invisible::FilterCapture>), QueryError> {
        if config.late_materialization && config.invisible_join {
            let q = q.with_fact_order(fact_order);
            let (out, cap) = catch_injected(|| {
                invisible::try_execute_capture(self.db(config), &q, config, par, io, ctx)
            })??;
            Ok((out, Some(cap)))
        } else {
            Ok((self.try_execute_planned(q, config, fact_order, par, io, ctx)?, None))
        }
    }

    /// Re-execute a plan from a [`crate::invisible::FilterCapture`] taken by
    /// [`ColumnEngine::try_execute_planned_capture`] under the *same* query
    /// filter, config, fact order, and store contents: the filter charges
    /// replay and only phase 3 runs live. Returns `Ok(None)` (caller runs
    /// cold) when the plan shape or capture shape does not match.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute_planned_warm(
        &self,
        q: &SsbQuery,
        config: EngineConfig,
        fact_order: &[usize],
        par: Parallelism,
        io: &IoSession,
        capture: &crate::invisible::FilterCapture,
        ctx: &QueryCtx,
    ) -> Result<Option<QueryOutput>, QueryError> {
        if !(config.late_materialization && config.invisible_join) {
            return Ok(None);
        }
        let q = q.with_fact_order(fact_order);
        catch_injected(|| invisible::try_execute_warm(self.db(config), &q, par, io, capture, ctx))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::gen::SsbConfig;
    use cvr_data::queries::all_queries;
    use cvr_data::reference;

    #[test]
    fn all_sixteen_configs_match_reference() {
        let tables = Arc::new(SsbConfig { sf: 0.0015, seed: 53 }.generate());
        let engine = ColumnEngine::new(tables.clone());
        let io = IoSession::unmetered();
        for q in all_queries() {
            let expected = reference::evaluate(&tables, &q);
            for cfg in EngineConfig::all() {
                assert_eq!(
                    engine.execute(&q, cfg, &io),
                    expected,
                    "config {} disagrees on {}",
                    cfg.code(),
                    q.id
                );
            }
        }
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let tables = Arc::new(SsbConfig { sf: 0.0015, seed: 53 }.generate());
        let engine = ColumnEngine::new(tables);
        // Small morsels so even this tiny scale factor fans out.
        let par = |threads| Parallelism { threads, morsel_rows: 512 };
        for q in all_queries() {
            for cfg in
                [EngineConfig::FULL, EngineConfig::parse("tiCL"), EngineConfig::parse("tICl")]
            {
                let serial_io = IoSession::unmetered();
                let expected = engine.execute_with(&q, cfg, Parallelism::serial(), &serial_io);
                for threads in [2, 4] {
                    let io = IoSession::unmetered();
                    let got = engine.execute_with(&q, cfg, par(threads), &io);
                    assert_eq!(got, expected, "{} threads on {} ({})", threads, q.id, cfg.code());
                    let (a, b) = (serial_io.stats(), io.stats());
                    assert_eq!(a.bytes_read, b.bytes_read, "{} bytes ({})", q.id, cfg.code());
                    assert_eq!(a.pages_read, b.pages_read, "{} pages ({})", q.id, cfg.code());
                    assert_eq!(a.seeks, b.seeks, "{} seeks ({})", q.id, cfg.code());
                }
            }
        }
    }

    #[test]
    fn compressed_storage_is_smaller() {
        let tables = Arc::new(SsbConfig { sf: 0.002, seed: 59 }.generate());
        let engine = ColumnEngine::new(tables);
        assert!(
            engine.db(EngineConfig::FULL).fact_bytes()
                < engine.db(EngineConfig::parse("tIcL")).fact_bytes()
        );
    }
}
