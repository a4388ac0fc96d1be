//! The traced pass: `Session`'s statement pipeline rebuilt from each
//! crate's public functions, so the benchmark can open a span around every
//! layer call without adding tracing to the program.
//!
//! The steps follow `Session::query` one for one — parse, memoized plan,
//! result-cache probe, admission, filter-intermediate reuse or capture,
//! column or row execution, cache fill — then the wire's encode and
//! decode. Its frames are checked byte-identical to the real session's,
//! so the timings belong to the same work.

use crate::driver::Outcome;
use crate::spans;
use crate::workload::Stream;
use cvr_core::{ColumnEngine, EngineConfig, Parallelism, QueryCtx, Scheduler};
use cvr_data::gen::SsbTables;
use cvr_data::queries::SsbQuery;
use cvr_data::result::QueryOutput;
use cvr_data::value::DataType;
use cvr_plan::{key, Catalog, PhysicalChoice, Plan, Planner};
use cvr_row::designs::{RowDb, RowDesign};
use cvr_server::parser::agg_sql;
use cvr_server::protocol::{result_response, Response};
use cvr_server::{parse, ColumnMeta, QueryCache, RowsResponse, Statement};
use cvr_storage::io::{BufferPool, IoSession};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The store version in every cache and plan-memo key: the mirror never
/// reloads.
const VERSION: u64 = 0;

/// Tables, column engine and planner.
pub struct Store {
    engine: ColumnEngine,
    planner: Planner,
    tables: Arc<SsbTables>,
}

impl Store {
    pub fn build(tables: Arc<SsbTables>) -> Store {
        let engine = {
            let _s = spans::enter("core.engine_build", "");
            ColumnEngine::new(tables.clone())
        };
        let planner = {
            let _s = spans::enter("plan.catalog_build", "");
            Planner::new(Catalog::build(&engine))
        };
        Store { engine, planner, tables }
    }
}

/// Session state over a shared store, empty when made.
pub struct Mirror {
    store: Arc<Store>,
    cache: QueryCache,
    plans: Mutex<HashMap<String, Arc<Plan>>>,
    row_dbs: Mutex<HashMap<RowDesign, Arc<RowDb>>>,
    sched: Arc<Scheduler>,
    par: Parallelism,
}

impl Mirror {
    pub fn new(store: Arc<Store>, cache_bytes: usize, par: Parallelism) -> Self {
        Mirror {
            store,
            cache: QueryCache::new(cache_bytes),
            plans: Mutex::new(HashMap::new()),
            row_dbs: Mutex::new(HashMap::new()),
            sched: Scheduler::process_default(),
            par,
        }
    }

    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Answer one SELECT the way `Session::query` and the wire do: the
    /// decoded frame a client would receive.
    pub fn select(&self, sql: &str) -> Result<Response, String> {
        let parsed = {
            let _s = spans::enter("server.parse", "");
            parse(sql)
        };
        let q = match parsed {
            Ok(Statement::Select(q)) => q,
            other => return Err(format!("not a SELECT: {other:?}")),
        };
        let rows = self.run(&q)?;
        let bytes = {
            let _s = spans::enter("server.encode", "");
            result_response(&rows).encode()
        };
        let _s = spans::enter("server.decode", "");
        Response::decode(&bytes)
    }

    fn run(&self, q: &SsbQuery) -> Result<RowsResponse, String> {
        let store = &self.store;
        let plan = self.plan(store, q);
        let label = plan.choice.label();
        let rkey = key::descriptor_key(q, &label, &plan.fact_order, VERSION);
        let hit = {
            let _s = spans::enter("cache.result_probe", "");
            self.cache.get_result(&rkey)
        };
        if let Some(mut hit) = hit {
            hit.cached = true;
            return Ok(hit);
        }
        let ctx = QueryCtx::unbounded();
        let _permit = {
            let _s = spans::enter("sched.admit", "");
            self.sched.try_admit(&ctx).map_err(|e| e.to_string())?
        };
        let io = IoSession::new(BufferPool::unbounded());
        let output = match plan.choice {
            PhysicalChoice::Column(cfg) => self.run_column(store, q, cfg, &plan, &label, &io)?,
            PhysicalChoice::Row(design) => {
                let db = self.row_db(store, design);
                let _s = spans::enter("row.exec", design.label());
                db.execute_planned(q, &plan.fact_order, &io)
            }
        };
        let rows = RowsResponse {
            query_id: q.id,
            plan: label,
            columns: columns(q),
            output,
            io: io.stats(),
            cached: false,
        };
        let _s = spans::enter("cache.put", "result");
        self.cache.put_result(rkey, &rows);
        Ok(rows)
    }

    fn plan(&self, store: &Store, q: &SsbQuery) -> Arc<Plan> {
        let _s = spans::enter("plan.memo", "");
        let pkey = key::plan_key(q, VERSION);
        if let Some(plan) = self.plans.lock().expect("plan memo").get(&pkey) {
            return plan.clone();
        }
        let plan = {
            let _s = spans::enter("plan.plan", "");
            Arc::new(store.planner.plan(q))
        };
        self.plans.lock().expect("plan memo").insert(pkey, plan.clone());
        plan
    }

    fn run_column(
        &self,
        store: &Store,
        q: &SsbQuery,
        cfg: EngineConfig,
        plan: &Plan,
        label: &str,
        io: &IoSession,
    ) -> Result<QueryOutput, String> {
        let (engine, order, ctx) = (&store.engine, &plan.fact_order, QueryCtx::unbounded());
        let fkey = key::filter_key(q, label, order, VERSION);
        let capture = {
            let _s = spans::enter("cache.filter_probe", "");
            self.cache.get_filter(&fkey)
        };
        let err = |e: cvr_core::QueryError| e.to_string();
        if let Some(capture) = capture {
            let warm = {
                let _s = spans::enter("core.warm", "");
                engine.try_execute_planned_warm(q, cfg, order, self.par, io, &capture, &ctx)
            };
            if let Some(out) = warm.map_err(err)? {
                return Ok(out);
            }
            let _s = spans::enter("core.exec", "");
            return engine.try_execute_planned(q, cfg, order, self.par, io, &ctx).map_err(err);
        }
        // Only the invisible join captures; every other shape executes
        // plainly inside the same call.
        let reuse = cfg.late_materialization && cfg.invisible_join;
        let (out, capture) = {
            let _s = spans::enter(if reuse { "core.capture" } else { "core.exec" }, "");
            engine.try_execute_planned_capture(q, cfg, order, self.par, io, &ctx).map_err(err)?
        };
        if let Some(capture) = capture {
            let _s = spans::enter("cache.put", "filter");
            self.cache.put_filter(fkey, Arc::new(capture));
        }
        Ok(out)
    }

    fn row_db(&self, store: &Store, design: RowDesign) -> Arc<RowDb> {
        let mut dbs = self.row_dbs.lock().expect("row designs");
        dbs.entry(design)
            .or_insert_with(|| {
                let _s = spans::enter("row.build", design.label());
                Arc::new(RowDb::build(store.tables.clone(), design))
            })
            .clone()
    }
}

/// Result-set metadata: the group columns with their schema types, then
/// the aggregate as an integer column named by its SQL text.
fn columns(q: &SsbQuery) -> Vec<ColumnMeta> {
    let schema = cvr_data::schema::star_schema();
    let mut cols: Vec<ColumnMeta> = q
        .group_by
        .iter()
        .map(|g| {
            let t = schema.dim(g.dim);
            ColumnMeta { name: g.column.to_string(), dtype: t.columns[t.col(g.column)].dtype }
        })
        .collect();
    cols.push(ColumnMeta { name: agg_sql(q.aggregate).to_string(), dtype: DataType::Int });
    cols
}

/// Tracing overhead, paired: each of the first `n` statements runs twice
/// traced and twice untraced, in ABBA order, through a mirror whose cache
/// is disabled so every run executes. Returns the median over statements
/// of traced over untraced time, minus one, and the answers.
pub fn overhead(mirror: &Mirror, stream: &Stream, n: usize, seed: u64) -> (f64, Outcome) {
    let mut out = Outcome::default();
    // Answer statement `i` and account for it; returns its time, µs.
    let answer = |out: &mut Outcome, i: usize| {
        let sql = stream.get(i).expect("the stream is longer than the replay");
        let start = Instant::now();
        let answer = {
            let _root = spans::statement(i as u64, "select");
            mirror.select(sql)
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        out.record(stream, i, seed, answer, us);
        us
    };
    // One untraced round first builds the row designs the statements use.
    for i in 0..n {
        answer(&mut out, i);
    }
    let mut ratios = Vec::with_capacity(n);
    for i in 0..n {
        let (mut on, mut off) = (0.0, 0.0);
        for traced in [true, false, false, true] {
            if traced {
                spans::record(Instant::now());
            }
            *(if traced { &mut on } else { &mut off }) += answer(&mut out, i);
            drop(spans::take());
        }
        ratios.push(on / off);
    }
    (crate::stats::median(&ratios) - 1.0, out)
}
