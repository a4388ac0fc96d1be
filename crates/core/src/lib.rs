//! # cvr-core — a C-Store-style column engine and the invisible join
//!
//! The paper's primary contribution, reproduced as a library:
//!
//! * [`projection`] — sorted projections with dictionary key reassignment
//!   (dense dimension keys; `yyyymmdd` DATE keys kept non-dense on purpose);
//! * [`scan`] / [`extract`] — predicate application and positional
//!   extraction over compressed columns, each with block (word-parallel
//!   kernels) and `get_next` (tuple-at-a-time) interfaces;
//! * [`kernels`] — branchless SWAR comparison kernels over truly
//!   bit-packed columns, emitting 64-bit selection masks;
//! * [`poslist`] — range / bitmap / explicit position lists with
//!   representation-preserving intersection;
//! * [`invisible`] — the **invisible join** with runtime between-predicate
//!   rewriting (Section 5.4);
//! * [`lmjoin`] — the classic late-materialized join it is compared against;
//! * [`em`] — early materialization (row-style execution over constructed
//!   tuples);
//! * [`row_mv`] — rows stored in a single string column ("CS (Row-MV)",
//!   Figure 5);
//! * [`denorm`] — pre-joined fact tables at three compression levels
//!   (Figure 8);
//! * [`config`] / [`engine`] — the four Figure 7 knobs (`tICL` … `Ticl`) and
//!   the dispatching facade;
//! * [`morsel`] — morsel-driven parallel execution: the fact position space
//!   is split into morsels claimed by scoped worker threads, with partial
//!   aggregates and per-morsel I/O logs merged deterministically in morsel
//!   order ([`Parallelism`] / `CVR_THREADS` select the thread count);
//! * [`sched`] — the query scheduler: admission control plus fair
//!   worker-lease sharing across the morsel fan-outs of the queries it
//!   admitted, with queue-depth and deadline-aware load shedding;
//! * [`ctx`] — the query lifecycle control block ([`QueryCtx`]: cooperative
//!   cancellation, deadlines, memory budgets) and the typed [`QueryError`]
//!   every abort path funnels into;
//! * [`trace`] — per-query execution tracing: a span tree of operator
//!   actuals (wall time, rows, I/O deltas, per-worker fan-out breakdowns),
//!   attached through [`QueryCtx`] with near-zero cost when disabled —
//!   the substrate for the server's `EXPLAIN ANALYZE`.
//!
//! ```
//! use cvr_core::{ColumnEngine, EngineConfig};
//! use cvr_data::{gen::SsbConfig, queries};
//! use cvr_storage::io::IoSession;
//! use std::sync::Arc;
//!
//! let tables = Arc::new(SsbConfig::with_scale(0.0005).generate());
//! let engine = ColumnEngine::new(tables);
//! let io = IoSession::unmetered();
//! let full = engine.execute(&queries::query(3, 1), EngineConfig::FULL, &io);
//! let stripped = engine.execute(&queries::query(3, 1), EngineConfig::STRIPPED, &io);
//! assert_eq!(full, stripped); // same answer, very different cost
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod config;
pub mod ctx;
pub mod denorm;
pub mod em;
pub mod engine;
pub mod extract;
pub mod invisible;
pub mod kernels;
pub mod lmjoin;
pub mod morsel;
pub mod poslist;
pub mod projection;
pub mod row_mv;
pub mod scan;
pub mod sched;
pub mod trace;

pub use config::EngineConfig;
pub use ctx::{QueryCtx, QueryError};
pub use denorm::{DenormDb, DenormVariant};
pub use engine::ColumnEngine;
pub use invisible::FilterCapture;
pub use morsel::Parallelism;
pub use poslist::PosList;
pub use projection::CStoreDb;
pub use row_mv::RowMvDb;
pub use sched::{QueryPermit, SchedStats, Scheduler, WorkerLease};
pub use trace::{Span, SpanRecord, Tracer};
