//! # cvr-plan — a statistics-driven cost-based planner
//!
//! The paper's central finding is that plan shape and physical design
//! change performance by integer factors — invisible join vs.
//! late-materialized join vs. early materialization, compressed vs. plain,
//! column engine vs. each of the row engine's physical designs. Everywhere
//! else in this workspace those choices are made *by hand*, through
//! `EngineConfig` ablation letters and `RowDesign` codes. This crate makes
//! them automatically:
//!
//! * [`stats`] builds a catalog from the real storage layer — row counts,
//!   min/max/NDV, equi-depth histograms, exact string frequency tables,
//!   RLE run counts, and the actual `encoded_bytes` of both compression
//!   variants;
//! * [`cost`] turns plans into modeled seconds with the same arithmetic
//!   the benchmark harness uses (`cpu × cpu_scale + DiskModel::io_time`),
//!   with CPU rates recalibratable from `BENCH_kernels.json`-style
//!   measurements;
//! * [`enumerate`] searches the space the engines already expose — plan
//!   shape × compression × fact-predicate order × row physical design —
//!   and returns a [`Plan`] with an explain tree and the full candidate
//!   ranking.
//!
//! ```
//! use cvr_core::ColumnEngine;
//! use cvr_data::gen::SsbConfig;
//! use cvr_plan::{Catalog, Planner};
//! use std::sync::Arc;
//!
//! let tables = Arc::new(SsbConfig::with_scale(0.001).generate());
//! let engine = ColumnEngine::new(tables);
//! let planner = Planner::new(Catalog::build(&engine));
//! let plan = planner.plan(&cvr_data::queries::query(3, 1));
//! assert!(plan.engine_config().is_some() || plan.row_design().is_some());
//! println!("{}", plan.render());
//! ```
//!
//! The `cvr-bench` `planner` binary closes the loop: it measures planner
//! *regret* — the planner's pick vs. the measured best over the whole
//! grid — across the 13 paper queries and a seeded ad-hoc workload
//! (`cvr_data::workload`), and emits `BENCH_planner.json`.

#![warn(missing_docs)]

pub mod cost;
pub mod enumerate;
pub mod explain;
pub mod key;
pub mod stats;

pub use cost::{CostBreakdown, CostParams, CpuRates};
pub use enumerate::{Candidate, PhysicalChoice, Plan, PlanShape, Planner};
pub use explain::Explain;
pub use stats::{Catalog, ColumnStats, EncodingKind, Estimates, Histogram, TableStats};
