//! Morsel-driven parallel scaling: the 13-query SSBM flight set at thread
//! counts from {1, 2, 4, 8} up to `max(--threads, 4)` (the sweep never
//! stops below 4, so the table is meaningful even on boxes whose default
//! thread count resolves to 1), with a differential check that every thread
//! count reproduces the `--threads 1` outputs and I/O stats exactly.
//!
//! ```text
//! cargo run --release -p cvr-bench --bin scaling -- --sf 0.02
//! ```
//!
//! Two time columns are printed per thread count:
//!
//! * **cpu-crit** — critical-path CPU time: the serial coordinator portion
//!   plus, for each morsel fan-out, the busiest worker's *thread* CPU time.
//!   This is the quantity parallelism actually shrinks, and it is measurable
//!   even when the container pins fewer cores than there are workers (CI
//!   runners, throttled laptops) — wall-clock on such machines cannot drop
//!   below total work no matter how well the engine scales.
//! * **wall** — plain wall-clock, which tracks cpu-crit when the machine has
//!   at least as many idle cores as workers.
//!
//! Speedup is reported on cpu-crit. Outputs and merged I/O accounting are
//! byte-identical across thread counts by construction (per-morsel logs
//! replay in morsel order); the binary verifies both and fails loudly on any
//! divergence.

use cvr_bench::HarnessArgs;
use cvr_core::morsel::{profile, thread_cpu_time, Parallelism};
use cvr_core::{ColumnEngine, EngineConfig};
use cvr_data::queries::all_queries;
use cvr_data::result::QueryOutput;
use cvr_storage::io::{IoSession, IoStats};
use std::time::{Duration, Instant};

/// One thread count's measurement over the full flight set.
struct Sweep {
    threads: usize,
    cpu_crit: Duration,
    wall: Duration,
    outputs: Vec<QueryOutput>,
    io: Vec<IoStats>,
}

fn measure(engine: &ColumnEngine, args: &HarnessArgs, threads: usize) -> Sweep {
    let par = Parallelism::with_threads(threads);
    let queries = all_queries();
    let mut cpu_crit = Duration::ZERO;
    let mut wall = Duration::ZERO;
    let mut outputs = Vec::with_capacity(queries.len());
    let mut io_stats = Vec::with_capacity(queries.len());
    for q in &queries {
        // Warm-up run (not timed); a fresh unbounded pool per measured run
        // keeps the accounting deterministic and comparable across sweeps.
        engine.execute_with(q, EngineConfig::FULL, par, &IoSession::unmetered());
        let mut best_crit: Option<Duration> = None;
        let mut best_wall = Duration::MAX;
        let mut out = None;
        let mut stats = IoStats::default();
        for _ in 0..args.runs.max(1) {
            let io = IoSession::unmetered();
            profile::start();
            let coord_cpu0 = thread_cpu_time();
            let t0 = Instant::now();
            let result = engine.execute_with(q, EngineConfig::FULL, par, &io);
            let w = t0.elapsed();
            let coord_cpu = thread_cpu_time().saturating_sub(coord_cpu0);
            let report = profile::finish();
            let crit = report.critical_path(coord_cpu);
            if best_crit.is_none_or(|b| crit < b) {
                best_crit = Some(crit);
            }
            best_wall = best_wall.min(w);
            stats = io.stats();
            if let Some(prev) = &out {
                assert_eq!(prev, &result, "non-deterministic result for {} at t={threads}", q.id);
            }
            out = Some(result);
        }
        cpu_crit += best_crit.unwrap();
        wall += best_wall;
        outputs.push(out.unwrap());
        io_stats.push(stats);
    }
    Sweep { threads, cpu_crit, wall, outputs, io: io_stats }
}

fn main() {
    let args = HarnessArgs::parse();
    eprintln!("# building column store (sf {}) ...", args.sf);
    let engine = ColumnEngine::new(args.tables());

    let mut counts = vec![1usize, 2, 4, 8];
    if !counts.contains(&args.threads) {
        counts.push(args.threads);
    }
    counts.sort_unstable();
    counts.dedup();
    counts.retain(|&t| t <= args.threads.max(4));

    let sweeps: Vec<Sweep> = counts
        .iter()
        .map(|&t| {
            eprintln!("# running 13 queries at {t} thread(s)");
            measure(&engine, &args, t)
        })
        .collect();

    let base = &sweeps[0];
    println!("\nMorsel-driven scaling: 13-query SSBM flight set, sf {} (config tICL)", args.sf);
    println!("cpu-crit = serial coordinator time + busiest worker per fan-out (see --help)\n");
    println!(
        "{:>8} {:>12} {:>9} {:>12} {:>10} {:>10}",
        "threads", "cpu-crit ms", "speedup", "wall ms", "outputs", "io-stats"
    );
    for s in &sweeps {
        let outputs_ok = s.outputs == base.outputs;
        let io_ok = s.io.iter().zip(&base.io).all(|(a, b)| {
            (a.bytes_read, a.pages_read, a.seeks) == (b.bytes_read, b.pages_read, b.seeks)
        });
        println!(
            "{:>8} {:>12.2} {:>8.2}x {:>12.2} {:>10} {:>10}",
            s.threads,
            s.cpu_crit.as_secs_f64() * 1e3,
            base.cpu_crit.as_secs_f64() / s.cpu_crit.as_secs_f64().max(1e-12),
            s.wall.as_secs_f64() * 1e3,
            if outputs_ok { "identical" } else { "DIVERGED" },
            if io_ok { "identical" } else { "DIVERGED" },
        );
        assert!(outputs_ok, "outputs diverged from --threads 1 at t={}", s.threads);
        assert!(io_ok, "io stats diverged from --threads 1 at t={}", s.threads);
    }
}
