//! End-to-end and per-layer benchmark of the SQL front door.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload adhoc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Starts the real `cvr-server` over `Session::with_parallelism` on
//! generated SSB tables at sf 0.02 and drives one workload (`adhoc` or
//! `drilldown`, see `workload.rs`) as a closed loop of two connections
//! (`driver.rs`).
//!
//! * `--trace 0` measures what a user sees: throughput, latency from
//!   `Client::query` call to decoded answer, the share of statements
//!   answered correctly, set-up time, peak memory, and RELOAD latency
//!   with the bytes a snapshot stores, on the idle server after the
//!   window.
//! * `--trace 1` runs the same statement stream in-process through the
//!   pipeline rebuilt in `mirror.rs`, with a span around every layer call,
//!   and reports per-layer times and counts, the share of statement time
//!   no layer span covers, and the tracing overhead against the same
//!   pass untraced. The spans are written to
//!   `.perfbench-run/spans-<workload>.jsonl`.
//!
//! Every run checks its answers (see `check.rs`), prints its profile, one
//! `metric <name> <value> <unit>` line per metric, and last a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A wrong answer makes
//! the command exit with status 1.

mod check;
mod driver;
mod mirror;
mod spans;
mod stats;
mod workload;

use check::Answers;
use cvr_core::{Parallelism, SchedStats, Scheduler};
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::table::ColumnData;
use cvr_row::designs::{RowDb, RowDesign};
use cvr_server::protocol::{response_for, Response};
use cvr_server::{serve, CacheStats, Client, Server, Session};
use cvr_storage::persist;
use driver::LoopConfig;
use mirror::{Mirror, Store};
use stats::{fingerprint, median, quantile, ratio, Report};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Kind, Stream};

/// Scale factor: at sf 0.02 the planner sends a real share of statements
/// to both engines.
const SF: f64 = 0.02;
/// Closed-loop connections, and worker threads per statement.
const CONNECTIONS: usize = 2;
const THREADS: usize = 2;
/// Session builds timed before the warm-up, and again after the window;
/// `setup_s` is the median of both rounds. Builds in a row on the
/// development host ran up to twice as slow for seconds at a time, so
/// rounds half a minute apart keep one slow stretch from setting the
/// median.
const SETUPS: usize = 4;
/// SNAPSHOT + RELOAD pairs on the idle server after the window, a pause
/// apart for the same reason. (Pairs before the warm-up raised the peak
/// resident set by a fifth.)
const MAINTENANCE_CYCLES: usize = 7;
const MAINTENANCE_PAUSE: Duration = Duration::from_secs(1);
/// Answered statements a window needs so that ten samples lie beyond p99.
const MIN_SAMPLES: usize = 1010;
/// Warm-up before the timed window.
const WARMUP: Duration = Duration::from_secs(20);
/// Statements replayed traced and untraced to price the tracing.
const OVERHEAD_STATEMENTS: usize = 200;
/// Statements whose spans are written to the span file.
const SPAN_FILE_STATEMENTS: u64 = 10_000;
/// Where runs keep their data directories and span files.
const RUN_DIR: &str = ".perfbench-run";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s >= 1).ok_or("--seconds (>= 1) is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Clear every `CVR_*` knob (cache budget, threads, aggregation, morsel
/// sizes, faults, tracing, data directory, metrics endpoint, limits), so
/// the program runs on its defaults and the profile says what ran.
fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CVR_") {
            std::env::remove_var(&key);
        }
    }
}

fn main() {
    pin_environment();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload adhoc|drilldown --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(RUN_DIR).join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create the run directory");

    let started = Instant::now();
    let tables = Arc::new(SsbConfig::with_scale(SF).generate());
    info("table_gen_s", started.elapsed().as_secs_f64());
    let stream = Stream::new(args.kind, args.seed);
    let ok = if args.trace {
        traced(&args, &tables, &stream, &dir)
    } else {
        untraced(&args, &tables, &stream, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    if !ok {
        std::process::exit(1);
    }
}

fn info(name: &str, value: impl std::fmt::Display) {
    println!("info {name} {value}");
}

/// The profile every number belongs to.
fn print_profile(args: &Args, tables: &SsbTables, cache_bytes: usize) {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "profile {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"sf\": {}, \
         \"data_seed\": {}, \"threads\": {THREADS}, \"connections\": {CONNECTIONS}, \
         \"cache_bytes\": {cache_bytes}, \"flush\": \"fsync per segment, manifest and directory on every SNAPSHOT\", \
         \"statistic\": \"median and p99, linear interpolation\", \"git_sha\": \"{}\", \
         \"host\": \"{}\", \"cpus\": {cpus}, \"cpu\": \"{}\"}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        tables.config.sf,
        tables.config.seed,
        git_sha(),
        read("/proc/sys/kernel/hostname").trim(),
        cpu.replace('"', "'"),
    );
}

/// The commit being measured, read from `.git` when the run is inside a
/// repository.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".to_string(),
    }
}

/// Bytes of generated table data: eight per integer, the UTF-8 length of
/// each string.
fn table_bytes(t: &SsbTables) -> u64 {
    [&t.lineorder, &t.customer, &t.supplier, &t.part, &t.date]
        .iter()
        .flat_map(|table| &table.columns)
        .map(|c| match c {
            ColumnData::Int(v) => 8 * v.len() as u64,
            ColumnData::Str(v) => v.iter().map(|s| s.len() as u64).sum(),
        })
        .sum()
}

/// Peak resident set of this process, MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb * 1024.0 / 1e6
}

fn queries_total() -> u64 {
    cvr_obs::counter("cvr_queries_total", "Statements answered successfully").get()
}

/// Counters that read zero by design on these workloads (no queueing or
/// shedding at two connections, no exact repeats to hit the result cache):
/// printed as `info` lines, not reported as metrics.
const ZERO_BY_DESIGN: [&str; 3] = ["sched.queued_ratio", "sched.shed", "cache.result_hit_ratio"];

/// Scheduler and cache counter deltas over a window, as named values.
fn counter_deltas(
    (s0, s1): (SchedStats, SchedStats),
    (c0, c1): (CacheStats, CacheStats),
) -> [(&'static str, f64, &'static str); 7] {
    let d = |a: u64, b: u64| (b - a) as f64;
    let (rh, fh) = (d(c0.result_hits, c1.result_hits), d(c0.filter_hits, c1.filter_hits));
    [
        (
            "sched.queued_ratio",
            ratio(d(s0.queued, s1.queued), d(s0.admitted, s1.admitted)),
            "ratio",
        ),
        (
            "sched.throttled_ratio",
            ratio(d(s0.throttled, s1.throttled), d(s0.leases, s1.leases)),
            "ratio",
        ),
        ("sched.shed", d(s0.shed, s1.shed), "count"),
        ("cache.result_hit_ratio", ratio(rh, rh + d(c0.result_misses, c1.result_misses)), "ratio"),
        ("cache.filter_hit_ratio", ratio(fh, fh + d(c0.filter_misses, c1.filter_misses)), "ratio"),
        ("cache.evicted", d(c0.evicted, c1.evicted), "count"),
        ("cache.bytes", c1.bytes as f64, "bytes"),
    ]
}

/// Build the session and start the server `SETUPS` times, timing each
/// from `Session` construction until the server accepts a connection;
/// keep the last.
fn set_up(tables: &Arc<SsbTables>) -> (Vec<f64>, Arc<Session>, Server) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = last.take() {
            Server::shutdown(server);
        }
        let start = Instant::now();
        let session =
            Arc::new(Session::with_parallelism(tables.clone(), Parallelism::with_threads(THREADS)));
        let server = serve(session.clone(), "127.0.0.1:0").expect("bind the server");
        let client = Client::connect(server.addr()).expect("connect to the server");
        times.push(start.elapsed().as_secs_f64());
        let _ = client.close();
        last = Some((session, server));
    }
    let (session, server) = last.expect("at least one set-up");
    (times, session, server)
}

/// SNAPSHOT and RELOAD latencies, and what went wrong.
#[derive(Default)]
struct Maintenance {
    snapshot_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    snapshot_bytes: u64,
    attempted: u64,
    errors: Vec<String>,
}

/// Issue `MAINTENANCE_CYCLES` SNAPSHOT + RELOAD pairs on one connection,
/// `MAINTENANCE_PAUSE` apart, timing each statement.
fn maintain(addr: std::net::SocketAddr) -> Maintenance {
    let mut m = Maintenance::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            m.attempted += 1;
            m.errors.push(format!("connect: {e}"));
            return m;
        }
    };
    for cycle in 0..MAINTENANCE_CYCLES {
        if cycle > 0 {
            std::thread::sleep(MAINTENANCE_PAUSE);
        }
        for stmt in ["SNAPSHOT", "RELOAD"] {
            m.attempted += 1;
            let start = Instant::now();
            match client.query(stmt) {
                Ok(Response::Snapshot(info)) if stmt == "SNAPSHOT" => {
                    m.snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    m.snapshot_bytes = info.bytes;
                }
                Ok(Response::Snapshot(_)) => m.reload_ms.push(start.elapsed().as_secs_f64() * 1e3),
                other => m.errors.push(format!("{stmt}: {other:?}")),
            }
        }
    }
    let _ = client.close();
    m
}

/// `--trace 0`: the closed loop through the wire.
fn untraced(args: &Args, tables: &Arc<SsbTables>, stream: &Stream, dir: &Path) -> bool {
    let (mut setups, session, server) = set_up(tables);
    let cache_bytes = session.cache_stats().map_or(0, |c| c.budget);
    print_profile(args, tables, cache_bytes);
    session.set_data_dir(Some(dir.join("store")));
    let addr = server.addr();
    let loop_cfg = |window, min_samples| LoopConfig {
        workers: CONNECTIONS,
        window,
        min_samples,
        traced: false,
        seed: args.seed,
        stop: None,
    };
    let open = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let query = |client: &mut Client, sql: &str| {
        client.query(sql).map_err(|e| {
            // A broken connection is replaced for the next statement.
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
            e.to_string()
        })
    };

    // Warm up until the cache is full, so the window runs in steady state.
    let full = || session.cache_stats().is_some_and(|c| c.evicted > 0);
    let warm_cfg = LoopConfig { stop: Some(&full), ..loop_cfg(WARMUP, 0) };
    let warm = driver::drive(&Stream::warmup(args.seed, stream), &warm_cfg, open, query);
    info("warmup_s", warm.wall.as_secs_f64());
    info("warmup_statements", warm.issued);
    let sched = session.scheduler().clone();
    let cache = || session.cache_stats().expect("the cache is enabled by default");
    let (sched0, cache0, answered0) = (sched.stats(), cache(), queries_total());
    let window = Duration::from_secs(args.seconds);
    let run = driver::drive(stream, &loop_cfg(window, MIN_SAMPLES), open, query);
    let (sched1, cache1, answered1) = (sched.stats(), cache(), queries_total());
    let maint = maintain(addr);
    // Before the second round of builds, which would add to the peak.
    let rss_mb = peak_rss_mb();
    server.shutdown();
    drop(session);
    let (more, _, spare) = set_up(tables);
    spare.shutdown();
    setups.extend(more);

    // Correctness, outside the timed window.
    let mut wrong = maint.errors.clone();
    let answered = run.latencies_us.len() as u64;
    if answered1 - answered0 != answered {
        wrong.push(format!(
            "server counted {} answered statements, clients {answered}",
            answered1 - answered0
        ));
    }
    let (checked, reference_wrong) = run.answers.check_reference(tables, args.seed, |id| {
        stream.get(id).expect("an answered statement").to_string()
    });
    wrong.extend(reference_wrong);
    let mismatches = run.answers.mismatches + warm.answers.mismatches;
    let failed = run.failed + warm.failed + mismatches + wrong.len() as u64;
    let attempted = run.attempted + warm.attempted + maint.attempted;
    for e in run.errors.iter().chain(&warm.errors).chain(&wrong) {
        eprintln!("error: {e}");
    }

    let lat = &run.latencies_us;
    let (p50, p99) = (quantile(lat, 0.5), quantile(lat, 0.99));
    let beyond = lat.iter().filter(|&&l| l > p99).count();
    let (exact, filter) = stream.repeat_shares(run.issued);
    info("samples", lat.len());
    info("samples_beyond_p99", beyond);
    info("window_s", run.wall.as_secs_f64());
    info("failed_ratio", ratio(failed as f64, attempted as f64));
    info("repeat_mismatches", mismatches);
    info("reference_checked", checked);
    info("cold_share", ratio(run.executed as f64, answered as f64));
    info("row_plan_share", ratio(run.row_plans as f64, answered as f64));
    info("exact_repeat_share", exact);
    info("filter_repeat_share", filter);
    // Not an end-to-end metric: fsync latency on the development host
    // spread it beyond any bound (see README.md).
    info("snapshot_ms", median(&maint.snapshot_ms));
    info("setup_s.each", format!("{setups:.3?}"));
    info("snapshot_ms.each", format!("{:.1?}", maint.snapshot_ms));
    info("reload_ms.each", format!("{:.1?}", maint.reload_ms));
    for (name, value, _) in counter_deltas((sched0, sched1), (cache0, cache1)) {
        info(name, value);
    }

    let mut report = Report::default();
    report.put("throughput_qps", answered as f64 / run.wall.as_secs_f64(), "1/s");
    report.put("latency_p50_ms", p50 / 1e3, "ms");
    report.put("latency_p99_ms", p99 / 1e3, "ms");
    report.put("ok_ratio", 1.0 - ratio(failed as f64, attempted as f64), "ratio");
    report.put("setup_s", median(&setups), "s");
    report.put("rss_mb", rss_mb, "MB");
    report.put("reload_ms", median(&maint.reload_ms), "ms");
    report.put(
        "store_bytes_ratio",
        ratio(maint.snapshot_bytes as f64, table_bytes(tables) as f64),
        "ratio",
    );
    let correct = failed == 0;
    report.finish(correct, attempted, failed);
    correct
}

/// Layers whose self time the traced pass reports.
const LAYERS: [&str; 13] = [
    "server.parse",
    "plan.memo",
    "plan.plan",
    "cache.result_probe",
    "cache.filter_probe",
    "cache.put",
    "sched.admit",
    "core.exec",
    "core.capture",
    "core.warm",
    "row.exec",
    "server.encode",
    "server.decode",
];

/// Row designs the planner picks on these workloads at sf 0.02, reported
/// per design. Every design's plan count is printed as an `info` line.
const ROW_DESIGNS: [RowDesign; 3] =
    [RowDesign::Traditional, RowDesign::TraditionalBitmap, RowDesign::MaterializedViews];

/// `--trace 1`: per-layer numbers from the traced in-process pass.
fn traced(args: &Args, tables: &Arc<SsbTables>, stream: &Stream, dir: &Path) -> bool {
    let par = Parallelism::with_threads(THREADS);
    let session = Arc::new(Session::with_parallelism(tables.clone(), par));
    let cache_bytes = session.cache_stats().map_or(0, |c| c.budget);
    print_profile(args, tables, cache_bytes);
    let server = serve(session.clone(), "127.0.0.1:0").expect("bind the server");

    // The served store, built once under spans for its two build times.
    spans::record(Instant::now());
    let store = Arc::new(Store::build(tables.clone()));
    let build = spans::Profile::new(&[spans::take()]);
    let build_ms = |layer: &str| build.durations(layer, |_| true).iter().sum::<f64>() / 1e3;

    // Warm the mirror's cache until full, as the wire loop does, then
    // trace one window of the timed stream.
    let m = Mirror::new(store.clone(), cache_bytes, par);
    let full = || m.cache().stats().evicted > 0;
    let loop_cfg = |window, traced| LoopConfig {
        workers: CONNECTIONS,
        window,
        min_samples: 0,
        traced,
        seed: args.seed,
        stop: None,
    };
    let (open, query) = (|| Ok::<_, String>(()), |_: &mut (), sql: &str| m.select(sql));
    let warm_cfg = LoopConfig { stop: Some(&full), ..loop_cfg(WARMUP, false) };
    let warm = driver::drive(&Stream::warmup(args.seed, stream), &warm_cfg, open, query);
    let (sched0, cache0) = (Scheduler::process_default().stats(), m.cache().stats());
    let window = Duration::from_secs(args.seconds);
    let t = driver::drive(stream, &loop_cfg(window, true), open, query);
    let (sched1, cache1) = (Scheduler::process_default().stats(), m.cache().stats());
    let cacheless = Mirror::new(store.clone(), 0, par);
    let (overhead, paired) = mirror::overhead(&cacheless, stream, OVERHEAD_STATEMENTS, args.seed);

    // Result-cache hit and wire cost on one statement, interleaved.
    let hit_sql = stream.get(0).expect("a non-empty stream");
    let mut client = Client::connect(server.addr()).expect("connect to the server");
    let _ = session.query(hit_sql);
    let (mut hit_us, mut wire_us) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        for _ in 0..50 {
            let start = Instant::now();
            let _ = session.query(hit_sql);
            hit_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        for _ in 0..50 {
            let start = Instant::now();
            let _ = client.query(hit_sql);
            wire_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = client.close();

    // Snapshot write and load, three times each, and one build of each
    // reported row design, outside the window.
    let (mut snap_ms, mut load_ms, mut snap_bytes) = (Vec::new(), Vec::new(), 0);
    let store_dir = dir.join("storage");
    for _ in 0..3 {
        let start = Instant::now();
        let report = persist::write_snapshot(&store_dir, tables).expect("write a snapshot");
        snap_ms.push(start.elapsed().as_secs_f64() * 1e3);
        snap_bytes = report.bytes;
        let start = Instant::now();
        persist::load_latest(&store_dir).expect("load the snapshot");
        load_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let row_build_ms = ROW_DESIGNS.map(|design| {
        let start = Instant::now();
        drop(RowDb::build(tables.clone(), design));
        start.elapsed().as_secs_f64() * 1e3
    });

    // Correctness: repeats identical across the timed passes, a
    // reference sample, and the mirror's frames identical to the session's.
    let mut wrong = Vec::new();
    for id in t.answers.sample(args.seed, check::REFERENCE_CHECKS) {
        let sql = stream.get(id).expect("an answered statement");
        let served =
            session.query(sql).map(|r| fingerprint(&response_for(&r).normalized().encode()));
        if served.as_ref().ok() != t.answers.frame(id).as_ref() {
            wrong.push(format!("mirror frame differs from the session's for `{sql}`: {served:?}"));
        }
    }
    let (checked, reference_wrong) = t.answers.check_reference(tables, args.seed, |id| {
        stream.get(id).expect("an answered statement").to_string()
    });
    wrong.extend(reference_wrong);
    server.shutdown();
    // The cache-less replay must return the traced pass's frames.
    let mut all = Answers::default();
    all.merge(&t.answers);
    all.merge(&paired.answers);
    let (mut attempted, mut failed) = (0, warm.answers.mismatches + all.mismatches);
    for p in [&warm, &t, &paired] {
        attempted += p.attempted;
        failed += p.failed;
        wrong.extend(p.errors.iter().cloned());
    }
    failed += wrong.len() as u64;
    for e in &wrong {
        eprintln!("error: {e}");
    }
    info("reference_checked", checked);
    info("repeat_mismatches", all.mismatches);

    std::fs::write(
        Path::new(RUN_DIR).join(format!("spans-{}.jsonl", args.kind.name())),
        // The first statements keep the file to a few tens of MB.
        spans::to_jsonl(&t.spans, |stmt| stmt < SPAN_FILE_STATEMENTS),
    )
    .expect("write the spans");

    let p = spans::Profile::new(&t.spans);
    let mut r = Report::default();
    let dur = |layer: &str| p.durations(layer, |_| true);
    let us_pair = |r: &mut Report, name: &str, v: &[f64]| {
        r.put(format!("{name}_p50"), quantile(v, 0.5), "us");
        r.put(format!("{name}_p99"), quantile(v, 0.99), "us");
    };
    let selects = t.issued as f64;
    us_pair(&mut r, "plan.plan_us", &dur("plan.plan"));
    r.put("plan.catalog_build_ms", build_ms("plan.catalog_build"), "ms");
    r.put("plan.row_plan_share", ratio(t.row_plans as f64, selects), "ratio");
    us_pair(&mut r, "core.exec_us", &dur("core.exec"));
    us_pair(&mut r, "core.capture_us", &dur("core.capture"));
    us_pair(&mut r, "core.warm_us", &dur("core.warm"));
    r.put("core.pages_read", ratio(t.io.pages_read as f64, t.executed as f64), "pages");
    r.put("core.bytes_read", ratio(t.io.bytes_read as f64, t.executed as f64), "bytes");
    r.put("core.engine_build_ms", build_ms("core.engine_build"), "ms");
    for (name, value, unit) in counter_deltas((sched0, sched1), (cache0, cache1)) {
        if ZERO_BY_DESIGN.contains(&name) {
            info(name, value);
        } else {
            r.put(name, value, unit);
        }
    }
    for design in RowDesign::EXTENDED {
        let plans = p.durations("row.exec", |d| d == design.label()).len();
        info(&format!("row_plans.{}", design.label()), plans);
    }
    for (design, build) in ROW_DESIGNS.iter().zip(row_build_ms) {
        let label = design.label();
        let name: String = label.chars().filter(char::is_ascii_alphanumeric).collect();
        us_pair(&mut r, &format!("row.{name}.exec_us"), &p.durations("row.exec", |d| d == label));
        r.put(format!("row.{name}.build_ms"), build, "ms");
    }
    r.put("storage.snapshot_ms", median(&snap_ms), "ms");
    r.put("storage.snapshot_bytes", snap_bytes as f64, "bytes");
    r.put("storage.load_ms", median(&load_ms), "ms");
    r.put("server.parse_us", quantile(&dur("server.parse"), 0.5), "us");
    let hit = median(&hit_us);
    r.put("server.hit_us", hit, "us");
    r.put("server.wire_us", median(&wire_us) - hit, "us");
    r.put("server.encode_us", quantile(&dur("server.encode"), 0.5), "us");
    r.put("server.decode_us", quantile(&dur("server.decode"), 0.5), "us");
    r.put("server.response_bytes", ratio(t.response_bytes as f64, selects), "bytes");
    let (exact, filter) = stream.repeat_shares(t.issued);
    info("workload.exact_repeat_share", exact);
    info("workload.filter_repeat_share", filter);
    info("workload.cold_share", ratio(t.executed as f64, selects));
    r.put("trace.overhead", overhead, "ratio");
    let uncovered: f64 = p.self_us.get(spans::STATEMENT).map_or(0.0, |v| v.iter().sum());
    r.put("trace.uncovered_share", ratio(uncovered, p.statement_us), "ratio");
    r.put("trace.statements", selects, "count");
    for layer in LAYERS {
        let own = p.self_us.get(layer).cloned().unwrap_or_default();
        let sum: f64 = own.iter().sum();
        r.put(format!("span.{layer}.self_us_p50"), quantile(&own, 0.5), "us");
        r.put(format!("span.{layer}.self_us_p99"), quantile(&own, 0.99), "us");
        r.put(format!("span.{layer}.self_ms_sum"), sum / 1e3, "ms");
        r.put(format!("span.{layer}.share"), ratio(sum, p.statement_us), "ratio");
    }
    let correct = failed == 0;
    r.finish(correct, attempted, failed);
    correct
}
