//! Morsel-driven parallel execution infrastructure.
//!
//! The LINEORDER position space is split into fixed-size **morsels**
//! (contiguous position ranges, after Leis et al.'s morsel-driven model). A
//! pool of scoped worker threads claims morsels from a shared atomic counter
//! (self-balancing: fast workers steal the remaining morsels), runs the
//! whole per-morsel pipeline — predicate scans, join probes, positional
//! extraction, partial aggregation — and hands its results back tagged with
//! the morsel index. The coordinator merges everything **in morsel order**,
//! which is what makes parallel execution deterministic:
//!
//! * partial aggregates merge in a fixed order (and are order-insensitive
//!   sums anyway), so [`cvr_data::result::QueryOutput`]s are byte-identical
//!   to a serial run;
//! * per-morsel [`cvr_storage::io::IoLog`]s replay against the shared
//!   [`cvr_storage::io::BufferPool`] in morsel order, so the merged
//!   [`cvr_storage::io::IoStats`] equal the serial run's bytes, pages and
//!   seeks regardless of which worker ran which morsel when.
//!
//! Thread count comes from [`Parallelism`]: the `--threads` harness flag,
//! the `CVR_THREADS` environment variable, or (default) the machine's
//! available parallelism.

use crate::ctx::{QueryCtx, QueryError};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Default morsel size in fact-table positions. Large enough that per-morsel
/// bookkeeping is noise, small enough that a 4-thread run of even a small
/// scale factor gets balanced work; [`run_morsels`] shrinks it further when
/// the input is small.
pub const DEFAULT_MORSEL_ROWS: u32 = 16_384;

/// Smallest morsel [`run_morsels`] will auto-shrink to.
const MIN_MORSEL_ROWS: u32 = 256;

/// Hard ceiling on morsel size in rows (1 Mi positions). Bounds the worst
/// case work between morsel-boundary cancellation polls; the scan drivers
/// add intra-morsel polls every [`crate::scan::SCAN_POLL_ROWS`] rows on
/// top.
pub const MORSEL_MAX: u32 = 1 << 20;

/// Degree of parallelism for one query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads (including the coordinator, which also claims
    /// morsels). `1` selects the serial execution path.
    pub threads: usize,
    /// Morsel size in positions (upper bound; shrunk for small inputs).
    pub morsel_rows: u32,
}

impl Parallelism {
    /// Strictly serial execution.
    pub fn serial() -> Parallelism {
        Parallelism { threads: 1, morsel_rows: DEFAULT_MORSEL_ROWS }
    }

    /// Parallel execution with `threads` workers (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Parallelism {
        Parallelism { threads: threads.max(1), morsel_rows: DEFAULT_MORSEL_ROWS }
    }

    /// The process default: `CVR_THREADS` when set (and ≥ 1), otherwise the
    /// machine's available parallelism, at [`DEFAULT_MORSEL_ROWS`]. Cached
    /// after the first call.
    pub fn from_env() -> Parallelism {
        static THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *THREADS.get_or_init(|| {
            match std::env::var("CVR_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => n,
                _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            }
        });
        Parallelism::with_threads(threads)
    }

    /// True when this configuration takes the serial path.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::from_env()
    }
}

/// Run `task` over every morsel of `[0, n)` on up to `par.threads` workers;
/// returns the per-morsel results **in morsel order**.
///
/// `task(index, range)` must be safe to call concurrently (it receives
/// disjoint ranges). Workers claim morsels from a shared counter, so the
/// assignment of morsels to threads is scheduling-dependent — which is why
/// callers must only rely on the returned order, never on worker identity.
pub fn run_morsels<T: Send>(
    n: u32,
    par: Parallelism,
    task: impl Fn(usize, Range<u32>) -> T + Sync,
) -> Vec<T> {
    match try_run_morsels(n, par, &QueryCtx::unbounded(), |i, r| Ok(task(i, r))) {
        Ok(out) => out,
        // Unreachable under an unbounded ctx unless a fault was injected;
        // transport the typed error up to the nearest containment boundary.
        Err(e) => std::panic::panic_any(e),
    }
}

/// How a morsel fan-out aborted: a typed error (first one wins) or a foreign
/// panic to re-raise once every worker has stopped.
enum Abort {
    Error(QueryError),
    Panic(Box<dyn std::any::Any + Send>),
}

/// The fallible, cancellable form of [`run_morsels`].
///
/// Between morsels every worker polls `ctx` ([`QueryCtx::check`]) and a
/// shared abort flag, so cancellation/deadline/budget failures — and any
/// `Err` returned by `task` — stop the whole fan-out at the next morsel
/// boundary. Worker panics are contained per-morsel: an
/// [`cvr_storage::fault::InjectedFault`] payload becomes
/// [`QueryError::Io`], anything else is re-raised on the coordinator after
/// all workers have parked (so a crashing worker can never leak a detached
/// thread or deadlock the scope join).
pub fn try_run_morsels<T: Send>(
    n: u32,
    par: Parallelism,
    ctx: &QueryCtx,
    task: impl Fn(usize, Range<u32>) -> Result<T, QueryError> + Sync,
) -> Result<Vec<T>, QueryError> {
    let (morsel, count) = grid(n, par);
    let range_of = |i: usize| {
        let start = i as u32 * morsel;
        start..((i as u32).saturating_add(1) * morsel).min(n)
    };

    // An admitted query asks its scheduler for a fair share of the
    // workers; an unadmitted one gets what it asks for. The lease is held
    // for the duration of the fan-out. Worker count never affects results
    // or accounting — morsel-order merging guarantees byte-identity at any
    // count — so throttling here is always safe.
    let requested = par.threads.min(count);
    let lease = ctx.scheduler().map(|sched| sched.grant(requested));
    let workers = lease.as_ref().map_or(requested, |l| l.granted()).min(count);

    let stop = std::sync::atomic::AtomicBool::new(false);
    let failure: Mutex<Option<Abort>> = Mutex::new(None);
    let fail = |abort: Abort| {
        stop.store(true, Ordering::Relaxed);
        let mut slot = failure.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(abort);
        }
    };
    // One morsel, panic-contained. `Err(())` means "stop claiming". The
    // query context is adopted as this thread's scan watch for the duration
    // of the morsel, so oversized scans poll cancellation *inside* the
    // morsel too (a QueryError panic payload transports the abort here).
    let run_one = |out: &mut Vec<(usize, T)>, i: usize| -> Result<(), ()> {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cvr_storage::fault::before_morsel();
            let _watch = crate::ctx::watch_scans(ctx);
            task(i, range_of(i))
        }));
        match attempt {
            Ok(Ok(t)) => {
                out.push((i, t));
                Ok(())
            }
            Ok(Err(e)) => {
                fail(Abort::Error(e));
                Err(())
            }
            Err(payload) => {
                fail(match payload.downcast::<cvr_storage::fault::InjectedFault>() {
                    Ok(f) => Abort::Error(QueryError::Io { detail: f.0 }),
                    Err(payload) => match payload.downcast::<QueryError>() {
                        Ok(e) => Abort::Error(*e),
                        Err(payload) => Abort::Panic(payload),
                    },
                });
                Err(())
            }
        }
    };

    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(count);
    if workers <= 1 {
        for i in 0..count {
            if let Err(e) = ctx.check() {
                fail(Abort::Error(e));
                break;
            }
            if run_one(&mut tagged, i).is_err() {
                break;
            }
        }
    } else {
        // Spawned workers must see the coordinator's fault state: the query's
        // deterministic fault stream follows the query, not the thread.
        let faults = cvr_storage::fault::handle();
        let next = AtomicUsize::new(0);
        let work = |out: &mut Vec<(usize, T)>| -> Duration {
            let started = thread_cpu_time();
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Err(e) = ctx.check() {
                    fail(Abort::Error(e));
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                if run_one(out, i).is_err() {
                    break;
                }
                // Rotate the run queue between morsels: when the machine has
                // fewer cores than workers (CI containers), the first
                // scheduled worker would otherwise drain the whole queue
                // inside one timeslice, serializing the "parallel"
                // execution. On idle multicore hardware this yield is a
                // no-op costing ~1µs per multi-hundred-µs morsel.
                std::thread::yield_now();
            }
            thread_cpu_time().saturating_sub(started)
        };

        // Per-worker busy CPU time, coordinator first — the one measurement
        // all three observation sinks (profiler, tracer, metrics) share.
        let mut busys: Vec<Duration> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    s.spawn(|| {
                        let _faults = cvr_storage::fault::adopt_opt(faults.clone());
                        let mut out = Vec::new();
                        let busy = work(&mut out);
                        (out, busy)
                    })
                })
                .collect();
            busys.push(work(&mut tagged));
            for h in handles {
                let (out, busy) = h.join().expect("morsel worker panicked");
                tagged.extend(out);
                busys.push(busy);
            }
        });
        observe_fanout(ctx, &busys, next.into_inner().min(count) as u64);
    }

    match failure.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        Some(Abort::Panic(payload)) => std::panic::resume_unwind(payload),
        Some(Abort::Error(e)) => Err(e),
        None => {
            tagged.sort_unstable_by_key(|(i, _)| *i);
            Ok(tagged.into_iter().map(|(_, t)| t).collect())
        }
    }
}

/// Publish one fan-out's shared measurement — per-worker busy CPU times
/// (`busys[0]` is the coordinator) and the number of morsels run — to every
/// observation sink: the opt-in [`profile`] collector, the query's tracer
/// (when attached), and the process metrics registry.
fn observe_fanout(ctx: &QueryCtx, busys: &[Duration], morsels: u64) {
    profile::record_fanout(busys);
    if let Some(tracer) = ctx.tracer() {
        tracer.on_fanout(busys, morsels);
    }
    cvr_obs::counter("cvr_morsel_fanouts_total", "Parallel morsel fan-outs executed").inc();
    let worker_busy =
        cvr_obs::latency("cvr_morsel_worker_busy_us", "Per-worker busy CPU time per fan-out");
    for busy in busys {
        worker_busy.observe(busy.as_micros() as u64);
    }
}

/// The morsel grid [`run_morsels`] tiles `[0, n)` with under `par`:
/// `(morsel_size, morsel_count)`. Deterministic in `(n, par)` — which is
/// what lets a cached filter intermediate recorded at one execution be
/// re-split identically on a later one.
///
/// Aim for a few morsels per worker so claiming self-balances, without
/// dropping below the minimum useful size. Morsel boundaries align to
/// whole 64-position mask words so the scan kernels' selection masks
/// never straddle a morsel edge.
pub fn grid(n: u32, par: Parallelism) -> (u32, usize) {
    let aim = n.div_ceil((par.threads * 4).max(1) as u32).max(MIN_MORSEL_ROWS);
    // An explicitly enlarged morsel size (a struct literal above the
    // default — how the chaos harness forces giant morsels) is honored as
    // requested; the default auto-shrinks to `aim` for balance. Both are
    // bounded by the `MORSEL_MAX` cap.
    let want = if par.morsel_rows > DEFAULT_MORSEL_ROWS {
        par.morsel_rows
    } else {
        par.morsel_rows.min(aim)
    };
    let morsel = want.clamp(1, MORSEL_MAX).div_ceil(64) * 64;
    let count = (n.div_ceil(morsel) as usize).max(1);
    (morsel, count)
}

/// Intersect two ascending position vectors (the per-morsel analogue of
/// [`crate::poslist::PosList::intersect`], kept on plain vectors because
/// morsel fragments are small and short-lived).
pub fn intersect_ascending(xs: &[u32], ys: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(xs.len().min(ys.len()));
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// CPU time consumed by the calling thread (Linux; wall-clock elsewhere).
///
/// Used to measure the parallel **critical path** (span): on machines with
/// fewer cores than workers — CI containers, laptops under load — wall-clock
/// cannot show scaling, but `max` over per-worker CPU time can.
pub fn thread_cpu_time() -> Duration {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: clock_gettime writes a timespec through a valid pointer.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return Duration::new(ts.sec.max(0) as u64, ts.nsec.clamp(0, 999_999_999) as u32);
        }
    }
    // Fallback: wall-clock since an arbitrary process-wide epoch.
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed()
}

/// Opt-in per-worker busy-time profiling, used by the `scaling` binary to
/// report critical-path CPU time. Disabled (and free) by default.
pub mod profile {
    use super::*;

    static ENABLED: AtomicUsize = AtomicUsize::new(0);
    static BUSY: Mutex<Vec<Vec<Duration>>> = Mutex::new(Vec::new());
    static COORD_BUSY_NS: AtomicUsize = AtomicUsize::new(0);

    /// Per-worker busy times collected between [`start`] and [`finish`].
    #[derive(Debug, Default)]
    pub struct ProfileReport {
        /// One group per [`super::run_morsels`] fan-out; each entry is one
        /// worker's CPU time inside that fan-out (coordinator included).
        pub groups: Vec<Vec<Duration>>,
        /// The coordinator thread's share of the fan-out work — already
        /// part of the coordinator's thread-CPU clock, unlike the other
        /// workers' time.
        pub coordinator_busy: Duration,
    }

    impl ProfileReport {
        /// Critical-path CPU time given the coordinator's total thread-CPU
        /// time for the measured region: the serial portion plus the
        /// busiest worker of each fan-out.
        pub fn critical_path(&self, coordinator_cpu: Duration) -> Duration {
            let span: Duration =
                self.groups.iter().map(|g| g.iter().max().copied().unwrap_or_default()).sum();
            coordinator_cpu.saturating_sub(self.coordinator_busy) + span
        }
    }

    /// Enable collection and clear any previous samples.
    pub fn start() {
        BUSY.lock().unwrap().clear();
        COORD_BUSY_NS.store(0, Ordering::Relaxed);
        ENABLED.store(1, Ordering::Relaxed);
    }

    /// Record one fan-out's per-worker busy times (`busys[0]` is the
    /// coordinator) as a sample group. The single entry point from
    /// [`super::try_run_morsels`] — the same measurement also feeds the
    /// tracer and the metrics registry, so no sink keeps its own clock.
    pub(super) fn record_fanout(busys: &[Duration]) {
        if ENABLED.load(Ordering::Relaxed) == 1 {
            BUSY.lock().unwrap().push(busys.to_vec());
            if let Some(coord) = busys.first() {
                COORD_BUSY_NS.fetch_add(coord.as_nanos() as usize, Ordering::Relaxed);
            }
        }
    }

    /// Stop collection and return the per-worker busy times.
    pub fn finish() -> ProfileReport {
        ENABLED.store(0, Ordering::Relaxed);
        ProfileReport {
            groups: std::mem::take(&mut BUSY.lock().unwrap()),
            coordinator_busy: Duration::from_nanos(COORD_BUSY_NS.swap(0, Ordering::Relaxed) as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_tile_and_return_in_order() {
        for threads in [1, 2, 4, 8] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let ranges = run_morsels(1000, par, |i, r| (i, r));
            assert!(!ranges.is_empty());
            let mut next = 0u32;
            for (idx, (i, r)) in ranges.iter().enumerate() {
                assert_eq!(idx, *i, "results must come back in morsel order");
                assert_eq!(r.start, next, "morsels must tile [0, n)");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, 1000);
        }
    }

    #[test]
    fn empty_input_runs_one_empty_morsel() {
        let got = run_morsels(0, Parallelism::with_threads(4), |i, r| (i, r));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 0..0);
    }

    #[test]
    fn work_is_claimed_exactly_once() {
        let par = Parallelism { threads: 4, morsel_rows: 16 };
        let sums = run_morsels(10_000, par, |_, r| r.map(|p| p as u64).sum::<u64>());
        let total: u64 = sums.iter().sum();
        assert_eq!(total, 9_999 * 10_000 / 2);
    }

    #[test]
    fn cancellation_stops_the_fanout_at_a_morsel_boundary() {
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let ctx = QueryCtx::unbounded();
            let ran = AtomicUsize::new(0);
            let got = try_run_morsels(100_000, par, &ctx, |_, r| {
                ran.fetch_add(1, Ordering::Relaxed);
                ctx.cancel(); // first morsel cancels everyone
                Ok(r.len())
            });
            assert_eq!(got, Err(QueryError::Cancelled), "threads={threads}");
            let ran = ran.load(Ordering::Relaxed);
            assert!(ran <= threads + 1, "cancelled after {ran} morsels with {threads} workers");
        }
    }

    #[test]
    fn task_errors_abort_and_win_over_later_work() {
        let par = Parallelism { threads: 4, morsel_rows: 64 };
        let budget = QueryError::MemoryBudgetExceeded { used: 9, budget: 1 };
        let err = budget.clone();
        let got = try_run_morsels(100_000, par, &QueryCtx::unbounded(), move |i, _| {
            if i == 0 {
                Err(err.clone())
            } else {
                Ok(i)
            }
        });
        assert_eq!(got, Err(budget));
    }

    #[test]
    fn injected_fault_panics_become_io_errors() {
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let got = try_run_morsels(10_000, par, &QueryCtx::unbounded(), |i, r| {
                if i == 2 {
                    std::panic::panic_any(cvr_storage::fault::InjectedFault("page 3".into()));
                }
                Ok(r.len())
            });
            assert_eq!(got, Err(QueryError::Io { detail: "page 3".into() }), "threads={threads}");
        }
    }

    #[test]
    fn foreign_worker_panics_resume_on_the_coordinator() {
        let par = Parallelism { threads: 4, morsel_rows: 64 };
        let caught = std::panic::catch_unwind(|| {
            let _ = try_run_morsels(10_000, par, &QueryCtx::unbounded(), |i, r| {
                if i == 1 {
                    panic!("genuine worker bug");
                }
                Ok(r.len())
            });
        });
        let payload = caught.expect_err("the panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "genuine worker bug");
    }

    #[test]
    fn grid_honors_forced_giant_morsels_up_to_the_cap() {
        // Default-sized configs still auto-shrink for balance.
        let (m, _) = grid(1_000_000, Parallelism { threads: 4, morsel_rows: DEFAULT_MORSEL_ROWS });
        assert!(m <= DEFAULT_MORSEL_ROWS);
        // An explicitly enlarged morsel size is honored (mask-word aligned).
        let big = 500_000u32;
        let (m, count) = grid(1_000_000, Parallelism { threads: 4, morsel_rows: big });
        assert_eq!(m, big.div_ceil(64) * 64);
        assert_eq!(count, 2);
        // ... but never beyond the ceiling.
        let (m, _) = grid(100_000_000, Parallelism { threads: 1, morsel_rows: u32::MAX });
        assert_eq!(m, MORSEL_MAX);
        assert_eq!(m % 64, 0);
    }

    #[test]
    fn queryerror_panic_payloads_become_typed_aborts() {
        // The scan drivers transport intra-morsel cancellation as a
        // QueryError panic payload; the morsel boundary must type it back.
        for threads in [1, 4] {
            let par = Parallelism { threads, morsel_rows: 64 };
            let got = try_run_morsels(10_000, par, &QueryCtx::unbounded(), |i, r| {
                if i == 2 {
                    std::panic::panic_any(QueryError::Cancelled);
                }
                Ok(r.len())
            });
            assert_eq!(got, Err(QueryError::Cancelled), "threads={threads}");
        }
    }

    #[test]
    fn intersect_ascending_matches_set_semantics() {
        let xs: Vec<u32> = (0..300).filter(|p| p % 3 == 0).collect();
        let ys: Vec<u32> = (0..300).filter(|p| p % 5 == 0).collect();
        let expected: Vec<u32> = (0..300).filter(|p| p % 15 == 0).collect();
        assert_eq!(intersect_ascending(&xs, &ys), expected);
        assert_eq!(intersect_ascending(&[], &ys), Vec::<u32>::new());
    }

    #[test]
    fn serial_knob_parses_env_shapes() {
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::with_threads(0).threads, 1);
        assert!(!Parallelism::with_threads(8).is_serial());
    }

    #[test]
    fn thread_cpu_time_is_monotone() {
        let a = thread_cpu_time();
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = x.wrapping_add(i * 2_654_435_761);
        }
        std::hint::black_box(x);
        let b = thread_cpu_time();
        assert!(b >= a);
    }
}
