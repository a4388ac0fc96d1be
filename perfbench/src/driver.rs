//! The closed loop both modes run: `workers` threads share one cursor
//! over the statement stream, and each sends its next statement only
//! after the previous answer has been decoded, like an analyst who waits
//! for each answer. What a worker calls per statement — `Client::query`
//! over the wire, or the traced in-process pipeline — is the caller's.

use crate::check::{sampled, Answers};
use crate::spans;
use crate::stats::fingerprint;
use crate::workload::Stream;
use cvr_server::protocol::Response;
use cvr_storage::io::IoStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long and how a loop runs.
pub struct LoopConfig<'a> {
    pub workers: usize,
    /// Measure at least this long ...
    pub window: Duration,
    /// ... and until this many statements were answered (at most three
    /// windows long).
    pub min_samples: usize,
    /// Record each worker's spans.
    pub traced: bool,
    pub seed: u64,
    /// Ends the loop early when it returns true (polled every few
    /// statements).
    pub stop: Option<&'a (dyn Fn() -> bool + Sync)>,
}

/// What a loop measured.
#[derive(Default)]
pub struct Outcome {
    pub wall: Duration,
    /// Statements taken from the stream.
    pub issued: usize,
    /// Statements taken, and failed connects.
    pub attempted: u64,
    /// ERROR frames, unexpected frames and connection failures.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Latency of each answered statement, from the call to the decoded
    /// answer, µs.
    pub latencies_us: Vec<f64>,
    pub answers: Answers,
    /// Answers the planner sent to the row engine.
    pub row_plans: u64,
    /// Answers not served from the result cache, with their I/O.
    pub executed: u64,
    pub io: IoStats,
    /// Bytes of the encoded answers.
    pub response_bytes: u64,
    /// Each worker's spans, when traced.
    pub spans: Vec<Vec<spans::Span>>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    pub fn merge(&mut self, o: Outcome) {
        self.issued += o.issued;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.latencies_us.extend(o.latencies_us);
        self.answers.merge(&o.answers);
        self.row_plans += o.row_plans;
        self.executed += o.executed;
        self.io.add(&o.io);
        self.response_bytes += o.response_bytes;
        self.spans.extend(o.spans);
    }

    /// Account for the answer to statement `i` of `stream`, received
    /// `us` after the call. Returns whether it was a result set.
    pub fn record(
        &mut self,
        stream: &Stream,
        i: usize,
        seed: u64,
        answer: Result<Response, String>,
        us: f64,
    ) -> bool {
        let sql = stream.get(i).expect("a recorded statement is in the stream");
        self.issued += 1;
        self.attempted += 1;
        match answer {
            Ok(Response::Result(mut rs)) => {
                self.latencies_us.push(us);
                self.row_plans += rs.plan.starts_with("row:") as u64;
                if !rs.cached {
                    self.executed += 1;
                    self.io.add(&rs.io);
                }
                let rows = sampled(seed, i).then(|| rs.output_bytes.clone());
                // The normalized frame: a hit may differ only in `cached`.
                rs.cached = false;
                let frame = Response::Result(rs).encode();
                self.response_bytes += frame.len() as u64;
                self.answers.record(i, fingerprint(&frame), rows);
                true
            }
            Ok(other) => {
                self.fail(format!("`{sql}`: {other:?}"));
                false
            }
            Err(e) => {
                self.fail(format!("`{sql}`: {e}"));
                false
            }
        }
    }
}

/// Run `stream` on `cfg.workers` threads. Each opens its state with
/// `open` (a connection, say) and answers a statement with `query`.
pub fn drive<S>(
    stream: &Stream,
    cfg: &LoopConfig<'_>,
    open: impl Fn() -> Result<S, String> + Sync,
    query: impl Fn(&mut S, &str) -> Result<Response, String> + Sync,
) -> Outcome {
    let cursor = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let start = Instant::now();
    let worker = || {
        let mut out = Outcome::default();
        if cfg.traced {
            spans::record(start);
        }
        match open() {
            Ok(mut state) => loop {
                let elapsed = start.elapsed();
                let enough = answered.load(Ordering::Relaxed) >= cfg.min_samples;
                if elapsed >= cfg.window && (enough || elapsed >= cfg.window * 3) {
                    break;
                }
                if out.issued % 16 == 0 && cfg.stop.is_some_and(|stop| stop()) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(sql) = stream.get(i) else { break };
                let sent = Instant::now();
                let answer = {
                    let _root = spans::statement(i as u64, "select");
                    query(&mut state, sql)
                };
                let us = sent.elapsed().as_secs_f64() * 1e6;
                if out.record(stream, i, cfg.seed, answer, us) {
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
            }
        }
        out.spans.push(spans::take());
        out
    };
    let mut total = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workers).map(|_| s.spawn(worker)).collect();
        let mut total = Outcome::default();
        for h in handles {
            total.merge(h.join().expect("loop thread"));
        }
        total
    });
    total.wall = start.elapsed();
    total
}
