//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span holds its layer name, a detail (the row design, the statement
//! kind), start, end, parent and the id of the statement it belongs to.
//! Spans stay in a per-thread buffer while a pass runs and are written out
//! when the benchmark ends. On a thread that is not recording, opening a
//! span costs one thread-local check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root layer: one span per statement.
pub const STATEMENT: &str = "statement";

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub detail: &'static str,
    pub stmt: u64,
    /// Index of the parent span in the same thread's buffer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.ns() as f64 / 1e3
    }

    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread; times are taken relative to `origin`.
pub fn record(origin: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder { origin, spans: Vec::new(), open: Vec::new(), stmt: 0 })
    });
}

/// Stop recording on this thread and return its spans.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Open the root span of statement `stmt`.
pub fn statement(stmt: u64, kind: &'static str) -> Guard {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.stmt = stmt;
        }
    });
    enter(STATEMENT, kind)
}

/// Open a span; it closes when the guard drops.
pub fn enter(layer: &'static str, detail: &'static str) -> Guard {
    RECORDER
        .with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut()?;
            let idx = rec.spans.len();
            rec.spans.push(Span {
                layer,
                detail,
                stmt: rec.stmt,
                parent: rec.open.last().copied(),
                start_ns: rec.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            rec.open.push(idx);
            Some(idx)
        })
        .map_or(Guard(None), |idx| Guard(Some(idx)))
}

/// Closes its span on drop.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            RECORDER.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    rec.spans[idx].end_ns = rec.origin.elapsed().as_nanos() as u64;
                    rec.open.pop();
                }
            });
        }
    }
}

/// Self and total times per layer, over every thread's spans.
#[derive(Default)]
pub struct Profile {
    /// Layer → self time of each span, µs: its duration minus the part
    /// its children cover.
    pub self_us: BTreeMap<&'static str, Vec<f64>>,
    /// (layer, detail) → duration of each span, µs.
    pub total_us: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// Sum of statement durations, µs.
    pub statement_us: f64,
}

impl Profile {
    pub fn new(threads: &[Vec<Span>]) -> Profile {
        let mut p = Profile::default();
        for spans in threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(parent) = s.parent {
                    child_ns[parent] += s.ns();
                }
            }
            for (s, child) in spans.iter().zip(child_ns) {
                let own = s.ns().saturating_sub(child) as f64 / 1e3;
                p.self_us.entry(s.layer).or_default().push(own);
                p.total_us.entry((s.layer, s.detail)).or_default().push(s.us());
                if s.layer == STATEMENT {
                    p.statement_us += s.us();
                }
            }
        }
        p
    }

    /// Durations of every span of `layer` whose detail passes `keep`.
    pub fn durations(&self, layer: &str, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        self.total_us
            .iter()
            .filter(|((l, d), _)| *l == layer && keep(d))
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }
}

/// The spans of statements whose id passes `keep`, as JSON lines: one
/// span per line, threads in order.
pub fn to_jsonl(threads: &[Vec<Span>], keep: impl Fn(u64) -> bool) -> String {
    let mut out = String::new();
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s.stmt)) {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{t}.{p}\""));
            let _ = writeln!(
                out,
                r#"{{"id": "{t}.{i}", "parent": {parent}, "stmt": {}, "layer": "{}", "detail": "{}", "start_ns": {}, "end_ns": {}}}"#,
                s.stmt, s.layer, s.detail, s.start_ns, s.end_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        record(Instant::now());
        {
            let _root = statement(1, "select");
            let _child = enter("plan.plan", "");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let _ignored = enter("after", "");
        drop(_ignored);
        let spans = take();
        assert!(enter("off", "").0.is_none(), "nothing records after take");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.stmt == 1));
        let p = Profile::new(&[spans]);
        let root_self = p.self_us[STATEMENT][0];
        assert!(root_self < p.self_us["plan.plan"][0], "root self {root_self}");
        assert!(p.statement_us >= 2000.0);
    }
}
