//! The cost model: catalog statistics → modeled seconds.
//!
//! Costs are split the same way the benchmark harness splits measurements
//! (`cvr-bench`): a CPU term and a modeled-disk term,
//!
//! ```text
//! total = cpu_seconds × cpu_scale + io_bytes / bandwidth + seeks × latency
//! ```
//!
//! so an estimated cost is directly comparable to a measured
//! `Measurement::seconds()`. The disk side reuses the storage layer's own
//! [`DiskModel`]; bytes come from the catalog's *actual* per-encoding
//! column sizes and a standard distinct-page estimate for positional
//! gathers. The CPU side prices the operations the engines actually
//! perform — SWAR word compares, scalar block kernels, RLE run walks,
//! tuple-at-a-time `get_next` calls, hash probes, per-tuple row-engine
//! pipeline steps — with per-unit rates that can be recalibrated from
//! `BENCH_kernels.json` (the scan-kernel measurement the `kernels` binary
//! emits) or from a quick in-process micro-measurement.

use cvr_storage::io::{DiskModel, PAGE_SIZE};

/// Per-unit CPU costs, in seconds. Defaults describe a contemporary core;
/// the *ratios* (SWAR ≪ scalar ≪ tuple-at-a-time) matter far more than the
/// absolute values, because plan choices compare candidates under the same
/// model.
#[derive(Debug, Clone, Copy)]
pub struct CpuRates {
    /// One 64-lane SWAR word: compare + mask bank.
    pub swar_word: f64,
    /// One value through the branchless scalar slice kernel.
    pub scalar_value: f64,
    /// One RLE run through the run-at-a-time scan.
    pub rle_run: f64,
    /// One value through the tuple-at-a-time `get_next` interface.
    pub tuple_value: f64,
    /// One hash-set/map probe (invisible-join fallback, lmjoin probe).
    pub hash_probe: f64,
    /// One value through a full-scan membership probe (decode + lookup) —
    /// the lmjoin's first probe and the invisible join's hash fallback.
    pub probe_scan_value: f64,
    /// One positionally gathered value (late materialization).
    pub gather_value: f64,
    /// One tuple through a row-engine operator (scan parse / filter step).
    pub row_tuple: f64,
    /// One row-engine hash-join probe (tuple clone + table lookup).
    pub row_join_probe: f64,
    /// One aggregated row through the Value-keyed reference grouper
    /// (group-key vector allocation + clones + hash update) — the row
    /// engine's tail, and the column engines' only when a group column has
    /// no code space.
    pub agg_row: f64,
    /// One aggregated row through the code-level aggregator (compose a
    /// `u64` group id from extracted codes, bump a direct slot or `u64`
    /// hash entry) — the column engines' tail. Recalibratable from
    /// `BENCH_agg.json`.
    pub agg_code_row: f64,
    /// One `Value` clone during early-materialization tuple stitching.
    pub value_clone: f64,
    /// One B+Tree leaf entry scanned (index-only plans).
    pub index_entry: f64,
    /// One B+Tree leaf entry *streamed* by a key-range scan (clone the
    /// key, push the rid, set a bitmap bit). Cheaper than `index_entry`
    /// — a range scan walks leaves in order with no per-entry descent —
    /// but still an allocation-bearing entry copy, not a bare load.
    pub index_leaf_entry: f64,
    /// One position materialized into an explicit intermediate list (the
    /// late-materialized join's `to_vec`/clone/re-intersect traffic; the
    /// invisible join stays on bitmap words and never pays this).
    pub poslist_touch: f64,
}

impl Default for CpuRates {
    fn default() -> Self {
        CpuRates {
            // Effective rates, calibrated against serial warm-pool
            // measurements of the repo's own engines at sf 0.02: they fold in
            // the surrounding machinery — mask banking and position
            // accumulation for SWAR words, run lookups for RLE — not just
            // the arithmetic.
            swar_word: 6.0e-9,
            scalar_value: 1.0e-9,
            rle_run: 4.0e-9,
            tuple_value: 1.2e-8,
            hash_probe: 1.5e-9, // IntHashMap/Set are array-backed over dense keys
            probe_scan_value: 5.0e-9,
            gather_value: 3.0e-9,
            row_tuple: 1.5e-7,
            row_join_probe: 1.2e-7,
            agg_row: 6.0e-8,
            agg_code_row: 4.0e-9,
            value_clone: 1.5e-8,
            index_entry: 1.5e-7,
            index_leaf_entry: 9.0e-8,
            poslist_touch: 1.5e-8,
        }
    }
}

impl CpuRates {
    /// Recalibrate the kernel-layer rates from a `BENCH_kernels.json`
    /// emitted by `cvr-bench --bin kernels` on this machine. Only the
    /// fields that file measures move (`swar_word`, `scalar_value`); the
    /// rest keep their defaults. Returns `None` when the string does not
    /// look like a kernels report.
    pub fn from_kernel_bench_json(json: &str) -> Option<CpuRates> {
        if !json.contains("\"bench\": \"kernels\"") {
            return None;
        }
        // Minimal field scraper (the workspace vendors no JSON parser): the
        // kernels binary emits one result object per line with known keys.
        let mut scalar = Vec::new();
        let mut word = Vec::new();
        for line in json.lines() {
            let grab = |key: &str| -> Option<f64> {
                let at = line.find(key)? + key.len();
                let rest = &line[at..];
                let end = rest.find([',', '}'])?;
                rest[..end].trim().parse().ok()
            };
            if let Some(v) = grab("\"scalar_ns_per_value\":") {
                scalar.push(v);
            }
            // Plain columns have no word-parallel lane trick; only packed
            // encodings measure the SWAR path meaningfully.
            if !line.contains("plain_i64") {
                if let Some(v) = grab("\"word_ns_per_value\":") {
                    word.push(v);
                }
            }
        }
        if scalar.is_empty() || word.is_empty() {
            return None;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        Some(CpuRates {
            scalar_value: mean(&scalar) * 1e-9,
            // word_ns_per_value is per *value*; a word carries ~8 lanes at
            // the benchmark's mid widths, and the engine wraps the raw
            // kernel in mask banking + position accumulation (~3× the bare
            // compare in the serial engine measurements).
            swar_word: mean(&word) * 1e-9 * 8.0 * 3.0,
            ..CpuRates::default()
        })
    }

    /// Recalibrate the aggregation-tail rates from a `BENCH_agg.json`
    /// emitted by `cvr-bench --bin agg` on this machine: `agg_row` from the
    /// measured Value-keyed grouper, `agg_code_row` from the code-level
    /// aggregator, each averaged across the report's cells. Returns `None`
    /// when the string does not look like an agg report.
    pub fn from_agg_bench_json(json: &str) -> Option<CpuRates> {
        if !json.contains("\"bench\": \"agg\"") {
            return None;
        }
        let mut value = Vec::new();
        let mut code = Vec::new();
        for line in json.lines() {
            let grab = |key: &str| -> Option<f64> {
                let at = line.find(key)? + key.len();
                let rest = &line[at..];
                let end = rest.find([',', '}'])?;
                rest[..end].trim().parse().ok()
            };
            if let Some(v) = grab("\"value_ns_per_row\":") {
                value.push(v);
            }
            if let Some(v) = grab("\"code_ns_per_row\":") {
                code.push(v);
            }
        }
        if value.is_empty() || code.is_empty() {
            return None;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        Some(CpuRates {
            agg_row: mean(&value) * 1e-9,
            agg_code_row: mean(&code) * 1e-9,
            ..CpuRates::default()
        })
    }

    /// Quick in-process calibration of the two rates that vary most across
    /// machines: the scalar block kernel and the tuple-at-a-time interface.
    /// Deterministic work, wall-clock measured; everything else scales from
    /// the measured scalar rate by the default ratios.
    pub fn calibrated() -> CpuRates {
        let n = 1 << 16;
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 97).collect();

        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        for _ in 0..8 {
            for &v in &values {
                acc += u64::from((10..=60).contains(&v));
            }
        }
        std::hint::black_box(acc);
        let scalar = t0.elapsed().as_secs_f64() / (8.0 * n as f64);

        let t1 = std::time::Instant::now();
        let mut it: Box<dyn Iterator<Item = &i64>> = Box::new(values.iter());
        let mut acc2 = 0i64;
        for _ in 0..n {
            if let Some(v) = std::hint::black_box(&mut it).next() {
                acc2 += *v;
            }
        }
        std::hint::black_box(acc2);
        let tuple = (t1.elapsed().as_secs_f64() / n as f64).max(scalar);

        let d = CpuRates::default();
        let scale = (scalar / d.scalar_value).max(0.1);
        CpuRates {
            swar_word: d.swar_word * scale,
            scalar_value: scalar.max(1e-11),
            rle_run: d.rle_run * scale,
            tuple_value: tuple.max(1e-10),
            hash_probe: d.hash_probe * scale,
            probe_scan_value: d.probe_scan_value * scale,
            gather_value: d.gather_value * scale,
            row_tuple: d.row_tuple * scale,
            row_join_probe: d.row_join_probe * scale,
            agg_row: d.agg_row * scale,
            agg_code_row: d.agg_code_row * scale,
            value_clone: d.value_clone * scale,
            index_entry: d.index_entry * scale,
            index_leaf_entry: d.index_leaf_entry * scale,
            poslist_touch: d.poslist_touch * scale,
        }
    }
}

/// Everything needed to turn a [`CostBreakdown`] into seconds, mirroring
/// the harness's `cpu × cpu_scale + DiskModel::io_time` arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// The modeled disk (defaults to the paper's 200 MB/s, 4 ms seeks).
    pub disk: DiskModel,
    /// CPU multiplier, matching the harness `--cpu-scale` (default 5).
    pub cpu_scale: f64,
    /// Per-operation CPU rates.
    pub rates: CpuRates,
    /// Buffer-pool capacity in bytes, when planning for a *warm* harness
    /// (the benchmark warms the pool before measuring). A plan whose
    /// entire working set fits re-reads only pool hits, which are free;
    /// one that exceeds capacity thrashes the CLOCK pool on sequential
    /// scans and pays full cold cost. `None` plans for a cold run.
    pub pool_bytes: Option<u64>,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            disk: DiskModel::default(),
            cpu_scale: 5.0,
            rates: CpuRates::default(),
            pool_bytes: None,
        }
    }
}

impl CostParams {
    /// Apply the warm-pool model to a finished plan estimate: a plan whose
    /// *union working set* (each page counted once, however many phases
    /// touch it) fits the pool costs no I/O on measured (post-warm-up)
    /// runs; anything larger pays in full (repeated sequential scans evict
    /// everything before it is re-read). The summed `io_bytes` cannot be
    /// used for the fit test — a plan that scans a column in phase 2 and
    /// gathers from it again in phase 3 charges it twice but caches it
    /// once.
    pub fn pool_adjust(&self, c: CostBreakdown, working_set: u64) -> CostBreakdown {
        match self.pool_bytes {
            Some(pool) if working_set <= pool => CostBreakdown::cpu(c.cpu_seconds),
            _ => c,
        }
    }
}

/// The union working set of a plan: per-column bytes touched, each column
/// counted once at the *largest* touch (a full scan subsumes any gather).
#[derive(Debug, Clone, Default)]
pub struct WorkingSet(std::collections::HashMap<String, u64>);

impl WorkingSet {
    /// Record `bytes` touched of column `key` (max-merged per column).
    pub fn touch(&mut self, key: &str, bytes: u64) {
        let slot = self.0.entry(key.to_string()).or_insert(0);
        *slot = (*slot).max(bytes);
    }

    /// Total distinct bytes.
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }
}

/// An estimated cost: CPU seconds plus modeled disk traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Estimated CPU seconds (before `cpu_scale`).
    pub cpu_seconds: f64,
    /// Estimated bytes read from the modeled disk.
    pub io_bytes: u64,
    /// Estimated positioning seeks.
    pub seeks: u64,
}

impl CostBreakdown {
    /// Accumulate another term.
    pub fn add(&mut self, other: CostBreakdown) {
        self.cpu_seconds += other.cpu_seconds;
        self.io_bytes += other.io_bytes;
        self.seeks += other.seeks;
    }

    /// Pure-CPU term.
    pub fn cpu(seconds: f64) -> CostBreakdown {
        CostBreakdown { cpu_seconds: seconds, ..CostBreakdown::default() }
    }

    /// Modeled seconds under `params` — comparable to a measured
    /// `Measurement::seconds()`.
    pub fn seconds(&self, params: &CostParams) -> f64 {
        let transfer = self.io_bytes as f64 / params.disk.seq_bandwidth;
        let seeks = params.disk.seek_latency.as_secs_f64() * self.seeks as f64;
        self.cpu_seconds * params.cpu_scale + transfer + seeks
    }
}

/// Expected distinct pages touched when gathering `k` roughly uniform
/// positions from a file of `pages` pages (the classic Cardenas/Yao
/// approximation `P·(1 − (1 − 1/P)^k)`, in its exp form).
pub fn pages_touched(k: u64, pages: u64) -> u64 {
    if pages == 0 || k == 0 {
        return 0;
    }
    let p = pages as f64;
    (p * (1.0 - (-(k as f64) / p).exp())).ceil().min(p) as u64
}

/// Cost of a full sequential scan of a file of `bytes` bytes: one
/// positioning seek, then pure transfer.
pub fn seq_scan(bytes: u64) -> CostBreakdown {
    CostBreakdown { cpu_seconds: 0.0, io_bytes: bytes, seeks: 1 }
}

/// Cost of gathering `k` positions out of `n` from a column of `bytes`
/// bytes: distinct pages at page grain, each treated as a seek (positions
/// are sparse once `k ≪ n`), plus per-value decode CPU.
pub fn gather(k: u64, n: u64, bytes: u64, rates: &CpuRates) -> CostBreakdown {
    if n == 0 || k == 0 {
        return CostBreakdown::default();
    }
    let pages = bytes.div_ceil(PAGE_SIZE).max(1);
    let touched = pages_touched(k.min(n), pages);
    // Positions ascend, so touched pages are visited in order: a page is a
    // *seek* only when the previous touched page was not its neighbor.
    // Expected skips = touched × (1 − touched/pages); dense gathers that
    // touch every page degrade to one positioning seek, like a scan.
    let skip_fraction = 1.0 - touched as f64 / pages as f64;
    let seeks = 1 + (touched as f64 * skip_fraction).round() as u64;
    CostBreakdown {
        cpu_seconds: k as f64 * rates.gather_value,
        io_bytes: touched * PAGE_SIZE.min(bytes),
        seeks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_mirror_harness_arithmetic() {
        let p = CostParams::default();
        let c = CostBreakdown { cpu_seconds: 0.01, io_bytes: 200 * 1024 * 1024, seeks: 10 };
        // 0.01×5 + 1.0s transfer + 0.04s seeks
        let s = c.seconds(&p);
        assert!((s - 1.09).abs() < 1e-9, "{s}");
    }

    #[test]
    fn pages_touched_saturates() {
        assert_eq!(pages_touched(0, 100), 0);
        assert_eq!(pages_touched(1, 100), 1);
        assert!(pages_touched(50, 100) <= 50);
        assert_eq!(pages_touched(1_000_000, 100), 100);
    }

    #[test]
    fn gather_cheaper_than_scan_when_sparse() {
        let rates = CpuRates::default();
        let scan = seq_scan(10 * 1024 * 1024);
        let g = gather(10, 1_000_000, 10 * 1024 * 1024, &rates);
        assert!(g.io_bytes < scan.io_bytes);
    }

    #[test]
    fn kernel_json_recalibration() {
        let json = r#"{
  "bench": "kernels",
  "n": 1024,
  "results": [
    {"kernel": "int_range", "encoding": "packed_b6", "selectivity": 0.01, "scalar_ns_per_value": 2.0, "word_ns_per_value": 0.25, "speedup": 8.0},
    {"kernel": "dict_pred", "encoding": "plain_i64", "selectivity": 0.01, "scalar_ns_per_value": 1.0, "word_ns_per_value": 0.9, "speedup": 1.1}
  ]
}"#;
        let rates = CpuRates::from_kernel_bench_json(json).expect("parses");
        assert!((rates.scalar_value - 1.5e-9).abs() < 1e-12);
        assert!((rates.swar_word - 0.25e-9 * 8.0 * 3.0).abs() < 1e-12);
        assert!(CpuRates::from_kernel_bench_json("{}").is_none());
    }

    #[test]
    fn calibration_produces_positive_ordered_rates() {
        let r = CpuRates::calibrated();
        assert!(r.scalar_value > 0.0);
        assert!(r.tuple_value >= r.scalar_value);
        assert!(r.row_tuple > r.scalar_value);
        assert!(r.agg_code_row < r.agg_row, "code-level tail must model cheaper");
    }

    #[test]
    fn agg_json_recalibration() {
        let json = r#"{
  "bench": "agg",
  "results": [
    {"cell": "Q2.1", "rows": 1000, "groups": 70, "value_ns_per_row": 80.0, "code_ns_per_row": 5.0, "speedup": 16.0},
    {"cell": "Q3.1", "rows": 1000, "groups": 150, "value_ns_per_row": 120.0, "code_ns_per_row": 7.0, "speedup": 17.1}
  ]
}"#;
        let rates = CpuRates::from_agg_bench_json(json).expect("parses");
        assert!((rates.agg_row - 100.0e-9).abs() < 1e-12);
        assert!((rates.agg_code_row - 6.0e-9).abs() < 1e-12);
        assert!(CpuRates::from_agg_bench_json("{}").is_none());
        // The kernels parser must not eat agg reports and vice versa.
        assert!(CpuRates::from_kernel_bench_json(json).is_none());
    }
}
