//! Order statistics and the metric report.

use std::fmt::Write as _;

/// Quantile `q` of `values` by linear interpolation between order
/// statistics; `0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or `0` when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// FNV-1a over `bytes`: a stable fingerprint of a response frame.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// Named metrics with units, printed one per line and as the final JSON.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0 of an empty sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Print every metric as `metric <name> <value> <unit>`, then the
    /// result object as the last line of standard output.
    pub fn finish(&self, correct: bool, attempted: u64, failed: u64) {
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("metric {name} {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#);
        }
        println!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{json}}}}}"#
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[2.0, 4.0], 0.5), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
