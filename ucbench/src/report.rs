//! What a run accumulates, and how it is printed.

use crate::oracle::Verdict;
use crate::stats::{median, RoundFigures};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one run (a sequence of passes) accumulates.
#[derive(Default)]
pub struct Outcome {
    pub verdict: Verdict,
    /// Per operation kind: `[attempted, failed]`.
    pub kinds: BTreeMap<&'static str, [u64; 2]>,
    pub figures: RoundFigures,
    /// Counters the per-layer ledger is computed from.
    pub tally: BTreeMap<&'static str, f64>,
    pub rounds: u64,
    pub passes: u64,
}

impl Outcome {
    pub fn attempt(&mut self, kind: &'static str, ok: bool) {
        let e = self.kinds.entry(kind).or_default();
        e[0] += 1;
        e[1] += u64::from(!ok);
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.tally.entry(key).or_default() += v;
    }

    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.tally.entry(key).or_default();
        *e = e.max(v);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.tally.get(key).copied().unwrap_or(0.0)
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|e| e[0]).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|e| e[1]).sum()
    }

    /// The end-to-end metrics: medians over the run's rounds (set-up:
    /// over its passes).
    pub fn end_to_end(&mut self, peak_rss_mb: f64) -> Vec<Metric> {
        let f = &mut self.figures;
        let (u50, u99) = f.updates.summary();
        let (r50, r99) = f.reads.summary();
        vec![
            Metric::new("setup_s", median(&mut f.setup_s), "s"),
            Metric::new("ops_per_s", median(&mut f.ops_per_s), "1/s"),
            Metric::new("update_p50_us", u50, "us"),
            Metric::new("update_p99_us", u99, "us"),
            Metric::new("read_p50_us", r50, "us"),
            Metric::new("read_p99_us", r99, "us"),
            Metric::new("settle_p50_ms", median(&mut f.settle_ms), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// A finite number as JSON (non-finite values print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed`, and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_fixed_shape() {
        let line = result_json(
            true,
            10,
            0,
            &[Metric::new("a", 1.5, "ms"), Metric::new("b", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn outcome_counts_per_kind() {
        let mut o = Outcome::default();
        o.attempt("update", true);
        o.attempt("update", false);
        o.attempt("read", true);
        assert_eq!((o.attempted(), o.failed()), (3, 1));
        o.add("x", 2.0);
        o.add("x", 3.0);
        o.max("m", 4.0);
        o.max("m", 1.0);
        assert_eq!((o.get("x"), o.get("m"), o.get("none")), (5.0, 4.0, 0.0));
    }
}
