//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by the nearest-rank rule;
/// 0 for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Latency samples per window: a window's p99 has 20 samples beyond it.
pub const WINDOW: usize = 2_000;

/// Per-operation latencies of one kind, cut into consecutive windows
/// of [`WINDOW`] samples. The run reports the median over windows of
/// each window's p50 and p99: every p99 rests on enough samples, and a
/// burst of host noise moves the windows it hits, not the run.
#[derive(Default)]
pub struct Latencies {
    buf: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    pub samples: u64,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.buf.push(ns as f64);
        self.samples += 1;
        if self.buf.len() == WINDOW {
            self.close();
        }
    }

    fn close(&mut self) {
        self.p50_us.push(quantile(&mut self.buf, 0.50) / 1e3);
        self.p99_us.push(quantile(&mut self.buf, 0.99) / 1e3);
        self.buf.clear();
    }

    /// `(p50, p99)` in microseconds: medians over the full windows (a
    /// run too short for one full window uses its partial window).
    pub fn summary(&mut self) -> (f64, f64) {
        if self.p50_us.is_empty() && !self.buf.is_empty() {
            self.close();
        }
        (median(&mut self.p50_us), median(&mut self.p99_us))
    }
}

/// The figures every workload reports. Throughput and settle are per
/// round, set-up per pass; the run's end-to-end metric is the median,
/// so a burst of host noise moves one round, not the run.
#[derive(Default)]
pub struct RoundFigures {
    pub ops_per_s: Vec<f64>,
    pub settle_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub updates: Latencies,
    pub reads: Latencies,
}

impl RoundFigures {
    /// Record one round: `ops` operations over `round_ns` (first
    /// operation until every replica agrees), its settle, and its
    /// per-operation latencies.
    pub fn round(
        &mut self,
        ops: usize,
        round_ns: u64,
        settle_ns: u64,
        updates: &[u64],
        reads: &[u64],
    ) {
        self.ops_per_s.push(ops as f64 / (round_ns as f64 / 1e9));
        self.settle_ms.push(settle_ns as f64 / 1e6);
        for ns in updates {
            self.updates.push(*ns);
        }
        for ns in reads {
            self.reads.push(*ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn latencies_report_medians_over_full_windows() {
        let mut l = Latencies::default();
        for w in 0..3u64 {
            for i in 1..=WINDOW as u64 {
                l.push(i * 1000 * (w + 1));
            }
        }
        // Window w holds 1..=WINDOW scaled by w + 1: the median window
        // is the second.
        let (p50, p99) = l.summary();
        assert_eq!(p50, (WINDOW as f64 / 2.0) * 2.0);
        assert_eq!(p99, (WINDOW as f64 * 0.99) * 2.0);
        assert_eq!(l.samples, 3 * WINDOW as u64);
        let mut short = Latencies::default();
        short.push(500);
        assert_eq!(short.summary(), (0.5, 0.5));
    }
}
