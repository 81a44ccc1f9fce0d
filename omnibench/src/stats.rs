//! Exact sample statistics. Every timing the benchmark reports is computed
//! here from its own samples (nearest rank), never from a bucketed
//! histogram, and carries its sample count.

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `sorted` (ascending).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples beyond the nearest-rank percentile `q` — the tail that backs it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 0.5)
}

/// A timing summary: nearest-rank p50, p90 and p99 over `n` samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            p50: nearest_rank(&s, 0.5),
            p90: nearest_rank(&s, 0.9),
            p99: nearest_rank(&s, 0.99),
        }
    }

    /// Does percentile `q` have at least ten samples beyond it?
    pub fn backed(&self, q: f64) -> bool {
        beyond(self.n, q) >= 10
    }

    /// One line: the percentiles, the sample count, and which tails lack
    /// ten samples beyond them.
    pub fn line(&self) -> String {
        let flag = |q: f64| if self.backed(q) { "" } else { " (fewer than 10 beyond)" };
        format!(
            "{} samples: p50 {:.3} ms, p90 {:.3} ms{}, p99 {:.3} ms{}",
            self.n,
            self.p50,
            self.p90,
            flag(0.9),
            self.p99,
            flag(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_cases() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&s, 0.5), 2.0);
        assert_eq!(nearest_rank(&s, 0.75), 3.0);
        assert_eq!(nearest_rank(&s, 1.0), 4.0);
        assert_eq!(nearest_rank(&s, 0.01), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!(s.backed(0.99));
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.p90, 899.0);
        assert!(!Summary::of(&v[..999]).backed(0.99));
        assert!(Summary::of(&v[..100]).backed(0.9));
    }
}
