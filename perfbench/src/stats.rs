//! Order statistics shared by every workload.

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q · n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `q`-quantile position.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples support reporting the `q`-quantile: at least ten
/// samples must lie beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= 10
}

/// Sorts a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 0.5)
}

/// Samples per latency window: enough that the window's p99 has ten
/// samples beyond it.
pub const WINDOW: usize = 1000;

/// `(p50, p99)` of every run of `WINDOW` consecutive samples in arrival
/// order (a short tail is dropped). Reporting the median over windows
/// keeps one stall to one window's p99 instead of the run's.
pub fn window_quantiles(in_order: &[f64]) -> Vec<(f64, f64)> {
    assert!(
        tail_supported(WINDOW, 0.99),
        "a window must support its p99"
    );
    in_order
        .chunks_exact(WINDOW)
        .map(|w| {
            let w = sorted(w);
            (nearest_rank(&w, 0.5), nearest_rank(&w, 0.99))
        })
        .collect()
}

/// Metric names: a letter or digit first, then letters, digits, `_`, `.`
/// and `-`, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 50.0);
        assert_eq!(nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(nearest_rank(&xs, 1.0), 100.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // 0.99 · 1000 must land on rank 990, not 991, despite 0.99 being
        // inexact in binary.
        let ys: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&ys, 0.99), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(100, 0.99));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn a_stall_moves_only_its_own_window() {
        assert!(window_quantiles(&vec![1.0; WINDOW - 1]).is_empty());
        let mut xs = vec![1.0; 5 * WINDOW + 7];
        // A burst of 50 slow samples in the second window.
        for x in &mut xs[WINDOW..WINDOW + 50] {
            *x = 100.0;
        }
        let windows = window_quantiles(&xs);
        assert_eq!(windows.len(), 5);
        assert_eq!(windows[1], (1.0, 100.0));
        let p99s: Vec<f64> = windows.iter().map(|w| w.1).collect();
        assert_eq!(median(&p99s), 1.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "p50_us",
            "serve.cache_hit_rate",
            "gen.late_p99_us",
            "a-b",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "p50 us",
            "µs",
            "a/b",
            "x{y}",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
