//! The benchmark's own arithmetic: medians, the tail percentile, self
//! times, busy shares and layer shares. Kept free of I/O so the unit tests
//! below pin every formula the report prints.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail metric may report, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples needed beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// The highest candidate percentile with at least [`TAIL_BEYOND`] samples
/// beyond it when there are `n` samples; `None` below 20 samples, where
/// not even the median has ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(p, n) >= TAIL_BEYOND)
}

/// Nearest-rank percentile `p` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

/// A layer's self time: its span minus the part its children cover,
/// clamped to `[0, span]` (children measured on another clock edge can
/// overshoot by a few nanoseconds).
pub fn self_time(span: f64, children: f64) -> f64 {
    let span = span.max(0.0);
    (span - children.max(0.0)).clamp(0.0, span)
}

/// Share of `threads` workers' time inside `execute` that kernels kept
/// busy, clamped to `[0, 1]`; 0 when nothing executed.
pub fn busy_share(kernel_s: f64, exec_s: f64, threads: usize) -> f64 {
    let capacity = exec_s * threads as f64;
    if capacity <= 0.0 {
        return 0.0;
    }
    (kernel_s / capacity).clamp(0.0, 1.0)
}

/// Splits a submission's wall time into layer shares that sum to 1.
///
/// `inner` are the measured layers (each clamped to be non-negative); the
/// last share is the remainder of `wall` the inner layers do not cover.
/// When the inner layers add up to more than `wall` (clock edges), they
/// are scaled down and the remainder is 0.
pub fn layer_shares(wall: f64, inner: &[f64]) -> Vec<f64> {
    let parts: Vec<f64> = inner.iter().map(|x| x.max(0.0)).collect();
    let covered: f64 = parts.iter().sum();
    let total = wall.max(covered);
    if total <= 0.0 {
        let mut v = vec![0.0; parts.len()];
        v.push(1.0);
        return v;
    }
    let mut v: Vec<f64> = parts.iter().map(|x| x / total).collect();
    v.push(((total - covered) / total).max(0.0));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_always_has_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        for n in 20..5000 {
            let p = tail_percentile(n).expect("20+ samples have a tail");
            assert!(beyond(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            // and it is the highest candidate that does
            for &q in TAIL_CANDIDATES.iter().filter(|&&q| q > p) {
                assert!(beyond(q, n) < TAIL_BEYOND, "n={n}: {q} also qualifies");
            }
            // the samples beyond really are beyond: count them
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = percentile(&values, p);
            assert!(values.iter().filter(|&&v| v > cut).count() >= TAIL_BEYOND);
        }
        assert_eq!(tail_percentile(44), Some(75.0));
        assert_eq!(tail_percentile(110), Some(90.0));
    }

    #[test]
    fn self_time_is_clamped_within_span() {
        for (span, children) in [(1.0, 0.25), (1.0, 1.5), (1.0, -0.5), (0.0, 0.1), (2.0, 2.0)] {
            let s = self_time(span, children);
            assert!((0.0..=span).contains(&s), "span={span} children={children}");
        }
        assert_eq!(self_time(1.0, 0.25), 0.75);
    }

    #[test]
    fn busy_share_is_a_fraction() {
        for (k, e, t) in [
            (1.0, 1.0, 2),
            (5.0, 1.0, 2),
            (0.0, 1.0, 2),
            (1.0, 0.0, 2),
            (-1.0, 1.0, 1),
        ] {
            let b = busy_share(k, e, t);
            assert!((0.0..=1.0).contains(&b), "kernel={k} exec={e} threads={t}");
        }
        assert_eq!(busy_share(1.0, 1.0, 2), 0.5);
    }

    #[test]
    fn layer_shares_sum_to_one() {
        for (wall, inner) in [
            (1.0, vec![0.2, 0.3]),
            (1.0, vec![0.7, 0.6]),
            (0.0, vec![0.0, 0.0]),
            (2.0, vec![-0.1, 0.5, 0.5]),
        ] {
            let s = layer_shares(wall, &inner);
            assert_eq!(s.len(), inner.len() + 1);
            let sum: f64 = s.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "wall={wall} inner={inner:?}");
            assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        assert_eq!(layer_shares(1.0, &[0.25, 0.5]), vec![0.25, 0.5, 0.25]);
    }
}
