//! Order statistics over latency samples.

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.len() - rank.clamp(1, sorted.len())
}

/// Sort ascending (total order; latencies are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// A latency tail: the percentile `p` of `sorted`, which must leave at
/// least ten samples beyond it. Returns `Err` naming the shortfall so
/// the caller counts it as a failed check rather than reporting a tail
/// that rests on a handful of samples.
pub fn tail(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = beyond(sorted, p);
    if n < 10 {
        return Err(format!(
            "p{p} of {} samples leaves only {n} beyond it (need 10)",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(beyond(&v, 90.0), 10);
        assert!(tail(&v, 90.0).is_ok());
        assert!(tail(&v, 95.0).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
