//! Order statistics for the benchmark's summaries.

/// Sorted copy of `values` (NaNs are a harness bug and panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the standard tail percentiles that still has at least
/// ten samples beyond it, as `(percentile, value)`; `None` when fewer
/// than twenty samples exist.
pub fn deepest_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, quantile(values, p / 100.0)))
}

/// `n`, median, quartiles and extremes of `values` as a JSON object.
pub fn summary_json(values: &[f64]) -> String {
    let v = sorted(values);
    let (min, max) = (v.first().copied(), v.last().copied());
    format!(
        "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}}}",
        v.len(),
        quantile(&v, 0.5),
        quantile(&v, 0.25),
        quantile(&v, 0.75),
        min.unwrap_or(0.0),
        max.unwrap_or(0.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(deepest_tail(&v).map(|t| t.0), Some(99.0));
        assert!(deepest_tail(&v[..19]).is_none());
    }
}
