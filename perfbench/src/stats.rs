//! Order statistics used for every reported figure.

/// The `p`-th percentile (`0.0..=100.0`) of `values`, linearly
/// interpolated between the two nearest ranks (the "R-7" definition
/// used by numpy and by Python's `statistics.quantiles(method="inclusive")`).
/// Returns `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values` (`0.0` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_known_vectors() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        // Interpolated: rank 0.9 × 4 = 3.6 → 4 + 0.6 × (5 − 4).
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        // Order of the input does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 90.0), percentile(&v, 90.0));
        // 1..=10: p90 at rank 8.1 → 9.1; p50 at rank 4.5 → 5.5.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&ten, 90.0) - 9.1).abs() < 1e-12);
        assert_eq!(median(&ten), 5.5);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 90.0), 7.5);
        assert_eq!(median(&[2.0, 2.0, 2.0]), 2.0);
        // Out-of-range p clamps to the extremes.
        assert_eq!(percentile(&[1.0, 9.0], 150.0), 9.0);
        assert_eq!(percentile(&[1.0, 9.0], -5.0), 1.0);
    }
}
