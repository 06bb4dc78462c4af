//! Order statistics over latency samples. Every published timing is a
//! median or a named percentile of raw samples; nothing is averaged
//! before it is ranked.

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted slice by the
/// nearest-rank rule: the smallest sample with at least `q` of the
/// samples at or below it. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns their median (mean of the two
/// middle samples for an even count). `0.0` for an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(q, value)`; `None` when there are too few samples for any
/// tail statement (fewer than 20: the median is all one can report).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 20 {
        return None;
    }
    // Ten samples lie strictly beyond index n - 11.
    let idx = n - 11;
    Some(((idx + 1) as f64 / n as f64, sorted[idx]))
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `(max − min) / median`: how far apart a run's laps were.
pub fn spread(samples: &mut [f64]) -> f64 {
    let m = median(samples);
    match (samples.first(), samples.last()) {
        (Some(lo), Some(hi)) if m > 0.0 => (hi - lo) / m,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (q, value) = tail(&v).unwrap();
        assert_eq!(value, 990.0);
        assert!((q - 0.99).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!(tail(&v[..19]).is_none());
        let (q20, v20) = tail(&v[..20]).unwrap();
        assert_eq!((q20, v20), (0.5, 10.0));
    }

    #[test]
    fn spread_and_mean() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(spread(&mut [9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&mut []), 0.0);
    }
}
