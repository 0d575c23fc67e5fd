//! The estimators every reported number goes through.

/// Nearest-rank percentile (`q` in `0..=1`) of an unsorted sample; 0 when
/// the sample is empty, which is how a workload reports a metric of a layer
/// it never calls.
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 0.5)
}

/// `(p75 − p25) / p50`: how far apart the rounds of one run were. A run
/// whose spread exceeds the metric's bound was disturbed by the host.
pub fn spread(sample: &[f64]) -> f64 {
    let p50 = median(sample);
    if p50 == 0.0 {
        return 0.0;
    }
    (percentile(sample, 0.75) - percentile(sample, 0.25)) / p50
}

/// Throughput from equal-sized rounds: ops per round over the *median*
/// round time, so a disturbed minority of rounds does not move it.
pub fn ops_per_s(ops_per_round: usize, round_seconds: &[f64]) -> f64 {
    let m = median(round_seconds);
    if m == 0.0 {
        return 0.0;
    }
    ops_per_round as f64 / m
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.2), 1.0);
        assert_eq!(percentile(&s, 0.21), 2.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 0.95), 5.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        // even count: the lower of the two middle values, never an average
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn throughput_ignores_a_disturbed_minority_of_rounds() {
        let calm = [0.5, 0.5, 0.5, 0.5, 0.5];
        let disturbed = [0.5, 0.5, 3.0, 0.5, 2.0];
        assert_eq!(ops_per_s(10, &calm), 20.0);
        assert_eq!(ops_per_s(10, &disturbed), 20.0);
        assert_eq!(ops_per_s(10, &[]), 0.0);
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        // p25 = 2, p50 = 4, p75 = 6
        assert_eq!(spread(&s), 1.0);
        assert_eq!(spread(&[2.0; 9]), 0.0);
    }

    #[test]
    fn byte_ratios_are_plain_quotients_and_zero_safe() {
        assert_eq!(ratio(300.0, 100.0), 3.0);
        assert_eq!(ratio(300.0, 0.0), 0.0);
    }
}
