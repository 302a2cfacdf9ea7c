//! Summary statistics shared by every workload: percentile selection,
//! service-level attainment and the front-end remainder of a request.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = percentile_rank(sorted.len(), p)?;
    Some(sorted[rank])
}

/// Index into a sorted sample of size `n` that [`percentile`] reads, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least p% of the sample at
    // or below it.
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank - 1)
}

/// Sort a sample of finite values ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Median of a non-empty sample (mean of the middle pair for an even
/// count). Used for repeated whole-run measurements, which are too few
/// for [`percentile`].
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Lowest mean over consecutive slices of `len` values (the remainder
/// joins the last slice), and the number of slices; `None` when `values`
/// fill no slice. On a host whose other tenants take the CPU for
/// seconds at a time, whole-run means swing by 2× between runs while
/// the least-disturbed stretch holds still.
pub fn lowest_slice_mean(values: &[f64], len: usize) -> Option<(f64, usize)> {
    let slices = values.len() / len.max(1);
    let lowest = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                values.len()
            } else {
                (i + 1) * len
            };
            mean(&values[i * len..end])
        })
        .min_by(f64::total_cmp)?;
    Some((lowest, slices))
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// How one sent request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// `200` after this many seconds (measured from the scheduled send).
    Ok(f64),
    /// `429`: refused by admission control.
    Rejected,
    /// Any other status, or a transport error.
    Errored,
}

/// Share of `outcomes` that succeeded within `limit_s`. A refused or
/// failed request counts as a miss.
pub fn slo_attainment(outcomes: &[Outcome], limit_s: f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let met = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Ok(t) if *t <= limit_s))
        .count();
    met as f64 / outcomes.len() as f64
}

/// Time a request spent outside the serving worker: the client's round
/// trip minus the `wait + startup + compute` the server reports. This is
/// socket transfer, parsing, admission, the poller and response writing.
pub fn frontend_remainder(round_trip: f64, wait: f64, startup: f64, compute: f64) -> f64 {
    round_trip - (wait + startup + compute)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: the 990th value, with exactly ten beyond it.
        assert_eq!(percentile(&data, 99.0), Some(990.0));
        assert_eq!(percentile(&data, 50.0), Some(500.0));
        // 999 samples leave only nine beyond the p99 rank.
        assert_eq!(percentile(&data[..999], 99.0), None);
        assert_eq!(percentile(&data[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&data[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn lowest_slice_mean_skips_a_disturbed_stretch() {
        let mut values = vec![2.0; 1000];
        // A stall slows the first two slices.
        for v in &mut values[..500] {
            *v = 9.0;
        }
        values[999] = 6.0;
        assert_eq!(lowest_slice_mean(&values, 250), Some((2.0, 4)));
        // The remainder joins the last slice: 250..600 holds 250 slow
        // values and 100 fast ones.
        assert_eq!(lowest_slice_mean(&values[..600], 250), Some((7.0, 2)));
        assert_eq!(lowest_slice_mean(&values[..249], 250), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rejected_and_errored_requests_miss_the_slo() {
        let outcomes = [
            Outcome::Ok(0.010),
            Outcome::Ok(0.030),
            Outcome::Rejected,
            Outcome::Errored,
        ];
        // One of four met the 20 ms limit; the 429 and the error count
        // against it just like the slow 200.
        assert_eq!(slo_attainment(&outcomes, 0.020), 0.25);
        assert_eq!(slo_attainment(&outcomes, 0.050), 0.5);
        assert_eq!(slo_attainment(&[], 0.050), 0.0);
    }

    #[test]
    fn frontend_is_round_trip_minus_server_time() {
        let f = frontend_remainder(0.0040, 0.0005, 0.0010, 0.0015);
        assert!((f - 0.0010).abs() < 1e-12);
        // A warm request: no startup.
        let f = frontend_remainder(0.0020, 0.0002, 0.0, 0.0008);
        assert!((f - 0.0010).abs() < 1e-12);
    }
}
