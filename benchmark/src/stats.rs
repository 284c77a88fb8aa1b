//! The statistics the benchmark reports: per-unit minimum over reps,
//! medians, and the quartile spread the acceptance rule is stated in.

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) gives them, so spreads printed here match the acceptance
/// rule's arithmetic.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [1, 2, 3].map(|i| {
        // j = i*(n+1) div 4 clamped to [1, n-1]; interpolate between
        // the j-th and (j+1)-th order statistics.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark is accepted or refused on.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Best-of-R host time: the sum over units of each unit's minimum over
/// reps. `reps[r][u]` is unit `u`'s wall time in rep `r`. A noise burst
/// inflates a few units of one rep; each unit still has a clean sample
/// in another rep, so the sum of minima is far steadier than any rep
/// total.
///
/// # Panics
///
/// Panics when there are no reps or reps disagree on the unit count.
pub fn best_of(reps: &[Vec<f64>]) -> f64 {
    let units = reps.first().expect("at least one rep").len();
    assert!(
        reps.iter().all(|rep| rep.len() == units),
        "every rep covers the same unit list"
    );
    (0..units)
        .map(|u| reps.iter().map(|rep| rep[u]).fold(f64::INFINITY, f64::min))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7, 4, 1], n=4) == [1.5, 4.0, 8.5]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0, 4.0, 1.0]), [1.5, 4.0, 8.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartile_spread(&ten), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn best_of_takes_each_units_minimum() {
        // One rep has a burst on unit 0, the other on unit 1: the sum
        // of minima sees neither.
        let reps = vec![vec![9.0, 2.0, 3.0], vec![1.0, 8.0, 3.5]];
        assert_eq!(best_of(&reps), 1.0 + 2.0 + 3.0);
        assert_eq!(best_of(&[vec![1.5, 2.5]]), 4.0);
    }
}
