//! Sample statistics and name validation.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so `compare.sh` and anyone re-deriving a
//! spread from the raw samples in `results.json` get the same numbers.

/// The median of `samples`, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// First and third quartile (exclusive method), or `None` under two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // Position i*(n+1)/4 on the 1-based sorted samples, clamped so
        // the interpolation never leaves the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)`, or `None` under twenty samples, where that
/// percentile would not lie above the median.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let k = n - 10;
    Some((100.0 * k as f64 / n as f64, s[k - 1]))
}

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_twenty_samples_and_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 75.0);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn names() {
        for ok in [
            "setup_s",
            "kernel.map_melems_s",
            "visit_data",
            "p99-9",
            "7up",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
