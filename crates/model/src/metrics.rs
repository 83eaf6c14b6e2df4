//! Regression quality metrics.

/// Root mean squared error over `(prediction, truth)` pairs; 0 for an empty
/// iterator.
///
/// # Examples
///
/// ```
/// use nvhsm_model::rmse;
/// let e = rmse([(1.0, 2.0), (3.0, 3.0)].into_iter());
/// assert!((e - (0.5f64).sqrt()).abs() < 1e-12);
/// ```
pub fn rmse(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for (pred, truth) in pairs {
        sum += (pred - truth).powi(2);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).sqrt()
    }
}

/// Mean absolute percentage error (fractional, e.g. 0.05 = 5 %); pairs with
/// zero truth are skipped.
pub fn mape(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for (pred, truth) in pairs {
        if truth != 0.0 {
            sum += ((pred - truth) / truth).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(std::iter::empty()), 0.0);
        assert_eq!(rmse([(2.0, 2.0)].into_iter()), 0.0);
        assert!((rmse([(0.0, 3.0), (0.0, 4.0)].into_iter()) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_truth() {
        let e = mape([(1.0, 0.0), (110.0, 100.0)].into_iter());
        assert!((e - 0.1).abs() < 1e-12);
        assert_eq!(mape(std::iter::empty()), 0.0);
    }
}
