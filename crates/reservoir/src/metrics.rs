//! Evaluation metrics for reservoir tasks.

/// Mean squared error between two equal-length series.
pub(crate) fn mse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    assert!(!predicted.is_empty(), "empty series");
    predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a).powi(2))
        .sum::<f64>()
        / predicted.len() as f64
}

/// Normalized root mean squared error: RMSE divided by the target's
/// standard deviation. 1.0 is the score of predicting the mean; good
/// reservoir solutions of NARMA-10 sit well below it.
pub fn nrmse(predicted: &[f64], actual: &[f64]) -> f64 {
    let m = mse(predicted, actual);
    let mean = actual.iter().sum::<f64>() / actual.len() as f64;
    let var = actual.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / actual.len() as f64;
    if var == 0.0 {
        return if m == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (m / var).sqrt()
}

/// Squared Pearson correlation between prediction and target — the
/// per-delay term of the memory-capacity measure.
pub(crate) fn squared_correlation(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "length mismatch");
    let n = predicted.len() as f64;
    let mp = predicted.iter().sum::<f64>() / n;
    let ma = actual.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vp = 0.0;
    let mut va = 0.0;
    for (p, a) in predicted.iter().zip(actual) {
        cov += (p - mp) * (a - ma);
        vp += (p - mp).powi(2);
        va += (a - ma).powi(2);
    }
    if vp == 0.0 || va == 0.0 {
        return 0.0;
    }
    (cov * cov) / (vp * va)
}

/// Fraction of symbol decisions that differ from the truth.
pub fn symbol_error_rate(predicted_symbols: &[f64], actual_symbols: &[f64]) -> f64 {
    assert_eq!(predicted_symbols.len(), actual_symbols.len(), "length mismatch");
    assert!(!predicted_symbols.is_empty(), "empty series");
    let errors = predicted_symbols
        .iter()
        .zip(actual_symbols)
        .filter(|(p, a)| (*p - *a).abs() > 1e-9)
        .count();
    errors as f64 / predicted_symbols.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(mse(&[1.0, 3.0], &[1.0, 1.0]), 2.0);
    }

    #[test]
    fn nrmse_of_mean_prediction_is_one() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let mean = [2.5; 4];
        assert!((nrmse(&mean, &actual) - 1.0).abs() < 1e-12);
        assert_eq!(nrmse(&actual, &actual), 0.0);
    }

    #[test]
    fn nrmse_constant_target() {
        assert_eq!(nrmse(&[5.0, 5.0], &[5.0, 5.0]), 0.0);
        assert_eq!(nrmse(&[5.0, 6.0], &[5.0, 5.0]), f64::INFINITY);
    }

    #[test]
    fn correlation_bounds() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let perfect = squared_correlation(&a, &a);
        assert!((perfect - 1.0).abs() < 1e-12);
        let anti: Vec<f64> = a.iter().map(|v| -v).collect();
        assert!((squared_correlation(&anti, &a) - 1.0).abs() < 1e-12);
        let flat = [1.0; 4];
        assert_eq!(squared_correlation(&flat, &a), 0.0);
    }

    #[test]
    fn ser_counts() {
        let pred = [1.0, -1.0, 3.0, 3.0];
        let act = [1.0, 1.0, 3.0, -3.0];
        assert_eq!(symbol_error_rate(&pred, &act), 0.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        mse(&[1.0], &[1.0, 2.0]);
    }
}
