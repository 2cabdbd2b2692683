//! Evaluation metrics, including the paper's **downstream instability**
//! measure: the fraction of predictions that differ between two models
//! (Leszczynski et al., §3.1.2).

use fstore_common::{FsError, Result};

/// **Downstream instability**: the fraction of aligned predictions that
/// differ between two models (0 = identical behaviour, 1 = total disagreement).
pub fn prediction_flips(a: &[usize], b: &[usize]) -> Result<f64> {
    if a.len() != b.len() || a.is_empty() {
        return Err(FsError::Model(format!(
            "instability needs aligned non-empty predictions ({} vs {})",
            a.len(),
            b.len()
        )));
    }
    let flips = a.iter().zip(b).filter(|(x, y)| x != y).count();
    Ok(flips as f64 / a.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instability_metric() {
        assert_eq!(prediction_flips(&[0, 1, 2], &[0, 1, 2]).unwrap(), 0.0);
        assert_eq!(prediction_flips(&[0, 1, 2, 0], &[0, 2, 1, 0]).unwrap(), 0.5);
        assert_eq!(prediction_flips(&[0], &[1]).unwrap(), 1.0);
        assert!(prediction_flips(&[], &[]).is_err());
        assert!(prediction_flips(&[0], &[0, 1]).is_err());
    }
}
