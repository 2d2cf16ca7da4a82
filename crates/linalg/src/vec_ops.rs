//! Free functions on `&[f64]` vectors.
//!
//! These are deliberately plain functions (not a newtype) because callers in
//! the estimation and Markov-solver code paths work with `Vec<f64>` buffers
//! they own and index directly.

/// Normalizes `a` to sum to one (probability vector); returns `None` when the
/// sum is zero or non-finite.
#[must_use]
pub fn normalize_prob(a: &[f64]) -> Option<Vec<f64>> {
    let s: f64 = a.iter().sum();
    if !s.is_finite() || s <= 0.0 {
        return None;
    }
    Some(a.iter().map(|x| x / s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_prob_works() {
        assert_eq!(normalize_prob(&[1.0, 3.0]).unwrap(), vec![0.25, 0.75]);
        assert!(normalize_prob(&[0.0, 0.0]).is_none());
        assert!(normalize_prob(&[f64::INFINITY]).is_none());
    }
}
