//! Adaptive Simpson quadrature.
//!
//! Used to cross-check the closed-form G-functions against their defining
//! integrals with arbitrary (not necessarily exponential) signal-duration
//! and computation-time distributions.

/// Integrates `f` over `[a, b]` by adaptive Simpson to absolute tolerance
/// `tol`.
///
/// Generic over the integrand (`?Sized`, so both concrete closures and
/// `&dyn Fn` trait objects work): the inner-loop callers monomorphize and
/// the per-evaluation indirect call disappears.
///
/// # Panics
///
/// Panics if the bounds are non-finite or `tol <= 0`.
///
/// # Examples
///
/// ```
/// let v = oaq_analytic::integrate::adaptive_simpson(&|x: f64| x * x, 0.0, 3.0, 1e-12);
/// assert!((v - 9.0).abs() < 1e-10);
/// ```
#[must_use]
pub fn adaptive_simpson<F>(f: &F, a: f64, b: f64, tol: f64) -> f64
where
    F: Fn(f64) -> f64 + ?Sized,
{
    assert!(a.is_finite() && b.is_finite(), "bounds must be finite");
    assert!(tol > 0.0, "tolerance must be positive");
    if a == b {
        return 0.0;
    }
    if b < a {
        return -adaptive_simpson(f, b, a, tol);
    }
    let c = 0.5 * (a + b);
    let fa = f(a);
    let fb = f(b);
    let fc = f(c);
    let whole = simpson(a, b, fa, fc, fb);
    recurse(f, a, b, fa, fc, fb, whole, tol, 0)
}

fn simpson(a: f64, b: f64, fa: f64, fc: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fc + fb)
}

#[allow(clippy::too_many_arguments)]
fn recurse<F>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fc: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64
where
    F: Fn(f64) -> f64 + ?Sized,
{
    let c = 0.5 * (a + b);
    let d = 0.5 * (a + c);
    let e = 0.5 * (c + b);
    let fd = f(d);
    let fe = f(e);
    let left = simpson(a, c, fa, fd, fc);
    let right = simpson(c, b, fc, fe, fb);
    let delta = left + right - whole;
    if depth >= 50 || delta.abs() <= 15.0 * tol {
        return left + right + delta / 15.0;
    }
    recurse(f, a, c, fa, fd, fc, left, tol / 2.0, depth + 1)
        + recurse(f, c, b, fc, fe, fb, right, tol / 2.0, depth + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_is_exact() {
        let v = adaptive_simpson(&|x| 3.0 * x * x + 2.0 * x + 1.0, -1.0, 2.0, 1e-12);
        assert!((v - 15.0).abs() < 1e-10);
    }

    #[test]
    fn exponential_integral() {
        let v = adaptive_simpson(&|x| (-x).exp(), 0.0, 10.0, 1e-12);
        assert!((v - (1.0 - (-10.0_f64).exp())).abs() < 1e-10);
    }

    #[test]
    fn oscillatory_integrand() {
        let v = adaptive_simpson(&f64::sin, 0.0, std::f64::consts::PI, 1e-12);
        assert!((v - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(adaptive_simpson(&|x| x, 2.0, 2.0, 1e-9), 0.0);
    }

    #[test]
    fn reversed_bounds_negate() {
        let fwd = adaptive_simpson(&|x| x, 0.0, 1.0, 1e-12);
        let rev = adaptive_simpson(&|x| x, 1.0, 0.0, 1e-12);
        assert!((fwd + rev).abs() < 1e-14);
    }

    #[test]
    fn sharp_kink_handled() {
        let v = adaptive_simpson(&|x: f64| x.abs(), -1.0, 1.0, 1e-10);
        assert!((v - 1.0).abs() < 1e-8);
    }

    #[test]
    fn dyn_wrapper_matches_monomorphized() {
        let f = |x: f64| (x * 1.7).cos() + x;
        let dynamic: &dyn Fn(f64) -> f64 = &f;
        let a = adaptive_simpson(&f, 0.0, 2.0, 1e-12);
        let b = adaptive_simpson(dynamic, 0.0, 2.0, 1e-12);
        assert_eq!(a.to_bits(), b.to_bits(), "same arithmetic, same bits");
    }
}
