//! Dimensioned newtypes for orbital quantities.
//!
//! Mixing minutes with radians or kilometers with degrees is the classic
//! orbital-software bug; these zero-cost wrappers keep interpretations
//! statically distinct (C-NEWTYPE).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

macro_rules! scalar_newtype {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            /// Returns the raw scalar value.
            #[must_use]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// `true` when the value is finite (not NaN/∞).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.4}", $unit), self.0)
            }
        }
    };
}

scalar_newtype!(
    /// A duration or instant measured in minutes (the paper's time unit for
    /// τ, Tc, Tr, µ⁻¹ and ν⁻¹).
    Minutes,
    "min"
);

scalar_newtype!(
    /// A distance in kilometers.
    Km,
    "km"
);

scalar_newtype!(
    /// An angle in radians.
    Radians,
    "rad"
);

scalar_newtype!(
    /// An angle in degrees.
    Degrees,
    "deg"
);

impl Radians {
    /// Converts to degrees.
    #[must_use]
    pub fn to_degrees(self) -> Degrees {
        Degrees(self.0.to_degrees())
    }

    /// Wraps into `[0, 2π)`.
    #[must_use]
    pub fn wrap_two_pi(self) -> Radians {
        let two_pi = std::f64::consts::TAU;
        let mut x = self.0 % two_pi;
        if x < 0.0 {
            x += two_pi;
        }
        Radians(x)
    }

    /// Wraps into `(-π, π]`.
    #[must_use]
    pub fn wrap_pi(self) -> Radians {
        let w = self.wrap_two_pi().0;
        if w > std::f64::consts::PI {
            Radians(w - std::f64::consts::TAU)
        } else {
            Radians(w)
        }
    }

    /// Sine.
    #[must_use]
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine.
    #[must_use]
    pub fn cos(self) -> f64 {
        self.0.cos()
    }
}

impl Degrees {
    /// Converts to radians.
    #[must_use]
    pub fn to_radians(self) -> Radians {
        Radians(self.0.to_radians())
    }
}

impl From<Degrees> for Radians {
    fn from(d: Degrees) -> Radians {
        d.to_radians()
    }
}

impl From<Radians> for Degrees {
    fn from(r: Radians) -> Degrees {
        r.to_degrees()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn arithmetic_preserves_units() {
        let t = Minutes(3.0) + Minutes(4.5);
        assert_eq!(t, Minutes(7.5));
        assert_eq!(Minutes(9.0) / Minutes(3.0), 3.0);
        assert_eq!(Km(2.0) * 3.0, Km(6.0));
        assert_eq!(-Minutes(1.0), Minutes(-1.0));
    }

    #[test]
    fn degree_radian_roundtrip() {
        let d = Degrees(30.0);
        let back: Degrees = Radians::from(d).into();
        assert!((back.value() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_two_pi_handles_negatives() {
        assert!((Radians(-PI / 2.0).wrap_two_pi().value() - 1.5 * PI).abs() < 1e-12);
        assert!((Radians(5.0 * PI).wrap_two_pi().value() - PI).abs() < 1e-12);
    }

    #[test]
    fn wrap_pi_is_symmetric() {
        assert!((Radians(1.5 * PI).wrap_pi().value() + 0.5 * PI).abs() < 1e-12);
        assert!((Radians(0.25 * PI).wrap_pi().value() - 0.25 * PI).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Minutes(9.0)), "9.0000min");
        assert_eq!(format!("{}", Km(1.5)), "1.5000km");
    }

    #[test]
    fn abs_and_finite() {
        assert_eq!(Minutes(-2.0).abs(), Minutes(2.0));
        assert!(Minutes(1.0).is_finite());
        assert!(!Minutes(f64::NAN).is_finite());
    }
}
