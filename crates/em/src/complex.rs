//! A minimal complex-number type for two-port network arithmetic.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number `re + j·im`.
///
/// # Examples
///
/// ```
/// use rfic_em::Complex;
///
/// let a = Complex::new(3.0, 4.0);
/// assert_eq!(a.magnitude(), 5.0);
/// let b = a * Complex::J;
/// assert_eq!(b, Complex::new(-4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `j`.
    pub const J: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from its parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Creates a purely real number.
    #[inline]
    pub const fn real(re: f64) -> Complex {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar form.
    #[inline]
    pub fn from_polar(magnitude: f64, phase: f64) -> Complex {
        Complex::new(magnitude * phase.cos(), magnitude * phase.sin())
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn magnitude(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    #[inline]
    pub fn magnitude_squared(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians.
    #[inline]
    pub fn phase(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn recip(self) -> Complex {
        let d = self.magnitude_squared();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Complex {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Complex hyperbolic cosine.
    #[inline]
    pub fn cosh(self) -> Complex {
        (self.exp() + (-self).exp()) * 0.5
    }

    /// Complex hyperbolic sine.
    #[inline]
    pub fn sinh(self) -> Complex {
        (self.exp() - (-self).exp()) * 0.5
    }

    /// Complex square root (principal branch).
    #[inline]
    pub fn sqrt(self) -> Complex {
        Complex::from_polar(self.magnitude().sqrt(), self.phase() / 2.0)
    }

    /// Magnitude in decibels (`20·log10|z|`).
    #[inline]
    pub fn db(self) -> f64 {
        20.0 * self.magnitude().max(1e-300).log10()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).magnitude() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(2.0, -3.0);
        let b = Complex::new(-1.0, 4.0);
        assert!(close(a + b, Complex::new(1.0, 1.0)));
        assert!(close(a - b, Complex::new(3.0, -7.0)));
        assert!(close(a * b, Complex::new(10.0, 11.0)));
        assert!(close(a / a, Complex::ONE));
        assert!(close(a * a.recip(), Complex::ONE));
        assert!(close(-a + a, Complex::ZERO));
        assert!(close(a * 2.0, Complex::new(4.0, -6.0)));
        assert!(close(a / 2.0, Complex::new(1.0, -1.5)));
    }

    #[test]
    fn polar_and_magnitude() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!(close(z, Complex::new(0.0, 2.0)));
        assert!((z.phase() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Complex::new(3.0, 4.0).magnitude(), 5.0);
        assert_eq!(Complex::new(3.0, 4.0).magnitude_squared(), 25.0);
    }

    #[test]
    fn exponential_and_hyperbolic() {
        // e^{jπ} = -1
        let e = (Complex::J * std::f64::consts::PI).exp();
        assert!(close(e, Complex::new(-1.0, 0.0)));
        // cosh² - sinh² = 1
        let z = Complex::new(0.3, 0.7);
        let id = z.cosh() * z.cosh() - z.sinh() * z.sinh();
        assert!(close(id, Complex::ONE));
        // sqrt(-1) = j
        assert!(close(Complex::real(-1.0).sqrt(), Complex::J));
    }

    #[test]
    fn decibels() {
        assert!((Complex::real(10.0).db() - 20.0).abs() < 1e-12);
        assert!((Complex::real(1.0).db()).abs() < 1e-12);
        assert!(Complex::ZERO.db() < -1000.0);
    }
}
