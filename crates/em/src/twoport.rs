//! Two-port network arithmetic: ABCD matrices, S-parameters and wave
//! cascading.

use crate::complex::Complex;
use crate::REFERENCE_IMPEDANCE;

/// An ABCD (chain) matrix of a two-port network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Abcd {
    /// A element.
    pub a: Complex,
    /// B element (ohms).
    pub b: Complex,
    /// C element (siemens).
    pub c: Complex,
    /// D element.
    pub d: Complex,
}

impl Abcd {
    /// The identity two-port (a zero-length through connection).
    pub fn identity() -> Abcd {
        Abcd {
            a: Complex::ONE,
            b: Complex::ZERO,
            c: Complex::ZERO,
            d: Complex::ONE,
        }
    }

    /// A series impedance `z`.
    pub fn series(z: Complex) -> Abcd {
        Abcd {
            a: Complex::ONE,
            b: z,
            c: Complex::ZERO,
            d: Complex::ONE,
        }
    }

    /// A shunt admittance `y`.
    pub fn shunt(y: Complex) -> Abcd {
        Abcd {
            a: Complex::ONE,
            b: Complex::ZERO,
            c: y,
            d: Complex::ONE,
        }
    }

    /// A transmission line with characteristic impedance `z0`, propagation
    /// constant `gamma` (per µm) and length `length` µm.
    pub fn transmission_line(z0: Complex, gamma: Complex, length: f64) -> Abcd {
        let gl = gamma * length;
        let cosh = gl.cosh();
        let sinh = gl.sinh();
        Abcd {
            a: cosh,
            b: z0 * sinh,
            c: sinh / z0,
            d: cosh,
        }
    }

    /// Cascades `self` followed by `next` (matrix product).
    pub fn cascade(self, next: Abcd) -> Abcd {
        Abcd {
            a: self.a * next.a + self.b * next.c,
            b: self.a * next.b + self.b * next.d,
            c: self.c * next.a + self.d * next.c,
            d: self.c * next.b + self.d * next.d,
        }
    }

    /// Converts to S-parameters with the given reference impedance.
    pub fn to_sparams(self, z0: f64) -> SParams {
        let z0c = Complex::real(z0);
        let denom = self.a + self.b / z0c + self.c * z0c + self.d;
        SParams {
            s11: (self.a + self.b / z0c - self.c * z0c - self.d) / denom,
            s12: (self.a * self.d - self.b * self.c) * 2.0 / denom,
            s21: Complex::real(2.0) / denom,
            s22: (self.d + self.b / z0c - self.c * z0c - self.a) / denom,
        }
    }
}

/// Scattering parameters of a two-port network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SParams {
    /// Input reflection coefficient.
    pub s11: Complex,
    /// Reverse transmission coefficient.
    pub s12: Complex,
    /// Forward transmission coefficient.
    pub s21: Complex,
    /// Output reflection coefficient.
    pub s22: Complex,
}

impl SParams {
    /// A perfectly matched through connection.
    pub fn through() -> SParams {
        SParams {
            s11: Complex::ZERO,
            s12: Complex::ONE,
            s21: Complex::ONE,
            s22: Complex::ZERO,
        }
    }

    /// An ideal unilateral amplifier stage with forward gain `s21` and
    /// identical port reflection `reflection`.
    pub fn amplifier(s21: Complex, reflection: Complex) -> SParams {
        SParams {
            s11: reflection,
            s12: Complex::new(1e-4, 0.0),
            s21,
            s22: reflection,
        }
    }

    /// Cascades two S-parameter blocks via wave (T) matrices.
    pub fn cascade(self, next: SParams) -> SParams {
        t_to_s(t_mul(s_to_t(self), s_to_t(next)))
    }

    /// Forward gain in dB.
    pub fn gain_db(&self) -> f64 {
        self.s21.db()
    }

    /// Input return loss in dB (negative for a good match).
    pub fn s11_db(&self) -> f64 {
        self.s11.db()
    }

    /// Output return loss in dB (negative for a good match).
    pub fn s22_db(&self) -> f64 {
        self.s22.db()
    }

    /// `true` if the block is passive (no |S| entry exceeds 1 + tol).
    pub fn is_passive(&self, tol: f64) -> bool {
        self.s11.magnitude() <= 1.0 + tol
            && self.s12.magnitude() <= 1.0 + tol
            && self.s21.magnitude() <= 1.0 + tol
            && self.s22.magnitude() <= 1.0 + tol
    }

    /// `true` if the block is reciprocal (S12 == S21 within tol).
    pub fn is_reciprocal(&self, tol: f64) -> bool {
        (self.s12 - self.s21).magnitude() <= tol
    }
}

type T = [[Complex; 2]; 2];

fn s_to_t(s: SParams) -> T {
    let inv_s21 = s.s21.recip();
    [
        [(s.s12 * s.s21 - s.s11 * s.s22) * inv_s21, s.s11 * inv_s21],
        [-(s.s22) * inv_s21, inv_s21],
    ]
}

fn t_to_s(t: T) -> SParams {
    let inv_t22 = t[1][1].recip();
    SParams {
        s11: t[0][1] * inv_t22,
        s21: inv_t22,
        s22: -(t[1][0]) * inv_t22,
        s12: (t[0][0] * t[1][1] - t[0][1] * t[1][0]) * inv_t22,
    }
}

fn t_mul(x: T, y: T) -> T {
    [
        [
            x[0][0] * y[0][0] + x[0][1] * y[1][0],
            x[0][0] * y[0][1] + x[0][1] * y[1][1],
        ],
        [
            x[1][0] * y[0][0] + x[1][1] * y[1][0],
            x[1][0] * y[0][1] + x[1][1] * y[1][1],
        ],
    ]
}

/// Converts an ABCD block to S-parameters at the crate reference impedance.
pub fn abcd_to_s(abcd: Abcd) -> SParams {
    abcd.to_sparams(REFERENCE_IMPEDANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).magnitude() < 1e-9
    }

    #[test]
    fn identity_is_a_perfect_through() {
        let s = abcd_to_s(Abcd::identity());
        assert!(close(s.s11, Complex::ZERO));
        assert!(close(s.s21, Complex::ONE));
        assert!(s.is_passive(1e-9));
        assert!(s.is_reciprocal(1e-9));
    }

    #[test]
    fn series_matched_impedance_attenuates() {
        // A series 50 ohm resistor between 50 ohm ports: S21 = 2*50/(2*50+50) = 2/3.
        let s = abcd_to_s(Abcd::series(Complex::real(50.0)));
        assert!((s.s21.magnitude() - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.s11.magnitude() - 1.0 / 3.0).abs() < 1e-9);
        assert!(s.is_passive(1e-9));
    }

    #[test]
    fn lossless_quarter_wave_line_is_unitary() {
        // Quarter-wave 50 ohm line: |S21| = 1, S11 = 0, 90 degree phase shift.
        let beta = 2.0 * std::f64::consts::PI / 1000.0; // wavelength 1000 µm
        let line = Abcd::transmission_line(Complex::real(50.0), Complex::new(0.0, beta), 250.0);
        let s = abcd_to_s(line);
        assert!((s.s21.magnitude() - 1.0).abs() < 1e-9);
        assert!(s.s11.magnitude() < 1e-9);
        assert!((s.s21.phase() + std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn mismatched_line_reflects() {
        let beta = 2.0 * std::f64::consts::PI / 1000.0;
        let line = Abcd::transmission_line(Complex::real(25.0), Complex::new(0.0, beta), 250.0);
        let s = abcd_to_s(line);
        assert!(
            s.s11.magnitude() > 0.1,
            "quarter-wave transformer mismatch reflects"
        );
        assert!(s.is_passive(1e-9));
    }

    #[test]
    fn abcd_cascade_matches_s_cascade() {
        let beta = 2.0 * std::f64::consts::PI / 800.0;
        let a = Abcd::transmission_line(Complex::real(40.0), Complex::new(1e-5, beta), 300.0);
        let b = Abcd::series(Complex::new(5.0, 12.0));
        let via_abcd = abcd_to_s(a.cascade(b));
        let via_s = abcd_to_s(a).cascade(abcd_to_s(b));
        assert!(close(via_abcd.s21, via_s.s21));
        assert!(close(via_abcd.s11, via_s.s11));
        assert!(close(via_abcd.s22, via_s.s22));
        assert!(close(via_abcd.s12, via_s.s12));
    }

    #[test]
    fn amplifier_block_is_active_and_non_reciprocal() {
        let s = SParams::amplifier(Complex::real(8.0), Complex::real(0.1));
        assert!(!s.is_passive(1e-3));
        assert!(!s.is_reciprocal(1e-3));
        assert!((s.gain_db() - 18.06).abs() < 0.1);
        // Cascading with a through leaves it unchanged.
        let c = s.cascade(SParams::through());
        assert!(close(c.s21, s.s21));
        assert!(close(c.s11, s.s11));
    }

    #[test]
    fn lossy_line_has_negative_gain_db() {
        let gamma = Complex::new(2e-4, 2.0 * std::f64::consts::PI / 900.0);
        let s = abcd_to_s(Abcd::transmission_line(Complex::real(50.0), gamma, 500.0));
        assert!(s.gain_db() < 0.0);
        assert!(s.is_passive(1e-9));
    }
}
