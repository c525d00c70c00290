//! Quasi-static thin-film microstrip line model.
//!
//! Closed-form effective permittivity and characteristic impedance in the
//! Hammerstad style, plus simple conductor/dielectric loss terms. The
//! absolute accuracy of a field solver is not needed here: the Figure-11
//! reproduction only relies on the *relative* effect of length error and
//! bend count on the cascaded response.

use rfic_netlist::Technology;

use crate::complex::Complex;
use crate::twoport::Abcd;
use crate::SPEED_OF_LIGHT_UM_PER_S;

/// A thin-film microstrip line cross-section.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrostripModel {
    /// Strip width, µm.
    pub width: f64,
    /// Dielectric height above the ground plane (`t` in the paper), µm.
    pub height: f64,
    /// Relative permittivity of the dielectric.
    pub eps_r: f64,
    /// Dielectric loss tangent.
    pub loss_tangent: f64,
    /// Conductor sheet resistance proxy (ohm/square) used for conductor
    /// loss.
    pub sheet_resistance: f64,
}

impl MicrostripModel {
    /// Builds the model from the technology's microstrip parameters.
    pub fn from_technology(tech: &Technology) -> MicrostripModel {
        MicrostripModel {
            width: tech.strip_width,
            height: tech.ground_distance,
            eps_r: tech.dielectric_constant,
            loss_tangent: tech.loss_tangent,
            sheet_resistance: 0.03,
        }
    }

    /// Builds the model with an explicit strip width.
    pub fn with_width(tech: &Technology, width: f64) -> MicrostripModel {
        MicrostripModel {
            width,
            ..MicrostripModel::from_technology(tech)
        }
    }

    /// Effective permittivity (Hammerstad closed form).
    pub fn effective_permittivity(&self) -> f64 {
        let u = self.width / self.height;
        let term = if u >= 1.0 {
            (1.0 + 12.0 / u).powf(-0.5)
        } else {
            (1.0 + 12.0 / u).powf(-0.5) + 0.04 * (1.0 - u).powi(2)
        };
        (self.eps_r + 1.0) / 2.0 + (self.eps_r - 1.0) / 2.0 * term
    }

    /// Characteristic impedance in ohms (Hammerstad closed form).
    pub fn characteristic_impedance(&self) -> f64 {
        let u = self.width / self.height;
        let eps_eff = self.effective_permittivity();
        if u <= 1.0 {
            60.0 / eps_eff.sqrt() * (8.0 / u + u / 4.0).ln()
        } else {
            120.0 * std::f64::consts::PI / (eps_eff.sqrt() * (u + 1.393 + 0.667 * (u + 1.444).ln()))
        }
    }

    /// Guided wavelength at `freq_ghz`, in µm.
    pub fn wavelength(&self, freq_ghz: f64) -> f64 {
        SPEED_OF_LIGHT_UM_PER_S / (freq_ghz * 1e9) / self.effective_permittivity().sqrt()
    }

    /// Phase constant `β` in rad/µm at `freq_ghz`.
    pub fn beta(&self, freq_ghz: f64) -> f64 {
        2.0 * std::f64::consts::PI / self.wavelength(freq_ghz)
    }

    /// Attenuation constant `α` in Np/µm at `freq_ghz` (conductor +
    /// dielectric loss).
    pub fn alpha(&self, freq_ghz: f64) -> f64 {
        let z0 = self.characteristic_impedance();
        // Conductor loss with a sqrt(f) skin-effect dependence.
        let rs = self.sheet_resistance * (freq_ghz / 10.0).sqrt();
        let alpha_c = rs / (z0 * self.width);
        // Dielectric loss.
        let alpha_d = self.beta(freq_ghz) * self.loss_tangent / 2.0;
        alpha_c + alpha_d
    }

    /// Complex propagation constant `γ = α + jβ` per µm.
    pub fn gamma(&self, freq_ghz: f64) -> Complex {
        Complex::new(self.alpha(freq_ghz), self.beta(freq_ghz))
    }

    /// ABCD matrix of a straight line of `length` µm at `freq_ghz`.
    pub fn line(&self, length: f64, freq_ghz: f64) -> Abcd {
        Abcd::transmission_line(
            Complex::real(self.characteristic_impedance()),
            self.gamma(freq_ghz),
            length,
        )
    }
}

/// ABCD matrix of a (smoothed) 90° bend discontinuity at `freq_ghz`.
///
/// A right-angle bend adds excess shunt capacitance and series inductance;
/// chamfering (the diagonal cut of Figure 3) removes most of the
/// capacitance. The values below follow the usual first-order scaling with
/// strip width and effective permittivity.
pub fn bend_discontinuity(model: &MicrostripModel, freq_ghz: f64, chamfered: bool) -> Abcd {
    let w_mm = model.width * 1e-3;
    let eps_eff = model.effective_permittivity();
    // Excess capacitance of a right-angle bend, in pF; a 45° chamfer removes
    // roughly 70 % of it.
    let c_pf = (10.35 * eps_eff + 2.5) * w_mm * w_mm + (2.6 * eps_eff + 5.64) * w_mm * 1e-2;
    let c_pf = if chamfered { 0.3 * c_pf } else { c_pf };
    // Excess inductance in nH.
    let l_nh = 0.22 * w_mm * (1.0 - 1.35 * (-0.18_f64).exp() * 0.0) * 0.5;
    let omega = 2.0 * std::f64::consts::PI * freq_ghz * 1e9;
    let shunt_c = Abcd::shunt(Complex::new(0.0, omega * c_pf * 1e-12));
    let series_l = Abcd::series(Complex::new(0.05, omega * l_nh * 1e-9 * 0.5));
    series_l.cascade(shunt_c).cascade(series_l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twoport::abcd_to_s;

    fn model() -> MicrostripModel {
        MicrostripModel::from_technology(&Technology::cmos90())
    }

    #[test]
    fn effective_permittivity_is_between_one_and_eps_r() {
        let m = model();
        let e = m.effective_permittivity();
        assert!(e > 1.0 && e < m.eps_r, "eps_eff {e}");
    }

    #[test]
    fn impedance_decreases_with_width() {
        let tech = Technology::cmos90();
        let narrow = MicrostripModel::with_width(&tech, 5.0);
        let wide = MicrostripModel::with_width(&tech, 20.0);
        assert!(narrow.characteristic_impedance() > wide.characteristic_impedance());
        assert!(wide.characteristic_impedance() > 10.0);
        assert!(narrow.characteristic_impedance() < 150.0);
    }

    #[test]
    fn wavelength_and_beta_scale_with_frequency() {
        let m = model();
        let wl60 = m.wavelength(60.0);
        let wl94 = m.wavelength(94.0);
        assert!(wl94 < wl60);
        assert!((m.beta(60.0) * wl60 - 2.0 * std::f64::consts::PI).abs() < 1e-9);
        // At 94 GHz the guided wavelength on-chip is around 1-2 mm.
        assert!(wl94 > 800.0 && wl94 < 3000.0, "wavelength {wl94} µm");
    }

    #[test]
    fn loss_grows_with_frequency() {
        let m = model();
        assert!(m.alpha(94.0) > m.alpha(30.0));
        assert!(m.alpha(94.0) > 0.0);
        // A 1 mm line at 94 GHz should lose a fraction of a dB to a few dB.
        let s = abcd_to_s(m.line(1000.0, 94.0));
        let loss_db = -s.gain_db();
        assert!(loss_db > 0.01 && loss_db < 6.0, "1 mm loss {loss_db} dB");
    }

    #[test]
    fn line_is_passive_and_reciprocal() {
        let m = model();
        let s = abcd_to_s(m.line(500.0, 60.0));
        assert!(s.is_passive(1e-9));
        assert!(s.is_reciprocal(1e-9));
    }

    #[test]
    fn chamfered_bend_is_milder_than_right_angle() {
        let m = model();
        let sharp = abcd_to_s(bend_discontinuity(&m, 94.0, false));
        let smooth = abcd_to_s(bend_discontinuity(&m, 94.0, true));
        assert!(smooth.s11.magnitude() <= sharp.s11.magnitude());
        assert!(smooth.gain_db() >= sharp.gain_db() - 1e-12);
        assert!(smooth.gain_db() < 0.0, "a bend still loses a little signal");
    }
}
