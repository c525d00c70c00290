//! Technology rules for thin-film microstrip RFIC layout.

use serde::{Deserialize, Serialize};

/// Process/technology parameters that govern microstrip routing
/// (Sections 1–2 of the paper).
///
/// The defaults in [`Technology::cmos90`] follow the 90 nm CMOS numbers the
/// paper quotes: the microstrip rides on the top metal about `t ≈ 5 µm`
/// above the Metal-1 ground plane, coupling between strips is negligible
/// beyond `2t = 10 µm`, and every smoothed bend changes the equivalent
/// electrical length by `δ`.
///
/// # Examples
///
/// ```
/// let tech = rfic_netlist::Technology::cmos90();
/// assert_eq!(tech.spacing(), 10.0);
/// assert_eq!(tech.expansion_margin(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technology {
    /// Human-readable technology name.
    pub name: String,
    /// Distance `t` between the microstrip metal and its ground plane, in µm.
    pub ground_distance: f64,
    /// Width of every microstrip line, in µm.
    pub strip_width: f64,
    /// Equivalent-length correction `δ` applied per smoothed 90° bend, in µm.
    ///
    /// Obtained from RF simulation of the chamfered bend; a 45° chamfer of
    /// leg length `c` gives `δ = c·(√2 − 2) < 0`.
    pub bend_delta: f64,
    /// Minimum length of a non-degenerate microstrip segment, in µm.
    pub min_segment_length: f64,
    /// Edge length of a (square) bond pad, in µm.
    pub pad_size: f64,
    /// Relative permittivity of the SiO₂ between strip and ground plane.
    pub dielectric_constant: f64,
    /// Dielectric loss tangent used by the EM evaluation substrate.
    pub loss_tangent: f64,
}

impl Technology {
    /// The 90 nm CMOS thin-film microstrip technology used throughout the
    /// paper's evaluation.
    pub fn cmos90() -> Technology {
        Technology {
            name: "cmos90".to_owned(),
            ground_distance: 5.0,
            strip_width: 10.0,
            bend_delta: rfic_geom::chamfer_delta(5.0),
            min_segment_length: 5.0,
            pad_size: 60.0,
            dielectric_constant: 4.0,
            loss_tangent: 0.01,
        }
    }

    /// Required centre-to-centre spacing rule between microstrips/devices:
    /// twice the ground-plane distance (`2t`).
    #[inline]
    pub fn spacing(&self) -> f64 {
        2.0 * self.ground_distance
    }

    /// Margin by which each object's bounding box is expanded so that
    /// non-overlap of expanded boxes implies the spacing rule
    /// (Section 2.1, Figure 2(a)).
    #[inline]
    pub fn expansion_margin(&self) -> f64 {
        self.ground_distance
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::cmos90()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmos90_defaults_match_paper() {
        let t = Technology::cmos90();
        assert_eq!(t.ground_distance, 5.0);
        assert_eq!(t.spacing(), 10.0);
        assert_eq!(t.expansion_margin(), 5.0);
        assert!(t.bend_delta < 0.0, "chamfer shortens the path");
        assert_eq!(Technology::default(), t);
    }
}
