//! Behavioural amplifier evaluation of a routed layout (Figure 11).
//!
//! The paper compares the RF performance of the manual and P-ILP layouts of
//! two circuits with a commercial EM simulator. Here the amplifier is
//! modelled as a cascade of
//!
//! * the routed microstrips of the layout (using their **actual** routed
//!   equivalent lengths and bend counts),
//! * chamfered-bend discontinuities for every bend, and
//! * behavioural active stages whose matching networks are tuned to the
//!   *target* lengths at the operating frequency.
//!
//! A layout that matches every target length keeps the gain peak at the
//! operating frequency; leftover length error detunes the response and
//! every extra bend adds a little loss and reflection — exactly the
//! qualitative dependence Figure 11 demonstrates.

use rfic_core::Layout;
use rfic_netlist::Netlist;

use crate::complex::Complex;
use crate::microstrip::{bend_discontinuity, MicrostripModel};
use crate::twoport::{abcd_to_s, SParams};

/// Behavioural description of the amplifier under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplifierSpec {
    /// Operating frequency, GHz.
    pub operating_frequency_ghz: f64,
    /// Number of active gain stages.
    pub stages: usize,
    /// Small-signal gain per stage at the operating frequency, dB.
    pub stage_gain_db: f64,
    /// Quality factor of the per-stage matching resonance (controls how
    /// quickly gain and match degrade off-frequency).
    pub match_q: f64,
}

impl AmplifierSpec {
    /// A low-noise-amplifier-like template (three stages, ~24 dB raw gain)
    /// at the given operating frequency.
    pub fn lna(operating_frequency_ghz: f64) -> AmplifierSpec {
        AmplifierSpec {
            operating_frequency_ghz,
            stages: 3,
            stage_gain_db: 8.5,
            match_q: 5.0,
        }
    }

    /// A buffer-like template (two stages) at the given operating frequency.
    pub fn buffer(operating_frequency_ghz: f64) -> AmplifierSpec {
        AmplifierSpec {
            operating_frequency_ghz,
            stages: 2,
            stage_gain_db: 10.5,
            match_q: 4.0,
        }
    }

    /// S-parameters of one active stage at `freq_ghz`.
    fn stage(&self, freq_ghz: f64) -> SParams {
        let f0 = self.operating_frequency_ghz;
        // Single-tuned resonator response for the stage gain.
        let detune = self.match_q * (freq_ghz / f0 - f0 / freq_ghz);
        let shape = Complex::ONE / Complex::new(1.0, detune);
        let g0 = 10f64.powf(self.stage_gain_db / 20.0);
        let s21 = shape * g0;
        // Port match is perfect at f0 and degrades off-frequency.
        let reflection = Complex::new(0.05, 0.6 * detune / (1.0 + detune.abs()));
        SParams::amplifier(s21, reflection)
    }
}

/// One point of a frequency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Frequency, GHz.
    pub freq_ghz: f64,
    /// Input return loss S11, dB.
    pub s11_db: f64,
    /// Forward gain S21, dB.
    pub s21_db: f64,
    /// Output return loss S22, dB.
    pub s22_db: f64,
}

/// Evaluates the S-parameters of `layout` against `netlist` over the given
/// frequencies.
///
/// The routed strips are split evenly into `stages + 1` passive groups
/// (input match, inter-stage networks, output match) in netlist order, with
/// an active stage between consecutive groups. Strips that are missing from
/// the layout fall back to their target length with zero bends.
pub fn evaluate_layout(
    netlist: &Netlist,
    layout: &Layout,
    spec: &AmplifierSpec,
    frequencies_ghz: &[f64],
) -> Vec<SweepPoint> {
    let tech = netlist.tech();
    let delta = tech.bend_delta;
    let strips: Vec<(f64, usize, f64)> = netlist
        .microstrips()
        .iter()
        .map(|m| {
            let length = layout
                .equivalent_length(netlist, m.id)
                .unwrap_or(m.target_length);
            let bends = layout.bend_count(m.id);
            (length, bends, m.width(tech.strip_width))
        })
        .collect();

    let groups = spec.stages + 1;
    let per_group = strips.len().div_ceil(groups.max(1)).max(1);

    frequencies_ghz
        .iter()
        .map(|&freq_ghz| {
            let mut total: Option<SParams> = None;
            let cascade = |s: SParams, total: &mut Option<SParams>| {
                *total = Some(match total.take() {
                    None => s,
                    Some(t) => t.cascade(s),
                });
            };
            for (g, chunk) in strips.chunks(per_group).enumerate() {
                for &(length, bends, width) in chunk {
                    let model = MicrostripModel::with_width(tech, width);
                    // The bend correction δ is already inside the equivalent
                    // length; the discontinuity block models the residual
                    // parasitics of each chamfered corner.
                    let geometric = (length - bends as f64 * delta).max(1.0);
                    let line = model.line(geometric, freq_ghz);
                    cascade(abcd_to_s(line), &mut total);
                    for _ in 0..bends {
                        cascade(
                            abcd_to_s(bend_discontinuity(&model, freq_ghz, true)),
                            &mut total,
                        );
                    }
                }
                if g + 1 < groups {
                    cascade(spec.stage(freq_ghz), &mut total);
                }
            }
            // Make sure every active stage is present even if there were
            // fewer strip groups than stages.
            let applied_stages = (strips.len().div_ceil(per_group)).saturating_sub(1);
            for _ in applied_stages..spec.stages {
                cascade(spec.stage(freq_ghz), &mut total);
            }
            let s = total.unwrap_or_else(SParams::through);
            SweepPoint {
                freq_ghz,
                s11_db: s.s11_db(),
                s21_db: s.gain_db(),
                s22_db: s.s22_db(),
            }
        })
        .collect()
}

/// Convenience: an inclusive linear frequency sweep.
pub fn frequency_sweep(start_ghz: f64, stop_ghz: f64, points: usize) -> Vec<f64> {
    let points = points.max(2);
    (0..points)
        .map(|i| start_ghz + (stop_ghz - start_ghz) * i as f64 / (points - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_netlist::benchmarks;

    #[test]
    fn sweep_produces_a_gain_peak_near_the_operating_frequency() {
        let circuit = benchmarks::small_circuit();
        let layout = Layout::from_witness(&circuit);
        let spec = AmplifierSpec::lna(60.0);
        let freqs = frequency_sweep(40.0, 80.0, 41);
        let sweep = evaluate_layout(&circuit.netlist, &layout, &spec, &freqs);
        assert_eq!(sweep.len(), 41);
        let peak = sweep
            .iter()
            .max_by(|a, b| a.s21_db.partial_cmp(&b.s21_db).unwrap())
            .unwrap();
        assert!(
            (peak.freq_ghz - 60.0).abs() <= 6.0,
            "gain peaks near the operating frequency, got {} GHz",
            peak.freq_ghz
        );
        assert!(peak.s21_db > 5.0, "peak gain {} dB", peak.s21_db);
        // Gain falls off away from the peak.
        assert!(sweep.first().unwrap().s21_db < peak.s21_db - 3.0);
        assert!(sweep.last().unwrap().s21_db < peak.s21_db - 3.0);
    }

    #[test]
    fn more_bends_mean_less_gain() {
        let circuit = benchmarks::small_circuit();
        let netlist = &circuit.netlist;
        let layout = Layout::from_witness(&circuit);
        // A hypothetical layout with identical lengths but zero bends.
        let mut ideal = layout.clone();
        for strip in netlist.microstrips() {
            let route = &circuit.witness.routes[&strip.id];
            let straight = rfic_geom::Polyline::new(vec![
                route.start(),
                rfic_geom::Point::new(route.start().x + strip.target_length, route.start().y),
            ])
            .unwrap();
            ideal.routes.insert(strip.id, straight);
        }
        let spec = AmplifierSpec::lna(60.0);
        let freqs = [60.0];
        let with_bends = evaluate_layout(netlist, &layout, &spec, &freqs)[0].s21_db;
        let without_bends = evaluate_layout(netlist, &ideal, &spec, &freqs)[0].s21_db;
        assert!(
            without_bends >= with_bends,
            "bend-free layout should not have lower gain ({without_bends} vs {with_bends})"
        );
    }

    #[test]
    fn length_error_detunes_the_response() {
        let circuit = benchmarks::small_circuit();
        let netlist = &circuit.netlist;
        let layout = Layout::from_witness(&circuit);
        // Stretch every route by translating its endpoint 60 µm further out.
        let mut detuned = layout.clone();
        for (_, route) in detuned.routes.iter_mut() {
            let mut pts = route.points().to_vec();
            let n = pts.len();
            let dir = rfic_geom::Direction::between(pts[n - 2], pts[n - 1])
                .unwrap_or(rfic_geom::Direction::Right);
            pts[n - 1] = pts[n - 1] + dir.unit() * 60.0;
            *route = rfic_geom::Polyline::new(pts).unwrap();
        }
        let spec = AmplifierSpec::lna(60.0);
        let f0 = [60.0];
        let matched = evaluate_layout(netlist, &layout, &spec, &f0)[0].s21_db;
        let mismatched = evaluate_layout(netlist, &detuned, &spec, &f0)[0].s21_db;
        assert!(
            matched > mismatched,
            "length-matched layout should have more gain at f0 ({matched} vs {mismatched})"
        );
    }

    #[test]
    fn missing_routes_fall_back_to_target_lengths() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let empty = Layout::new(netlist.area());
        let spec = AmplifierSpec::buffer(60.0);
        let sweep = evaluate_layout(netlist, &empty, &spec, &[55.0, 60.0, 65.0]);
        assert_eq!(sweep.len(), 3);
        assert!(sweep.iter().all(|p| p.s21_db.is_finite()));
    }

    #[test]
    fn frequency_sweep_helper() {
        let f = frequency_sweep(10.0, 20.0, 5);
        assert_eq!(f, vec![10.0, 12.5, 15.0, 17.5, 20.0]);
        assert_eq!(frequency_sweep(1.0, 2.0, 1).len(), 2);
    }
}
