//! Integration tests of the Figure-11 style RF evaluation: the qualitative
//! relationships the paper's comparison relies on.

use rfic_layout::core::Layout;
use rfic_layout::em::{evaluate_layout, frequency_sweep, AmplifierSpec};
use rfic_layout::geom::{Point, Polyline};
use rfic_layout::netlist::benchmarks::BenchmarkCircuit;

/// A variant of a layout with every route replaced by a straight strip of
/// identical equivalent length (the "zero bends, same lengths" ideal).
fn straightened(netlist: &rfic_layout::netlist::Netlist, layout: &Layout) -> Layout {
    let mut out = layout.clone();
    for strip in netlist.microstrips() {
        let length = layout.equivalent_length(netlist, strip.id).unwrap();
        let start = layout.route(strip.id).unwrap().start();
        let route = Polyline::new(vec![start, Point::new(start.x + length, start.y)]).unwrap();
        out.routes.insert(strip.id, route);
    }
    out
}

#[test]
fn fewer_bends_never_reduce_the_gain_at_f0() {
    for bench in [BenchmarkCircuit::Lna94Ghz, BenchmarkCircuit::Buffer60Ghz] {
        let circuit = bench.circuit();
        let netlist = &circuit.netlist;
        let manual = Layout::from_witness(&circuit);
        let ideal = straightened(netlist, &manual);
        let f0 = bench.operating_frequency_ghz();
        let spec = if bench == BenchmarkCircuit::Buffer60Ghz {
            AmplifierSpec::buffer(f0)
        } else {
            AmplifierSpec::lna(f0)
        };
        let manual_gain = evaluate_layout(netlist, &manual, &spec, &[f0])[0].s21_db;
        let ideal_gain = evaluate_layout(netlist, &ideal, &spec, &[f0])[0].s21_db;
        assert!(
            ideal_gain >= manual_gain,
            "{bench}: removing bends must not reduce gain ({ideal_gain} vs {manual_gain})"
        );
        // The difference is in the sub-dB regime, like the paper's 0.2-0.7 dB.
        assert!(
            ideal_gain - manual_gain < 5.0,
            "{bench}: difference implausibly large"
        );
    }
}

#[test]
fn gain_peaks_near_the_operating_frequency_for_matched_layouts() {
    let bench = BenchmarkCircuit::Buffer60Ghz;
    let circuit = bench.circuit();
    let manual = Layout::from_witness(&circuit);
    let spec = AmplifierSpec::buffer(60.0);
    let sweep = evaluate_layout(
        &circuit.netlist,
        &manual,
        &spec,
        &frequency_sweep(45.0, 75.0, 61),
    );
    let peak = sweep
        .iter()
        .max_by(|a, b| a.s21_db.partial_cmp(&b.s21_db).unwrap())
        .unwrap();
    assert!(
        (peak.freq_ghz - 60.0).abs() <= 6.0,
        "gain peak at {} GHz should sit near 60 GHz",
        peak.freq_ghz
    );
    // Return loss is at its best (most negative) in the same region.
    let s11_at_peak = sweep
        .iter()
        .find(|p| (p.freq_ghz - peak.freq_ghz).abs() < 1e-9)
        .unwrap()
        .s11_db;
    let s11_at_edge = sweep.first().unwrap().s11_db;
    assert!(s11_at_peak <= s11_at_edge + 1e-9);
}

#[test]
fn length_mismatch_costs_gain() {
    let bench = BenchmarkCircuit::Lna94Ghz;
    let circuit = bench.circuit();
    let netlist = &circuit.netlist;
    let manual = Layout::from_witness(&circuit);
    // Add 80 µm of error to every strip by stretching its final segment.
    let mut detuned = manual.clone();
    for strip in netlist.microstrips() {
        let route = manual.route(strip.id).unwrap();
        let mut pts = route.points().to_vec();
        let n = pts.len();
        let dir = rfic_layout::geom::Direction::between(pts[n - 2], pts[n - 1])
            .unwrap_or(rfic_layout::geom::Direction::Right);
        pts[n - 1] = pts[n - 1] + dir.unit() * 80.0;
        detuned.routes.insert(strip.id, Polyline::new(pts).unwrap());
    }
    let spec = AmplifierSpec::lna(94.0);
    let matched = evaluate_layout(netlist, &manual, &spec, &[94.0])[0].s21_db;
    let mismatched = evaluate_layout(netlist, &detuned, &spec, &[94.0])[0].s21_db;
    assert!(
        matched > mismatched,
        "matched lengths must give more gain at f0 ({matched} vs {mismatched})"
    );
}
