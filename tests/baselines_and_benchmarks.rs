//! Integration tests of the benchmark circuits, baselines and reference
//! data (the Table-1 scaffolding).

use rfic_layout::baseline::{published_table1, sequential_layout, SequentialOptions};
use rfic_layout::core::{drc_check, DrcOptions, Layout, LayoutReport};
use rfic_layout::netlist::benchmarks::{AreaSetting, BenchmarkCircuit};
use std::time::Duration;

#[test]
fn benchmark_circuits_match_the_published_instance_sizes() {
    let published = published_table1();
    for bench in BenchmarkCircuit::ALL {
        let stats = bench.circuit().netlist.stats();
        let row = published
            .iter()
            .find(|r| r.circuit == bench.name() && r.area == bench.area(AreaSetting::Original))
            .expect("published row exists");
        assert_eq!(stats.num_microstrips, row.num_microstrips, "{bench}");
        assert_eq!(stats.num_devices, row.num_devices, "{bench}");
    }
}

#[test]
fn manual_witnesses_of_all_benchmarks_are_exact_and_clean() {
    for bench in BenchmarkCircuit::ALL {
        let circuit = bench.circuit();
        let layout = Layout::from_witness(&circuit);
        let report = LayoutReport::new(&circuit.netlist, &layout, Duration::ZERO);
        assert!(report.drc_clean, "{bench}: manual layout must be DRC clean");
        assert!(
            report.lengths_matched(1e-6),
            "{bench}: manual layout must be length exact"
        );
        // The witness bend counts sit in the same regime as the published
        // manual layouts (59 / 27 / 31 total bends).
        assert!(report.total_bends >= 15, "{bench}: {}", report.total_bends);
        assert!(report.max_bends >= 4, "{bench}: {}", report.max_bends);
    }
}

#[test]
fn sequential_flow_cannot_match_lengths_on_any_benchmark() {
    for bench in BenchmarkCircuit::ALL {
        let circuit = bench.circuit();
        let layout = sequential_layout(&circuit.netlist, &SequentialOptions::default());
        assert!(layout.is_complete(&circuit.netlist), "{bench}");
        assert!(
            layout.max_length_error(&circuit.netlist) > 5.0,
            "{bench}: a placement-then-route flow should not accidentally match exact lengths"
        );
    }
}

#[test]
fn reduced_area_settings_are_strictly_smaller() {
    for bench in BenchmarkCircuit::ALL {
        let (ow, oh) = bench.area(AreaSetting::Original);
        let (rw, rh) = bench.area(AreaSetting::Reduced);
        assert!(rw < ow && rh < oh, "{bench}");
        // The witness still fits the reduced area (feasibility of the
        // stress setting is guaranteed by construction).
        let circuit = bench.circuit();
        let reduced = circuit.netlist.with_area(rw, rh);
        let layout = Layout::from_witness(&circuit);
        let drc = drc_check(&reduced, &layout, &DrcOptions::default());
        assert!(
            drc.is_clean(),
            "{bench} witness in the reduced area:\n{drc}"
        );
    }
}
