//! The published Table-1 numbers of the paper, kept as reference data so the
//! benchmark harness can print the reproduction next to the original.

use std::time::Duration;

/// One published row of Table 1 (one circuit at one area setting).
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedRow {
    /// Circuit name as printed in the paper.
    pub circuit: &'static str,
    /// Number of microstrips.
    pub num_microstrips: usize,
    /// Number of devices.
    pub num_devices: usize,
    /// Layout area (µm × µm).
    pub area: (f64, f64),
    /// Manual layout maximum bend count (`None` for the reduced-area rows,
    /// which have no manual counterpart).
    pub manual_max_bends: Option<usize>,
    /// Manual layout total bend count.
    pub manual_total_bends: Option<usize>,
    /// Manual layout design time.
    pub manual_runtime: Option<Duration>,
    /// P-ILP maximum bend count.
    pub pilp_max_bends: usize,
    /// P-ILP total bend count.
    pub pilp_total_bends: usize,
    /// P-ILP runtime.
    pub pilp_runtime: Duration,
}

const WEEK: Duration = Duration::from_secs(7 * 24 * 3600);

/// The six published rows of Table 1.
pub fn published_table1() -> Vec<PublishedRow> {
    vec![
        PublishedRow {
            circuit: "94 GHz LNA",
            num_microstrips: 25,
            num_devices: 34,
            area: (890.0, 615.0),
            manual_max_bends: Some(9),
            manual_total_bends: Some(59),
            manual_runtime: Some(WEEK * 2),
            pilp_max_bends: 4,
            pilp_total_bends: 22,
            pilp_runtime: Duration::from_secs(18 * 60 + 5),
        },
        PublishedRow {
            circuit: "94 GHz LNA",
            num_microstrips: 25,
            num_devices: 34,
            area: (845.0, 580.0),
            manual_max_bends: None,
            manual_total_bends: None,
            manual_runtime: None,
            pilp_max_bends: 5,
            pilp_total_bends: 29,
            pilp_runtime: Duration::from_secs(28 * 60 + 13),
        },
        PublishedRow {
            circuit: "60 GHz Buffer",
            num_microstrips: 14,
            num_devices: 26,
            area: (595.0, 850.0),
            manual_max_bends: Some(4),
            manual_total_bends: Some(27),
            manual_runtime: Some(WEEK),
            pilp_max_bends: 3,
            pilp_total_bends: 7,
            pilp_runtime: Duration::from_secs(4 * 60 + 22),
        },
        PublishedRow {
            circuit: "60 GHz Buffer",
            num_microstrips: 14,
            num_devices: 26,
            area: (505.0, 720.0),
            manual_max_bends: None,
            manual_total_bends: None,
            manual_runtime: None,
            pilp_max_bends: 3,
            pilp_total_bends: 13,
            pilp_runtime: Duration::from_secs(19 * 60 + 20),
        },
        PublishedRow {
            circuit: "60 GHz LNA",
            num_microstrips: 19,
            num_devices: 28,
            area: (600.0, 855.0),
            manual_max_bends: Some(4),
            manual_total_bends: Some(31),
            manual_runtime: Some(WEEK),
            pilp_max_bends: 2,
            pilp_total_bends: 10,
            pilp_runtime: Duration::from_secs(6 * 60 + 17),
        },
        PublishedRow {
            circuit: "60 GHz LNA",
            num_microstrips: 19,
            num_devices: 28,
            area: (570.0, 810.0),
            manual_max_bends: None,
            manual_total_bends: None,
            manual_runtime: None,
            pilp_max_bends: 5,
            pilp_total_bends: 18,
            pilp_runtime: Duration::from_secs(7 * 60 + 12),
        },
    ]
}

/// Published Figure-11 headline gains (dB) at the operating frequency:
/// `(circuit, manual S21, P-ILP S21)`.
pub fn published_figure11_gains() -> Vec<(&'static str, f64, f64)> {
    vec![
        ("94 GHz LNA", 17.196, 17.912),
        ("60 GHz Buffer", 16.791, 16.998),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_rows_with_consistent_shapes() {
        let rows = published_table1();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            // P-ILP never has more bends than the manual design at equal area.
            if let (Some(max), Some(total)) = (row.manual_max_bends, row.manual_total_bends) {
                assert!(row.pilp_max_bends <= max);
                assert!(row.pilp_total_bends < total);
                assert!(row.manual_runtime.unwrap() > row.pilp_runtime);
            }
            assert!(
                row.pilp_runtime < Duration::from_secs(30 * 60),
                "under half an hour"
            );
            assert!(row.area.0 > 0.0 && row.area.1 > 0.0);
        }
    }

    #[test]
    fn reduced_area_rows_have_no_manual_counterpart() {
        let rows = published_table1();
        let reduced: Vec<_> = rows
            .iter()
            .filter(|r| r.manual_total_bends.is_none())
            .collect();
        assert_eq!(reduced.len(), 3);
    }

    #[test]
    fn figure11_gains_favour_pilp() {
        for (name, manual, pilp) in published_figure11_gains() {
            assert!(pilp > manual, "{name}: P-ILP gain should exceed manual");
        }
    }
}
