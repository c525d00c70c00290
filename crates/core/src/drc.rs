//! Design-rule and specification checking of a finished layout.
//!
//! A layout produced by the P-ILP flow (or any baseline) must satisfy the
//! constraints of Section 3 of the paper:
//!
//! 1. the equivalent length of every microstrip equals its target,
//! 2. no overlap between (expanded) microstrip segments and/or devices —
//!    this covers both the planarity requirement and the `2t` spacing rule,
//! 3. pads sit on the boundary of the layout area,
//! 4. every microstrip endpoint coincides with the pin it connects to, and
//! 5. everything stays inside the layout area.

use std::fmt;

use rfic_geom::{Point, Segment};
use rfic_netlist::{DeviceId, MicrostripId, Netlist};
use serde::{Deserialize, Serialize};

use crate::layout::Layout;

/// Length error (µm) below which a strip counts as exactly matched: the
/// P-ILP flow's acceptance tolerance and the checker's default.
pub const LENGTH_TOLERANCE_UM: f64 = 1e-3;

/// Tolerances used by the design-rule checker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrcOptions {
    /// Maximum allowed absolute equivalent-length error, µm.
    pub length_tolerance: f64,
    /// Slack subtracted from the spacing rule before flagging a violation,
    /// µm (covers floating-point noise from the ILP solutions).
    pub spacing_slack: f64,
}

impl Default for DrcOptions {
    fn default() -> Self {
        DrcOptions {
            length_tolerance: LENGTH_TOLERANCE_UM,
            spacing_slack: 1e-3,
        }
    }
}

/// One violated design rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DrcViolation {
    /// A strip's equivalent length differs from its target.
    LengthMismatch {
        /// Offending strip.
        strip: MicrostripId,
        /// Required equivalent length.
        target: f64,
        /// Achieved equivalent length.
        actual: f64,
    },
    /// A strip is missing from the layout.
    UnroutedStrip {
        /// The missing strip.
        strip: MicrostripId,
    },
    /// A device is missing from the layout.
    UnplacedDevice {
        /// The missing device.
        device: DeviceId,
    },
    /// Two device outlines are closer than the spacing rule allows.
    DeviceSpacing {
        /// First device.
        a: DeviceId,
        /// Second device.
        b: DeviceId,
        /// Measured gap, µm.
        gap: f64,
        /// Required gap, µm.
        required: f64,
    },
    /// A microstrip segment is too close to a device it does not connect to.
    StripDeviceSpacing {
        /// Offending strip.
        strip: MicrostripId,
        /// Offending device.
        device: DeviceId,
        /// Measured gap, µm.
        gap: f64,
        /// Required gap, µm.
        required: f64,
    },
    /// Two segments of unrelated microstrips are too close (or cross).
    StripSpacing {
        /// First strip.
        a: MicrostripId,
        /// Second strip.
        b: MicrostripId,
        /// Measured gap, µm (0 for an actual crossing).
        gap: f64,
        /// Required gap, µm.
        required: f64,
    },
    /// A microstrip crosses itself.
    SelfCrossing {
        /// Offending strip.
        strip: MicrostripId,
    },
    /// A pad centre does not lie on the boundary of the layout area.
    PadOffBoundary {
        /// Offending pad.
        device: DeviceId,
        /// Its centre.
        center: Point,
    },
    /// A strip endpoint does not coincide with the pin it must connect to.
    PinMismatch {
        /// Offending strip.
        strip: MicrostripId,
        /// Device the strip should connect to.
        device: DeviceId,
        /// Expected pin position.
        expected: Point,
        /// Actual route endpoint.
        actual: Point,
    },
    /// A device outline or route leaves the layout area.
    OutsideArea {
        /// Human-readable identification of the offender.
        object: String,
    },
}

impl fmt::Display for DrcViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrcViolation::LengthMismatch {
                strip,
                target,
                actual,
            } => write!(
                f,
                "{strip}: equivalent length {actual:.3} µm != target {target:.3} µm"
            ),
            DrcViolation::UnroutedStrip { strip } => write!(f, "{strip}: not routed"),
            DrcViolation::UnplacedDevice { device } => write!(f, "{device}: not placed"),
            DrcViolation::DeviceSpacing {
                a,
                b,
                gap,
                required,
            } => {
                write!(
                    f,
                    "devices {a} and {b}: gap {gap:.3} µm < required {required:.3} µm"
                )
            }
            DrcViolation::StripDeviceSpacing {
                strip,
                device,
                gap,
                required,
            } => {
                write!(
                    f,
                    "{strip} vs device {device}: gap {gap:.3} µm < required {required:.3} µm"
                )
            }
            DrcViolation::StripSpacing {
                a,
                b,
                gap,
                required,
            } => {
                write!(f, "{a} vs {b}: gap {gap:.3} µm < required {required:.3} µm")
            }
            DrcViolation::SelfCrossing { strip } => write!(f, "{strip}: route crosses itself"),
            DrcViolation::PadOffBoundary { device, center } => {
                write!(f, "pad {device} centre {center} not on the area boundary")
            }
            DrcViolation::PinMismatch {
                strip,
                device,
                expected,
                actual,
            } => write!(
                f,
                "{strip}: endpoint {actual} does not meet pin {expected} of {device}"
            ),
            DrcViolation::OutsideArea { object } => write!(f, "{object}: outside the layout area"),
        }
    }
}

/// Result of a DRC run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DrcReport {
    /// All violations found.
    pub violations: Vec<DrcViolation>,
}

impl DrcReport {
    /// `true` if no rule is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// `true` if there are no violations (alias of [`DrcReport::is_clean`]).
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations that concern the given strip.
    pub fn for_strip(&self, strip: MicrostripId) -> Vec<&DrcViolation> {
        self.violations
            .iter()
            .filter(|v| match v {
                DrcViolation::LengthMismatch { strip: s, .. }
                | DrcViolation::UnroutedStrip { strip: s }
                | DrcViolation::SelfCrossing { strip: s }
                | DrcViolation::StripDeviceSpacing { strip: s, .. }
                | DrcViolation::PinMismatch { strip: s, .. } => *s == strip,
                DrcViolation::StripSpacing { a, b, .. } => *a == strip || *b == strip,
                _ => false,
            })
            .collect()
    }
}

impl fmt::Display for DrcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            writeln!(f, "DRC clean")
        } else {
            writeln!(f, "{} DRC violations:", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Runs the full design-rule check of a layout against its netlist.
pub fn check(netlist: &Netlist, layout: &Layout, options: &DrcOptions) -> DrcReport {
    let mut violations = Vec::new();
    let tech = netlist.tech();
    let spacing = tech.spacing();
    let area = netlist.area_rect();
    let (aw, ah) = netlist.area();

    // Presence, placement containment and pad boundary.
    for device in netlist.devices() {
        match layout.placement(device.id) {
            None => violations.push(DrcViolation::UnplacedDevice { device: device.id }),
            Some(p) => {
                if device.is_pad() {
                    let on_boundary = p.center.x.abs() <= options.spacing_slack
                        || p.center.y.abs() <= options.spacing_slack
                        || (p.center.x - aw).abs() <= options.spacing_slack
                        || (p.center.y - ah).abs() <= options.spacing_slack;
                    if !on_boundary {
                        violations.push(DrcViolation::PadOffBoundary {
                            device: device.id,
                            center: p.center,
                        });
                    }
                    if !area.contains(p.center) {
                        violations.push(DrcViolation::OutsideArea {
                            object: format!("pad {}", device.id),
                        });
                    }
                } else {
                    let outline = device.outline(p.center, p.rotation);
                    if !area.expanded(options.spacing_slack).contains_rect(&outline) {
                        violations.push(DrcViolation::OutsideArea {
                            object: format!("device {}", device.id),
                        });
                    }
                }
            }
        }
    }

    // Length, pins, containment and self-crossing per strip.
    for strip in netlist.microstrips() {
        let Some(route) = layout.route(strip.id) else {
            violations.push(DrcViolation::UnroutedStrip { strip: strip.id });
            continue;
        };
        if route.escapes(&area.expanded(options.spacing_slack)) {
            violations.push(DrcViolation::OutsideArea {
                object: format!("{}", strip.id),
            });
        }
        if let Some(actual) = layout.equivalent_length(netlist, strip.id) {
            if (actual - strip.target_length).abs() > options.length_tolerance {
                violations.push(DrcViolation::LengthMismatch {
                    strip: strip.id,
                    target: strip.target_length,
                    actual,
                });
            }
        }
        // Endpoints must land on a pin equivalent to the connected one.
        for (terminal, endpoint) in [(strip.start, route.start()), (strip.end, route.end())] {
            let Some(device) = netlist.device(terminal.device) else {
                continue;
            };
            let Some(placement) = layout.placement(terminal.device) else {
                continue;
            };
            let candidates = device.equivalent_pins(terminal.pin);
            let matched = candidates.iter().any(|&pin| {
                device
                    .pin_position(placement.center, placement.rotation, pin)
                    .map(|p| {
                        p.approx_eq(endpoint)
                            || p.euclidean_distance(endpoint) <= options.length_tolerance
                    })
                    .unwrap_or(false)
            });
            if !matched {
                let expected = device
                    .pin_position(placement.center, placement.rotation, terminal.pin)
                    .unwrap_or(placement.center);
                violations.push(DrcViolation::PinMismatch {
                    strip: strip.id,
                    device: terminal.device,
                    expected,
                    actual: endpoint,
                });
            }
        }
        // Self-crossing: non-adjacent segments of the same route must not
        // intersect.
        let segs = layout.strip_segments(netlist, strip.id);
        'outer: for i in 0..segs.len() {
            for j in (i + 2)..segs.len() {
                if segs[i].centerline_intersects(&segs[j]) {
                    violations.push(DrcViolation::SelfCrossing { strip: strip.id });
                    break 'outer;
                }
            }
        }
    }

    // Pairwise spacing checks.
    let devices: Vec<_> = netlist.devices().to_vec();
    for i in 0..devices.len() {
        for j in (i + 1)..devices.len() {
            let (Some(oa), Some(ob)) = (
                layout.device_outline(netlist, devices[i].id),
                layout.device_outline(netlist, devices[j].id),
            ) else {
                continue;
            };
            let gap = oa.gap(&ob);
            if gap + options.spacing_slack < spacing {
                violations.push(DrcViolation::DeviceSpacing {
                    a: devices[i].id,
                    b: devices[j].id,
                    gap,
                    required: spacing,
                });
            }
        }
    }

    let strips: Vec<_> = netlist.microstrips().to_vec();
    let strip_segments: Vec<Vec<Segment>> = strips
        .iter()
        .map(|m| layout.strip_segments(netlist, m.id))
        .collect();

    // Strip vs device spacing (skip the devices a strip connects to).
    for (si, strip) in strips.iter().enumerate() {
        for device in &devices {
            if strip.touches(device.id) {
                continue;
            }
            let Some(outline) = layout.device_outline(netlist, device.id) else {
                continue;
            };
            for seg in &strip_segments[si] {
                let gap = seg.body().gap(&outline);
                if gap + options.spacing_slack < spacing {
                    violations.push(DrcViolation::StripDeviceSpacing {
                        strip: strip.id,
                        device: device.id,
                        gap,
                        required: spacing,
                    });
                    break;
                }
            }
        }
    }

    // Strip vs strip: planarity and spacing for strips that do not share a
    // device. Strips that share a device meet at it and are not checked at
    // all — not even for crossings away from the shared pin.
    for i in 0..strips.len() {
        for j in (i + 1)..strips.len() {
            let share_device = strips[i]
                .terminals()
                .iter()
                .any(|t| strips[j].touches(t.device));
            if share_device {
                continue;
            }
            let mut worst_gap: Option<f64> = None;
            let mut crossing = false;
            for sa in &strip_segments[i] {
                for sb in &strip_segments[j] {
                    if sa.centerline_intersects(sb) {
                        crossing = true;
                    }
                    let gap = sa.body().gap(&sb.body());
                    worst_gap = Some(worst_gap.map_or(gap, |g: f64| g.min(gap)));
                }
            }
            if crossing {
                violations.push(DrcViolation::StripSpacing {
                    a: strips[i].id,
                    b: strips[j].id,
                    gap: 0.0,
                    required: spacing,
                });
            } else if let Some(gap) = worst_gap {
                if gap + options.spacing_slack < spacing {
                    violations.push(DrcViolation::StripSpacing {
                        a: strips[i].id,
                        b: strips[j].id,
                        gap,
                        required: spacing,
                    });
                }
            }
        }
    }

    DrcReport { violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Placement;
    use rfic_geom::Polyline;
    use rfic_netlist::benchmarks;

    #[test]
    fn witness_layouts_are_drc_clean() {
        for circuit in [benchmarks::tiny_circuit(), benchmarks::small_circuit()] {
            let layout = Layout::from_witness(&circuit);
            let report = check(&circuit.netlist, &layout, &DrcOptions::default());
            assert!(report.is_clean(), "witness should be clean:\n{report}");
        }
    }

    #[test]
    fn benchmark_witnesses_are_drc_clean() {
        for bench in rfic_netlist::benchmarks::BenchmarkCircuit::ALL {
            let circuit = bench.circuit();
            let layout = Layout::from_witness(&circuit);
            let report = check(&circuit.netlist, &layout, &DrcOptions::default());
            assert!(
                report.is_clean(),
                "{bench} witness should be clean:\n{report}"
            );
        }
    }

    #[test]
    fn length_mismatch_is_detected() {
        let circuit = benchmarks::tiny_circuit();
        let mut layout = Layout::from_witness(&circuit);
        let strip = circuit.netlist.microstrips()[0].id;
        // Stretch the route's final point to break the length.
        let route = layout.routes.get_mut(&strip).unwrap();
        let mut pts = route.points().to_vec();
        let last = pts.len() - 1;
        pts[last] = pts[last].translated(0.0, 25.0);
        // Keep it rectilinear by moving the previous point too.
        pts[last - 1] = pts[last - 1].translated(0.0, 25.0);
        *route = Polyline::new(pts).unwrap();
        let report = check(&circuit.netlist, &layout, &DrcOptions::default());
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| matches!(
            v,
            DrcViolation::LengthMismatch { .. } | DrcViolation::PinMismatch { .. }
        )));
        assert!(!report.for_strip(strip).is_empty());
    }

    #[test]
    fn missing_objects_are_detected() {
        let circuit = benchmarks::tiny_circuit();
        let mut layout = Layout::from_witness(&circuit);
        let strip = circuit.netlist.microstrips()[0].id;
        let device = circuit.netlist.devices()[0].id;
        layout.routes.remove(&strip);
        layout.placements.remove(&device);
        let report = check(&circuit.netlist, &layout, &DrcOptions::default());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::UnroutedStrip { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::UnplacedDevice { .. })));
    }

    #[test]
    fn device_overlap_is_detected() {
        let circuit = benchmarks::tiny_circuit();
        let mut layout = Layout::from_witness(&circuit);
        // Move one non-pad device on top of another.
        let devs: Vec<_> = circuit.netlist.non_pad_devices().collect();
        let a = devs[0].id;
        let b = devs[1].id;
        let pb = layout.placements[&b];
        layout.placements.insert(a, pb);
        let report = check(&circuit.netlist, &layout, &DrcOptions::default());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::DeviceSpacing { .. })));
    }

    #[test]
    fn pad_off_boundary_is_detected() {
        let circuit = benchmarks::tiny_circuit();
        let mut layout = Layout::from_witness(&circuit);
        let pad = circuit.netlist.pads().next().unwrap().id;
        let p = layout.placements[&pad];
        layout.placements.insert(
            pad,
            Placement {
                center: p.center.translated(40.0, 40.0),
                rotation: p.rotation,
            },
        );
        let report = check(&circuit.netlist, &layout, &DrcOptions::default());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, DrcViolation::PadOffBoundary { .. })));
    }

    #[test]
    fn report_display_lists_violations() {
        let clean = DrcReport::default();
        assert!(clean.is_clean());
        assert!(clean.is_empty());
        assert!(clean.to_string().contains("DRC clean"));
        let dirty = DrcReport {
            violations: vec![DrcViolation::SelfCrossing {
                strip: MicrostripId(3),
            }],
        };
        assert_eq!(dirty.len(), 1);
        assert!(dirty.to_string().contains("TL3"));
    }
}
