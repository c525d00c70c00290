//! Layout data structures: the output of the P-ILP flow.

use std::collections::BTreeMap;

use rfic_geom::{equivalent_length, Point, Polyline, Rect, Rotation, Segment};
use rfic_netlist::generator::GeneratedCircuit;
use rfic_netlist::{DeviceId, MicrostripId, Netlist};
use serde::{Deserialize, Serialize};

/// Position and orientation of one device or pad.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Centre of the device in layout coordinates, µm.
    pub center: Point,
    /// Orientation.
    pub rotation: Rotation,
}

impl Placement {
    /// Creates a placement with no rotation.
    pub fn at(center: Point) -> Placement {
        Placement {
            center,
            rotation: Rotation::R0,
        }
    }
}

/// A complete RFIC layout: placements for every device/pad and a rectilinear
/// chain-point route for every microstrip.
///
/// A layout is meaningful only together with the [`Netlist`] it was created
/// for; methods that need device dimensions or target lengths take the
/// netlist as an argument.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Layout {
    /// Layout area `(width, height)` the layout was produced for, µm.
    pub area: (f64, f64),
    /// Placement of every device and pad.
    pub placements: BTreeMap<DeviceId, Placement>,
    /// Routed chain-point polyline of every microstrip.
    pub routes: BTreeMap<MicrostripId, Polyline>,
}

impl Layout {
    /// Creates an empty layout for the given area.
    pub fn new(area: (f64, f64)) -> Layout {
        Layout {
            area,
            ..Layout::default()
        }
    }

    /// The generator's witness of `circuit` as a layout: feasible,
    /// length-exact and meander-heavy, it is also the manual-style
    /// baseline of Table 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use rfic_core::Layout;
    /// use rfic_netlist::benchmarks;
    ///
    /// let circuit = benchmarks::small_circuit();
    /// let layout = Layout::from_witness(&circuit);
    /// assert!(layout.is_complete(&circuit.netlist));
    /// assert!(layout.max_length_error(&circuit.netlist) < 1e-6);
    /// ```
    pub fn from_witness(circuit: &GeneratedCircuit) -> Layout {
        Layout {
            area: circuit.netlist.area(),
            placements: circuit
                .witness
                .placements
                .iter()
                .map(|(&id, &(center, rotation))| (id, Placement { center, rotation }))
                .collect(),
            routes: circuit.witness.routes.clone(),
        }
    }

    /// Placement of a device, if present.
    pub fn placement(&self, device: DeviceId) -> Option<Placement> {
        self.placements.get(&device).copied()
    }

    /// Route of a microstrip, if present.
    pub fn route(&self, strip: MicrostripId) -> Option<&Polyline> {
        self.routes.get(&strip)
    }

    /// Outline rectangle of a placed device.
    pub fn device_outline(&self, netlist: &Netlist, device: DeviceId) -> Option<Rect> {
        let placement = self.placement(device)?;
        let dev = netlist.device(device)?;
        Some(dev.outline(placement.center, placement.rotation))
    }

    /// Absolute pin position of a placed device.
    pub fn pin_position(&self, netlist: &Netlist, device: DeviceId, pin: usize) -> Option<Point> {
        let placement = self.placement(device)?;
        let dev = netlist.device(device)?;
        dev.pin_position(placement.center, placement.rotation, pin)
    }

    /// The strip-width segments of a route.
    pub fn strip_segments(&self, netlist: &Netlist, strip: MicrostripId) -> Vec<Segment> {
        let Some(route) = self.route(strip) else {
            return Vec::new();
        };
        route
            .segments(netlist.strip_width(strip))
            .unwrap_or_default()
            .into_iter()
            .filter(|s| !s.is_degenerate())
            .collect()
    }

    /// Number of bends on a routed strip (0 if the strip is unrouted).
    pub fn bend_count(&self, strip: MicrostripId) -> usize {
        self.route(strip).map(|r| r.bend_count()).unwrap_or(0)
    }

    /// Total number of bends over all routed strips.
    pub fn total_bends(&self) -> usize {
        self.routes.values().map(|r| r.bend_count()).sum()
    }

    /// Maximum number of bends on any single routed strip.
    pub fn max_bends(&self) -> usize {
        self.routes
            .values()
            .map(|r| r.bend_count())
            .max()
            .unwrap_or(0)
    }

    /// Equivalent electrical length of a routed strip (geometric length plus
    /// `δ` per bend), or `None` if unrouted.
    pub fn equivalent_length(&self, netlist: &Netlist, strip: MicrostripId) -> Option<f64> {
        self.route(strip)
            .map(|r| equivalent_length(r, netlist.tech().bend_delta))
    }

    /// Signed length error (achieved − target) of a routed strip.
    pub fn length_error(&self, netlist: &Netlist, strip: MicrostripId) -> Option<f64> {
        let target = netlist.microstrip(strip)?.target_length;
        Some(self.equivalent_length(netlist, strip)? - target)
    }

    /// Absolute length error of a strip (`infinity` if unrouted).
    pub fn abs_length_error(&self, netlist: &Netlist, strip: MicrostripId) -> f64 {
        self.length_error(netlist, strip)
            .map(f64::abs)
            .unwrap_or(f64::INFINITY)
    }

    /// Largest absolute length error over all strips of the netlist
    /// (`infinity` if any strip is unrouted).
    pub fn max_length_error(&self, netlist: &Netlist) -> f64 {
        netlist
            .microstrips()
            .iter()
            .map(|m| self.abs_length_error(netlist, m.id))
            .fold(0.0, f64::max)
    }

    /// `true` if every device and strip of the netlist is present.
    pub fn is_complete(&self, netlist: &Netlist) -> bool {
        netlist
            .devices()
            .iter()
            .all(|d| self.placements.contains_key(&d.id))
            && netlist
                .microstrips()
                .iter()
                .all(|m| self.routes.contains_key(&m.id))
    }

    /// Bounding box of everything placed and routed so far.
    pub fn extent(&self, netlist: &Netlist) -> Option<Rect> {
        let mut acc: Option<Rect> = None;
        let mut join = |r: Rect| {
            acc = Some(match acc {
                Some(a) => a.union(&r),
                None => r,
            });
        };
        for &id in self.placements.keys() {
            if let Some(outline) = self.device_outline(netlist, id) {
                join(outline);
            }
        }
        for route in self.routes.values() {
            join(route.bounding_box());
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_netlist::benchmarks;

    fn witness_layout() -> (Netlist, Layout) {
        let c = benchmarks::small_circuit();
        let layout = Layout::from_witness(&c);
        (c.netlist, layout)
    }

    #[test]
    fn witness_layout_is_complete_and_length_exact() {
        let (netlist, layout) = witness_layout();
        assert!(layout.is_complete(&netlist));
        assert!(layout.max_length_error(&netlist) < 1e-6);
        for m in netlist.microstrips() {
            assert!(layout.length_error(&netlist, m.id).unwrap().abs() < 1e-6);
        }
    }

    #[test]
    fn bend_statistics_match_routes() {
        let (_netlist, layout) = witness_layout();
        let per_strip: Vec<usize> = layout.routes.values().map(|r| r.bend_count()).collect();
        assert_eq!(layout.total_bends(), per_strip.iter().sum::<usize>());
        assert_eq!(layout.max_bends(), per_strip.into_iter().max().unwrap());
    }

    #[test]
    fn device_outlines_and_pins() {
        let (netlist, layout) = witness_layout();
        for device in netlist.devices() {
            let outline = layout.device_outline(&netlist, device.id).expect("placed");
            let placement = layout.placement(device.id).unwrap();
            assert!(outline.contains(placement.center));
            for pin in 0..device.pins.len() {
                let p = layout.pin_position(&netlist, device.id, pin).expect("pin");
                assert!(
                    outline.expanded(1e-9).contains(p),
                    "pin on the device outline"
                );
            }
        }
    }

    #[test]
    fn extent_is_within_the_area_for_the_witness() {
        let (netlist, layout) = witness_layout();
        let extent = layout.extent(&netlist).expect("non-empty layout");
        let area = netlist
            .area_rect()
            .expanded(netlist.tech().pad_size / 2.0 + 1e-9);
        assert!(
            area.contains_rect(&extent),
            "witness fits the (pad-expanded) area"
        );
    }

    #[test]
    fn missing_objects_are_reported() {
        let (netlist, mut layout) = witness_layout();
        let strip = netlist.microstrips()[0].id;
        layout.routes.remove(&strip);
        assert!(!layout.is_complete(&netlist));
        assert_eq!(layout.route(strip), None);
        assert_eq!(layout.bend_count(strip), 0);
        assert_eq!(layout.equivalent_length(&netlist, strip), None);
        assert_eq!(layout.abs_length_error(&netlist, strip), f64::INFINITY);
        assert!(layout.max_length_error(&netlist).is_infinite());
    }

    #[test]
    fn empty_layout_behaviour() {
        let layout = Layout::new((100.0, 100.0));
        assert_eq!(layout.total_bends(), 0);
        assert_eq!(layout.max_bends(), 0);
        let c = benchmarks::tiny_circuit();
        assert!(!layout.is_complete(&c.netlist));
        assert!(layout.extent(&c.netlist).is_none());
    }

    #[test]
    fn placement_helper() {
        let p = Placement::at(Point::new(3.0, 4.0));
        assert_eq!(p.rotation, Rotation::R0);
        assert_eq!(p.center, Point::new(3.0, 4.0));
    }
}
