//! Sequential floorplan-then-route baseline (prior-work style).
//!
//! The prior approaches the paper discusses (Section 1.1) first floorplan
//! the devices and only then route the microstrips. Because the placement
//! knows nothing about the exact length targets, the subsequent maze
//! routing produces whatever lengths the shortest paths happen to have —
//! which is precisely why such flows cannot maintain mm-wave performance.
//! This module implements that flow: a deterministic row-based placement
//! (with a light random shuffle) followed by Lee-style maze routing, and is
//! used in the benchmark harness to quantify the length error a
//! non-concurrent flow leaves behind.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rfic_core::{Layout, Placement};
use rfic_geom::{Point, Polyline};
use rfic_netlist::Netlist;

use crate::maze::RoutingGrid;

/// Options of the sequential baseline flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialOptions {
    /// Routing grid pitch, µm.
    pub grid_pitch: f64,
    /// Seed of the placement shuffle.
    pub seed: u64,
}

impl Default for SequentialOptions {
    fn default() -> Self {
        SequentialOptions {
            grid_pitch: 5.0,
            seed: 1,
        }
    }
}

/// Runs the sequential floorplan-then-route flow.
///
/// The returned layout is planar (routes avoid devices and previously routed
/// strips where possible) but makes no attempt to meet the target lengths;
/// strips that cannot be routed at all are connected with a direct L-shaped
/// route as a last resort.
///
/// # Examples
///
/// ```
/// use rfic_baseline::{sequential_layout, SequentialOptions};
/// use rfic_netlist::benchmarks;
///
/// let circuit = benchmarks::small_circuit();
/// let layout = sequential_layout(&circuit.netlist, &SequentialOptions::default());
/// assert!(layout.is_complete(&circuit.netlist));
/// // A non-concurrent flow leaves significant length error behind.
/// assert!(layout.max_length_error(&circuit.netlist) > 1.0);
/// ```
pub fn sequential_layout(netlist: &Netlist, options: &SequentialOptions) -> Layout {
    let mut layout = Layout::new(netlist.area());
    place_devices(netlist, &mut layout, options.seed);
    route_strips(netlist, &mut layout, options.grid_pitch);
    layout
}

/// Row-based placement: non-pad devices are placed in rows across the core
/// area (in a shuffled order, emulating a floorplanner that optimises area
/// rather than length), pads are distributed along the boundary.
fn place_devices(netlist: &Netlist, layout: &mut Layout, seed: u64) {
    let (aw, ah) = netlist.area();
    let spacing = netlist.tech().spacing();
    let margin = netlist.tech().pad_size + spacing;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut devices: Vec<_> = netlist.non_pad_devices().collect();
    devices.shuffle(&mut rng);

    let max_w = devices.iter().map(|d| d.width).fold(10.0, f64::max);
    let max_h = devices.iter().map(|d| d.height).fold(10.0, f64::max);
    let pitch_x = max_w + 2.0 * spacing;
    let pitch_y = max_h + 2.0 * spacing;
    let cols = (((aw - 2.0 * margin) / pitch_x).floor() as usize).max(1);

    for (i, device) in devices.iter().enumerate() {
        let col = i % cols;
        let row = i / cols;
        let center = Point::new(
            (margin + (col as f64 + 0.5) * pitch_x).min(aw - device.width / 2.0),
            (margin + (row as f64 + 0.5) * pitch_y).min(ah - device.height / 2.0),
        );
        layout.placements.insert(device.id, Placement::at(center));
    }

    // Pads along the bottom and left edges, evenly spread.
    let pads: Vec<_> = netlist.pads().collect();
    let n = pads.len().max(1);
    for (i, pad) in pads.iter().enumerate() {
        let frac = (i as f64 + 0.5) / n as f64;
        let center = if i % 2 == 0 {
            Point::new(frac * aw, 0.0)
        } else {
            Point::new(0.0, frac * ah)
        };
        layout.placements.insert(pad.id, Placement::at(center));
    }
}

/// Maze-routes every strip between its actual pins, blocking device
/// keep-outs and previously routed strips.
fn route_strips(netlist: &Netlist, layout: &mut Layout, pitch: f64) {
    let (aw, ah) = netlist.area();
    let margin = netlist.tech().expansion_margin();
    let mut grid = RoutingGrid::new(aw, ah, pitch);
    for device in netlist.devices() {
        if let Some(outline) = layout.device_outline(netlist, device.id) {
            grid.block_rect(&outline, margin);
        }
    }

    for strip in netlist.microstrips() {
        let start = layout
            .pin_position(netlist, strip.start.device, strip.start.pin)
            .unwrap_or(Point::new(aw / 2.0, ah / 2.0));
        let end = layout
            .pin_position(netlist, strip.end.device, strip.end.pin)
            .unwrap_or(Point::new(aw / 2.0, ah / 2.0));
        let mut pin_grid = grid.clone();
        pin_grid.unblock_point(start);
        pin_grid.unblock_point(end);
        let route = pin_grid.route(start, end).unwrap_or_else(|| {
            let corner = Point::new(end.x, start.y);
            let pts = if start.is_rectilinear_with(end) {
                vec![start, end]
            } else {
                vec![start, corner, end]
            };
            Polyline::new(pts).expect("fallback route is rectilinear")
        });
        // Block the routed strip so later strips stay planar.
        if let Ok(segments) = route.segments(netlist.strip_width(strip.id)) {
            for seg in segments {
                grid.block_rect(&seg.body(), margin);
            }
        }
        layout.routes.insert(strip.id, route);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_netlist::benchmarks;

    #[test]
    fn sequential_flow_completes_but_misses_lengths() {
        let circuit = benchmarks::small_circuit();
        let layout = sequential_layout(&circuit.netlist, &SequentialOptions::default());
        assert!(layout.is_complete(&circuit.netlist));
        // Routes exist and start/end at the pins.
        for strip in circuit.netlist.microstrips() {
            let route = layout.route(strip.id).expect("routed");
            let pin = layout
                .pin_position(&circuit.netlist, strip.start.device, strip.start.pin)
                .unwrap();
            assert!(route.start().euclidean_distance(pin) < 1e-6);
        }
        // The non-concurrent flow cannot meet the exact lengths.
        assert!(layout.max_length_error(&circuit.netlist) > 1.0);
    }

    #[test]
    fn sequential_flow_is_deterministic_for_a_seed() {
        let circuit = benchmarks::tiny_circuit();
        let a = sequential_layout(&circuit.netlist, &SequentialOptions::default());
        let b = sequential_layout(&circuit.netlist, &SequentialOptions::default());
        assert_eq!(a, b);
        let c = sequential_layout(
            &circuit.netlist,
            &SequentialOptions {
                seed: 99,
                ..SequentialOptions::default()
            },
        );
        // A different seed shuffles the placement (may occasionally coincide
        // for the tiny circuit, so only check it still completes).
        assert!(c.is_complete(&circuit.netlist));
    }

    #[test]
    fn pads_stay_on_the_boundary() {
        let circuit = benchmarks::small_circuit();
        let netlist = &circuit.netlist;
        let layout = sequential_layout(netlist, &SequentialOptions::default());
        let (aw, ah) = netlist.area();
        for pad in netlist.pads() {
            let c = layout.placement(pad.id).unwrap().center;
            assert!(
                c.x.abs() < 1e-9
                    || c.y.abs() < 1e-9
                    || (c.x - aw).abs() < 1e-9
                    || (c.y - ah).abs() < 1e-9,
                "pad at {c} should be on the boundary"
            );
        }
    }
}
