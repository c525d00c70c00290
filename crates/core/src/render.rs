//! Plain-text and SVG rendering of layouts.
//!
//! These renderers back the flow-snapshot binary that reproduces the
//! qualitative Figure 7 of the paper (the per-phase layout snapshots) in a
//! form that can be inspected without a GUI.

use std::fmt::Write as _;

use rfic_geom::Rect;
use rfic_netlist::Netlist;

use crate::layout::Layout;

/// Renders a coarse ASCII picture of the layout on a character grid.
///
/// Devices are drawn with `#` (pads with `@`), microstrip centre lines with
/// `-`/`|` and bends with `+`. The drawing is scaled to at most
/// `max_columns` characters across.
pub fn ascii(netlist: &Netlist, layout: &Layout, max_columns: usize) -> String {
    let (aw, ah) = netlist.area();
    let cols = max_columns.clamp(20, 200);
    let scale = aw / cols as f64;
    let rows = ((ah / scale) / 2.0).ceil() as usize + 1; // terminal cells are ~2:1
    let mut grid = vec![vec![' '; cols + 1]; rows + 1];

    let plot = |x: f64, y: f64, ch: char, grid: &mut Vec<Vec<char>>| {
        let c = ((x / aw) * cols as f64).round().clamp(0.0, cols as f64) as usize;
        let r = rows - (((y / ah) * rows as f64).round().clamp(0.0, rows as f64) as usize);
        grid[r][c] = ch;
    };

    // Strips first so devices overwrite them at the pins.
    for (&id, route) in &layout.routes {
        let _ = id;
        let pts = route.points();
        for w in pts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let steps = (a.manhattan_distance(b) / scale).ceil().max(1.0) as usize;
            for s in 0..=steps {
                let t = s as f64 / steps as f64;
                let x = a.x + (b.x - a.x) * t;
                let y = a.y + (b.y - a.y) * t;
                let ch = if (a.y - b.y).abs() < 1e-9 { '-' } else { '|' };
                plot(x, y, ch, &mut grid);
            }
        }
        for bend in route.bend_points() {
            plot(bend.x, bend.y, '+', &mut grid);
        }
    }

    for device in netlist.devices() {
        if let Some(outline) = layout.device_outline(netlist, device.id) {
            let ch = if device.is_pad() { '@' } else { '#' };
            fill_rect(&outline, ch, aw, ah, cols, rows, &mut grid);
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "+{}+", "-".repeat(cols + 1));
    for row in grid {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "|{line}|");
    }
    let _ = writeln!(out, "+{}+", "-".repeat(cols + 1));
    out
}

fn fill_rect(
    rect: &Rect,
    ch: char,
    aw: f64,
    ah: f64,
    cols: usize,
    rows: usize,
    grid: &mut [Vec<char>],
) {
    let c0 = ((rect.min.x / aw) * cols as f64)
        .floor()
        .clamp(0.0, cols as f64) as usize;
    let c1 = ((rect.max.x / aw) * cols as f64)
        .ceil()
        .clamp(0.0, cols as f64) as usize;
    let r0 = ((rect.min.y / ah) * rows as f64)
        .floor()
        .clamp(0.0, rows as f64) as usize;
    let r1 = ((rect.max.y / ah) * rows as f64)
        .ceil()
        .clamp(0.0, rows as f64) as usize;
    for r in r0..=r1 {
        for cell in grid[rows - r][c0..=c1].iter_mut() {
            *cell = ch;
        }
    }
}

/// Renders the layout as a standalone SVG document.
pub fn svg(netlist: &Netlist, layout: &Layout) -> String {
    let (aw, ah) = netlist.area();
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {aw} {ah}" width="{aw}" height="{ah}">"#
    );
    let _ = writeln!(
        out,
        r##"<rect x="0" y="0" width="{aw}" height="{ah}" fill="#101418" stroke="#888"/>"##
    );
    // Flip y so the origin is bottom-left like the layout coordinates.
    let _ = writeln!(out, r#"<g transform="translate(0,{ah}) scale(1,-1)">"#);
    for device in netlist.devices() {
        if let Some(o) = layout.device_outline(netlist, device.id) {
            let fill = if device.is_pad() {
                "#c9a227"
            } else {
                "#2e7d32"
            };
            let _ = writeln!(
                out,
                r##"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{}" stroke="#eee" stroke-width="0.5"/>"##,
                o.min.x,
                o.min.y,
                o.width(),
                o.height(),
                fill
            );
        }
    }
    for (id, route) in &layout.routes {
        let width = netlist.strip_width(*id);
        let pts: Vec<String> = route
            .points()
            .iter()
            .map(|p| format!("{:.2},{:.2}", p.x, p.y))
            .collect();
        let _ = writeln!(
            out,
            r##"<polyline points="{}" fill="none" stroke="#4fc3f7" stroke-width="{:.2}" stroke-linejoin="round"/>"##,
            pts.join(" "),
            width
        );
    }
    let _ = writeln!(out, "</g>");
    let _ = writeln!(out, "</svg>");
    out
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
    fn ascii_rendering_contains_devices_and_strips() {
        let (netlist, layout) = witness_layout();
        let art = ascii(&netlist, &layout, 80);
        assert!(art.contains('#'), "devices rendered");
        assert!(art.contains('@'), "pads rendered");
        assert!(art.contains('-') || art.contains('|'), "strips rendered");
        assert!(art.lines().count() > 10);
    }

    #[test]
    fn ascii_clamps_width() {
        let (netlist, layout) = witness_layout();
        let art = ascii(&netlist, &layout, 5);
        let width = art.lines().map(|l| l.len()).max().unwrap();
        assert!(
            width <= 23,
            "width {width} should be clamped to the minimum grid"
        );
    }

    #[test]
    fn svg_rendering_is_well_formed() {
        let (netlist, layout) = witness_layout();
        let doc = svg(&netlist, &layout);
        assert!(doc.starts_with("<svg"));
        assert!(doc.trim_end().ends_with("</svg>"));
        assert_eq!(
            doc.matches("<polyline").count(),
            netlist.microstrips().len()
        );
        assert_eq!(doc.matches("<rect").count(), netlist.devices().len() + 1);
    }
}
