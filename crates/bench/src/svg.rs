//! Minimal SVG rendering for placement snapshots (Figures 2, 4, 5) and
//! scatter/line plots (Figures 1, 3).

use std::fmt::Write as _;

use complx_netlist::{CellKind, Design, Placement, Rect};

/// A tiny SVG canvas with world-coordinate mapping (y flipped so layouts
/// render with the origin at the bottom-left, as in the paper's figures).
#[derive(Debug, Clone)]
pub struct SvgCanvas {
    width: f64,
    height: f64,
    world: Rect,
    body: String,
}

impl SvgCanvas {
    /// Creates a canvas of `width × height` pixels mapping the `world`
    /// rectangle.
    pub fn new(width: f64, height: f64, world: Rect) -> Self {
        Self {
            width,
            height,
            world,
            body: String::new(),
        }
    }

    fn tx(&self, x: f64) -> f64 {
        (x - self.world.lx) / self.world.width().max(1e-12) * self.width
    }

    fn ty(&self, y: f64) -> f64 {
        self.height - (y - self.world.ly) / self.world.height().max(1e-12) * self.height
    }

    /// Draws a world-coordinate rectangle.
    pub fn rect(&mut self, r: Rect, fill: &str, stroke: &str, opacity: f64) {
        let x = self.tx(r.lx);
        let y = self.ty(r.hy);
        let w = self.tx(r.hx) - x;
        let h = self.ty(r.ly) - y;
        let _ = write!(
            self.body,
            r#"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{fill}" stroke="{stroke}" stroke-width="0.5" fill-opacity="{opacity}"/>"#
        );
        self.body.push('\n');
    }

    /// Draws a dot at a world coordinate.
    pub fn dot(&mut self, x: f64, y: f64, radius: f64, fill: &str) {
        let _ = write!(
            self.body,
            r#"<circle cx="{:.2}" cy="{:.2}" r="{radius:.2}" fill="{fill}"/>"#,
            self.tx(x),
            self.ty(y)
        );
        self.body.push('\n');
    }

    /// Draws a world-coordinate polyline.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) {
        if points.len() < 2 {
            return;
        }
        let pts: Vec<String> = points
            .iter()
            .map(|&(x, y)| format!("{:.2},{:.2}", self.tx(x), self.ty(y)))
            .collect();
        let _ = write!(
            self.body,
            r#"<polyline points="{}" fill="none" stroke="{stroke}" stroke-width="{width}"/>"#,
            pts.join(" ")
        );
        self.body.push('\n');
    }

    /// Draws screen-coordinate text (x, y in pixels).
    pub fn text(&mut self, x: f64, y: f64, size: f64, content: &str) {
        let _ = write!(
            self.body,
            r#"<text x="{x:.1}" y="{y:.1}" font-size="{size}" font-family="monospace">{content}</text>"#
        );
        self.body.push('\n');
    }

    /// Finalizes the SVG document.
    pub fn render(&self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" viewBox=\"0 0 {} {}\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body
        )
    }
}

/// Renders a placement snapshot in the paper's Figure 2 style: fixed
/// obstacles gray, movable macros red outlines, standard cells blue dots,
/// optional shreds green dots.
pub fn placement_snapshot(
    design: &Design,
    placement: &Placement,
    shreds: Option<&[complx_spread::Item]>,
    px: f64,
) -> String {
    let mut canvas = SvgCanvas::new(
        px,
        px * design.core().height() / design.core().width(),
        design.core(),
    );
    canvas.rect(design.core(), "none", "black", 1.0);
    for id in design.cell_ids() {
        let cell = design.cell(id);
        match cell.kind() {
            CellKind::Fixed => {
                let r = design
                    .fixed_positions()
                    .cell_rect(id, cell.width(), cell.height());
                canvas.rect(r, "#bbbbbb", "#888888", 0.9);
            }
            CellKind::MovableMacro => {
                let r = placement.cell_rect(id, cell.width(), cell.height());
                canvas.rect(r, "none", "red", 1.0);
            }
            CellKind::Movable => {
                let p = placement.position(id);
                canvas.dot(p.x, p.y, 1.0, "#3355cc");
            }
            CellKind::Terminal => {}
        }
    }
    if let Some(items) = shreds {
        for it in items {
            let id = complx_netlist::CellId::from_index(it.owner as usize);
            if design.cell(id).kind() == CellKind::MovableMacro {
                canvas.dot(it.x, it.y, 0.8, "#22aa44");
            }
        }
    }
    canvas.render()
}

/// One plot series: `(name, css color, points)`.
pub type PlotSeries<'a> = (&'a str, &'a str, &'a [(f64, f64)]);

/// Renders an x/y scatter-or-line plot with axis labels (Figures 1, 3).
pub fn xy_plot(series: &[PlotSeries<'_>], x_label: &str, y_label: &str, log_y: bool) -> String {
    let (w, h, margin) = (640.0, 420.0, 50.0);
    let mut lo_x = f64::INFINITY;
    let mut hi_x = f64::NEG_INFINITY;
    let mut lo_y = f64::INFINITY;
    let mut hi_y = f64::NEG_INFINITY;
    let ty = |v: f64| if log_y { v.max(1e-12).ln() } else { v };
    for (_, _, pts) in series {
        for &(x, y) in *pts {
            lo_x = lo_x.min(x);
            hi_x = hi_x.max(x);
            lo_y = lo_y.min(ty(y));
            hi_y = hi_y.max(ty(y));
        }
    }
    if !lo_x.is_finite() {
        return String::new();
    }
    let world = Rect::new(lo_x, lo_y, hi_x.max(lo_x + 1e-9), hi_y.max(lo_y + 1e-9));
    let mut canvas = SvgCanvas::new(w - 2.0 * margin, h - 2.0 * margin, world);
    for (si, (_, color, pts)) in series.iter().enumerate() {
        let mapped: Vec<(f64, f64)> = pts.iter().map(|&(x, y)| (x, ty(y))).collect();
        canvas.polyline(&mapped, color, 1.5);
        for &(x, y) in &mapped {
            canvas.dot(x, y, 2.5, color);
        }
        let _ = si;
    }
    // Axis ticks: five per axis, with value labels (inverse-transformed
    // back out of log space when needed).
    let mut ticks = String::new();
    let plot_w = w - 2.0 * margin;
    let plot_h = h - 2.0 * margin;
    for i in 0..=4 {
        let f = i as f64 / 4.0;
        // x ticks along the bottom edge.
        let xv = lo_x + f * (hi_x - lo_x);
        let xp = margin + f * plot_w;
        let _ = write!(
            ticks,
            "<line x1=\"{xp:.1}\" y1=\"{:.1}\" x2=\"{xp:.1}\" y2=\"{:.1}\" stroke=\"#999\"/><text x=\"{xp:.1}\" y=\"{:.1}\" font-size=\"10\" font-family=\"monospace\" text-anchor=\"middle\">{}</text>",
            h - margin,
            h - margin + 5.0,
            h - margin + 16.0,
            format_tick(xv)
        );
        // y ticks along the left edge.
        let yv_t = lo_y + f * (hi_y - lo_y);
        let yv = if log_y { yv_t.exp() } else { yv_t };
        let yp = h - margin - f * plot_h;
        let _ = write!(
            ticks,
            "<line x1=\"{:.1}\" y1=\"{yp:.1}\" x2=\"{:.1}\" y2=\"{yp:.1}\" stroke=\"#999\"/><text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" font-family=\"monospace\" text-anchor=\"end\">{}</text>",
            margin - 5.0,
            margin,
            margin - 8.0,
            yp + 3.0,
            format_tick(yv)
        );
    }

    // Compose with margins + labels.
    let inner = canvas.render();
    let inner = inner
        .replace("<svg xmlns=\"http://www.w3.org/2000/svg\"", "<svg")
        .replacen(
            "<svg",
            &format!("<g transform=\"translate({margin},{margin})\""),
            1,
        )
        .replace("</svg>", "</g>");
    let mut legend = String::new();
    for (i, (name, color, _)) in series.iter().enumerate() {
        let _ = write!(
            legend,
            "<circle cx=\"{}\" cy=\"{}\" r=\"4\" fill=\"{color}\"/><text x=\"{}\" y=\"{}\" font-size=\"12\" font-family=\"monospace\">{name}</text>",
            margin + 10.0,
            margin + 14.0 * i as f64 + 6.0,
            margin + 20.0,
            margin + 14.0 * i as f64 + 10.0
        );
    }
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n{inner}{ticks}{legend}<text x=\"{}\" y=\"{}\" font-size=\"13\" font-family=\"monospace\">{x_label}</text>\n<text x=\"12\" y=\"{}\" font-size=\"13\" font-family=\"monospace\" transform=\"rotate(-90 12 {})\">{y_label}{}</text>\n</svg>\n",
        w / 2.0 - 40.0,
        h - 12.0,
        h / 2.0,
        h / 2.0,
        if log_y { " (log)" } else { "" }
    )
}

/// Compact tick-label formatting: integers plainly, large/small values in
/// scientific notation.
fn format_tick(v: f64) -> String {
    let a = v.abs();
    // Exact zero picks the "0" tick label; every
    // other magnitude takes the ranged formatting below.
    if a == 0.0 {
        "0".to_string()
    } else if (1e-2..1e4).contains(&a) {
        if (v - v.round()).abs() < 1e-9 {
            format!("{}", v.round() as i64)
        } else {
            format!("{v:.2}")
        }
    } else {
        format!("{v:.1e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use complx_netlist::generator::GeneratorConfig;

    #[test]
    fn canvas_produces_valid_svg_shell() {
        let mut c = SvgCanvas::new(100.0, 100.0, Rect::new(0.0, 0.0, 10.0, 10.0));
        c.rect(Rect::new(1.0, 1.0, 2.0, 2.0), "red", "black", 1.0);
        c.dot(5.0, 5.0, 1.0, "blue");
        c.polyline(&[(0.0, 0.0), (10.0, 10.0)], "green", 1.0);
        c.text(10.0, 10.0, 10.0, "hello");
        let s = c.render();
        assert!(s.starts_with("<svg"));
        assert!(s.ends_with("</svg>\n"));
        assert!(s.contains("<rect"));
        assert!(s.contains("<circle"));
        assert!(s.contains("<polyline"));
        assert!(s.contains("hello"));
    }

    #[test]
    fn y_axis_is_flipped() {
        let c = SvgCanvas::new(100.0, 100.0, Rect::new(0.0, 0.0, 10.0, 10.0));
        assert!(c.ty(0.0) > c.ty(10.0));
        assert_eq!(c.ty(0.0), 100.0);
    }

    #[test]
    fn snapshot_renders_all_kinds() {
        let d = GeneratorConfig::ispd2006_like("svg", 1, 200, 0.8).generate();
        let p = d.initial_placement();
        let items = complx_spread::shred::build_items(&d, &p, true);
        let s = placement_snapshot(&d, &p, Some(&items), 400.0);
        assert!(s.contains("red"));
        assert!(s.contains("#3355cc"));
        assert!(s.contains("#22aa44"));
    }

    #[test]
    fn xy_plot_includes_labels_and_ticks() {
        let pts = [(1.0, 10.0), (2.0, 100.0)];
        let s = xy_plot(&[("s", "#ff0000", &pts)], "nets", "lambda", true);
        assert!(s.contains("nets"));
        assert!(s.contains("lambda (log)"));
        // Tick lines and labels are present.
        assert!(s.matches("<line").count() >= 10);
        assert!(s.contains("text-anchor"));
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(format_tick(0.0), "0");
        assert_eq!(format_tick(5.0), "5");
        assert_eq!(format_tick(2.5), "2.50");
        assert_eq!(format_tick(123456.0), "1.2e5");
        assert_eq!(format_tick(0.0001), "1.0e-4");
    }
}
