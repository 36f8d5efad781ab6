//! Reader and writer for the Bookshelf placement format used by the ISPD
//! 2005/2006 contests (`.aux`, `.nodes`, `.nets`, `.pl`, `.scl`, `.wts`).
//!
//! One member is this workspace's own: a constrained design also carries a
//! `.regions` file (paper §S5), one constraint per line,
//!
//! ```text
//! Region <name> <lx> <ly> <hx> <hy> : <node> <node> ...
//! Alignment <name> horizontal|vertical : <node> <node> ...
//! ```
//!
//! so region and alignment constraints survive a round trip and a solution
//! bundle can be checked against them. Unconstrained designs are written
//! without it.
//!
//! The reader accepts real contest files, so the benchmark harness can be
//! pointed at the original ISPD suites when they are available; the synthetic
//! generator produces the same format. Pin offsets in `.nets` are measured
//! from node centers (the Bookshelf convention), matching [`crate::Pin`].
//! Positions in `.pl` are lower-left corners and are converted to the
//! center convention of [`crate::Placement`] on the way in and back on the
//! way out.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::cell::{CellId, CellKind};
use crate::design::{Design, DesignBuilder};
use crate::error::BookshelfError;
use crate::geom::{Point, Rect};
use crate::placement::Placement;
use crate::region::{AlignmentAxis, AlignmentConstraint, RegionConstraint};

/// A parsed Bookshelf bundle: the design plus the `.pl` placement (useful
/// when reading a solution file).
#[derive(Debug, Clone)]
pub struct BookshelfBundle {
    /// The parsed design.
    pub design: Design,
    /// The placement from the `.pl` file (cell centers).
    pub placement: Placement,
}

fn parse_err(file: &Path, line: usize, message: impl Into<String>) -> BookshelfError {
    BookshelfError::Parse {
        file: file.display().to_string(),
        line,
        message: message.into(),
    }
}

/// Lines of a Bookshelf file with comments and headers stripped,
/// keeping 1-based line numbers.
fn content_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with("UCLA") {
            None
        } else {
            Some((i + 1, line))
        }
    })
}

/// Reads a Bookshelf `.aux` bundle.
///
/// # Errors
///
/// Returns an error on I/O failure, malformed syntax, missing component
/// files, or a semantically invalid netlist.
pub fn read_aux(aux_path: impl AsRef<Path>) -> Result<BookshelfBundle, BookshelfError> {
    let aux_path = aux_path.as_ref();
    let aux_text = fs::read_to_string(aux_path)?;
    let dir = aux_path.parent().unwrap_or(Path::new("."));

    let mut nodes_file = None;
    let mut nets_file = None;
    let mut pl_file = None;
    let mut scl_file = None;
    let mut wts_file = None;
    let mut regions_file = None;
    for line in aux_text.lines() {
        let Some((_, files)) = line.split_once(':') else {
            continue;
        };
        for f in files.split_whitespace() {
            let p = dir.join(f);
            match Path::new(f).extension().and_then(|e| e.to_str()) {
                Some("nodes") => nodes_file = Some(p),
                Some("nets") => nets_file = Some(p),
                Some("pl") => pl_file = Some(p),
                Some("scl") => scl_file = Some(p),
                Some("wts") => wts_file = Some(p),
                Some("regions") => regions_file = Some(p),
                _ => {}
            }
        }
    }
    let nodes_file = nodes_file.ok_or(BookshelfError::MissingComponent("nodes"))?;
    let nets_file = nets_file.ok_or(BookshelfError::MissingComponent("nets"))?;
    let pl_file = pl_file.ok_or(BookshelfError::MissingComponent("pl"))?;
    let scl_file = scl_file.ok_or(BookshelfError::MissingComponent("scl"))?;

    let design_name = aux_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bookshelf")
        .to_string();

    read_components(
        design_name,
        &nodes_file,
        &nets_file,
        &pl_file,
        &scl_file,
        wts_file.as_deref(),
        regions_file.as_deref(),
    )
}

struct NodeDecl {
    name: String,
    width: f64,
    height: f64,
    terminal: bool,
    terminal_ni: bool,
}

fn read_components(
    design_name: String,
    nodes_file: &Path,
    nets_file: &Path,
    pl_file: &Path,
    scl_file: &Path,
    wts_file: Option<&Path>,
    regions_file: Option<&Path>,
) -> Result<BookshelfBundle, BookshelfError> {
    // --- .scl: rows → core rect + row height -----------------------------
    let scl_text = fs::read_to_string(scl_file)?;
    let (core, row_height) = parse_scl(&scl_text, scl_file)?;

    // --- .nodes -----------------------------------------------------------
    let nodes_text = fs::read_to_string(nodes_file)?;
    let mut decls: Vec<NodeDecl> = Vec::new();
    for (ln, line) in content_lines(&nodes_text) {
        if line.starts_with("NumNodes") || line.starts_with("NumTerminals") {
            continue;
        }
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| parse_err(nodes_file, ln, "missing node name"))?;
        let width: f64 = it
            .next()
            .ok_or_else(|| parse_err(nodes_file, ln, "missing width"))?
            .parse()
            .map_err(|_| parse_err(nodes_file, ln, "bad width"))?;
        let height: f64 = it
            .next()
            .ok_or_else(|| parse_err(nodes_file, ln, "missing height"))?
            .parse()
            .map_err(|_| parse_err(nodes_file, ln, "bad height"))?;
        let tag = it.next().unwrap_or("");
        decls.push(NodeDecl {
            name: name.to_string(),
            width,
            height,
            terminal: tag == "terminal",
            terminal_ni: tag == "terminal_NI",
        });
    }

    // --- .pl --------------------------------------------------------------
    let pl_text = fs::read_to_string(pl_file)?;
    let mut positions: HashMap<String, (f64, f64, bool)> = HashMap::new();
    for (ln, line) in content_lines(&pl_text) {
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| parse_err(pl_file, ln, "missing node name"))?;
        let x: f64 = it
            .next()
            .ok_or_else(|| parse_err(pl_file, ln, "missing x"))?
            .parse()
            .map_err(|_| parse_err(pl_file, ln, "bad x"))?;
        let y: f64 = it
            .next()
            .ok_or_else(|| parse_err(pl_file, ln, "missing y"))?
            .parse()
            .map_err(|_| parse_err(pl_file, ln, "bad y"))?;
        let fixed = line.contains("/FIXED");
        positions.insert(name.to_string(), (x, y, fixed));
    }

    // --- build cells --------------------------------------------------
    let mut builder = DesignBuilder::new(design_name, core, row_height);
    let mut ids: HashMap<String, CellId> = HashMap::new();
    for d in &decls {
        let (x, y, fixed_in_pl) = positions.get(&d.name).copied().unwrap_or((0.0, 0.0, false));
        // Convert lower-left to center.
        let center = Point::new(x + 0.5 * d.width, y + 0.5 * d.height);
        let kind = if d.terminal_ni {
            CellKind::Terminal
        } else if d.terminal || fixed_in_pl {
            CellKind::Fixed
        } else if d.height > row_height * 1.5 {
            CellKind::MovableMacro
        } else {
            CellKind::Movable
        };
        let id = match kind {
            CellKind::Movable | CellKind::MovableMacro => {
                builder.add_cell(&d.name, d.width, d.height, kind)?
            }
            _ => builder.add_fixed_cell(&d.name, d.width, d.height, kind, center)?,
        };
        ids.insert(d.name.clone(), id);
    }

    // --- .wts (optional net weights by name) -------------------------------
    let mut weights: HashMap<String, f64> = HashMap::new();
    if let Some(wf) = wts_file {
        if wf.exists() {
            let wts_text = fs::read_to_string(wf)?;
            for (ln, line) in content_lines(&wts_text) {
                let mut it = line.split_whitespace();
                let name = it.next().ok_or_else(|| parse_err(wf, ln, "missing name"))?;
                let w: f64 = it
                    .next()
                    .ok_or_else(|| parse_err(wf, ln, "missing weight"))?
                    .parse()
                    .map_err(|_| parse_err(wf, ln, "bad weight"))?;
                weights.insert(name.to_string(), w);
            }
        }
    }

    // --- .nets --------------------------------------------------------
    let nets_text = fs::read_to_string(nets_file)?;
    type PartialNet = (String, usize, Vec<(CellId, f64, f64)>);
    let mut current: Option<PartialNet> = None;
    let finish =
        |builder: &mut DesignBuilder, cur: Option<PartialNet>| -> Result<(), BookshelfError> {
            if let Some((name, degree, pins)) = cur {
                if pins.len() != degree {
                    return Err(BookshelfError::Parse {
                        file: nets_file.display().to_string(),
                        line: 0,
                        message: format!(
                            "net `{name}` declared degree {degree} but has {} pins",
                            pins.len()
                        ),
                    });
                }
                if pins.len() >= 2 {
                    let w = weights.get(&name).copied().unwrap_or(1.0);
                    builder.add_net(name, w, pins)?;
                }
                // Single-pin nets are legal Bookshelf but contribute nothing
                // to HPWL; they are dropped.
            }
            Ok(())
        };
    for (ln, line) in content_lines(&nets_text) {
        if line.starts_with("NumNets") || line.starts_with("NumPins") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("NetDegree") {
            finish(&mut builder, current.take())?;
            let rest = rest.trim().trim_start_matches(':').trim();
            let mut it = rest.split_whitespace();
            let degree: usize = it
                .next()
                .ok_or_else(|| parse_err(nets_file, ln, "missing degree"))?
                .parse()
                .map_err(|_| parse_err(nets_file, ln, "bad degree"))?;
            let name = it
                .next()
                .map(str::to_string)
                .unwrap_or_else(|| format!("net_{ln}"));
            current = Some((name, degree, Vec::with_capacity(degree)));
            continue;
        }
        // Pin line: `nodename I : dx dy` (offsets optional).
        let Some((_, _, pins)) = current.as_mut() else {
            return Err(parse_err(nets_file, ln, "pin line outside a net"));
        };
        let mut it = line.split_whitespace();
        let node = it
            .next()
            .ok_or_else(|| parse_err(nets_file, ln, "missing node"))?;
        let id = *ids
            .get(node)
            .ok_or_else(|| parse_err(nets_file, ln, format!("unknown node `{node}`")))?;
        // Skip direction token and ':'; remaining are offsets.
        let rest: Vec<&str> = it.filter(|t| *t != ":").collect();
        let (dx, dy) = match rest.as_slice() {
            [_, dx, dy] | [dx, dy] => (
                dx.parse()
                    .map_err(|_| parse_err(nets_file, ln, "bad pin dx"))?,
                dy.parse()
                    .map_err(|_| parse_err(nets_file, ln, "bad pin dy"))?,
            ),
            _ => (0.0, 0.0),
        };
        pins.push((id, dx, dy));
    }
    finish(&mut builder, current.take())?;

    // --- .regions (optional region and alignment constraints) -----------
    if let Some(rf) = regions_file {
        let text = fs::read_to_string(rf)?;
        for (ln, line) in content_lines(&text) {
            let (head, members) = line
                .split_once(':')
                .ok_or_else(|| parse_err(rf, ln, "expected `<constraint> : <nodes>`"))?;
            let cells = members
                .split_whitespace()
                .map(|n| {
                    ids.get(n)
                        .copied()
                        .ok_or_else(|| parse_err(rf, ln, format!("unknown node `{n}`")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            match head.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["Region", name, coords @ ..] if coords.len() == 4 => {
                    let c = coords
                        .iter()
                        .map(|v| v.parse::<f64>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|_| parse_err(rf, ln, "bad region coordinate"))?;
                    if !(c.iter().all(|v| v.is_finite()) && c[0] <= c[2] && c[1] <= c[3]) {
                        return Err(parse_err(rf, ln, "degenerate region rectangle"));
                    }
                    let rect = Rect::new(c[0], c[1], c[2], c[3]);
                    builder.add_region(RegionConstraint::new(*name, rect, cells));
                }
                ["Alignment", name, axis] => {
                    let axis = match *axis {
                        "horizontal" => AlignmentAxis::Horizontal,
                        "vertical" => AlignmentAxis::Vertical,
                        _ => return Err(parse_err(rf, ln, "bad alignment axis")),
                    };
                    builder.add_alignment(AlignmentConstraint::new(*name, axis, cells));
                }
                _ => return Err(parse_err(rf, ln, "expected a Region or Alignment line")),
            }
        }
    }

    let design = builder.build()?;

    // Placement from .pl (centers).
    let mut placement = design.fixed_positions().clone();
    for (name, (x, y, _)) in &positions {
        if let Some(&id) = ids.get(name) {
            let c = design.cell(id);
            placement.set_position(id, Point::new(x + 0.5 * c.width(), y + 0.5 * c.height()));
        }
    }

    Ok(BookshelfBundle { design, placement })
}

fn parse_scl(text: &str, file: &Path) -> Result<(Rect, f64), BookshelfError> {
    let mut row_height = 0.0f64;
    let mut lx = f64::INFINITY;
    let mut ly = f64::INFINITY;
    let mut hx = f64::NEG_INFINITY;
    let mut hy = f64::NEG_INFINITY;

    let mut coord = None;
    let mut height = None;
    let mut origin = None;
    let mut sites: Option<f64> = None;
    let mut site_width = 1.0f64;
    let mut any_row = false;

    let mut flush = |coord: &mut Option<f64>,
                     height: &mut Option<f64>,
                     origin: &mut Option<f64>,
                     sites: &mut Option<f64>,
                     site_width: f64| {
        if let (Some(y), Some(h), Some(x0), Some(n)) = (*coord, *height, *origin, *sites) {
            // A row with no sites or no height spans nothing; folding it into
            // the core rect would create a degenerate (or wrongly inflated)
            // core, so empty rows are skipped. If every row is empty the
            // no-rows error below fires.
            let usable = [y, h, x0, n].iter().all(|v| v.is_finite()) && h > 0.0 && n > 0.0;
            if usable {
                lx = lx.min(x0);
                hx = hx.max(x0 + n * site_width);
                ly = ly.min(y);
                hy = hy.max(y + h);
                row_height = h;
                any_row = true;
            }
        }
        *coord = None;
        *height = None;
        *origin = None;
        *sites = None;
    };

    for (ln, line) in content_lines(text) {
        if line.starts_with("NumRows") {
            continue;
        }
        if line.starts_with("CoreRow") {
            flush(&mut coord, &mut height, &mut origin, &mut sites, site_width);
            continue;
        }
        if line.starts_with("End") {
            flush(&mut coord, &mut height, &mut origin, &mut sites, site_width);
            continue;
        }
        let get_val = |l: &str| -> Option<f64> {
            l.split_once(':')
                .and_then(|(_, v)| v.split_whitespace().next().map(str::to_string))
                .and_then(|v| v.parse().ok())
        };
        if line.starts_with("Coordinate") {
            coord = get_val(line);
        } else if line.starts_with("Height") {
            height = get_val(line);
        } else if line.starts_with("Sitewidth") {
            site_width = get_val(line).ok_or_else(|| parse_err(file, ln, "bad Sitewidth"))?;
        } else if line.starts_with("SubrowOrigin") {
            // Format: `SubrowOrigin : x  NumSites : n`
            let mut parts = line.split(':');
            parts.next();
            if let Some(rest) = parts.next() {
                origin = rest.split_whitespace().next().and_then(|v| v.parse().ok());
            }
            if let Some(rest) = parts.next() {
                sites = rest.split_whitespace().next().and_then(|v| v.parse().ok());
            }
        } else if line.starts_with("NumSites") {
            sites = get_val(line);
        }
    }
    flush(&mut coord, &mut height, &mut origin, &mut sites, site_width);

    if !any_row {
        return Err(parse_err(file, 0, "scl file contains no usable rows"));
    }
    Ok((Rect::new(lx, ly, hx, hy), row_height))
}

/// Writes a design and placement as a Bookshelf bundle
/// `<dir>/<name>.{aux,nodes,nets,pl,scl,wts}`, plus `<name>.regions` when
/// the design has region or alignment constraints.
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn write_bundle(
    design: &Design,
    placement: &Placement,
    dir: impl AsRef<Path>,
) -> Result<PathBuf, BookshelfError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let name = design.name();
    let base = |ext: &str| dir.join(format!("{name}.{ext}"));

    // Each file is rendered to memory and committed with an atomic
    // tmp+rename so an interrupted export never leaves a torn bundle
    // member behind (a half-written .nodes file parses as a valid but
    // wrong design — worse than no file at all).

    // .nodes
    let mut nodes: Vec<u8> = Vec::new();
    writeln!(nodes, "UCLA nodes 1.0")?;
    let num_terminals = design
        .cell_ids()
        .filter(|&id| !design.cell(id).is_movable())
        .count();
    writeln!(nodes, "NumNodes : {}", design.num_cells())?;
    writeln!(nodes, "NumTerminals : {num_terminals}")?;
    for id in design.cell_ids() {
        let c = design.cell(id);
        let tag = match c.kind() {
            CellKind::Fixed => " terminal",
            CellKind::Terminal => " terminal_NI",
            _ => "",
        };
        writeln!(nodes, "{} {} {}{}", c.name(), c.width(), c.height(), tag)?;
    }

    // .nets
    let mut nets: Vec<u8> = Vec::new();
    writeln!(nets, "UCLA nets 1.0")?;
    writeln!(nets, "NumNets : {}", design.num_nets())?;
    writeln!(nets, "NumPins : {}", design.num_pins())?;
    for nid in design.net_ids() {
        let n = design.net(nid);
        writeln!(nets, "NetDegree : {} {}", n.degree(), n.name())?;
        for pin in design.net_pins(nid) {
            writeln!(
                nets,
                "  {} B : {} {}",
                design.cell(pin.cell).name(),
                pin.dx,
                pin.dy
            )?;
        }
    }

    // .wts
    let mut wts: Vec<u8> = Vec::new();
    writeln!(wts, "UCLA wts 1.0")?;
    for nid in design.net_ids() {
        let n = design.net(nid);
        #[expect(
            clippy::float_cmp,
            reason = "1.0 is the exact default weight; only explicitly weighted nets belong in the .wts file"
        )]
        let weighted = n.weight() != 1.0;
        if weighted {
            writeln!(wts, "{} {}", n.name(), n.weight())?;
        }
    }

    // .pl (lower-left corners)
    let mut pl: Vec<u8> = Vec::new();
    writeln!(pl, "UCLA pl 1.0")?;
    for id in design.cell_ids() {
        let c = design.cell(id);
        let p = placement.position(id);
        let x = p.x - 0.5 * c.width();
        let y = p.y - 0.5 * c.height();
        let suffix = match c.kind() {
            CellKind::Fixed => " /FIXED",
            CellKind::Terminal => " /FIXED_NI",
            _ => "",
        };
        writeln!(pl, "{} {} {} : N{}", c.name(), x, y, suffix)?;
    }

    // .scl (uniform rows spanning the core)
    let core = design.core();
    let rh = design.row_height();
    let num_rows = (core.height() / rh).floor().max(1.0) as usize;
    let mut scl: Vec<u8> = Vec::new();
    writeln!(scl, "UCLA scl 1.0")?;
    writeln!(scl, "NumRows : {num_rows}")?;
    for r in 0..num_rows {
        writeln!(scl, "CoreRow Horizontal")?;
        writeln!(scl, " Coordinate : {}", core.ly + r as f64 * rh)?;
        writeln!(scl, " Height : {rh}")?;
        writeln!(scl, " Sitewidth : 1")?;
        writeln!(scl, " Sitespacing : 1")?;
        writeln!(scl, " Siteorient : 1")?;
        writeln!(scl, " Sitesymmetry : 1")?;
        writeln!(
            scl,
            " SubrowOrigin : {} NumSites : {}",
            core.lx,
            core.width().floor() as usize
        )?;
        writeln!(scl, "End")?;
    }

    let mut members = vec![
        ("nodes", nodes),
        ("nets", nets),
        ("wts", wts),
        ("pl", pl),
        ("scl", scl),
    ];

    // .regions (constrained designs only)
    if !design.regions().is_empty() || !design.alignments().is_empty() {
        let mut regions: Vec<u8> = Vec::new();
        writeln!(regions, "UCLA regions 1.0")?;
        let names = |cells: &[CellId]| -> String {
            cells
                .iter()
                .map(|&id| format!(" {}", design.cell(id).name()))
                .collect()
        };
        for r in design.regions() {
            let b = r.rect();
            let (lx, ly, hx, hy) = (b.lx, b.ly, b.hx, b.hy);
            let cells = names(r.cells());
            writeln!(regions, "Region {} {lx} {ly} {hx} {hy} :{cells}", r.name())?;
        }
        for a in design.alignments() {
            let axis = match a.axis() {
                AlignmentAxis::Horizontal => "horizontal",
                AlignmentAxis::Vertical => "vertical",
            };
            let cells = names(a.cells());
            writeln!(regions, "Alignment {} {axis} :{cells}", a.name())?;
        }
        members.push(("regions", regions));
    }

    // .aux last: it names the other members, so its appearance signals a
    // complete bundle.
    let listed: String = members
        .iter()
        .map(|(ext, _)| format!(" {name}.{ext}"))
        .collect();
    let mut aux: Vec<u8> = Vec::new();
    writeln!(aux, "RowBasedPlacement :{listed}")?;
    members.push(("aux", aux));
    for (ext, bytes) in &members {
        complx_obs::atomicio::write_atomic(&base(ext), bytes)?;
    }

    Ok(base("aux"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;
    use crate::hpwl::hpwl;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("complx_bookshelf_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trip_preserves_structure_and_hpwl() {
        let design = GeneratorConfig::small("rt", 7).generate();
        let placement = design.initial_placement();
        let dir = tmp_dir("rt");
        let aux = write_bundle(&design, &placement, &dir).unwrap();
        let bundle = read_aux(&aux).unwrap();
        assert_eq!(bundle.design.num_cells(), design.num_cells());
        assert_eq!(bundle.design.num_nets(), design.num_nets());
        assert_eq!(bundle.design.num_pins(), design.num_pins());
        let a = hpwl(&design, &placement);
        let b = hpwl(&bundle.design, &bundle.placement);
        assert!((a - b).abs() < 1e-6 * a.max(1.0), "hpwl {a} vs {b}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn region_and_alignment_constraints_round_trip() {
        let base = GeneratorConfig::small("rg", 5).generate();
        let cells = base.movable_cells();
        let core = base.core();
        let mut b = DesignBuilder::from_design(&base);
        b.add_region(RegionConstraint::new(
            "r0",
            Rect::new(
                core.lx + 0.5,
                core.ly,
                core.center().x,
                core.center().y + 0.25,
            ),
            cells[..3].to_vec(),
        ));
        b.add_alignment(AlignmentConstraint::new(
            "a0",
            AlignmentAxis::Horizontal,
            cells[3..6].to_vec(),
        ));
        let design = b.build().unwrap();
        let dir = tmp_dir("regions");
        let aux = write_bundle(&design, &design.initial_placement(), &dir).unwrap();
        let back = read_aux(&aux).unwrap().design;
        assert_eq!(back.regions(), design.regions());
        assert_eq!(back.alignments(), design.alignments());
        // An unconstrained design keeps the contest's five members.
        let plain = tmp_dir("no_regions");
        write_bundle(&base, &base.initial_placement(), &plain).unwrap();
        assert!(!plain.join("rg.regions").exists());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&plain);
    }

    #[test]
    fn malformed_regions_file_is_a_parse_error() {
        let base = GeneratorConfig::small("rb", 5).generate();
        let dir = tmp_dir("bad_regions");
        let aux = write_bundle(&base, &base.initial_placement(), &dir).unwrap();
        let listed = fs::read_to_string(&aux).unwrap();
        fs::write(&aux, format!("{} rb.regions\n", listed.trim_end())).unwrap();
        for bad in [
            "Region r 0 0 1 : nosuchnode",
            "Region r 5 0 1 1 :",
            "Region r 0 0 1 :",
            "Alignment a diagonal :",
            "Fence f :",
            "Region r 0 0 1 1",
        ] {
            fs::write(dir.join("rb.regions"), bad).unwrap();
            assert!(
                matches!(read_aux(&aux), Err(BookshelfError::Parse { .. })),
                "accepted {bad:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_component_is_reported() {
        let dir = tmp_dir("missing");
        let aux = dir.join("x.aux");
        fs::write(&aux, "RowBasedPlacement : x.nodes x.pl\n").unwrap();
        let err = read_aux(&aux).unwrap_err();
        assert!(matches!(err, BookshelfError::MissingComponent(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_scl_core_extent() {
        let text = "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n Coordinate : 0\n Height : 10\n Sitewidth : 1\n SubrowOrigin : 5 NumSites : 100\nEnd\nCoreRow Horizontal\n Coordinate : 10\n Height : 10\n Sitewidth : 1\n SubrowOrigin : 5 NumSites : 100\nEnd\n";
        let (core, rh) = parse_scl(text, Path::new("t.scl")).unwrap();
        assert_eq!(rh, 10.0);
        assert_eq!(core, Rect::new(5.0, 0.0, 105.0, 20.0));
    }

    #[test]
    fn degree_mismatch_rejected() {
        let dir = tmp_dir("deg");
        fs::write(
            dir.join("x.aux"),
            "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n",
        )
        .unwrap();
        fs::write(
            dir.join("x.nodes"),
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na 1 1\nb 1 1\n",
        )
        .unwrap();
        fs::write(
            dir.join("x.nets"),
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 3 n0\n a B : 0 0\n b B : 0 0\n",
        )
        .unwrap();
        fs::write(dir.join("x.pl"), "UCLA pl 1.0\na 0 0 : N\nb 5 5 : N\n").unwrap();
        fs::write(
            dir.join("x.scl"),
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n",
        )
        .unwrap();
        let err = read_aux(dir.join("x.aux")).unwrap_err();
        assert!(matches!(err, BookshelfError::Parse { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fixed_and_terminal_tags_round_trip() {
        let dir = tmp_dir("kinds");
        fs::write(
            dir.join("k.aux"),
            "RowBasedPlacement : k.nodes k.nets k.pl k.scl\n",
        )
        .unwrap();
        fs::write(
            dir.join("k.nodes"),
            "UCLA nodes 1.0\nNumNodes : 4\nNumTerminals : 2\nm 1 1\nmac 2 6\nobs 3 3 terminal\npad 1 1 terminal_NI\n",
        )
        .unwrap();
        fs::write(
            dir.join("k.nets"),
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n m B : 0 0\n pad B : 0 0\n",
        )
        .unwrap();
        fs::write(
            dir.join("k.pl"),
            "UCLA pl 1.0\nm 0 0 : N\nmac 4 4 : N\nobs 10 10 : N /FIXED\npad 0 20 : N /FIXED_NI\n",
        )
        .unwrap();
        fs::write(
            dir.join("k.scl"),
            "UCLA scl 1.0\nNumRows : 30\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 30\nEnd\n",
        )
        .unwrap();
        let bundle = read_aux(dir.join("k.aux")).unwrap();
        let d = &bundle.design;
        assert_eq!(d.cell(d.find_cell("m").unwrap()).kind(), CellKind::Movable);
        assert_eq!(
            d.cell(d.find_cell("mac").unwrap()).kind(),
            CellKind::MovableMacro
        );
        assert_eq!(d.cell(d.find_cell("obs").unwrap()).kind(), CellKind::Fixed);
        assert_eq!(
            d.cell(d.find_cell("pad").unwrap()).kind(),
            CellKind::Terminal
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
