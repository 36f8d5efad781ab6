//! Edge-case tests for the Bookshelf parser: comments, whitespace quirks,
//! optional files, and real-world format variations.

use std::fs;
use std::path::PathBuf;

use complx_netlist::{bookshelf, CellKind};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("complx_bs_edge_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("temp dir");
    d
}

fn write_minimal(dir: &std::path::Path, nets_body: &str) {
    fs::write(
        dir.join("x.aux"),
        "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n",
    )
    .expect("write aux");
    fs::write(
        dir.join("x.nodes"),
        "UCLA nodes 1.0\n# a comment line\nNumNodes : 3\nNumTerminals : 1\n  a  2  1\n  b  2  1\n  p  1  1  terminal_NI\n",
    )
    .expect("write nodes");
    fs::write(dir.join("x.nets"), nets_body).expect("write nets");
    fs::write(
        dir.join("x.pl"),
        "UCLA pl 1.0\n# positions\na 0 0 : N\nb 5 0 : N\np 0 5 : N /FIXED_NI\n",
    )
    .expect("write pl");
    fs::write(
        dir.join("x.scl"),
        "UCLA scl 1.0\nNumRows : 10\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n Sitespacing : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n",
    )
    .expect("write scl");
}

#[test]
fn comments_and_extra_whitespace_tolerated() {
    let dir = tmp("comments");
    write_minimal(
        &dir,
        "UCLA nets 1.0\n# nets below\nNumNets : 1\nNumPins : 3\nNetDegree : 3   n0\n  a  B : 0.5 0\n  b  I : -0.5 0\n  p  O : 0 0\n",
    );
    let bundle = bookshelf::read_aux(dir.join("x.aux")).expect("parse succeeds");
    assert_eq!(bundle.design.num_cells(), 3);
    assert_eq!(bundle.design.num_nets(), 1);
    assert_eq!(bundle.design.num_pins(), 3);
    // Pin offsets survive.
    let nid = bundle.design.net_ids().next().expect("one net");
    assert_eq!(bundle.design.net_pins(nid)[0].dx, 0.5);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn pins_without_offsets_default_to_center() {
    let dir = tmp("nooffsets");
    write_minimal(
        &dir,
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a B\n b B\n",
    );
    let bundle = bookshelf::read_aux(dir.join("x.aux")).expect("parse succeeds");
    let nid = bundle.design.net_ids().next().expect("one net");
    for pin in bundle.design.net_pins(nid) {
        assert_eq!((pin.dx, pin.dy), (0.0, 0.0));
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn single_pin_nets_are_dropped_not_fatal() {
    let dir = tmp("singlepin");
    write_minimal(
        &dir,
        "UCLA nets 1.0\nNumNets : 2\nNumPins : 3\nNetDegree : 1 lonely\n a B : 0 0\nNetDegree : 2 n0\n a B : 0 0\n b B : 0 0\n",
    );
    let bundle = bookshelf::read_aux(dir.join("x.aux")).expect("parse succeeds");
    assert_eq!(
        bundle.design.num_nets(),
        1,
        "single-pin net must be dropped"
    );
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn unknown_node_in_net_is_an_error() {
    let dir = tmp("unknown");
    write_minimal(
        &dir,
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a B : 0 0\n ghost B : 0 0\n",
    );
    let err = bookshelf::read_aux(dir.join("x.aux")).expect_err("must fail");
    assert!(err.to_string().contains("ghost"), "{err}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn terminal_vs_fixed_kind_mapping() {
    // `terminal` (blocks capacity) vs `terminal_NI` (does not).
    let dir = tmp("kinds2");
    fs::write(
        dir.join("x.aux"),
        "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n",
    )
    .expect("write aux");
    fs::write(
        dir.join("x.nodes"),
        "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 2\na 2 1\nblock 3 3 terminal\npad 1 1 terminal_NI\n",
    )
    .expect("write nodes");
    fs::write(
        dir.join("x.nets"),
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n a B : 0 0\n pad B : 0 0\n",
    )
    .expect("write nets");
    fs::write(
        dir.join("x.pl"),
        "UCLA pl 1.0\na 0 0 : N\nblock 4 4 : N /FIXED\npad 0 9 : N /FIXED_NI\n",
    )
    .expect("write pl");
    // Ten rows of height 1 → a 10×10 core that contains the block.
    let mut scl = String::from("UCLA scl 1.0\nNumRows : 10\n");
    for r in 0..10 {
        scl.push_str(&format!(
            "CoreRow Horizontal\n Coordinate : {r}\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n"
        ));
    }
    fs::write(dir.join("x.scl"), scl).expect("write scl");
    let bundle = bookshelf::read_aux(dir.join("x.aux")).expect("parse succeeds");
    let d = &bundle.design;
    assert_eq!(d.core().height(), 10.0);
    assert_eq!(
        d.cell(d.find_cell("block").expect("exists")).kind(),
        CellKind::Fixed
    );
    assert_eq!(
        d.cell(d.find_cell("pad").expect("exists")).kind(),
        CellKind::Terminal
    );
    // The block consumes capacity; the pad does not.
    assert!(d.obstacle_area() > 0.0);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn wts_file_optional_and_weights_applied() {
    let dir = tmp("wts");
    fs::write(
        dir.join("x.aux"),
        "RowBasedPlacement : x.nodes x.nets x.wts x.pl x.scl\n",
    )
    .expect("write aux");
    fs::write(
        dir.join("x.nodes"),
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na 1 1\nb 1 1\n",
    )
    .expect("write nodes");
    fs::write(
        dir.join("x.nets"),
        "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\nNetDegree : 2 hot\n a B : 0 0\n b B : 0 0\nNetDegree : 2 cold\n a B : 0 0\n b B : 0 0\n",
    )
    .expect("write nets");
    fs::write(dir.join("x.wts"), "UCLA wts 1.0\nhot 7.5\n").expect("write wts");
    fs::write(dir.join("x.pl"), "UCLA pl 1.0\na 0 0 : N\nb 5 5 : N\n").expect("write pl");
    fs::write(
        dir.join("x.scl"),
        "UCLA scl 1.0\nNumRows : 10\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n",
    )
    .expect("write scl");
    let bundle = bookshelf::read_aux(dir.join("x.aux")).expect("parse succeeds");
    let d = &bundle.design;
    let weights: Vec<(String, f64)> = d
        .net_ids()
        .map(|n| (d.net(n).name().to_string(), d.net(n).weight()))
        .collect();
    assert!(weights.contains(&("hot".to_string(), 7.5)));
    assert!(weights.contains(&("cold".to_string(), 1.0)));
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Writes a fully custom bundle for degenerate-input tests.
fn write_custom(dir: &std::path::Path, nodes: &str, nets: &str, pl: &str, scl: &str) {
    fs::write(
        dir.join("x.aux"),
        "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n",
    )
    .expect("write aux");
    fs::write(dir.join("x.nodes"), nodes).expect("write nodes");
    fs::write(dir.join("x.nets"), nets).expect("write nets");
    fs::write(dir.join("x.pl"), pl).expect("write pl");
    fs::write(dir.join("x.scl"), scl).expect("write scl");
}

const SCL_ONE_ROW: &str = "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n";

#[test]
fn zero_area_terminal_is_accepted() {
    // Bookshelf pad terminals are commonly declared 0x0; they must parse.
    let dir = tmp("zeroterm");
    write_custom(
        &dir,
        "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\na 2 1\nb 2 1\npad 0 0 terminal\n",
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\nNetDegree : 3 n0\na B\nb I\npad O\n",
        "UCLA pl 1.0\na 0 0 : N\nb 5 0 : N\npad 0 5 : N /FIXED\n",
        SCL_ONE_ROW,
    );
    let bundle = bookshelf::read_aux(dir.join("x.aux")).expect("zero-area terminal parses");
    assert_eq!(bundle.design.num_cells(), 3);
    let pad = bundle
        .design
        .cell_ids()
        .find(|&id| bundle.design.cell(id).name() == "pad")
        .expect("pad present");
    assert_eq!(bundle.design.cell(pad).kind(), CellKind::Fixed);
    assert_eq!(bundle.design.cell(pad).area(), 0.0);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn zero_area_movable_node_is_structured_error() {
    let dir = tmp("zeromov");
    write_custom(
        &dir,
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na 0 1\nb 2 1\n",
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\na B\nb I\n",
        "UCLA pl 1.0\na 0 0 : N\nb 5 0 : N\n",
        SCL_ONE_ROW,
    );
    let err = bookshelf::read_aux(dir.join("x.aux")).expect_err("zero-area movable rejected");
    let msg = err.to_string();
    assert!(msg.contains('a') && msg.contains("dimensions"), "{msg}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn nan_node_dimensions_are_structured_error() {
    let dir = tmp("nandims");
    write_custom(
        &dir,
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na NaN 1\nb 2 1\n",
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\na B\nb I\n",
        "UCLA pl 1.0\na 0 0 : N\nb 5 0 : N\n",
        SCL_ONE_ROW,
    );
    // `NaN` parses as a float, so the builder (not the tokenizer) must
    // reject it.
    let err = bookshelf::read_aux(dir.join("x.aux")).expect_err("NaN dims rejected");
    assert!(err.to_string().contains("dimensions"), "{err}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Writes a two-cell bundle with net `n0` and the given `.nets` pin lines
/// and `.wts` body, and returns `read_aux`'s error message.
fn read_error(tag: &str, pins: &str, wts: &str) -> String {
    let dir = tmp(tag);
    write_custom(
        &dir,
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na 2 1\nb 2 1\n",
        &format!("UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n{pins}"),
        "UCLA pl 1.0\na 0 0 : N\nb 5 0 : N\n",
        SCL_ONE_ROW,
    );
    fs::write(
        dir.join("x.aux"),
        "RowBasedPlacement : x.nodes x.nets x.wts x.pl x.scl\n",
    )
    .expect("write aux");
    fs::write(dir.join("x.wts"), format!("UCLA wts 1.0\n{wts}")).expect("write wts");
    let err = bookshelf::read_aux(dir.join("x.aux")).expect_err("non-finite input rejected");
    fs::remove_dir_all(&dir).expect("cleanup");
    err.to_string()
}

#[test]
fn nan_and_inf_net_weights_are_structured_errors() {
    // `NaN` and `inf` parse as floats; the builder must reject them before
    // they reach the solver (they used to surface as a CG breakdown).
    for (tag, w) in [("nanwt", "NaN"), ("infwt", "inf")] {
        let msg = read_error(tag, "a B\nb I\n", &format!("n0 {w}\n"));
        assert!(msg.contains("`n0`") && msg.contains("weight"), "{msg}");
    }
}

#[test]
fn nan_pin_offset_is_structured_error() {
    let msg = read_error("nanpin", "a B : NaN 0.5\nb I : 0 0\n", "");
    assert!(msg.contains("`n0`") && msg.contains("pin offset"), "{msg}");
}

#[test]
fn all_fixed_design_parses_with_zero_movable_cells() {
    let dir = tmp("allfixed");
    write_custom(
        &dir,
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 2\na 2 1 terminal\nb 2 1 terminal\n",
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\na B\nb I\n",
        "UCLA pl 1.0\na 0 0 : N /FIXED\nb 5 0 : N /FIXED\n",
        SCL_ONE_ROW,
    );
    let bundle = bookshelf::read_aux(dir.join("x.aux")).expect("all-fixed design parses");
    assert_eq!(bundle.design.num_cells(), 2);
    assert!(bundle.design.movable_cells().is_empty());
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn scl_with_no_rows_is_structured_error() {
    let dir = tmp("norows");
    write_custom(
        &dir,
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na 2 1\nb 2 1\n",
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\na B\nb I\n",
        "UCLA pl 1.0\na 0 0 : N\nb 5 0 : N\n",
        "UCLA scl 1.0\nNumRows : 0\n",
    );
    let err = bookshelf::read_aux(dir.join("x.aux")).expect_err("empty scl rejected");
    assert!(err.to_string().contains("rows"), "{err}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn empty_rows_are_skipped_not_folded_into_core() {
    // A zero-site row must not stretch or collapse the core rectangle.
    let dir = tmp("emptyrow");
    let scl = "UCLA scl 1.0\nNumRows : 2\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\nCoreRow Horizontal\n Coordinate : 50\n Height : 0\n Sitewidth : 1\n SubrowOrigin : -100 NumSites : 0\nEnd\n";
    write_custom(
        &dir,
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na 2 1\nb 2 1\n",
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\na B\nb I\n",
        "UCLA pl 1.0\na 0 0 : N\nb 5 0 : N\n",
        scl,
    );
    let bundle = bookshelf::read_aux(dir.join("x.aux")).expect("parses despite empty row");
    let core = bundle.design.core();
    assert_eq!((core.lx, core.ly, core.hx, core.hy), (0.0, 0.0, 10.0, 1.0));
    fs::remove_dir_all(&dir).expect("cleanup");
}
