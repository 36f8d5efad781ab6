//! End-to-end tests of the `complx-verify` binary: fixture traces that
//! violate the paper's invariants must be rejected with exit code 1 and a
//! diagnostic naming the violated rule; artifacts from a real placer run
//! must pass clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use complx_netlist::{
    bookshelf, generator::GeneratorConfig, AlignmentAxis, AlignmentConstraint, CellKind,
    DesignBuilder, Point, Rect, RegionConstraint,
};
use complx_place::{solve, PlacerConfig, SolveArtifacts, SolveRequest};

fn verify_bin() -> &'static str {
    env!("CARGO_BIN_EXE_complx-verify")
}

/// A per-test scratch directory under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("complx-verify-test-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct RunResult {
    code: i32,
    stdout: String,
    stderr: String,
}

fn run(args: &[&str]) -> RunResult {
    let out = Command::new(verify_bin())
        .args(args)
        .output()
        .expect("spawn complx-verify");
    RunResult {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

const HEADER: &str = "iteration,lambda,phi_lower,phi_upper,pi,lagrangian,overflow,bins";

/// Formats one trace row with the Lagrangian recomputed exactly so only the
/// deliberately planted defect trips the checker.
fn row(iter: u64, lambda: f64, phi_lower: f64, phi_upper: f64, pi: f64, ovf: f64) -> String {
    format!(
        "{iter},{lambda:.10e},{phi_lower:.10e},{phi_upper:.10e},{pi:.10e},{:.10e},{ovf:.10e},16",
        phi_lower + lambda * pi
    )
}

fn write_trace(dir: &Path, name: &str, rows: &[String]) -> PathBuf {
    let path = dir.join(name);
    let mut text = String::from(HEADER);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn formula12_lambda_jump_rejected() {
    let dir = scratch("f12");
    // λ jumps 1.0 → 3.0 between consecutive iterations: beyond the 2λ_k
    // cap of Formula 12. Everything else is consistent.
    let trace = write_trace(
        &dir,
        "bad_lambda.csv",
        &[
            row(1, 1.0, 100.0, 150.0, 10.0, 0.5),
            row(2, 3.0, 105.0, 148.0, 8.0, 0.4),
        ],
    );
    let res = run(&["--trace", trace.to_str().unwrap()]);
    assert_eq!(
        res.code, 1,
        "stdout: {}\nstderr: {}",
        res.stdout, res.stderr
    );
    assert!(
        res.stdout.contains("violation[lambda-growth]"),
        "missing lambda-growth diagnostic: {}",
        res.stdout
    );
    assert!(res.stdout.contains("Formula 12"), "{}", res.stdout);
}

#[test]
fn sign_flipped_duality_gap_rejected() {
    let dir = scratch("gap");
    // Iteration 2 claims a lower bound ABOVE the feasible cost: Δ_Φ < 0
    // beyond the slack, impossible under Formula 8.
    let trace = write_trace(
        &dir,
        "bad_gap.csv",
        &[
            row(1, 1.0, 100.0, 150.0, 10.0, 0.5),
            row(2, 1.5, 160.0, 150.0, 8.0, 0.4),
        ],
    );
    let res = run(&["--trace", trace.to_str().unwrap()]);
    assert_eq!(res.code, 1);
    assert!(
        res.stdout.contains("violation[duality-gap]"),
        "missing duality-gap diagnostic: {}",
        res.stdout
    );
    assert!(res.stdout.contains("Formula 8"), "{}", res.stdout);
}

#[test]
fn inconsistent_lagrangian_rejected() {
    let dir = scratch("lag");
    let mut bad = row(1, 1.0, 100.0, 150.0, 10.0, 0.5);
    // Corrupt the recorded L = Φ + λ·Π column (index 5).
    let mut cols: Vec<String> = bad.split(',').map(str::to_owned).collect();
    cols[5] = "9.9e2".into();
    bad = cols.join(",");
    let trace = write_trace(&dir, "bad_lagrangian.csv", &[bad]);
    let res = run(&["--trace", trace.to_str().unwrap()]);
    assert_eq!(res.code, 1);
    assert!(
        res.stdout.contains("violation[lagrangian]"),
        "{}",
        res.stdout
    );
}

#[test]
fn lambda_drop_rejected_unless_allowed() {
    let dir = scratch("drop");
    // λ falls 2.0 → 1.0 with no recovery context: flagged; with
    // --allow-lambda-drops (what the CLI infers from a recovered report):
    // accepted.
    let trace = write_trace(
        &dir,
        "drop.csv",
        &[
            row(1, 2.0, 100.0, 150.0, 10.0, 0.5),
            row(2, 1.0, 102.0, 149.0, 9.0, 0.45),
        ],
    );
    let res = run(&["--trace", trace.to_str().unwrap()]);
    assert_eq!(res.code, 1);
    assert!(
        res.stdout.contains("violation[lambda-monotone]"),
        "{}",
        res.stdout
    );
    let res = run(&["--trace", trace.to_str().unwrap(), "--allow-lambda-drops"]);
    assert_eq!(res.code, 0, "{}", res.stdout);
}

#[test]
fn monotone_rule_permits_simpl_style_steps() {
    let dir = scratch("simpl-rule");
    // An arithmetic λ += 50 schedule legally exceeds the ComPLx 2λ cap;
    // under --lambda-rule monotone it must pass, under complx it must not.
    let trace = write_trace(
        &dir,
        "arith.csv",
        &[
            row(1, 1.0, 100.0, 150.0, 10.0, 0.5),
            row(2, 51.0, 110.0, 148.0, 7.0, 0.4),
        ],
    );
    let res = run(&[
        "--trace",
        trace.to_str().unwrap(),
        "--lambda-rule",
        "monotone",
    ]);
    assert_eq!(res.code, 0, "{}", res.stdout);
    let res = run(&[
        "--trace",
        trace.to_str().unwrap(),
        "--lambda-rule",
        "complx",
    ]);
    assert_eq!(res.code, 1);
    assert!(
        res.stdout.contains("violation[lambda-growth]"),
        "{}",
        res.stdout
    );
}

#[test]
fn clean_synthetic_trace_accepted() {
    let dir = scratch("clean");
    // Six consistent records: λ within the 2× cap, Π shrinking, gap
    // positive, L recomputable — the Π-trend check is active (≥ 5 rows).
    let trace = write_trace(
        &dir,
        "clean.csv",
        &[
            row(1, 1.0, 100.0, 150.0, 10.0, 0.50),
            row(2, 1.8, 104.0, 148.0, 8.0, 0.42),
            row(3, 3.0, 109.0, 146.0, 6.0, 0.33),
            row(4, 5.5, 115.0, 144.0, 4.0, 0.22),
            row(5, 9.0, 122.0, 143.0, 2.0, 0.12),
            row(6, 16.0, 130.0, 142.0, 1.0, 0.05),
        ],
    );
    let res = run(&["--trace", trace.to_str().unwrap()]);
    assert_eq!(
        res.code, 0,
        "stdout: {}\nstderr: {}",
        res.stdout, res.stderr
    );
    assert!(res.stdout.contains("0 violations"), "{}", res.stdout);
}

#[test]
fn stagnant_pi_rejected() {
    let dir = scratch("pi");
    // Π goes UP over a long trace: the feasibility distance never trends
    // to zero, violating the convergence story of Formula 3.
    let trace = write_trace(
        &dir,
        "pi_up.csv",
        &[
            row(1, 1.0, 100.0, 150.0, 5.0, 0.50),
            row(2, 1.8, 104.0, 148.0, 6.0, 0.42),
            row(3, 3.0, 109.0, 146.0, 7.0, 0.33),
            row(4, 5.5, 115.0, 144.0, 8.0, 0.22),
            row(5, 9.0, 122.0, 143.0, 9.0, 0.12),
            row(6, 16.0, 130.0, 142.0, 10.0, 0.05),
        ],
    );
    let res = run(&["--trace", trace.to_str().unwrap()]);
    assert_eq!(res.code, 1);
    assert!(res.stdout.contains("violation[pi-trend]"), "{}", res.stdout);
}

#[test]
fn usage_and_io_errors_exit_2() {
    // No inputs at all.
    let res = run(&[]);
    assert_eq!(res.code, 2);
    assert!(res.stderr.contains("error"), "{}", res.stderr);
    // Missing trace file.
    let res = run(&["--trace", "/nonexistent/complx-trace.csv"]);
    assert_eq!(res.code, 2);
    assert!(res.stderr.contains("error"), "{}", res.stderr);
    // Unknown option.
    let res = run(&["--frobnicate"]);
    assert_eq!(res.code, 2);
}

#[test]
fn malformed_trace_header_exit_2() {
    let dir = scratch("hdr");
    let path = dir.join("bad.csv");
    std::fs::write(&path, "iteration,lambda\n1,2\n").unwrap();
    let res = run(&["--trace", path.to_str().unwrap()]);
    assert_eq!(res.code, 2);
    assert!(res.stderr.contains("header"), "{}", res.stderr);
}

#[test]
fn deeply_nested_json_is_an_input_error_not_a_crash() {
    let dir = scratch("deep");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(100_000)).unwrap();
    let res = run(&["--trace", path.to_str().unwrap()]);
    assert_eq!(res.code, 2, "stderr: {}", res.stderr);
    assert!(res.stderr.contains("nesting"), "{}", res.stderr);
}

/// A hand-made solution: four 1×1 cells on distinct sites of a 20×4 core,
/// legal everywhere, but with the region cell outside its region and the
/// two aligned cells on different rows.
#[test]
fn region_and_alignment_violations_rejected() {
    let dir = scratch("constraints");
    let mut b = DesignBuilder::new("rc", Rect::new(0.0, 0.0, 20.0, 4.0), 1.0);
    let cells: Vec<_> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| b.add_cell(*n, 1.0, 1.0, CellKind::Movable).unwrap())
        .collect();
    b.add_net("n0", 1.0, vec![(cells[0], 0.0, 0.0), (cells[1], 0.0, 0.0)])
        .unwrap();
    b.add_net("n1", 1.0, vec![(cells[2], 0.0, 0.0), (cells[3], 0.0, 0.0)])
        .unwrap();
    b.add_region(RegionConstraint::new(
        "left",
        Rect::new(0.0, 0.0, 5.0, 4.0),
        vec![cells[0]],
    ));
    b.add_alignment(AlignmentConstraint::new(
        "row",
        AlignmentAxis::Horizontal,
        vec![cells[2], cells[3]],
    ));
    let design = b.build().unwrap();
    let aux =
        bookshelf::write_bundle(&design, &design.initial_placement(), dir.join("design")).unwrap();
    let solve = |a_x: f64, d_y: f64, tag: &str| {
        let mut p = design.initial_placement();
        for (id, (x, y)) in cells
            .iter()
            .zip([(a_x, 0.5), (1.5, 0.5), (3.5, 1.5), (8.5, d_y)])
        {
            p.set_position(*id, Point::new(x, y));
        }
        let sol = bookshelf::write_bundle(&design, &p, dir.join(tag)).unwrap();
        run(&[aux.to_str().unwrap(), "--solution", sol.to_str().unwrap()])
    };

    let res = solve(10.5, 2.5, "bad");
    assert_eq!(res.code, 1, "{}", res.stdout);
    assert!(
        res.stdout.contains("violation[solution-region]"),
        "{}",
        res.stdout
    );
    assert!(
        res.stdout.contains("violation[solution-alignment]"),
        "{}",
        res.stdout
    );
    assert!(!res.stdout.contains("solution-overlap"), "{}", res.stdout);

    let res = solve(4.5, 1.5, "good");
    assert_eq!(res.code, 0, "{}", res.stdout);
    assert!(res.stdout.contains("0 violations"), "{}", res.stdout);
}

/// The full pipeline: place a small design, write the solution bundle,
/// trace and report, and let `complx-verify` validate all three against
/// each other. Then corrupt the solution and check it is rejected.
#[test]
fn real_run_artifacts_validate_end_to_end() {
    let dir = scratch("e2e");
    let mut gen = GeneratorConfig::small("vsmoke", 11);
    gen.num_std_cells = 160;
    gen.num_pads = 12;
    let design = gen.generate();
    let aux =
        bookshelf::write_bundle(&design, &design.initial_placement(), dir.join("design")).unwrap();

    let SolveArtifacts { outcome, report } =
        solve(&design, SolveRequest::new(PlacerConfig::fast())).unwrap();
    let sol_aux = bookshelf::write_bundle(&design, &outcome.legal, dir.join("solution")).unwrap();
    let trace_path = dir.join("trace.csv");
    std::fs::write(&trace_path, outcome.trace.to_csv()).unwrap();
    let report_path = dir.join("report.json");
    std::fs::write(&report_path, report.to_json_string()).unwrap();

    let res = run(&[
        aux.to_str().unwrap(),
        "--solution",
        sol_aux.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert_eq!(
        res.code, 0,
        "clean run rejected.\nstdout: {}\nstderr: {}",
        res.stdout, res.stderr
    );
    assert!(res.stdout.contains("0 violations"), "{}", res.stdout);

    // Corrupt the solution: stack one movable cell exactly onto another.
    let mut corrupted = outcome.legal.clone();
    let movers = design.movable_cells();
    let target = corrupted.position(movers[1]);
    corrupted.set_position(movers[0], Point::new(target.x, target.y));
    let bad_aux = bookshelf::write_bundle(&design, &corrupted, dir.join("corrupt")).unwrap();
    let res = run(&[
        aux.to_str().unwrap(),
        "--solution",
        bad_aux.to_str().unwrap(),
    ]);
    assert_eq!(res.code, 1, "{}", res.stdout);
    assert!(
        res.stdout.contains("violation[solution-overlap]"),
        "{}",
        res.stdout
    );

    // A report cross-checked against the WRONG solution must flag the
    // HPWL mismatch.
    let res = run(&[
        "--solution",
        bad_aux.to_str().unwrap(),
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert_eq!(res.code, 1, "{}", res.stdout);
    assert!(
        res.stdout.contains("violation[report-hpwl]"),
        "{}",
        res.stdout
    );
}
