//! End-to-end tests of the `complx` command-line placer binary.

use std::process::Command;

use complx_netlist::{bookshelf, generator::GeneratorConfig, hpwl};

fn complx_bin() -> &'static str {
    env!("CARGO_BIN_EXE_complx")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("complx_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

#[test]
fn places_a_bookshelf_bundle_end_to_end() {
    let dir = temp_dir("e2e");
    let design = GeneratorConfig::small("cli", 7).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir)
        .expect("bundle written");
    let out_dir = dir.join("solution");
    let trace = dir.join("trace.csv");

    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["--max-iterations", "25", "-q"])
        .arg("-o")
        .arg(&out_dir)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("HPWL"), "stdout: {stdout}");

    // The solution bundle re-reads with a sensible HPWL.
    let sol = bookshelf::read_aux(out_dir.join("cli.aux")).expect("solution parses");
    let h = hpwl::hpwl(&sol.design, &sol.placement);
    assert!(h > 0.0);

    // The trace CSV has a header and rows.
    let csv = std::fs::read_to_string(&trace).expect("trace written");
    assert!(csv.starts_with("iteration,lambda"));
    assert!(csv.lines().count() > 2);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn report_events_and_json_trace_are_written_and_parse() {
    let dir = temp_dir("obs");
    let design = GeneratorConfig::small("obs", 9).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir)
        .expect("bundle written");
    let report_path = dir.join("report.json");
    let events_path = dir.join("events.jsonl");
    let trace_path = dir.join("trace.json");

    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["--max-iterations", "10"])
        .arg("-o")
        .arg(dir.join("solution"))
        .arg("--report")
        .arg(&report_path)
        .arg("--events")
        .arg(&events_path)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // A non-quiet instrumented run prints the phase-time breakdown.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("phase time breakdown"), "stderr: {stderr}");
    assert!(stderr.contains("cg.solves"), "stderr: {stderr}");

    // The report manifest parses back through the schema.
    let text = std::fs::read_to_string(&report_path).expect("report written");
    let doc = complx_obs::parse(&text).expect("report is valid JSON");
    let report = complx_obs::RunReport::from_json(&doc).expect("schema matches");
    assert!(!report.phases.is_empty());
    assert!(report.phase_seconds("place") > 0.0);
    assert!(report.phase("place/iteration").is_some());
    assert!(report.counter("place.iterations") > 0);
    assert!(report.total_seconds > 0.0);
    // Instrumented root spans account for (at most) the whole wall clock.
    assert!(report.instrumented_seconds() <= report.total_seconds * 1.05);

    // Every event line is standalone JSON with a `type`; spans and
    // per-iteration events are both present.
    let events = std::fs::read_to_string(&events_path).expect("events written");
    let mut spans = 0usize;
    let mut iterations = 0usize;
    for line in events.lines() {
        let v = complx_obs::parse(line).expect("event line is valid JSON");
        match v.get("type").and_then(complx_obs::JsonValue::as_str) {
            Some("span") => spans += 1,
            Some("iteration") => iterations += 1,
            Some(_) => {}
            None => panic!("event line without type: {line}"),
        }
    }
    assert!(spans > 0, "no span lines in events stream");
    assert_eq!(
        iterations,
        report.counter("place.iterations") as usize,
        "one iteration event per placement iteration"
    );

    // `.json` trace extension selects the JSON serialization.
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let arr = complx_obs::parse(&trace).expect("trace is valid JSON");
    assert!(!arr.as_array().expect("array").is_empty());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn iteration_events_agree_with_the_trace_under_electro() {
    // The electro backend rounds the requested grid to a power of two, so
    // an event that reported the requested grid would disagree with the
    // trace's `bins` (the grid actually used).
    use complx_obs::JsonValue;
    let dir = temp_dir("ev_trace");
    let design = GeneratorConfig::small("evt", 9).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir)
        .expect("bundle written");
    let events_path = dir.join("events.jsonl");
    let trace_path = dir.join("trace.json");
    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["--max-iterations", "12", "-q", "--projection", "electro"])
        .arg("-o")
        .arg(dir.join("solution"))
        .arg("--events")
        .arg(&events_path)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let trace = complx_obs::parse(&std::fs::read_to_string(&trace_path).expect("trace"))
        .expect("trace is valid JSON");
    let rows = trace.as_array().expect("array");
    let events = std::fs::read_to_string(&events_path).expect("events written");
    let mut checked = 0usize;
    for line in events.lines() {
        let ev = complx_obs::parse(line).expect("event line is valid JSON");
        if ev.get("type").and_then(JsonValue::as_str) != Some("iteration") {
            continue;
        }
        let k = ev.get("iteration").and_then(JsonValue::as_i64);
        let row = rows
            .iter()
            .find(|r| r.get("iteration").and_then(JsonValue::as_i64) == k)
            .unwrap_or_else(|| panic!("no trace row for event {line}"));
        for key in ["bins", "lambda"] {
            assert_eq!(ev.get(key), row.get(key), "`{key}` of iteration {k:?}");
        }
        checked += 1;
    }
    assert_eq!(checked + 1, rows.len(), "one event per λ-loop trace row");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn missing_input_fails_with_nonzero_exit() {
    let output = Command::new(complx_bin())
        .arg("/nonexistent/never.aux")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot read"), "stderr: {stderr}");
}

#[test]
fn unknown_flag_shows_usage() {
    let output = Command::new(complx_bin())
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn simpl_and_lse_modes_run() {
    let dir = temp_dir("modes");
    let design = GeneratorConfig::small("modes", 8).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir)
        .expect("bundle written");
    for extra in [vec!["--simpl"], vec!["--lse", "4"], vec!["--no-detail"]] {
        let out_dir = dir.join(format!("out_{}", extra[0].trim_start_matches('-')));
        let output = Command::new(complx_bin())
            .arg(&aux)
            .args(["-q", "--max-iterations", "15"])
            .args(&extra)
            .arg("-o")
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "mode {extra:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn exhausted_time_budget_is_a_structured_one_line_error() {
    let dir = temp_dir("budget");
    let design = GeneratorConfig::small("cli_tb", 8).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir)
        .expect("bundle written");
    // A microsecond budget expires during bootstrap, before any feasible
    // iterate exists, so the run must fail with the timed-out error.
    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["--max-seconds", "0.000001", "-q"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(6), "timed-out exit code");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("complx: error["))
        .unwrap_or_else(|| panic!("no structured error line in: {stderr}"));
    assert!(line.contains("error[timed-out]"), "{line}");
    // Structured line, not a panic backtrace.
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn invalid_design_is_a_structured_error_with_exit_code_3() {
    let dir = temp_dir("invalid");
    // Parses fine, but the movable cell is larger than the whole core, so
    // design validation must reject it before any numerics run.
    std::fs::write(
        dir.join("x.aux"),
        "RowBasedPlacement : x.nodes x.nets x.pl x.scl\n",
    )
    .expect("aux");
    std::fs::write(
        dir.join("x.nodes"),
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\na 100 100\nb 2 1\n",
    )
    .expect("nodes");
    std::fs::write(
        dir.join("x.nets"),
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\na B\nb I\n",
    )
    .expect("nets");
    std::fs::write(dir.join("x.pl"), "UCLA pl 1.0\na 0 0 : N\nb 5 0 : N\n").expect("pl");
    std::fs::write(
        dir.join("x.scl"),
        "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n",
    )
    .expect("scl");

    let output = Command::new(complx_bin())
        .arg(dir.join("x.aux"))
        .arg("-q")
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(3), "invalid-design exit code");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error[invalid-design]"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn target_density_overrides_gamma_and_is_range_checked() {
    let dir = temp_dir("gamma");
    let design = GeneratorConfig::small("smoke", 7).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir)
        .expect("bundle written");
    let report_path = dir.join("r.json");
    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["--target-density", "0.9", "--max-iterations", "5", "-q"])
        .arg("-o")
        .arg(dir.join("solution"))
        .arg("--report")
        .arg(&report_path)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&report_path).expect("report written");
    let doc = complx_obs::parse(&text).expect("report is valid JSON");
    let gamma = doc
        .get("design")
        .and_then(|d| d.get("target_density"))
        .and_then(complx_obs::JsonValue::as_f64);
    assert_eq!(gamma, Some(0.9));

    for bad in ["0", "1.5"] {
        let output = Command::new(complx_bin())
            .arg(&aux)
            .args(["--target-density", bad, "-q"])
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(1),
            "--target-density {bad} must be rejected"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("target density"), "{bad}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn nonpositive_max_seconds_is_a_usage_error() {
    let output = Command::new(complx_bin())
        .args(["in.aux", "--max-seconds", "-5"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--max-seconds"), "{stderr}");
}

#[test]
fn lse_rejects_nonpositive_and_nonfinite_gamma() {
    for bad in ["-3", "0", "nan", "inf"] {
        let output = Command::new(complx_bin())
            .args(["in.aux", "--lse", bad])
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(1),
            "--lse {bad} must be rejected"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("finite positive"), "--lse {bad}: {stderr}");
    }
}

#[test]
fn lse_followed_by_flag_uses_default_gamma() {
    // `--lse --simpl` must not claim `--simpl` as the γ argument: parsing
    // succeeds with the default and the run proceeds to input loading.
    let output = Command::new(complx_bin())
        .args(["missing.aux", "--lse", "--simpl"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot read"), "stderr: {stderr}");
}

#[test]
fn checkpoint_every_requires_checkpoint() {
    let output = Command::new(complx_bin())
        .args(["in.aux", "--checkpoint-every", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("requires --checkpoint"), "{stderr}");
}

#[test]
fn kill_resume_workflow_end_to_end() {
    let dir = temp_dir("resume");
    let design = GeneratorConfig::small("cli_rsm", 21).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir)
        .expect("bundle written");
    let ckpt = dir.join("run.ckpt");

    // Reference: uninterrupted run with the same checkpoint cadence.
    let ref_dir = dir.join("ref");
    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["-q", "--max-iterations", "15", "--threads", "2"])
        .arg("--checkpoint")
        .arg(dir.join("ref.ckpt"))
        .args(["--checkpoint-every", "2"])
        .arg("-o")
        .arg(&ref_dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Crash at iteration 5 → exit 10, checkpoint left on disk.
    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["-q", "--max-iterations", "15", "--threads", "2"])
        .arg("--checkpoint")
        .arg(&ckpt)
        .args(["--checkpoint-every", "2", "--fault-kill-at", "5"])
        .arg("-o")
        .arg(dir.join("kill"))
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(10), "killed exit code");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error[killed]"), "{stderr}");
    assert!(ckpt.exists(), "killed run must leave its checkpoint behind");

    // Resume under a different configuration → exit 9.
    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["-q", "--max-iterations", "30", "--threads", "2"])
        .arg("--resume")
        .arg(&ckpt)
        .arg("-o")
        .arg(dir.join("mm"))
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(9), "mismatch exit code");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error[checkpoint-mismatch]"), "{stderr}");

    // Resume under the original configuration → byte-identical solution.
    let res_dir = dir.join("res");
    let output = Command::new(complx_bin())
        .arg(&aux)
        .args(["-q", "--max-iterations", "15", "--threads", "2"])
        .arg("--resume")
        .arg(&ckpt)
        .arg("-o")
        .arg(&res_dir)
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let ref_pl = std::fs::read(ref_dir.join("cli_rsm.pl")).expect("reference .pl");
    let res_pl = std::fs::read(res_dir.join("cli_rsm.pl")).expect("resumed .pl");
    assert_eq!(ref_pl, res_pl, "resumed solution must be byte-identical");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resume_from_missing_checkpoint_is_an_io_error() {
    let dir = temp_dir("nockpt");
    let design = GeneratorConfig::small("cli_nc", 22).generate();
    let aux = bookshelf::write_bundle(&design, &design.initial_placement(), &dir)
        .expect("bundle written");
    let output = Command::new(complx_bin())
        .arg(&aux)
        .arg("-q")
        .arg("--resume")
        .arg(dir.join("absent.ckpt"))
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(7), "io exit code");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error[io]"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
