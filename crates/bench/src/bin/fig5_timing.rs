//! Regenerates **Figure 5** (Section S6): timing-critical paths on BIGBLUE1
//! (synthetic `bigblue1-s`) are shortened and straightened by raising the
//! weights of their nets (1× → 20× → 40×) "without adverse effects on
//! total HPWL". The paper reports legal HPWL 94.15e6 → 94.13e6 while the
//! selected paths visibly shrink.
//!
//! Usage: `cargo run --release -p complx-bench --bin fig5_timing
//! [--scale N]`.

#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use complx_bench::report::Table;
use complx_bench::svg::placement_snapshot;
use complx_bench::{artifact_dir, scale_arg};
use complx_netlist::{hpwl, Design, NetId, Placement};
use complx_place::{ComplxPlacer, PlacerConfig};
use complx_timing::{reweight_nets, DelayModel, TimingGraph};

fn path_length(design: &Design, placement: &Placement, nets: &[NetId]) -> f64 {
    nets.iter()
        .map(|&n| hpwl::net_hpwl(design, placement, n))
        .sum()
}

fn main() {
    let scale = scale_arg();
    let mut cfg = complx_netlist::generator::suite::ispd2005()
        .into_iter()
        .nth(4) // bigblue1-s
        .expect("suite has 8 entries")
        .0;
    cfg.num_std_cells = (cfg.num_std_cells / scale.max(1)).max(500);
    let design = cfg.generate();
    eprintln!(
        "[fig5] baseline placement of {} ({} cells)",
        design.name(),
        design.num_cells()
    );

    // Baseline placement and critical-path selection (the paper runs 30
    // global iterations for a stable intermediate placement; we use the
    // final placement, which is even more stable).
    let base = ComplxPlacer::new(PlacerConfig::default())
        .place(&design)
        .expect("placement failed");
    let graph = TimingGraph::new(&design);
    let model = DelayModel::default();

    // Select three disjoint critical paths: extract, then mask, repeat.
    let mut selected_nets: Vec<NetId> = Vec::new();
    let mut masked = design.clone();
    for _ in 0..3 {
        let g = TimingGraph::new(&masked);
        let path = g.critical_path(&masked, &base.legal, &model);
        let nets = g.path_nets(&path);
        if nets.is_empty() {
            break;
        }
        selected_nets.extend(&nets);
        // Downweight found nets so the next extraction finds another path.
        masked = reweight_nets(&masked, &nets, 1e-6).expect("finite scaled weights");
    }
    selected_nets.sort_unstable();
    selected_nets.dedup();
    eprintln!(
        "[fig5] selected {} nets across 3 critical paths",
        selected_nets.len()
    );

    let mut table = Table::new(vec![
        "net weight",
        "path HPWL",
        "total legal HPWL",
        "path delay (STA)",
    ]);
    let dir = artifact_dir().expect("artifact directory must be creatable");
    let mut path_lengths = Vec::new();
    let mut totals = Vec::new();
    for &w in &[1.0f64, 20.0, 40.0] {
        #[expect(
            clippy::float_cmp,
            reason = "w ranges over exact literals; 1.0 is the unweighted sentinel, not a computed value"
        )]
        let d = if w == 1.0 {
            design.clone()
        } else {
            reweight_nets(&design, &selected_nets, w).expect("finite scaled weights")
        };
        let out = ComplxPlacer::new(PlacerConfig::default())
            .place(&d)
            .expect("placement failed");
        let plen = path_length(&design, &out.legal, &selected_nets);
        let total = hpwl::hpwl(&design, &out.legal);
        let delay = graph
            .analyze(&design, &out.legal, &model)
            .critical_path_delay;
        path_lengths.push(plen);
        totals.push(total);
        table.add_row(vec![
            format!("{w:.0}x"),
            format!("{plen:.1}"),
            format!("{total:.1}"),
            format!("{delay:.2}"),
        ]);
        let svg = placement_snapshot(&design, &out.legal, None, 600.0);
        let path = dir.join(format!("fig5_weight_{}.svg", w as u32));
        std::fs::write(&path, svg).expect("artifact write");
    }

    println!(
        "Figure 5 / §S6 — critical-path net weighting on {}",
        design.name()
    );
    println!("{}", table.render());
    println!(
        "path shrink 1x -> 40x: {:.1}%; total HPWL change: {:+.2}%",
        100.0 * (1.0 - path_lengths[2] / path_lengths[0]),
        100.0 * (totals[2] / totals[0] - 1.0)
    );
    std::fs::write(
        dir.join("fig5_timing.txt"),
        format!(
            "weights,path_hpwl,total_hpwl\n1,{},{}\n20,{},{}\n40,{},{}\n",
            path_lengths[0], totals[0], path_lengths[1], totals[1], path_lengths[2], totals[2]
        ),
    )
    .expect("artifact write");
    eprintln!(
        "[fig5] wrote fig5_timing.txt and fig5_weight_*.svg in {}",
        dir.display()
    );
}
