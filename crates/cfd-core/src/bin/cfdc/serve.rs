//! `cfdc serve`: batched multi-request runtime on the compiled system,
//! on one board or a fleet.

use std::process::exit;

use cfd_core::program::ProgramArtifacts;
use cfd_core::{BatchPolicy, FleetBoard, FleetOptions};
use sysgen::Platform;

use crate::compile::{compile, compile_or_exit};
use crate::flags::{checked_or_exit, parse_common, Parsed};
use crate::or_exit;

pub(crate) fn cmd_serve(args: &[String]) {
    let p = checked_or_exit("serve", parse_common(args));
    if let Some(fleet) = &p.fleet {
        return serve_fleet(&p, fleet);
    }
    let art = compile_or_exit(&p);
    let opts = &p.runtime;
    let out = or_exit("serving", art.serve(opts));
    if p.json {
        outln!("{}", out.report.to_json());
        return;
    }
    out!("{}", out.report.render_table());
    // With --batch off the run IS the sequential baseline — comparing it
    // against itself would just print a meaningless 1.00x.
    if opts.batch == BatchPolicy::Disabled {
        return;
    }
    let seq = or_exit("serving", art.serve_sequential_baseline(opts));
    outln!(
        "sequential baseline: {:.1} req/s -> batching speedup {:.2}x",
        seq.throughput_rps,
        out.report.throughput_rps / seq.throughput_rps
    );
}

/// `cfdc serve --fleet`: shard the request stream across `platforms`.
/// The program is compiled once per distinct platform; boards the
/// program cannot target are skipped with a warning (a compile error
/// there is not fatal; it is fatal only when no board remains). `--faults` arms
/// board 0 only, so an outage always leaves survivors to requeue onto.
fn serve_fleet(p: &Parsed, platforms: &[Platform]) {
    // One compile per distinct platform id — repeated boards share it:
    // board `i` reads `compiled[art_of[i]]`.
    let mut compiled: Vec<(&str, Result<ProgramArtifacts, String>)> = Vec::new();
    let art_of: Vec<usize> = (platforms.iter())
        .map(|platform| {
            if let Some(i) = compiled.iter().position(|(id, _)| *id == platform.id) {
                return i;
            }
            // The platform and its default clock override `--board`.
            let mut opts = p.program.clone();
            opts.flow.platform = platform.clone();
            opts.flow.hls.clock_mhz = platform.default_clock_mhz;
            compiled.push((platform.id, compile(p, &opts).map_err(|e| e.to_string())));
            compiled.len() - 1
        })
        .collect();
    // Board list in catalog order, with repeats of one platform named
    // id#2, id#3, ... and --faults armed on the first board only.
    let mut boards: Vec<FleetBoard> = Vec::new();
    let mut reference: Option<&ProgramArtifacts> = None;
    for (platform, &i) in platforms.iter().zip(&art_of) {
        let art = match &compiled[i].1 {
            Ok(art) => art,
            Err(e) => {
                eprintln!("warning: skipping {}: {e}", platform.id);
                continue;
            }
        };
        let Some(design) = art.system.clone() else {
            eprintln!(
                "warning: skipping {}: program has no system design for this board",
                platform.id
            );
            continue;
        };
        reference.get_or_insert(art);
        let mut board = FleetBoard::healthy(design);
        let repeats = boards
            .iter()
            .filter(|b| b.name.starts_with(&board.name))
            .count();
        if repeats > 0 {
            board.name = format!("{}#{}", board.name, repeats + 1);
        }
        if boards.is_empty() {
            board.faults = p.runtime.faults.clone();
        }
        boards.push(board);
    }
    let Some(art) = reference else {
        eprintln!("no fleet board fits the program");
        exit(1)
    };
    let fopts = FleetOptions {
        route: p.route,
        parallel: true,
        base: p.runtime.clone(),
    };
    let out = or_exit("fleet serving", art.serve_fleet(&boards, &fopts));
    if p.json {
        outln!("{}", out.report.to_json());
        return;
    }
    out!("{}", out.report.render_table());
}
