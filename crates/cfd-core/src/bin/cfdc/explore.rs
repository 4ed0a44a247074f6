//! `cfdc explore`: the feasible-design listing, or a sweep of the
//! default grid — over the `--boards` portfolio, or with `--grid` on
//! the `--board` platform at its one default clock.

use cfd_core::dse::{DseEngine, DseGrid};
use cfd_core::FlowError;
use sysgen::Platform;

use crate::compile::{compile_or_exit, program_report};
use crate::flags::{checked_or_exit, parse_common, Parsed};
use crate::{fail, or_exit, CliError};

pub(crate) fn cmd_explore(args: &[String]) {
    let p = checked_or_exit("explore", parse_common(args));
    if p.boards.is_some() {
        // The portfolio sets its own boards and clocks.
        let sweep = (p.flags.iter()).find(|f| ["--grid", "--board"].contains(&f.name));
        if let Some(flag) = sweep {
            fail(CliError::NotApplicable {
                flag: flag.name.to_string(),
                command: "explore --boards",
            })
        }
    } else if !p.grid {
        return explore_listing(&p);
    }
    let engine = or_exit("compilation", DseEngine::prepare(&p.source, &p.program));
    // Sweep default: small enough to keep the simulations quick.
    let elements = if p.elements_set {
        p.program.flow.elements
    } else {
        10_000
    };
    let flow = &p.program.flow;
    let board = [Platform {
        clock_ladder_mhz: vec![flow.hls.clock_mhz],
        ..flow.platform.clone()
    }];
    let platforms = p.boards.as_deref().unwrap_or(&board);
    let report = engine.run_portfolio(platforms, &DseGrid::default(), flow.jobs, elements);
    // A time past the simulator's clock would print wrong: exit 1.
    if report.ticks_overflows > 0 {
        or_exit("exploration", Err(FlowError::TicksOverflow { elements }))
    }
    if p.json {
        outln!("{}", report.to_json());
    } else {
        out!("{}", report.render_table());
    }
}

/// The feasibility listing: compile the program once, then list every
/// uniform replication Eq. (3) admits on the board
/// ([`sysgen::enumerate_program_designs`]). `--k`/`--m` do not apply.
fn explore_listing(p: &Parsed) {
    let art = compile_or_exit(p);
    let stages: Vec<(String, hls::HlsReport)> = (art.names.iter().zip(&art.kernels))
        .map(|(n, a)| (n.clone(), a.hls_report.clone()))
        .collect();
    let platform = &p.program.flow.platform;
    let designs = sysgen::enumerate_program_designs(platform, &stages, &art.memory);
    out!("{}", program_report(&art));
    outln!(
        "feasible uniform configurations on {}:",
        platform.board.name
    );
    outln!("   k    m  batch     LUT   BRAM   slack(BRAM)");
    for d in &designs {
        let (_, _, _, slack_brams) = d.slack();
        outln!(
            "  {:>2}  {:>3}  {:>4}   {:>6}  {:>5}   {:>6}",
            d.config.ks[0],
            d.config.m,
            d.config.batch(0),
            d.luts,
            d.brams,
            slack_brams
        );
    }
}
