//! `cfdc boards`: the platform catalog. It reads no option.

use sysgen::Platform;

use crate::flags::{checked_or_exit, parse_options};

pub(crate) fn cmd_boards(args: &[String]) {
    checked_or_exit("boards", parse_options(args));
    outln!("platform catalog (use with --board / --boards):");
    outln!(
        "  id          board                       LUT        FF    DSP  BRAM36  host CPU                fabric clocks (MHz)"
    );
    for p in Platform::catalog() {
        let clocks: Vec<String> = (p.clock_ladder_mhz.iter())
            .map(|c| {
                if (*c - p.default_clock_mhz).abs() < 1e-9 {
                    format!("[{c:.0}]")
                } else {
                    format!("{c:.0}")
                }
            })
            .collect();
        outln!(
            "  {:<10}  {:<22}  {:>9}  {:>8}  {:>5}  {:>6}  {:<22}  {}",
            p.id,
            p.board.name,
            p.board.luts,
            p.board.ffs,
            p.board.dsps,
            p.board.brams,
            format!("{} @ {:.2} GHz", p.host.name, p.host.hz / 1e9),
            clocks.join(" "),
        );
    }
    outln!("  (default clock bracketed; default board: zcu106)");
}
