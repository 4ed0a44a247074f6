//! `cfdc compile`, and the one compile every command runs.

use std::process::exit;

use cfd_core::program::{ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfd_core::FlowError;
use zynq::SimConfig;

use crate::flags::{checked_or_exit, parse_common, Parsed};
use crate::{fail, or_exit};

/// The one compile of every command: the source as a (possibly
/// one-kernel) program under `opts`, through the `--cache-dir` cache
/// when one is named and not disabled. An unusable cache directory
/// exits 2 with the structured [`CliError::CacheDir`](crate::CliError::CacheDir).
pub(crate) fn compile(p: &Parsed, opts: &ProgramOptions) -> Result<ProgramArtifacts, FlowError> {
    match p.cache().unwrap_or_else(|e| fail(e)) {
        Some(cache) => ProgramFlow::compile_cached(&p.source, opts, cache),
        None => ProgramFlow::compile(&p.source, opts),
    }
}

/// [`compile`] of the command line's options, or exit 1 with the
/// compile error. A cached compile prints its counters on stderr, one
/// line: stdout stays bit-identical between cold and warm runs, which
/// the CI cache-smoke job checks.
pub(crate) fn compile_or_exit(p: &Parsed) -> ProgramArtifacts {
    let art = or_exit("compilation", compile(p, &p.program));
    if p.cache_dir.is_some() && !p.no_cache {
        let c = &art.timings.cache;
        eprintln!(
            "compile cache: {} memory hits, {} disk hits, {} misses, {} stored, {} invalidated",
            c.hits, c.disk_hits, c.misses, c.stores, c.invalidations
        );
    }
    art
}

/// `n kernel(s)`.
pub(crate) fn kernels(n: usize) -> String {
    format!("{n} kernel{}", if n == 1 { "" } else { "s" })
}

/// Per-kernel + aggregate resource tables of a compiled program.
pub(crate) fn program_report(art: &ProgramArtifacts) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "program: {}, {} handoffs, cross-kernel PLM edges: {}\n",
        kernels(art.kernel_count()),
        art.cross.handoffs.len(),
        art.memory_plan.cross_edges,
    ));
    s.push_str("  kernel                  latency(cyc)      LUT      FF   DSP  PLM-BRAM(alone)\n");
    for (name, a) in art.names.iter().zip(&art.kernels) {
        s.push_str(&format!(
            "  {:<22} {:>13}  {:>7}  {:>6}  {:>4}  {:>15}\n",
            name,
            a.hls_report.latency_cycles,
            a.hls_report.luts,
            a.hls_report.ffs,
            a.hls_report.dsps,
            a.memory.brams,
        ));
    }
    s.push_str(&format!(
        "  shared PLM set: {} BRAMs ({} if concatenated) in {} units\n",
        art.memory.brams,
        art.per_kernel_plm_brams(),
        art.memory.units.len(),
    ));
    let routing = if art.options.cross_sharing {
        "in-fabric"
    } else {
        "host-mediated copy"
    };
    for h in &art.cross.handoffs {
        s.push_str(&format!(
            "  handoff: {} --{}--> {} ({} words, {routing})\n",
            art.names[h.from], h.name, art.names[h.to], h.words
        ));
    }
    match &art.system {
        Some(sys) => {
            let ks: Vec<String> = sys.config.ks.iter().map(|k| k.to_string()).collect();
            s.push_str(&format!(
                "aggregate system: k=[{}] m={} | {} LUT {} FF {} DSP {} BRAM\n",
                ks.join(","),
                sys.config.m,
                sys.luts,
                sys.ffs,
                sys.dsps,
                sys.brams
            ));
            let (l, f, d, b) = sys.slack();
            s.push_str(&format!(
                "slack vs {}: {} LUT {} FF {} DSP {} BRAM\n",
                sys.board().name,
                l,
                f,
                d,
                b
            ));
        }
        None => s.push_str("aggregate system: no feasible configuration\n"),
    }
    s
}

/// What stops each stage's next doubling ([`sysgen::next_doubling`]),
/// one line; empty when no system fits.
fn next_doublings(art: &ProgramArtifacts) -> String {
    let Some(sys) = &art.system else {
        return String::new();
    };
    let sim = SimConfig::default();
    let cost = zynq::RoundPricer::of(sys, &sim);
    let stages: Vec<String> = (art.names.iter().enumerate())
        .map(|(i, name)| format!("{name} {}", sysgen::next_doubling(sys, i, &cost)))
        .collect();
    format!("next doubling: {}\n", stages.join(", "))
}

pub(crate) fn cmd_compile(args: &[String]) {
    let p = checked_or_exit("compile", parse_common(args));
    let art = compile_or_exit(&p);
    write_sections(&p, &sections(&p, &art));
    // `--json`: the stage timings and the cache counters.
    if p.json {
        let t = &art.timings;
        outln!(
            "{{\n  \"kernels\": {},\n  \"timings_s\": {{\"frontend\": {:.6}, \"middle_end\": {:.6}, \
             \"schedule\": {:.6}, \"link\": {:.6}, \"backend\": {:.6}, \"system\": {:.6}, \"total\": {:.6}}},\n  \
             \"compile_cache\": {}\n}}",
            art.kernel_count(),
            t.frontend_s,
            t.middle_end_s,
            t.schedule_s,
            t.link_s,
            t.backend_s,
            t.system_s,
            t.total_s(),
            t.cache,
        );
    }
}

/// The `--emit` sections of a compile: per stage its IR, its C under
/// the program-unique symbol `<stage>_body` (so the sources link into
/// one system) and its compatibility graph; `host.c` with the fixed
/// `cfd_driver.h` it includes; the shared PLM units; and the report,
/// the program tables followed by each stage's HLS report.
fn sections(p: &Parsed, art: &ProgramArtifacts) -> Vec<(String, String)> {
    let stages = || art.names.iter().zip(&art.kernels);
    let mut sections: Vec<(String, String)> = Vec::new();
    if p.wants("ir") {
        for (name, a) in stages() {
            sections.push((format!("{name}.ir"), a.module.to_string()));
        }
    }
    if p.wants("c") {
        for (i, name) in art.names.iter().enumerate() {
            sections.push((format!("{name}.c"), art.stage_c_source(i)));
        }
    }
    if p.wants("host") {
        sections.push(("host.c".into(), art.host_source.clone()));
        sections.push(("cfd_driver.h".into(), sysgen::CFD_DRIVER_H.into()));
    }
    if p.wants("dot") {
        for (name, a) in stages() {
            sections.push((format!("{name}.compat.dot"), a.compat.to_dot()));
        }
    }
    if p.wants("memory") {
        let mut s = String::new();
        for u in &art.memory.units {
            s.push_str(&format!(
                "{}: {} words, {} BRAM36, {}R{}W, members {:?}\n",
                u.name, u.words, u.brams, u.read_ports, u.write_ports, u.members
            ));
        }
        s.push_str(&format!(
            "total {} BRAMs ({} cross-kernel units)\n",
            art.memory.brams,
            art.memory_plan.cross_kernel_units(&art.memory)
        ));
        sections.push(("memory.txt".into(), s));
    }
    if p.wants("report") {
        let mut s = program_report(art);
        s.push_str(&next_doublings(art));
        for (name, a) in stages() {
            s.push_str(&format!("\n{}", a.hls_report.renamed(name.clone())));
        }
        sections.push(("report.txt".into(), s));
    }
    sections
}

/// Write each `(name, content)` section to `-o DIR/name`, or print it
/// under a `=== name ===` header.
fn write_sections(p: &Parsed, sections: &[(String, String)]) {
    let Some(dir) = &p.out_dir else {
        for (name, content) in sections {
            outln!("=== {name} ===\n{content}");
        }
        return;
    };
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("cannot create '{dir}': {e}");
        exit(1)
    });
    for (name, content) in sections {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, content).unwrap_or_else(|e| {
            eprintln!("cannot write '{path}': {e}");
            exit(1)
        });
        outln!("wrote {path}");
    }
}
