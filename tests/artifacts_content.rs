//! Content-level checks of every generated artifact: the C kernel, the
//! host skeleton, the Verilog system netlist, the Mnemosyne metadata and
//! the compatibility graph, for the paper's exact kernel.

use cfdfpga::flow::{Artifacts, ProgramArtifacts, ProgramFlow, ProgramOptions};
use cfdfpga::sysgen::{emit_system_verilog, MultiSystemDesign, ProgramSystemConfig};
use std::sync::OnceLock;

/// The paper's kernel as the one-kernel program: it owns the system and
/// the host program.
fn program() -> &'static ProgramArtifacts {
    static CELL: OnceLock<ProgramArtifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        let src = cfdfpga::cfdlang::examples::inverse_helmholtz(11);
        ProgramFlow::compile(&src, &ProgramOptions::default()).expect("compiles")
    })
}

/// The paper's kernel: the program's one kernel slot.
fn paper() -> &'static Artifacts {
    &program().kernels[0]
}

#[test]
fn c_kernel_matches_figure6_interface() {
    let c = &paper().c_source;
    // Parameter order of Figure 6: interface first, then temporaries.
    let pos = |s: &str| {
        c.find(s)
            .unwrap_or_else(|| panic!("missing '{s}' in:\n{c}"))
    };
    assert!(pos("restrict S") < pos("restrict D"));
    assert!(pos("restrict D") < pos("restrict u"));
    assert!(pos("restrict u") < pos("restrict v"));
    assert!(pos("restrict v") < pos("restrict t "));
    assert!(pos("restrict r") < pos("restrict t0"));
    // Flattened row-major addressing for p = 11.
    assert!(c.contains("121 * i0 + 11 * i1 + i2"));
    // Six accumulator-style contraction stages.
    assert_eq!(c.matches("double acc = 0.0;").count(), 6);
    assert_eq!(c.matches("acc +=").count(), 6);
}

#[test]
fn host_skeleton_structure() {
    let h = &program().host_source;
    // k = m = 16 -> 50,000 / 16 = 3,125 rounds, batch 1.
    assert!(h.contains("m = 16 PLM sets"), "{h}");
    assert!(h.contains("broadcast to 16 kernels"), "{h}");
    assert!(h.contains("i < 3125"), "{h}");
    assert!(h.contains("b < 1"), "{h}");
    assert!(h.contains("dma_write"));
    assert!(h.contains("dma_read"));
}

#[test]
fn verilog_netlist_for_paper_system() {
    let v = emit_system_verilog(program().system.as_ref().unwrap());
    assert!(v.contains("module system_top"));
    assert!(v.contains("m = 16 PLM systems"), "{v}");
    assert!(v.contains("k = 16 accelerators"), "{v}");
    // All sixteen accelerators and all PLM units of each system.
    for a in 0..16 {
        assert!(v.contains(&format!("u_acc{a} (")));
    }
    assert!(!v.contains("u_acc16 ("));
    assert!(v.contains("u_plm15_plm_main_S"), "{v}");
    // Equal k = m: no batch counter.
    assert!(!v.contains("batch_count"));
}

#[test]
fn verilog_netlist_batched_variant() {
    // The paper system rebuilt at k = 4, m = 16.
    let sys = program().system.as_ref().unwrap();
    let stages: Vec<_> = (sys.stages.iter())
        .map(|s| (s.name.clone(), s.kernel.clone()))
        .collect();
    let cfg = ProgramSystemConfig::uniform(4, 16, 1);
    let host = cfdfpga::sysgen::ProgramHostProgram {
        config: cfg.clone(),
        ..sys.host.clone()
    };
    let batched = MultiSystemDesign::build(&sys.platform, &stages, &sys.memory, cfg, host);
    let v = emit_system_verilog(&batched.unwrap());
    assert!(v.contains("batch = 4"));
    assert!(v.contains("batch_count"));
    assert!(v.contains(".BATCH(4)"));
}

/// The three-stage simulation step as one system: the netlist has one
/// bank per stage (Σ k_i accelerators), one start register per stage —
/// the `CTRL_START(i)` its `host.c` writes — and `m` PLM sets of the
/// merged program memory.
#[test]
fn verilog_netlist_for_multi_stage_program() {
    let src = cfdfpga::cfdlang::examples::simulation_step(4);
    let art = ProgramFlow::compile(&src, &ProgramOptions::default()).expect("compiles");
    let sys = art.system.as_ref().unwrap();
    assert_eq!(sys.stages.len(), 3);
    let v = emit_system_verilog(sys);
    let total_k: usize = sys.config.ks.iter().sum();
    assert_eq!(v.matches(" u_acc").count(), total_k, "{v}");
    assert!(v.contains(&format!("u_acc{} (", total_k - 1)), "{v}");
    assert_eq!(v.matches("axi_lite_ctrl ").count(), 3, "{v}");
    for (i, k) in sys.config.ks.iter().enumerate() {
        let start = format!("CTRL_START({i})");
        assert!(art.host_source.contains(&start), "{}", art.host_source);
        assert!(v.contains(&format!(
            "k = {k} accelerators, batch = 1, start register {start}"
        )));
        assert!(
            v.contains(&format!(".START_REG({}), .K({k})", 4 * i)),
            "{v}"
        );
    }
    assert!(!art.host_source.contains("CTRL_START(3)"));
    // m PLM sets, each with every unit of the merged memory.
    let m = sys.config.m;
    assert_eq!(
        v.matches(" u_plm").count(),
        m * sys.memory.units.len(),
        "{v}"
    );
    for u in &sys.memory.units {
        let name = u.name.replace('.', "_");
        assert!(v.contains(&format!("u_plm{}_{name} (", m - 1)), "{v}");
    }
}

#[test]
fn mnemosyne_metadata_lists_figure6_arrays() {
    let cfg = &paper().mnemosyne_config;
    for name in ["S", "D", "u", "v", "t", "r", "t0", "t1", "t2", "t3"] {
        assert!(cfg.index_of(name).is_some(), "missing array {name}");
    }
    // Interface flags.
    for name in ["S", "D", "u", "v"] {
        assert!(cfg.arrays[cfg.index_of(name).unwrap()].interface);
    }
    for name in ["t", "r", "t0", "t1", "t2", "t3"] {
        assert!(!cfg.arrays[cfg.index_of(name).unwrap()].interface);
    }
    // Sizes.
    assert_eq!(cfg.arrays[cfg.index_of("S").unwrap()].words, 121);
    assert_eq!(cfg.arrays[cfg.index_of("u").unwrap()].words, 1331);
}

#[test]
fn compatibility_graph_temporal_chain() {
    // The factored temporaries form an interval chain along the schedule:
    // stage-adjacent pairs conflict, distance >= 2 pairs are compatible.
    let g = &paper().compat;
    let chain = ["t0", "t1", "t", "r", "t2", "t3"];
    let idx: Vec<usize> = chain.iter().map(|n| g.node_by_name(n).unwrap()).collect();
    for i in 0..chain.len() {
        for j in (i + 1)..chain.len() {
            let compatible =
                g.compatible(idx[i], idx[j], cfdfpga::pschedule::CompatKind::AddressSpace);
            if j == i + 1 {
                assert!(!compatible, "{} and {} must conflict", chain[i], chain[j]);
            } else {
                assert!(
                    compatible,
                    "{} and {} must be compatible",
                    chain[i], chain[j]
                );
            }
        }
    }
}

#[test]
fn plm_units_overlay_alternating_stages() {
    // Sharing groups: {t0, t, t2} and {t1, r, t3} (interval coloring).
    let art = paper();
    let cfg = &art.mnemosyne_config;
    let temp_units: Vec<Vec<&str>> = art
        .memory
        .units
        .iter()
        .filter(|u| u.members.iter().all(|&m| !cfg.arrays[m].interface))
        .map(|u| {
            u.members
                .iter()
                .map(|&m| cfg.arrays[m].name.as_str())
                .collect()
        })
        .collect();
    assert_eq!(temp_units.len(), 2);
    for group in &temp_units {
        assert_eq!(group.len(), 3);
    }
}

#[test]
fn hls_loop_reports_cover_all_stages() {
    let r = &paper().hls_report;
    // Seven pipelined leaf loops: six contraction stages + Hadamard.
    assert_eq!(r.loops.len(), 7);
    let ii5 = r.loops.iter().filter(|l| l.ii == 5).count();
    let ii1 = r.loops.iter().filter(|l| l.ii == 1).count();
    assert_eq!(ii5, 6, "contraction stages pipeline at the dadd recurrence");
    assert_eq!(ii1, 1, "the Hadamard pipelines at II = 1");
    for l in &r.loops {
        assert_eq!(l.trip, 11);
    }
}

#[test]
fn schedule_groups_follow_program_order() {
    let art = paper();
    let groups = art.schedule.groups();
    assert_eq!(groups.len(), art.module.stmts.len(), "no fusion by default");
    let flat: Vec<usize> = groups.into_iter().flatten().collect();
    // RAW chain forces producer-before-consumer; with the reference
    // sequence this is program order.
    for e in art.dependences().raw() {
        let pos = |s: usize| flat.iter().position(|&x| x == s).unwrap();
        assert!(pos(e.src) < pos(e.dst));
    }
}
