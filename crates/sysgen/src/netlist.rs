//! Structural system description — the "system description ready for
//! logic synthesis" of Section V-B.
//!
//! Emits a Verilog netlist of the Figure-7 architecture for a
//! [`MultiSystemDesign`]: one accelerator bank per stage (`k_i`
//! instances), `m` PLM sets of the merged program memory shared by every
//! bank, and per stage an AXI-lite control peripheral that presents the
//! bank to the host as one `ap_ctrl` device at start register
//! `CTRL_START(i)` of [`crate::CFD_DRIVER_H`], with (for `k_i < m`) the
//! batch counter feeding the PLM address MSBs. The RTL bodies of the
//! kernels (from HLS) and the PLM units (from Mnemosyne) are referenced
//! as module instantiations, exactly like the real flow hands Vivado XST
//! a top-level wrapper.

use crate::multi::MultiSystemDesign;
use std::fmt::Write;

/// A Verilog identifier for a PLM unit name: program memories namespace
/// arrays by stage (`plm_main.S`), and `.` is not an identifier character.
fn ident(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Emit the top-level Verilog wrapper for a program system.
pub fn emit_system_verilog(design: &MultiSystemDesign) -> String {
    let (m, stages) = (design.config.m, design.stages.len());
    let mut v = format!(
        "// generated by cfdfpga sysgen — do not edit\n\
         // {board}: {stages} stage(s), m = {m} PLM systems\n\
         module system_top (\n  \
           input  wire        aclk,\n  \
           input  wire        aresetn,\n  \
           // AXI-lite slave (host control)\n  \
           input  wire [31:0] s_axi_awaddr,\n  \
           input  wire [31:0] s_axi_wdata,\n  \
           input  wire        s_axi_wvalid,\n  \
           output wire [31:0] s_axi_rdata,\n  \
           // AXI master (DMA to PLM)\n  \
           input  wire [63:0] dma_wdata,\n  \
           input  wire [31:0] dma_waddr,\n  \
           input  wire        dma_wvalid,\n  \
           output wire [63:0] dma_rdata,\n  \
           output wire        irq\n\
         );\n\n",
        board = design.board().name,
    );

    // PLM sets: the merged program memory, shared by every bank.
    for p in 0..m {
        let _ = writeln!(v, "  // PLM system {p}: {} BRAM36", design.memory.brams);
        for u in &design.memory.units {
            let name = ident(&u.name);
            let _ = writeln!(
                v,
                "  {name} #(.WORDS({}), .BANKS({})) u_plm{p}_{name} (.clk(aclk), .dma_wdata(dma_wdata), .dma_waddr(dma_waddr), .dma_wvalid(dma_wvalid));",
                u.words, u.brams
            );
        }
    }

    // One bank per stage, each behind its own AXI-lite peripheral
    // (broadcast start, collect done, raise irq). Accelerators are
    // numbered across the banks; k < m steers accelerator `a` to PLM set
    // `batch_count · k + a` (Figure 7c).
    let _ = writeln!(
        v,
        "\n  wire [{0}:0] irq_bus;\n  wire [31:0] rdata_bus [0:{0}];",
        stages - 1
    );
    let mut acc = 0;
    for (i, stage) in design.stages.iter().enumerate() {
        let (k, batch) = (stage.k, design.config.batch(i));
        let bits = usize::BITS as usize - (batch - 1).leading_zeros() as usize;
        let (count_wire, count_port) = if batch > 1 {
            let wire = format!("  wire [{}:0] batch_count{i};\n", bits - 1);
            (wire, format!("    .batch_count(batch_count{i}),\n"))
        } else {
            Default::default()
        };
        let _ = write!(
            v,
            "  // stage {i} '{name}': k = {k} accelerators, batch = {batch}, start register CTRL_START({i})\n  \
             wire [{kh}:0] ap_start_bus{i};\n  \
             wire [{kh}:0] ap_done_bus{i};\n  \
             wire [{kh}:0] ap_idle_bus{i};\n\
             {count_wire}  \
             axi_lite_ctrl #(.START_REG({reg}), .K({k}), .BATCH({batch})) u_ctrl{i} (\n    \
               .aclk(aclk), .aresetn(aresetn),\n    \
               .awaddr(s_axi_awaddr), .wdata(s_axi_wdata), .wvalid(s_axi_wvalid),\n    \
               .rdata(rdata_bus[{i}]),\n    \
               .ap_start(ap_start_bus{i}), .ap_done(ap_done_bus{i}), .ap_idle(ap_idle_bus{i}),\n\
             {count_port}    \
               .irq(irq_bus[{i}])\n  \
             );\n",
            name = stage.name,
            kh = k - 1,
            reg = 4 * i,
        );
        for a in 0..k {
            let sel = if batch > 1 {
                format!("batch_count{i} * {k} + {a}")
            } else {
                a.to_string()
            };
            let _ = writeln!(
                v,
                "  {} u_acc{acc} (\n    \
                   .ap_clk(aclk), .ap_rst_n(aresetn),\n    \
                   .ap_start(ap_start_bus{i}[{a}]),\n    \
                   .ap_done(ap_done_bus{i}[{a}]),\n    \
                   .ap_idle(ap_idle_bus{i}[{a}]),\n    \
                   .plm_sel({sel})\n  \
                 );",
                stage.kernel.kernel
            );
            acc += 1;
        }
    }
    let rdata: Vec<String> = (0..stages).map(|i| format!("rdata_bus[{i}]")).collect();
    let _ = writeln!(
        v,
        "\n  assign s_axi_rdata = {};\n  \
         assign irq = |irq_bus;\n  \
         assign dma_rdata = 64'd0; // read mux elided in wrapper\n\
         endmodule",
        rdata.join(" | ")
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{ProgramHostProgram, ProgramSystemConfig};
    use crate::platform::Platform;

    /// A program system of `ks.len()` stages over one PLM unit `plm_S`.
    fn design(ks: Vec<usize>, m: usize) -> MultiSystemDesign {
        let kernel = hls::HlsReport {
            kernel: "kernel_body".into(),
            clock_mhz: Platform::zcu106().default_clock_mhz,
            latency_cycles: 1000,
            luts: 2_314,
            ffs: 2_999,
            dsps: 15,
            brams: 0,
            loops: vec![],
        };
        let memory = mnemosyne::MemorySubsystem {
            units: vec![mnemosyne::PlmUnit {
                name: "plm_S".into(),
                members: vec![0],
                words: 121,
                brams: 1,
                read_ports: 1,
                write_ports: 1,
                luts: 50,
                ffs: 30,
            }],
            brams: 1,
            luts: 50,
            ffs: 30,
        };
        let stages: Vec<(String, hls::HlsReport)> = (0..ks.len())
            .map(|i| (format!("s{i}"), kernel.clone()))
            .collect();
        let cfg = ProgramSystemConfig { ks, m };
        let host = ProgramHostProgram::placeholder(cfg.clone(), &stages);
        MultiSystemDesign::build(&Platform::zcu106(), &stages, &memory, cfg, host).unwrap()
    }

    #[test]
    fn netlist_instantiates_all_replicas() {
        let v = emit_system_verilog(&design(vec![4], 4));
        for a in 0..4 {
            assert!(v.contains(&format!("u_acc{a} (")), "{v}");
        }
        for p in 0..4 {
            assert!(v.contains(&format!("u_plm{p}_plm_S")), "{v}");
        }
        assert!(v.contains("module system_top"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn batched_netlist_has_batch_counter() {
        let v = emit_system_verilog(&design(vec![2], 8));
        assert!(v.contains("batch_count"), "{v}");
        assert!(v.contains(".BATCH(4)"), "{v}");
        // Equal k = m elides it.
        let v2 = emit_system_verilog(&design(vec![2], 2));
        assert!(!v2.contains("batch_count"), "{v2}");
        // Per stage: only the stage with k < m counts batches.
        let v3 = emit_system_verilog(&design(vec![4, 1], 4));
        assert!(v3.contains("batch_count1"), "{v3}");
        assert!(!v3.contains("batch_count0"), "{v3}");
    }

    #[test]
    fn control_bus_widths_match_k() {
        let v = emit_system_verilog(&design(vec![8], 8));
        assert!(v.contains("wire [7:0] ap_start_bus"), "{v}");
        assert!(v.contains(".K(8)"), "{v}");
        let v = emit_system_verilog(&design(vec![2, 8], 8));
        assert!(v.contains("wire [1:0] ap_start_bus0"), "{v}");
        assert!(v.contains("wire [7:0] ap_start_bus1"), "{v}");
    }
}
