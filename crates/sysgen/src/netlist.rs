//! Structural system description — the "system description ready for
//! logic synthesis" of Section V-B.
//!
//! Emits a Verilog netlist of the Figure-7 architecture: `k` accelerator
//! instances, `m` PLM instances, the AXI-lite control peripheral that
//! presents them to the host as one `ap_ctrl` device, and (for `k < m`)
//! the batch counter feeding the PLM address MSBs. The RTL bodies of the
//! kernel (from HLS) and the PLM units (from Mnemosyne) are referenced
//! as module instantiations, exactly like the real flow hands Vivado XST
//! a top-level wrapper.

use crate::system::SystemDesign;
use std::fmt::Write;

/// Emit the top-level Verilog wrapper for a system design.
pub fn emit_system_verilog(design: &SystemDesign) -> String {
    let k = design.config.k;
    let m = design.config.m;
    let batch = design.config.batch();
    let batch_bits = usize::BITS as usize - (batch.max(1) - 1).leading_zeros() as usize;
    let kernel = &design.kernel.kernel;
    let mut v = String::new();

    let _ = writeln!(v, "// generated by cfdfpga sysgen — do not edit");
    let _ = writeln!(
        v,
        "// {}: k = {k} accelerators, m = {m} PLM systems, batch = {batch}",
        design.board().name
    );
    let _ = writeln!(v, "module system_top (");
    let _ = writeln!(v, "  input  wire        aclk,");
    let _ = writeln!(v, "  input  wire        aresetn,");
    let _ = writeln!(v, "  // AXI-lite slave (host control)");
    let _ = writeln!(v, "  input  wire [31:0] s_axi_awaddr,");
    let _ = writeln!(v, "  input  wire [31:0] s_axi_wdata,");
    let _ = writeln!(v, "  input  wire        s_axi_wvalid,");
    let _ = writeln!(v, "  output wire [31:0] s_axi_rdata,");
    let _ = writeln!(v, "  // AXI master (DMA to PLM)");
    let _ = writeln!(v, "  input  wire [63:0] dma_wdata,");
    let _ = writeln!(v, "  input  wire [31:0] dma_waddr,");
    let _ = writeln!(v, "  input  wire        dma_wvalid,");
    let _ = writeln!(v, "  output wire [63:0] dma_rdata,");
    let _ = writeln!(v, "  output wire        irq");
    let _ = writeln!(v, ");");
    let _ = writeln!(v);
    let _ = writeln!(v, "  wire [{}:0] ap_start_bus;", k - 1);
    let _ = writeln!(v, "  wire [{}:0] ap_done_bus;", k - 1);
    let _ = writeln!(v, "  wire [{}:0] ap_idle_bus;", k - 1);
    if batch > 1 {
        let _ = writeln!(v, "  wire [{}:0] batch_count;", batch_bits - 1);
    }
    let _ = writeln!(v);

    // AXI-lite peripheral: broadcast start, collect done, raise irq.
    let _ = writeln!(v, "  axi_lite_ctrl #(.K({k}), .BATCH({batch})) u_ctrl (");
    let _ = writeln!(v, "    .aclk(aclk), .aresetn(aresetn),");
    let _ = writeln!(
        v,
        "    .awaddr(s_axi_awaddr), .wdata(s_axi_wdata), .wvalid(s_axi_wvalid),"
    );
    let _ = writeln!(v, "    .rdata(s_axi_rdata),");
    let _ = writeln!(
        v,
        "    .ap_start(ap_start_bus), .ap_done(ap_done_bus), .ap_idle(ap_idle_bus),"
    );
    if batch > 1 {
        let _ = writeln!(v, "    .batch_count(batch_count),");
    }
    let _ = writeln!(v, "    .irq(irq)");
    let _ = writeln!(v, "  );");
    let _ = writeln!(v);

    // PLM instances.
    for p in 0..m {
        let _ = writeln!(v, "  // PLM system {p}: {} BRAM36", design.memory.brams);
        for u in &design.memory.units {
            let _ = writeln!(
                v,
                "  {} #(.WORDS({}), .BANKS({})) u_plm{}_{} (.clk(aclk), .dma_wdata(dma_wdata), .dma_waddr(dma_waddr), .dma_wvalid(dma_wvalid));",
                u.name, u.words, u.brams, p, u.name
            );
        }
    }
    let _ = writeln!(v);

    // Accelerator instances; k < m steers through the batch counter MSBs
    // (Figure 7c).
    for a in 0..k {
        let _ = writeln!(v, "  {kernel} u_acc{a} (");
        let _ = writeln!(v, "    .ap_clk(aclk), .ap_rst_n(aresetn),");
        let _ = writeln!(v, "    .ap_start(ap_start_bus[{a}]),");
        let _ = writeln!(v, "    .ap_done(ap_done_bus[{a}]),");
        let _ = writeln!(v, "    .ap_idle(ap_idle_bus[{a}]),");
        if batch > 1 {
            let _ = writeln!(
                v,
                "    // PLM select: {{batch_count, {a}}} of {m} PLM systems"
            );
            let _ = writeln!(
                v,
                "    .plm_sel({{batch_count, {}'d{a}}})",
                batch_bits.max(1)
            );
        } else {
            let _ = writeln!(v, "    .plm_sel({a})");
        }
        let _ = writeln!(v, "  );");
    }
    let _ = writeln!(v);
    let _ = writeln!(
        v,
        "  assign dma_rdata = 64'd0; // read mux elided in wrapper"
    );
    let _ = writeln!(v, "endmodule");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostProgram;
    use crate::platform::Platform;
    use crate::system::{SystemConfig, SystemDesign};

    fn design(k: usize, m: usize) -> SystemDesign {
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
        let cfg = SystemConfig { k, m };
        SystemDesign::build(
            &Platform::zcu106(),
            &kernel,
            &memory,
            cfg,
            HostProgram {
                config: cfg,
                bytes_in_per_element: 0,
                bytes_out_per_element: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn netlist_instantiates_all_replicas() {
        let v = emit_system_verilog(&design(4, 4));
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
        let v = emit_system_verilog(&design(2, 8));
        assert!(v.contains("batch_count"), "{v}");
        assert!(v.contains(".BATCH(4)"), "{v}");
        // Equal k = m elides it.
        let v2 = emit_system_verilog(&design(2, 2));
        assert!(!v2.contains("batch_count"), "{v2}");
    }

    #[test]
    fn control_bus_widths_match_k() {
        let v = emit_system_verilog(&design(8, 8));
        assert!(v.contains("wire [7:0] ap_start_bus"), "{v}");
        assert!(v.contains(".K(8)"), "{v}");
    }
}
