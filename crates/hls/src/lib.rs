//! `hls` — a high-level-synthesis model standing in for Vivado HLS.
//!
//! The paper feeds compiler-generated C into Vivado HLS 2019.2 and
//! consumes two artifacts: the **resource report** (LUT/FF/DSP/BRAM,
//! used by the system generator to solve Eq. (3)) and the **kernel
//! latency** (used by the timing evaluation). This crate reproduces both
//! from the same loop-nest IR that the C emitter prints, so the "C code"
//! the HLS model sees is exactly the code a real HLS run would see.
//!
//! The model implements the standard HLS analyses:
//!
//! * **operator library** ([`ops`]) — double-precision add/mul/div
//!   latencies and resource costs on UltraScale+ at 200 MHz, calibrated
//!   so the paper's factored Inverse Helmholtz kernel lands at its
//!   reported 2,314 LUT / 2,999 FF / 15 DSP,
//! * **loop pipelining** ([`latency`]) — innermost loops are pipelined;
//!   the initiation interval is `max(RecMII, ResMII)` where RecMII
//!   captures the floating-point accumulation recurrence and ResMII the
//!   memory-port pressure per PLM,
//! * **function-level FU binding** ([`resources`]) — sequentially
//!   executing loop nests share one floating-point unit per operator
//!   type,
//! * **internal array mapping** — in non-decoupled mode, local arrays
//!   map to BRAM with Vivado's power-of-two depth padding (which is why
//!   the paper measures 24 BRAMs inside the accelerator vs 18 in
//!   Mnemosyne PLMs for the same data).

#![forbid(unsafe_code)]

pub mod latency;
pub mod ops;
pub mod report;
pub mod resources;

pub use latency::{kernel_latency, LoopReport};
pub use ops::OpLibrary;
pub use report::HlsReport;
pub use resources::estimate_resources;

use cgen::CKernel;

/// HLS tool options (the pragmas the flow applies). Every innermost
/// loop is pipelined (`#pragma HLS pipeline`) and none is unrolled.
#[derive(Debug, Clone)]
pub struct HlsOptions {
    /// Target clock (the paper synthesizes at 200 MHz).
    pub clock_mhz: f64,
    /// Per-array cyclic partition factors (`#pragma HLS array_partition
    /// cyclic factor=F variable=name`): multiplies the one read and one
    /// write port of the named array, demanding a multi-bank PLM from
    /// the memory generator (Section V-A1 / V-A2).
    pub partition: Vec<(String, u32)>,
}

impl Default for HlsOptions {
    fn default() -> Self {
        HlsOptions {
            clock_mhz: 200.0,
            partition: Vec::new(),
        }
    }
}

impl HlsOptions {
    /// Effective `(read, write)` ports of an array after partitioning.
    pub fn ports_for(&self, array: &str) -> (u32, u32) {
        let factor = self
            .partition
            .iter()
            .find(|(n, _)| n == array)
            .map(|(_, f)| *f)
            .unwrap_or(1)
            .max(1);
        (factor, factor)
    }
}

/// Run "synthesis": produce the report for a kernel.
pub fn synthesize(kernel: &CKernel, opts: &HlsOptions) -> HlsReport {
    let lib = OpLibrary::for_clock(opts.clock_mhz);
    let (loops, total_latency) = latency::kernel_latency(kernel, opts, &lib);
    let res = resources::estimate_resources(kernel, &lib, &loops);
    HlsReport {
        kernel: kernel.name.clone(),
        clock_mhz: opts.clock_mhz,
        latency_cycles: total_latency,
        luts: res.luts,
        ffs: res.ffs,
        dsps: res.dsps,
        brams: res.brams,
        loops,
    }
}
