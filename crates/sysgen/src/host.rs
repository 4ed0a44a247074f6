//! Host-side program description (Section V-B).
//!
//! The generated host code runs the accelerator for all `Ne` elements of
//! the CFD simulation in `Ne/m` main-loop iterations: transfer `m`
//! elements' inputs to power-of-two aligned PLM addresses, run `m/k`
//! start/interrupt rounds, transfer `m` outputs back. The `zynq`
//! simulator prices this round in closed form from the configuration
//! and the byte interface below.

use crate::system::SystemConfig;
use serde::{Deserialize, Serialize};

/// The host program skeleton of a single-kernel system configuration
/// (the simulators price the one-stage [`crate::ProgramHostProgram`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostProgram {
    pub config: SystemConfig,
    /// Input bytes per element (Σ input arrays × 8).
    pub bytes_in_per_element: usize,
    /// Output bytes per element.
    pub bytes_out_per_element: usize,
}

impl HostProgram {
    /// The external byte interface of a kernel chain: input and output
    /// bytes per element, Σ words × 8 over the parameters of that role
    /// for which `crosses(k, param)` holds — whether kernel `k`'s
    /// `param` crosses the DMA (a handoff co-located in the fabric does
    /// not). The one rule for every host program.
    pub fn interface_bytes<'a>(
        kernels: impl IntoIterator<Item = &'a cgen::CKernel>,
        crosses: impl Fn(usize, &cgen::CParam) -> bool,
    ) -> (usize, usize) {
        let (mut bytes_in, mut bytes_out) = (0, 0);
        for (k, kernel) in kernels.into_iter().enumerate() {
            for p in kernel.params.iter().filter(|p| crosses(k, p)) {
                match p.role {
                    cgen::ParamRole::Input => bytes_in += p.words * 8,
                    cgen::ParamRole::Output => bytes_out += p.words * 8,
                    cgen::ParamRole::Temp => {}
                }
            }
        }
        (bytes_in, bytes_out)
    }

    /// Build from the kernel's parameter list. No compile path calls
    /// this; it stays for the `benchmark/` harness.
    pub fn from_kernel(kernel: &cgen::CKernel, config: SystemConfig) -> HostProgram {
        let (bytes_in_per_element, bytes_out_per_element) =
            HostProgram::interface_bytes([kernel], |_, _| true);
        HostProgram {
            config,
            bytes_in_per_element,
            bytes_out_per_element,
        }
    }

    /// Main-loop iterations to process `elements` elements (the final
    /// partial batch still costs a full round).
    pub fn rounds(&self, elements: usize) -> usize {
        elements.div_ceil(self.config.m)
    }

    /// Generate the C host-side source skeleton (for inspection): the
    /// `host.c` of a kernel compile.
    pub fn to_c(&self, elements: usize) -> String {
        let m = self.config.m;
        let k = self.config.k;
        format!(
            "/* generated host code: {k} accelerators, {m} PLM systems */\n\
             void run_simulation(const double *in, double *out) {{\n\
             \tfor (size_t i = 0; i < {rounds}; ++i) {{\n\
             \t\tdma_write(in + i * {m} * {bi} / 8, {total_in});\n\
             \t\tfor (int b = 0; b < {batch}; ++b) {{\n\
             \t\t\taxi_lite_write(CTRL_START, 1); /* broadcast to {k} kernels */\n\
             \t\t\twait_for_interrupt();\n\
             \t\t}}\n\
             \t\tdma_read(out + i * {m} * {bo} / 8, {total_out});\n\
             \t}}\n\
             }}\n",
            rounds = self.rounds(elements),
            batch = self.config.batch(),
            bi = self.bytes_in_per_element,
            bo = self.bytes_out_per_element,
            total_in = self.bytes_in_per_element * m,
            total_out = self.bytes_out_per_element * m,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(k: usize, m: usize) -> HostProgram {
        HostProgram {
            config: SystemConfig { k, m },
            bytes_in_per_element: 22_264,  // S + D + u at p=11
            bytes_out_per_element: 10_648, // v
        }
    }

    #[test]
    fn rounds_cover_all_elements() {
        let p = prog(8, 8);
        assert_eq!(p.rounds(50_000), 6250);
        assert_eq!(p.rounds(50_001), 6251);
        assert_eq!(prog(16, 16).rounds(50_000), 3125);
    }

    #[test]
    fn helmholtz_transfer_sizes() {
        // S (121) + D (1331) + u (1331) doubles in; v (1331) out.
        let bytes_in = (121 + 1331 + 1331) * 8;
        let bytes_out = 1331 * 8;
        let p = prog(1, 1);
        assert_eq!(p.bytes_in_per_element, bytes_in);
        assert_eq!(p.bytes_out_per_element, bytes_out);
    }

    #[test]
    fn c_skeleton_mentions_broadcast() {
        let c = prog(4, 8).to_c(100);
        assert!(c.contains("broadcast to 4 kernels"));
        assert!(c.contains("for (int b = 0; b < 2; ++b)"));
    }
}
