//! Host-side program description (Section V-B).
//!
//! The generated host code runs the accelerator for all `Ne` elements of
//! the CFD simulation in `⌈Ne/m⌉` main-loop iterations: transfer `m`
//! elements' inputs to power-of-two aligned PLM addresses, run `m/k`
//! start/interrupt rounds per stage, transfer `m` outputs back. The
//! `zynq` simulator prices this round in closed form from the
//! configuration and the byte interface below, and
//! [`crate::ProgramHostProgram::to_c`] writes it as `host.c` against the
//! fixed driver interface [`CFD_DRIVER_H`].

use crate::system::SystemConfig;

/// The `cfd_driver.h` every `host.c` includes: the platform driver calls
/// it makes and the control-register map of the AXI-lite peripheral
/// (one start register per stage). The text is fixed; `host.c` and this
/// header build under `cc -std=c99 -Wall -Wextra -Werror`.
pub const CFD_DRIVER_H: &str = "\
/* generated by cfdfpga sysgen: the driver interface host.c calls */
#ifndef CFD_DRIVER_H
#define CFD_DRIVER_H

#include <stddef.h>

/* Start register of stage i in the AXI-lite control block. */
#define CTRL_START(i) ((size_t)(i) * 4u)

/* Copy bytes from host memory into the PLM sets (DMA host -> PL). */
void dma_write(const double *src, size_t bytes);
/* Copy bytes from the PLM sets into host memory (DMA PL -> host). */
void dma_read(double *dst, size_t bytes);
/* Write a control register (a start broadcasts to a stage's bank). */
void axi_lite_write(size_t reg, unsigned value);
/* Block until the started bank raises its completion interrupt. */
void wait_for_interrupt(void);

/* The generated main loop; in and out hold rounds x m elements. */
void run_simulation(const double *in, double *out);

#endif
";

/// The byte interface of a single-kernel system configuration (the
/// simulators price the one-stage [`crate::ProgramHostProgram`]).
#[derive(Debug, Clone, PartialEq, Eq)]
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
}
