//! `sysgen` — parallel system generation (Section V-B) over portable
//! target platforms.
//!
//! # The `Platform` decomposition
//!
//! Every compilation targets one [`Platform`] from the catalog
//! ([`Platform::catalog`]), which decomposes the deployment target into
//! four orthogonal pieces:
//!
//! * **[`BoardSpec`]** — the programmable-logic resource vector `[A]`
//!   of Eq. (3): LUTs, FFs, DSPs, BRAM36 blocks. Nothing else; the
//!   board is pure budget.
//! * **[`HostCpuModel`]** — the CPU that runs the generated main loop
//!   and the software reference: clock plus average retired-cycle
//!   coefficients per load/store/FLOP/iteration/address-op, which
//!   `zynq::arm`'s cost functions read directly.
//! * **[`DmaSpec`]** — the host↔PL transfer fabric: effective
//!   bandwidth and fixed per-burst setup latency
//!   ([`DmaSpec::transfer_bursts_s`]), which `zynq::RoundPricer`, the
//!   one [`RoundCost`], charges per round.
//! * **clock ladder** — the fabric clocks the part realistically
//!   closes timing at ([`Platform::clock_ladder_mhz`]), with
//!   [`Platform::default_clock_mhz`] as the plain-compile choice. The
//!   HLS model synthesizes the kernel at the selected rung; the
//!   portfolio DSE sweeps the whole ladder.
//!
//! The ZCU106 entry carries the paper's calibration exactly: Table I's
//! base infrastructure ≈ 6.8k LUT with ≈ 4.4–4.9k LUT per added
//! replica ([`IntegrationModel`]), the in-text kernel footprint
//! (2,314 LUT / 2,999 FF / 15 DSP at 200 MHz), the 1.2 GHz quad
//! Cortex-A53 host, and the ~0.7 GB/s effective HP-port DMA implied by
//! Figures 9/10. Table I's totals reproduce within 10% for every
//! `k = m ∈ {1, 2, 4, 8, 16}` row (LUT: 11,292 / 15,572 / 24,480 /
//! 42,141 / 77,235) and the DSP column exactly (15·k).
//!
//! # System construction
//!
//! The system generator reads the HLS kernel report, the Mnemosyne
//! memory subsystem and the selected platform, and builds the
//! replicated architecture of Figure 7:
//!
//! * it solves Eq. (3) — `[H]·k + [M]·m ≤ [A]` with `m` a power-of-two
//!   multiple of `k`, generalised to `Σ_i [H_i]·k_i + [M]·m + glue ≤
//!   [A]` over a program's stages — against the platform's board to find
//!   feasible replication factors ([`enumerate_program_designs`] lists
//!   the uniform ones). The automatic choice ([`best_program_config`],
//!   module [`replicate`]) picks one `k_i` per stage: an enumeration,
//!   rung by rung of `m`, of every `ks` on the ladder `1, 2, …, 64` with
//!   `m = max k_i`, minimising
//!   a round's ticks per element as the simulator prices them
//!   ([`RoundCost::round`], whose one implementation, `zynq::RoundPricer`,
//!   also prices the simulators' and the design-space sweep's rounds),
//!   starting from the largest uniform `k = m` that
//!   [`Totals::fit`] admits ([`max_equal_program_config`]) and leaving
//!   it only for a strictly cheaper design. A single kernel keeps its
//!   uniform pick; a program's slow stages get more accelerators than
//!   its fast ones. Nothing is built while searching,
//! * it instantiates `k_i` accelerators per stage and `m` PLM systems
//!   plus the integration logic: per stage the AXI-lite peripheral that
//!   presents its `k_i` accelerators to the host as a single `ap_ctrl`
//!   device, the batch
//!   counter that steers accelerators across PLMs when `k < m`, and the
//!   data-steering network from the DMA to the PLM instances,
//! * it emits the host program skeleton: `⌈Ne/m⌉` main-loop iterations of
//!   input transfer → per stage `m/k_i` start/wait rounds → output
//!   transfer.
//!
//! The flow builds one system type, [`MultiSystemDesign`] (a kernel is
//! the one-stage program), and every system artifact comes from it:
//! [`ProgramHostProgram::to_c`] writes every `host.c` (against the fixed
//! [`CFD_DRIVER_H`]) and [`emit_system_verilog`] reads the design for
//! the Verilog top. [`SystemDesign::build`],
//! [`HostProgram::from_kernel`] and [`max_equal_config`] stay for the
//! `benchmark/` harness.
//!
//! A request that exceeds the selected board (e.g. the ZCU106's
//! `k = m = 16` asked of a Pynq-Z2) is *not* an error at this layer:
//! [`MultiSystemDesign::build`] returns `None`, and the automatic choice
//! degrades to the largest replication the small board admits.
//! [`next_doubling`] says, per stage of a design, what stops its next
//! doubling: the Eq. (3) term it would break, no gain, or the ladder's
//! top. Callers that insist on an explicit configuration
//! get a structured does-not-fit error from the flow above.

#![forbid(unsafe_code)]

pub mod board;
pub mod host;
pub mod multi;
pub mod netlist;
pub mod platform;
pub mod replicate;
pub mod system;

pub use board::BoardSpec;
pub use host::{HostProgram, CFD_DRIVER_H};
pub use multi::{
    enumerate_program_designs, max_equal_program_config, MultiSystemDesign, ProgramHostProgram,
    ProgramSystemConfig, StageDesign,
};
pub use netlist::emit_system_verilog;
pub use platform::{DmaSpec, HostCpuModel, Platform};
pub use replicate::{
    best_program_config, next_doubling, Doubling, RoundCost, RoundTicks, SEARCH_CAP,
};
pub use system::{max_equal_config, IntegrationModel, SystemConfig, SystemDesign, Totals};
