//! `zynq` — full-system simulation of the deployed accelerator.
//!
//! The paper evaluates on a physical Zynq UltraScale+ MPSoC (ZCU106): a
//! quad Cortex-A53 host at 1.2 GHz driving `k` accelerators at 200 MHz
//! through AXI DMA and an AXI-lite control peripheral, with hardware
//! timers measuring kernel execution with and without data transfers.
//! This crate replaces the board with a simulator plus calibrated cost
//! models, all derived from the selected [`sysgen::Platform`] — the
//! same simulation runs any catalog board, from a Pynq-Z2 to an Alveo
//! U250:
//!
//! * [`arm`] — the host software cost model (cycles per memory access /
//!   FLOP / loop iteration, per-platform coefficients), applied to the
//!   reference implementation (interpreter operation counts) and to the
//!   HLS-oriented generated C (flat-index loop nests with explicit
//!   address arithmetic) — the *SW Ref.* and *SW HLS code* bars of
//!   Figure 10,
//! * the host↔PLM transfer model is the platform's own
//!   [`sysgen::DmaSpec`] (setup latency per burst + bandwidth), which
//!   the one round price, [`RoundPricer`], charges per round,
//! * [`des`] — the virtual clock: integer-picosecond [`des::Time`] and
//!   its conversions,
//! * [`sim`] — the system simulation executing the generated host
//!   program: per main-loop round, transfer inputs for `m` elements,
//!   broadcast start `m/k` times, collect done interrupts, transfer
//!   outputs (Figure 7's architecture, including `k < m` batching). One
//!   closed form prices a job, strictly serial like the paper's host
//!   program; a single kernel is the one-stage program. One function
//!   prices a round, [`RoundPricer`]'s [`sysgen::RoundCost::round`]:
//!   the simulators ([`program_round`]), the compiler's replication
//!   search and the design-space sweep all read its
//!   [`sysgen::RoundTicks`]. DMA/compute
//!   overlap is modelled only by the request stream ([`online`],
//!   [`stream`]),
//! * [`online`] — the stream scheduler ([`simulate_online_stream`]): a
//!   queue of independent invocations coalesced into hardware rounds
//!   and time-multiplexed over one system with double-buffered DMA (the
//!   `crates/runtime` service layer drives it). Every round is placed
//!   on one private resource model — the DMA engine and the
//!   accelerator chain, with load, execute and drain — run serially or
//!   double-buffered. Unarmed input takes the clean fold; anything
//!   armed — fault plan, deadline, SLO-aware adaptive batching,
//!   priority tiers, backpressure shedding — takes the one event core.
//!   Every entry point answers in one type, [`StreamOutcome`]:
//!   per-request columns, round fills, tick totals and counters,
//! * [`stream`] — the scheduler's outcome type, the batch and
//!   fault-aware wrappers over it, and the clean fold: one pass over
//!   the arrival list in either mode, with the closed-tick fast-forward
//!   when serial, which is also the reference the event core is tested
//!   against. The fold reports its rounds to a sink: the per-request
//!   columns, or the two-number summary of
//!   [`summarize_round_stream`] (makespan and one rank's completion),
//!   which the design-space sweep's service probe reads,
//! * [`fault`] — deterministic fault injection for the scheduler: a
//!   seeded [`FaultPlan`] perturbs the schedule with DMA stalls,
//!   transient round errors, payload corruption and hard board
//!   failures, fully replayable per seed,
//! * [`par`] — the one chunked fan-out ([`fan_out`], [`resolve_jobs`]):
//!   an index map over contiguous ranges on scoped threads, the calling
//!   thread taking the first, inline when one range suffices. The
//!   compile flow's per-kernel stages, the design-space sweep and
//!   [`verify_program`] all split their work through it,
//! * [`verify`] — functional validation: sampled elements are executed
//!   through the generated kernel chain (a single kernel is the
//!   one-kernel chain) and compared against the `teil` reference
//!   interpreter.
//!
//! Absolute times are model outputs; the reproduction targets are the
//! *ratios* of Figures 9 and 10, which this simulator matches (see
//! `tests/paper_reproduction.rs`).

#![forbid(unsafe_code)]

pub mod arm;
pub mod des;
pub mod fault;
pub mod online;
pub mod par;
mod resources;
pub mod sim;
pub mod stream;
pub mod verify;

pub use arm::ArmCostModel;
pub use fault::{FaultPlan, Outage, RecoverySpec};
pub use online::{simulate_online_stream, simulate_round_stream, OnlineSpec};
pub use par::{fan_out, resolve_jobs};
pub use sim::{
    program_round, simulate_hw, simulate_program, HwResult, ProgramHwResult, RoundPricer, SimConfig,
};
pub use stream::{
    simulate_batch_stream, simulate_faulty_stream, summarize_round_stream, StreamOutcome,
    StreamStatus, StreamSummary,
};
pub use verify::{
    matches_the_definition, random_program_inputs, run_program_chain, run_program_reference,
    verify_program, PreparedChain, VerifyResult,
};
