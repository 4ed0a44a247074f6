//! The engine: which backend pieces a sweep builds, and the sweep.
//!
//! There is one engine. A source of any kernel count is prepared as a
//! program ([`DseEngine::prepare`] takes [`FlowOptions`](crate::FlowOptions) or
//! [`ProgramOptions`]), and a single kernel is the one-kernel program.
//! A grid point's backend slot is every kernel's backend plus the merged
//! program memory — except that a one-kernel slot skips the merge: its
//! merged memory and host byte interface are its backend's own
//! (`one_kernel_slot_equals_its_merged_program` pins that), and merging
//! would only cost allocations on the hot path of every single-kernel
//! sweep.
//!
//! **Piece staging.** A slot is not built whole. The paper optimises
//! memory (Mnemosyne) and logic (HLS) separately, and each piece of a
//! backend reads only some of the axes: the kernel IR reads decoupling;
//! the Mnemosyne configuration decoupling and partitioning; the HLS
//! report the IR, the clock and partitioning; the memory (for a
//! program, the `merge_configs` + `synthesize_program` merge, with the
//! host byte interface) the configurations and sharing. So a sweep
//! builds the IR once per (kernel, decoupling), the configuration once
//! per (kernel, decoupling, partition), the HLS report once per
//! (kernel, clock, decoupling, partition) and the memory once per
//! backend key, through the functions [`Pipeline::backend`] composes,
//! and assembles each (clock, backend key) slot from borrowed pieces.
//! `portfolio_rows_equal_the_per_slot_definition` holds every row to
//! the slot built whole. The counters keep their meaning: every
//! (kernel, slot) pair counts one backend-stage invocation and one
//! `backend_compiles`, and every scored point one system-stage
//! invocation.
//!
//! **Probes.** The service probe reads only a round's input, summed
//! execution and output ticks, `k` and `m` (its key). A sweep scores
//! every combination first, then builds the rows in order and numbers
//! the distinct keys of the rows that fit as it goes — from the rounds
//! the scores priced, in a table hashed by multiply and rotate — probes
//! each key once through [`fan_out`] and copies the figures back: the
//! dense 4 488-point helmholtz:11 portfolio probes 359 keys for its
//! 3 206 rows that fit. Workers share no map and take no lock, and the
//! figures do not depend on `jobs`.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::iter::repeat_n;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use hls::HlsOptions;
use mnemosyne::MemorySubsystem;
use sysgen::Platform;
use teil::TensorKind;
use zynq::{fan_out, resolve_jobs};

use super::ranking::rank_portfolio;
use super::scoring::{outcome, score, KeyHasher, ProbeKey, ScoreParts};
use super::{DseGrid, DsePoint, PortfolioOutcome, PortfolioReport};
use crate::cache::CompileCache;
use crate::pipeline::{Pipeline, Scheduled};
use crate::program::{MergedMemory, ProgramOptions};
use crate::FlowError;

/// The memory piece of one backend key: the PLM subsystem of one set
/// and the host's external `(in, out)` bytes per element — a program's
/// [`MergedMemory`] without the plan, or a one-kernel program's own.
struct KeyMemory {
    memory: MemorySubsystem,
    bytes: (usize, usize),
}

/// The backend pieces of a sweep over `clocks` × backend keys, each
/// built once per the axes it reads: an HLS report per (kernel, clock,
/// decoupling, partition) and a memory per backend key. The kernel IR
/// and Mnemosyne configurations they were built from are dropped
/// before any point is scored.
struct Pieces {
    /// Kernel `i`'s report at clock `c` under pair `dp`: entry
    /// `(i * clocks + c) * pairs + dp`.
    hls: Vec<hls::HlsReport>,
    clocks: usize,
    /// Distinct (decoupled, partition) pairs among the keys.
    pairs: usize,
    /// Pair of each backend key.
    pair_of: Vec<usize>,
    /// One per backend key.
    memories: Vec<KeyMemory>,
}

impl Pieces {
    /// The parts of slot (`clock`, `key`): every kernel's report at the
    /// clock under the key's pair, and the key's memory.
    fn parts(&self, clock: usize, key: usize) -> ScoreParts<'_> {
        let kernels = self.hls.len() / (self.clocks * self.pairs);
        let at = |i: usize| &self.hls[(i * self.clocks + clock) * self.pairs + self.pair_of[key]];
        let memory = &self.memories[key];
        ScoreParts {
            stages: (0..kernels).map(at).collect(),
            memory: &memory.memory,
            bytes: memory.bytes,
        }
    }
}

/// Name of `module`'s largest input array: the target of the grid's
/// `partition` axis.
fn partition_target(module: &teil::Module) -> Option<String> {
    module
        .of_kind(TensorKind::Input)
        .into_iter()
        .max_by_key(|&id| module.shape(id).iter().product::<usize>())
        .map(|id| module.name(id).to_string())
}

/// The exploration engine. Every kernel's shared stages (frontend,
/// middle end, schedule) and the cross-kernel link stage run once at
/// [`DseEngine::prepare`]; one grid point then fixes the backend axes
/// (sharing, decoupling, partitioning) for *every* kernel plus a
/// uniform replication `k`/`m`, and the whole chain is costed under the
/// shared board budget.
#[derive(Debug)]
pub struct DseEngine {
    pipeline: Pipeline,
    base: ProgramOptions,
    names: Vec<String>,
    scheds: Vec<Scheduled>,
    cross: Arc<pschedule::CrossLiveness>,
    /// Largest input array per kernel (the `partition` axis target).
    partition_targets: Vec<Option<String>>,
    /// Kernel IRs, Mnemosyne configurations, HLS reports and memories
    /// the engine's sweeps built: what the piece tests count. The
    /// reports count (kernel, slot) pairs instead.
    built: [AtomicUsize; 4],
}

/// [`DseEngine`] under its multi-kernel name, for callers that still
/// use it.
pub type ProgramDseEngine = DseEngine;

impl DseEngine {
    /// Compile every kernel's shared stages plus the link stage once.
    /// `base` — [`FlowOptions`](crate::FlowOptions) or [`ProgramOptions`] — supplies
    /// everything the grid does not vary: scheduler and
    /// canonicalization options, board, HLS clock, cross-kernel sharing.
    pub fn prepare<O: Clone + Into<ProgramOptions>>(
        source: &str,
        base: &O,
    ) -> Result<DseEngine, FlowError> {
        DseEngine::prepare_on(Pipeline::new(), source, base.clone().into())
    }

    /// Like [`DseEngine::prepare`], with every kernel's shared stages
    /// memoized through a [`CompileCache`] — a warm cache skips the
    /// scheduling stage entirely, so repeated explorations of unchanged
    /// source pay only frontend + middle end.
    pub fn prepare_cached<O: Clone + Into<ProgramOptions>>(
        source: &str,
        base: &O,
        cache: Arc<CompileCache>,
    ) -> Result<DseEngine, FlowError> {
        DseEngine::prepare_on(Pipeline::with_cache(cache), source, base.clone().into())
    }

    fn prepare_on(
        pipeline: Pipeline,
        source: &str,
        base: ProgramOptions,
    ) -> Result<DseEngine, FlowError> {
        let fronts = pipeline.program_frontend(source)?;
        let names: Vec<String> = fronts.iter().map(|(n, _)| n.clone()).collect();
        let jobs = resolve_jobs(base.flow.jobs);
        // `flow.system` reaches neither the middle end nor the schedule.
        let (scheds, link) = pipeline.schedule_program(&names, &fronts, &base.flow, jobs)?;
        Ok(DseEngine {
            pipeline,
            base,
            names,
            partition_targets: scheds
                .iter()
                .map(|sc| partition_target(&sc.middle.module))
                .collect(),
            scheds,
            cross: link.cross,
            built: Default::default(),
        })
    }

    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The label of this engine's sweep reports
    /// ([`PortfolioReport::label`]): the kernel names joined by `+`.
    pub fn label(&self) -> String {
        self.names.join("+")
    }

    /// The first kernel's shared scheduling-stage output (a single
    /// kernel's only one).
    pub fn scheduled(&self) -> &Scheduled {
        &self.scheds[0]
    }

    /// Kernel `i`'s HLS options at `clock_mhz` under the `partition`
    /// axis: a factor > 1 partitions the kernel's largest input array
    /// and overrides the base partition set; factor 1 means "as the base
    /// options say", so any base partitioning is left untouched.
    fn hls_at(&self, i: usize, clock_mhz: f64, partition: u32) -> HlsOptions {
        let mut hls = self.base.flow.hls.clone();
        hls.clock_mhz = clock_mhz;
        if partition > 1 {
            if let Some(name) = &self.partition_targets[i] {
                hls.partition = vec![(name.clone(), partition)];
            }
        }
        hls
    }

    /// The backend pieces of `clocks` × the backend keys `reps`, each
    /// computed by [`fan_out`] once per the axes it reads (the module
    /// doc's piece staging).
    fn pieces(&self, clocks: &[f64], reps: &[DsePoint], jobs: usize) -> Pieces {
        let n = self.scheds.len();
        let mut pairs: Vec<(bool, u32)> = Vec::new();
        let pair_of: Vec<usize> = (reps.iter())
            .map(|r| (r.decoupled, r.partition))
            .map(|pair| index_of(&mut pairs, |&p| p == pair, pair))
            .collect();
        let mut decs: Vec<bool> = Vec::new();
        let dec_of: Vec<usize> = (pairs.iter())
            .map(|&(d, _)| index_of(&mut decs, |&x| x == d, d))
            .collect();
        let (np, nc) = (pairs.len(), clocks.len());
        let kernels = fan_out(jobs, n * decs.len(), |j| {
            self.scheds[j / decs.len()].kernel_ir(decs[j % decs.len()])
        });
        let kernel = |i: usize, pair: usize| &kernels[i * decs.len() + dec_of[pair]];
        let configs = fan_out(jobs, n * np, |j| {
            let (i, (decoupled, partition)) = (j / np, pairs[j % np]);
            let hls = self.hls_at(i, self.base.flow.hls.clock_mhz, partition);
            self.scheds[i].memory_config(decoupled, &hls)
        });
        let hls = fan_out(jobs, n * nc * np, |j| {
            let (i, clock, pair) = (j / (nc * np), j / np % nc, j % np);
            hls::synthesize(
                kernel(i, pair),
                &self.hls_at(i, clocks[clock], pairs[pair].1),
            )
        });
        let memories = fan_out(jobs, reps.len(), |key| {
            let pair = pair_of[key];
            let opts = mnemosyne::MemoryOptions {
                sharing: reps[key].sharing,
            };
            if n == 1 {
                let memory = mnemosyne::synthesize(&configs[pair], &opts);
                let bytes = sysgen::HostProgram::interface_bytes([kernel(0, pair)], |_, _| true);
                return KeyMemory { memory, bytes };
            }
            let configs: Vec<_> = (0..n).map(|i| &configs[i * np + pair]).collect();
            let kernels = (0..n).map(|i| kernel(i, pair));
            let cross_sharing = self.base.cross_sharing && reps[key].sharing;
            let merged = MergedMemory::merge(&self.cross, &configs, kernels, &opts, cross_sharing);
            KeyMemory {
                memory: merged.memory,
                bytes: (merged.bytes_in_per_element, merged.bytes_out_per_element),
            }
        });
        let counts = [kernels.len(), configs.len(), hls.len(), memories.len()];
        for (built, n) in self.built.iter().zip(counts) {
            built.fetch_add(n, Relaxed);
        }
        Pieces {
            hls,
            clocks: nc,
            pairs: np,
            pair_of,
            memories,
        }
    }

    /// The sweep driver: cross every platform's clock ladder with the
    /// grid, assemble each distinct (clock, backend key) slot once from
    /// [`DseEngine::pieces`], [`score`] every combination against its
    /// slot, then build the unflagged rows in combination order and
    /// probe each distinct [`ProbeKey`] once (the module doc's probes).
    pub(super) fn sweep(
        &self,
        platforms: &[Platform],
        grid: &DseGrid,
        jobs: usize,
        elements: usize,
    ) -> Swept {
        let points = grid.points();
        // The grid's distinct backend keys, each by the first point that
        // has it, and the distinct clocks; slot (clock, key) is
        // `clock * reps.len() + key`.
        let mut reps: Vec<DsePoint> = Vec::new();
        let key_of: Vec<usize> = points
            .iter()
            .map(|p| index_of(&mut reps, |r| r.backend_key() == p.backend_key(), *p))
            .collect();
        let mut clocks: Vec<f64> = Vec::new();
        let mut clock_of: Vec<usize> = Vec::new();
        let mut blocks: Vec<(usize, f64)> = Vec::new();
        for (platform, p) in platforms.iter().enumerate() {
            for &mhz in &p.clock_ladder_mhz {
                clock_of.push(index_of(&mut clocks, |c| c.to_bits() == mhz.to_bits(), mhz));
                blocks.push((platform, mhz));
            }
        }
        let combos = blocks.len() * points.len();
        let jobs = resolve_jobs(jobs).min(combos.max(1));
        let started = Instant::now();

        let pieces = self.pieces(&clocks, &reps, jobs);
        let slots: Vec<ScoreParts> = (0..clocks.len() * reps.len())
            .map(|slot| pieces.parts(slot / reps.len(), slot % reps.len()))
            .collect();

        // Combination `i`: its platform, clock, slot and point.
        let combo = |i: usize| {
            let block = i / points.len();
            let (platform, mhz) = blocks[block];
            let point = i % points.len();
            let parts = &slots[clock_of[block] * reps.len() + key_of[point]];
            (&platforms[platform], mhz, parts, &points[point])
        };
        let scores = fan_out(jobs, combos, |i| {
            let (platform, _, parts, point) = combo(i);
            // A grid row is uniform: `point.k` for every stage.
            let ks = repeat_n(point.k, parts.stages.len());
            score(parts, platform, ks, point.m)
        });

        // Row `i` reads probe `probe_of[i]`, none when it does not fit.
        let mut numbers: HashMap<ProbeKey, u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        let mut probe_of: Vec<u32> = Vec::with_capacity(combos);
        let mut rows: Vec<PortfolioOutcome> = (scores.into_iter().enumerate())
            .map(|(i, scored)| {
                let (platform, mhz, parts, point) = combo(i);
                let key = scored.and_then(|(_, round)| ProbeKey::of(&round, point.k, point.m));
                probe_of.push(key.map_or(UNPROBED, |key| {
                    // Invariant: 2^32 rows of over 100 bytes would not fit in memory.
                    let next = u32::try_from(numbers.len()).expect("fewer probe keys than rows");
                    *numbers.entry(key).or_insert(next)
                }));
                PortfolioOutcome {
                    platform: platform.id,
                    clock_mhz: mhz,
                    utilization: scored
                        .map_or(0.0, |(totals, _)| totals.utilization(&platform.board)),
                    outcome: outcome(parts, point, scored, elements),
                    pareto: false,
                    service_pareto: false,
                    cost_pareto: false,
                }
            })
            .collect();
        // The keys in number order, in one allocation of their size.
        let mut keys = vec![ProbeKey::default(); numbers.len()];
        for (key, j) in numbers {
            keys[j as usize] = key;
        }
        let probes = fan_out(jobs, keys.len(), |j| keys[j].probe());
        for (row, &j) in rows.iter_mut().zip(&probe_of) {
            if let Some(&(rps, p99_s)) = probes.get(j as usize) {
                (row.outcome.service_rps, row.outcome.service_p99_s) = (rps, p99_s);
            }
        }

        let backend_compiles = slots.len() * self.scheds.len();
        self.pipeline.count_backends(backend_compiles);
        self.pipeline.count_systems(combos);
        Swept {
            rows,
            layout: Layout { blocks, points },
            probe_of,
            jobs,
            backend_compiles,
            backend_uses: combos * self.scheds.len(),
            started,
        }
    }

    /// Sweep the **platform × clock × (k, m, sharing, decoupling,
    /// partition)** cross product: the multi-board portfolio view, every
    /// platform's clock ladder crossed with the grid, Pareto-flagged per
    /// platform and ranked. The shared stages stay compiled once (from
    /// [`DseEngine::prepare`]); a backend slot is one **(kernel, clock,
    /// backend key)** — a slot at 200 MHz is shared by every platform
    /// whose ladder contains 200 MHz and every `k`/`m` — and its pieces
    /// are shared further (the module doc's piece staging). So the
    /// default 32-point grid on one board at one clock has 4 slots,
    /// counted as 4 `backend_compiles` per kernel, but builds per kernel
    /// 2 kernel IRs, 2 Mnemosyne configurations and 2 HLS reports, and 4
    /// memories in all.
    pub fn run_portfolio(
        &self,
        platforms: &[Platform],
        grid: &DseGrid,
        jobs: usize,
        elements: usize,
    ) -> PortfolioReport {
        let mut swept = self.sweep(platforms, grid, jobs, elements);
        let summaries = rank_portfolio(platforms, &mut swept.rows, &swept.layout, &swept.probe_of);
        let outcomes = swept.rows;
        PortfolioReport {
            label: self.label(),
            evaluated: outcomes.len(),
            feasible: summaries.iter().map(|s| s.feasible).sum(),
            jobs: swept.jobs,
            elements,
            wall_s: swept.started.elapsed().as_secs_f64(),
            backend_compiles: swept.backend_compiles,
            backend_reuses: swept.backend_uses.saturating_sub(swept.backend_compiles),
            cache: self.pipeline.cache_counters(),
            summaries,
            ticks_overflows: (outcomes.iter())
                .filter(|o| o.outcome.total_s == f64::INFINITY)
                .count(),
            outcomes,
        }
    }
}

/// `probe_of` entry of a row that does not fit.
pub(super) const UNPROBED: u32 = u32::MAX;

/// What [`DseEngine::sweep`] hands the report builder.
pub(super) struct Swept {
    /// Row `i` is combination `i`'s, laid out as `layout` says.
    pub(super) rows: Vec<PortfolioOutcome>,
    pub(super) layout: Layout,
    /// Row `i`'s probe number in row order; [`UNPROBED`] when it does
    /// not fit or no probe can place it.
    pub(super) probe_of: Vec<u32>,
    jobs: usize,
    backend_compiles: usize,
    backend_uses: usize,
    started: Instant,
}

/// How a sweep lays out its rows: one block per (platform, ladder clock),
/// platform by platform, each holding one row per grid point — row
/// `b * points.len() + q` is point `q` in block `b`.
pub(super) struct Layout {
    /// Platform index and clock (MHz) of each block.
    pub(super) blocks: Vec<(usize, f64)>,
    pub(super) points: Vec<DsePoint>,
}

/// Index of the element of `seen` that `same` accepts, `new` being
/// appended when there is none.
fn index_of<T>(seen: &mut Vec<T>, same: impl Fn(&T) -> bool, new: T) -> usize {
    seen.iter().position(same).unwrap_or_else(|| {
        seen.push(new);
        seen.len() - 1
    })
}

#[cfg(test)]
pub(super) mod definitions {
    //! The whole-slot definitions the sweep's pieces must reproduce,
    //! which the scoring tests build their designs from too.

    use super::*;
    use crate::pipeline::Backend;
    use crate::program::ProgramBuild;
    use crate::FlowOptions;

    /// A backend slot as the sweep assembled it before it shared
    /// pieces: every kernel's whole backend, plus the merged program
    /// memory when there is more than one kernel.
    pub(in crate::dse) enum Slot {
        Kernel(Backend),
        Program(ProgramBuild),
    }

    impl Slot {
        pub(in crate::dse) fn parts(&self) -> ScoreParts<'_> {
            match self {
                Slot::Kernel(be) => ScoreParts::of_kernel(be),
                Slot::Program(build) => ScoreParts::of_program(build),
            }
        }
    }

    impl<'a> ScoreParts<'a> {
        /// The parts of a single-kernel backend.
        pub(in crate::dse) fn of_kernel(be: &'a Backend) -> Self {
            let bytes = sysgen::HostProgram::interface_bytes([&be.kernel], |_, _| true);
            ScoreParts {
                stages: vec![&be.hls_report],
                memory: &be.memory,
                bytes,
            }
        }

        /// The parts of a program's merged build.
        pub(in crate::dse) fn of_program(build: &'a ProgramBuild) -> Self {
            let merged = &build.merged;
            ScoreParts {
                stages: build.stages.iter().map(|(_, report)| report).collect(),
                memory: &merged.memory,
                bytes: (merged.bytes_in_per_element, merged.bytes_out_per_element),
            }
        }
    }

    /// The per-slot definitions the sweep's pieces must reproduce.
    impl DseEngine {
        /// Kernel `i`'s whole backend for `point`'s backend axes at
        /// `clock_mhz`.
        pub(in crate::dse) fn backend_at(
            &self,
            i: usize,
            clock_mhz: f64,
            point: &DsePoint,
        ) -> Backend {
            let opts = FlowOptions {
                decoupled: point.decoupled,
                memory: mnemosyne::MemoryOptions {
                    sharing: point.sharing,
                },
                hls: self.hls_at(i, clock_mhz, point.partition),
                ..self.base.flow.clone()
            };
            self.pipeline.backend(&self.scheds[i], &opts)
        }

        /// Every kernel's backend for `point`'s backend axes at
        /// `clock_mhz` plus the merged program memory, through the
        /// [`ProgramBuild`] construction `ProgramFlow::compile` uses.
        pub(in crate::dse) fn build_at(&self, clock_mhz: f64, point: &DsePoint) -> ProgramBuild {
            let backends: Vec<Backend> = (0..self.scheds.len())
                .map(|i| self.backend_at(i, clock_mhz, point))
                .collect();
            let memory_opts = mnemosyne::MemoryOptions {
                sharing: point.sharing,
            };
            ProgramBuild::prepare(
                &self.names,
                &self.cross,
                &backends.iter().collect::<Vec<_>>(),
                &memory_opts,
                self.base.cross_sharing && point.sharing,
            )
        }

        /// The backend slot of `point`'s backend axes at `clock_mhz`. A
        /// one-kernel slot's merged memory is its own, so it skips the
        /// merge.
        pub(in crate::dse) fn parts(&self, clock_mhz: f64, point: &DsePoint) -> Slot {
            if self.scheds.len() == 1 {
                Slot::Kernel(self.backend_at(0, clock_mhz, point))
            } else {
                Slot::Program(self.build_at(clock_mhz, point))
            }
        }

        /// The pieces built so far: kernel IRs, Mnemosyne
        /// configurations, HLS reports, memories.
        pub(in crate::dse) fn piece_counts(&self) -> [usize; 4] {
            self.built.each_ref().map(|c| c.load(Relaxed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::definitions::Slot;
    use super::*;
    use crate::dse::fixtures::{dense_grid, outcome_probed};

    /// Seed 5 of the generated-program tests' generator: three kernels,
    /// scalars, a trace and a statement that reads its own output.
    const GENERATED_SEED_5: &str = "kernel k0 {
        var input x0_0 : [8 2 7 2]
        var input x0_1 : [2 7]
        var input x0_2 : [6 2 8]
        var output h0 : [6]
        h0 = x0_0 # x0_1 # x0_2 . [[3 4] [2 5] [1 7] [0 8]]
    }
    kernel k1 {
        var input h0 : [6]
        var input x1_0 : []
        var output t0 : [6]
        var input x1_1 : [3 1 7]
        var input x1_2 : [1 9 3]
        var input x1_3 : [7 9]
        var t1 : [7 9]
        var input x1_4 : [8 7 9 4]
        var output h1 : [8 4]
        t0 = h0 + h0 / 4 - x1_0
        t1 = x1_3 + (x1_1 # x1_2 . [[1 3] [0 5]])
        h1 = t1 # x1_4 . [[0 3] [1 4]]
    }
    kernel k2 {
        var input h1 : [8 4]
        var input x2_0 : [6 6]
        var input x2_1 : [7 6]
        var output h2 : [7 6]
        h2 = x2_1 + h2 # x2_0 . [[1 2]]
    }
    ";

    /// The sweep's shared pieces and probes: for helmholtz:11's dense
    /// grid, and simstep:7's and a generated program's default grid,
    /// over every catalog platform and ladder clock, at 1 and 4 jobs,
    /// every `run_portfolio` row is its point's [`outcome_probed`] on
    /// the per-slot definition's parts — its service figures those of
    /// a probe of its own round, not of the one its key shared — the
    /// report still counts one backend per (kernel, slot), and the
    /// sweep built each piece once per the axes it reads: kernel IR
    /// per (kernel, decoupling), Mnemosyne configuration per (kernel,
    /// decoupling, partition), HLS report per (kernel, clock,
    /// decoupling, partition), memory per backend key.
    #[test]
    fn portfolio_rows_equal_the_per_slot_definition() {
        const ELEMENTS: usize = 2_000;
        let catalog = Platform::catalog();
        let cases = [
            // 6 clocks × 8 keys = 48 slots of 1 kernel.
            (
                cfdlang::examples::inverse_helmholtz(11),
                dense_grid(),
                48,
                [2, 4, 24, 8],
            ),
            // 6 clocks × 4 keys = 24 slots of 3 kernels.
            (
                cfdlang::examples::simulation_step(7),
                DseGrid::default(),
                72,
                [6, 6, 36, 4],
            ),
            (
                GENERATED_SEED_5.to_string(),
                DseGrid::default(),
                72,
                [6, 6, 36, 4],
            ),
        ];
        for (src, grid, backends, pieces) in cases {
            for jobs in [1, 4] {
                let engine = DseEngine::prepare(&src, &ProgramOptions::default()).unwrap();
                let report = engine.run_portfolio(&catalog, &grid, jobs, ELEMENTS);
                assert_eq!(engine.piece_counts(), pieces, "{}", engine.label());
                assert_eq!(report.backend_compiles, backends);
                assert_eq!(engine.pipeline().counters().backend, backends);
                let mut slots: Vec<(_, Slot)> = Vec::new();
                for row in &report.outcomes {
                    let point = row.outcome.point;
                    let key = (row.clock_mhz.to_bits(), point.backend_key());
                    if !slots.iter().any(|(k, _)| *k == key) {
                        slots.push((key, engine.parts(row.clock_mhz, &point)));
                    }
                    let slot = &slots.iter().find(|(k, _)| *k == key).unwrap().1;
                    let platform = catalog.iter().find(|p| p.id == row.platform).unwrap();
                    let label = engine.label();
                    let want = outcome_probed(&slot.parts(), platform, &point, ELEMENTS);
                    assert_eq!(
                        format!("{want:?}"),
                        format!("{:?}", row.outcome),
                        "{label} jobs={jobs} {} @ {} MHz, {}",
                        row.platform,
                        row.clock_mhz,
                        point.label()
                    );
                }
                assert_eq!(slots.len() * engine.scheds.len(), backends);
            }
        }
    }

    /// The one-kernel shortcut: a one-kernel slot scores through its
    /// backend's own memory and byte interface, and those are what the
    /// merged one-kernel program would have — for every builtin kernel,
    /// a `kernel` block, all eight backend keys and cross-kernel sharing
    /// on and off.
    #[test]
    fn one_kernel_slot_equals_its_merged_program() {
        use cfdlang::examples as ex;
        let sources = [
            ex::inverse_helmholtz(4),
            ex::inverse_helmholtz(11),
            ex::interpolation(8, 12),
            ex::matrix_sandwich(8),
            ex::axpy(8),
            format!("kernel solo {{\n{}}}\n", ex::axpy(3)),
        ];
        let keys = DseGrid {
            k: vec![1],
            batch: vec![1],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1, 2],
        };
        assert_eq!(keys.points().len(), 8);
        for src in &sources {
            for cross_sharing in [true, false] {
                let options = crate::program::ProgramOptions {
                    cross_sharing,
                    ..Default::default()
                };
                let engine = DseEngine::prepare(src, &options).unwrap();
                assert_eq!(engine.scheds.len(), 1);
                let clock = options.flow.hls.clock_mhz;
                for point in keys.points() {
                    let backend = engine.backend_at(0, clock, &point);
                    let build = engine.build_at(clock, &point);
                    let kernel = ScoreParts::of_kernel(&backend);
                    let program = ScoreParts::of_program(&build);
                    let view = |p: &ScoreParts| {
                        let latency: Vec<u64> = p.stages.iter().map(|r| r.latency_cycles).collect();
                        let kernel_s: Vec<u64> = p
                            .stages
                            .iter()
                            .map(|r| r.latency_seconds().to_bits())
                            .collect();
                        (latency, kernel_s, p.memory.brams, p.bytes)
                    };
                    let at = format!(
                        "{} cross_sharing={cross_sharing} {}",
                        engine.label(),
                        point.label()
                    );
                    assert_eq!(view(&kernel), view(&program), "{at}");
                }
            }
        }
    }
}
