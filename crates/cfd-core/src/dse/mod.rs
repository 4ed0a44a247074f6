//! Parallel design-space exploration over the staged pipeline.
//!
//! The paper's evaluation is fundamentally a sweep over the replication
//! and memory parameters (k, m, PLM sharing, decoupling, array
//! partitioning). With the monolithic flow each of those design points
//! re-ran the frontend and middle end from source; here a [`DseEngine`]
//! compiles source through
//! [`Pipeline::schedule`](crate::pipeline::Pipeline::schedule) exactly
//! once, builds each backend piece once per the axes it reads, and
//! **scores** the `(k, m)` points against them across a scoped worker
//! pool.
//!
//! [`DseEngine::run_portfolio`] crosses the grid with a **platform
//! catalog and each platform's fabric-clock ladder**: slots are shared
//! per (clock, backend options), every combination is costed under its
//! platform's Eq. (3) budget, and the [`PortfolioReport`] marks each
//! platform's Pareto frontier over (simulated time, resource fit) — the
//! heterogeneous-portfolio view: pick the node that fits the job. A
//! sweep on one board at one clock — what `cfdc explore --grid` prints —
//! is the portfolio of a one-platform catalog whose ladder is that one
//! clock.
//!
//! Each part owns one decision, and its doc says how: `scoring` what a
//! point costs, `engine` which pieces a sweep builds and probes,
//! `ranking` the rows' order and frontiers, `document` how they print.

mod document;
mod engine;
mod ranking;
mod scoring;

pub use document::{PlatformSummary, PortfolioOutcome, PortfolioReport};
pub use engine::{DseEngine, ProgramDseEngine};
pub use scoring::{DseGrid, DseOutcome, DsePoint, SERVICE_PROBE_REQUESTS};

#[cfg(test)]
mod fixtures {
    //! Definitions and drawn inputs the parts' tests share.

    use std::cmp::Ordering;
    use std::iter::repeat_n;

    use sysgen::Platform;

    use super::engine::{Layout, UNPROBED};
    use super::scoring::{outcome, score, service_probe, ScoreParts};
    use super::{DseGrid, DseOutcome, DsePoint, PortfolioOutcome};

    impl DsePoint {
        /// The order of the two points' [`DsePoint::label`]s as strings
        /// (so `"k=10 …" < "k=2 …"`), without formatting them: the order
        /// of their [`DsePoint::label_key`]s.
        pub(super) fn cmp_label(&self, other: &DsePoint) -> Ordering {
            self.label_key().cmp(&other.label_key())
        }
    }

    /// Outcome `i` of a generated sweep: every third one infeasible
    /// (zeros), widths that vary with `i`.
    pub(super) fn generated_outcome(i: usize) -> DseOutcome {
        let feasible = !i.is_multiple_of(3);
        let scale = if feasible { 1 + i % 977 } else { 0 };
        DseOutcome {
            point: DsePoint {
                k: 1 << (i % 5),
                m: 2 << (i % 7),
                sharing: i.is_multiple_of(2),
                decoupled: i % 4 < 2,
                partition: 1 + (i % 3) as u32,
            },
            feasible,
            luts: 241 * scale,
            ffs: 1_842 * scale,
            dsps: 3 * scale,
            brams: scale / 2,
            plm_brams: scale % 64,
            latency_cycles: 106_536 * scale as u64,
            total_s: 0.314_480_5 * scale as f64,
            throughput_eps: 6_359.705_5 * scale as f64,
            service_rps: 71.705_15 * scale as f64,
            service_p99_s: 0.008_925 / (1 + scale) as f64,
        }
    }

    /// The benchmark's dense helmholtz:11 grid: 11 replications × 3
    /// batch factors × sharing × decoupling × 2 partitions.
    pub(super) fn dense_grid() -> DseGrid {
        DseGrid {
            k: vec![1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16],
            batch: vec![1, 2, 4],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1, 2],
        }
    }

    /// A row as the sweep scored it before it shared its probes: the
    /// [`outcome`] of the point, and when it fits, the service probe of
    /// its own round as [`score`] priced it.
    pub(super) fn outcome_probed(
        parts: &ScoreParts<'_>,
        platform: &Platform,
        point: &DsePoint,
        elements: usize,
    ) -> DseOutcome {
        let ks = repeat_n(point.k, parts.stages.len());
        let scored = score(parts, platform, ks, point.m);
        let mut row = outcome(parts, point, scored, elements);
        if let Some((_, round)) = scored {
            (row.service_rps, row.service_p99_s) =
                service_probe(round.ticks(), &[point.k], point.m);
        }
        row
    }

    /// Numbers whose decimal spellings collide as prefixes of each
    /// other, around every digit-count boundary a grid can reach.
    pub(super) const TRICKY: [usize; 14] =
        [0, 1, 2, 9, 10, 11, 12, 19, 20, 99, 100, 101, 110, 1_000];

    /// A portfolio laid out as a sweep lays one out, with objectives
    /// drawn from few values each (`±0.0` and `∞` among them, and with
    /// `nan` set NaNs of either sign): three platforms, two of them
    /// sharing the id `zcu106` and a clock, one ladder repeating a clock,
    /// `grid`'s points, and `groups` probe groups, each one (req/s, p99)
    /// pair, with pairs shared between groups. Of the rows that fit,
    /// about one in ten fits unprobed (0 req/s, 0 p99, infinite time, as
    /// a round past the clock scores).
    pub(super) fn drawn_portfolio(
        seed: u64,
        grid: &DseGrid,
        groups: usize,
        nan: bool,
    ) -> (Vec<Platform>, Vec<PortfolioOutcome>, Layout, Vec<u32>) {
        let nans = [f64::NAN, -f64::NAN];
        let values = |few: &[f64]| -> Vec<f64> {
            let extra = if nan { &nans[..] } else { &[] };
            few.iter().chain(extra).copied().collect()
        };
        let times = values(&[0.0, -0.0, 0.25, 0.5, 0.75, f64::INFINITY]);
        let fits = values(&[0.0, -0.0, 0.25, 0.5, 1.0, f64::INFINITY]);
        let rps = values(&[0.0, -0.0, 1.0, 4.0, f64::INFINITY]);
        let p99s = values(&[-0.0, 0.5, 1.0, f64::INFINITY]);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut draw = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut platforms = vec![Platform::zcu106(), Platform::u250(), Platform::zcu106()];
        platforms[0].clock_ladder_mhz = vec![200.0, 100.0, 200.0];
        platforms[1].clock_ladder_mhz = vec![100.0, 250.0];
        platforms[2].clock_ladder_mhz = vec![100.0];
        let figures: Vec<(f64, f64)> = (0..groups)
            .map(|_| (rps[draw(rps.len())], p99s[draw(p99s.len())]))
            .collect();
        let blocks: Vec<(usize, f64)> = (platforms.iter().enumerate())
            .flat_map(|(p, platform)| platform.clock_ladder_mhz.iter().map(move |&c| (p, c)))
            .collect();
        let layout = Layout {
            blocks,
            points: grid.points(),
        };
        let mut rows = Vec::new();
        let mut probe_of = Vec::new();
        for &(p, clock_mhz) in &layout.blocks {
            for point in &layout.points {
                let feasible = draw(4) != 0;
                let probe = (feasible && draw(10) != 0).then(|| draw(groups));
                let (rps, p99) = probe.map_or((0.0, 0.0), |g| figures[g]);
                let time = match (feasible, probe) {
                    (false, _) => 0.0,
                    (true, None) => f64::INFINITY,
                    (true, Some(_)) => times[draw(times.len())],
                };
                rows.push(PortfolioOutcome {
                    platform: platforms[p].id,
                    clock_mhz,
                    outcome: DseOutcome {
                        point: *point,
                        feasible,
                        luts: if feasible {
                            [0, 1_000, 2_000, 4_000][draw(4)]
                        } else {
                            0
                        },
                        total_s: time,
                        service_rps: rps,
                        service_p99_s: p99,
                        ..generated_outcome(0)
                    },
                    utilization: if feasible {
                        fits[draw(fits.len())]
                    } else {
                        0.0
                    },
                    pareto: false,
                    service_pareto: false,
                    cost_pareto: false,
                });
                probe_of.push(probe.map_or(UNPROBED, |g| g as u32));
            }
        }
        (platforms, rows, layout, probe_of)
    }

    /// A grid of 32 points, eight of them twice (`k = 2` repeats), with
    /// labels that sort apart from their numbers (`k=10` before `k=2`).
    pub(super) fn repeating_grid() -> DseGrid {
        DseGrid {
            k: vec![10, 2, 1, 2],
            batch: vec![1, 2],
            sharing: vec![true, false],
            decoupled: vec![true],
            partition: vec![1, 12],
        }
    }

    /// 3 328 points, `k = 2` twice: 19 968 rows of a drawn portfolio.
    pub(super) fn large_grid() -> DseGrid {
        DseGrid {
            k: (1..=25).chain([2]).collect(),
            batch: vec![1, 2, 4, 8],
            sharing: vec![true, false],
            decoupled: vec![true, false],
            partition: vec![1, 2, 3, 4, 6, 8, 12, 16],
        }
    }
}
