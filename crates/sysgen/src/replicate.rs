//! Per-stage replication: the program flow's exact search over the
//! generalized Eq. (3).
//!
//! One main-loop round of a program system costs
//!
//! ```text
//! t_x(m) + Σ_i (m/k_i)·b_i(k_i)
//! ```
//!
//! ticks: the external transfers of `m` elements plus, per stage, `m/k_i`
//! serial batches of its `k_i` accelerators. A slow stage therefore gains
//! more from a replica than a fast one, and the uniform `k = m` of
//! [`max_equal_program_config`] can leave time on the table.
//! [`best_program_config`] picks one `k_i` per stage instead:
//!
//! * **Space.** Every `k_i` on the ladder `1, 2, …, 64`, `m = max k_i`
//!   (the widest stage runs one batch per round; a larger `m` only
//!   amortises DMA set-up, for more PLM sets), and the design fits
//!   [`Totals::fit`]. A single kernel's best design is its largest
//!   fitting `k = m`, which is the uniform pick.
//! * **Objective.** Round ticks per element, compared exactly as
//!   `t_a·m_b < t_b·m_a` in `u128` ([`cheaper`]). A design whose round
//!   passes the `u64` clock is never chosen.
//! * **Incumbent.** [`max_equal_program_config`]'s uniform pick. The
//!   search replaces it only with a strictly cheaper design; among
//!   cheaper designs of equal price the smaller `Σ k_i` wins, then the
//!   lexicographically smaller `ks`. When the incumbent's own round
//!   passes the clock it is kept, and the simulator reports the overflow.
//! * **Method.** Enumeration, rung by rung of `m`. A rung is skipped
//!   when every stage at `k = 1` does not fit (then no design of the rung
//!   fits) or every stage at `k = m` cannot beat the best so far (then
//!   none is cheaper). Otherwise every `ks` of the rung is checked
//!   against [`Totals::fit`] and priced, in lexicographic order. Every
//!   program the flow compiles has at most three stages, so at most
//!   7³ = 343 designs. At most [`SEARCH_CAP`] designs are priced; past
//!   the cap the best design found so far stands, which is never worse
//!   than the incumbent.
//!
//! Greedy doubling from the uniform pick is not exact: on
//! `simulation_step(3)` on the zcu102 it stops at `[16, 32, 16]`, while
//! `[32, 16, 32]` is cheaper.
//!
//! The search prices through [`RoundCost`], which `zynq::RoundPricer`
//! implements with the tick formulas `zynq::ProgramRound::price` charges,
//! so the search and the simulator agree by construction. It allocates
//! only the `ks` it returns.
//!
//! [`next_doubling`] explains a design after the fact: for each stage,
//! what stops its next doubling.
//!
//! [`max_equal_program_config`]: crate::max_equal_program_config

use std::fmt;
use std::iter::repeat_n;

use crate::multi::{max_equal_k, MultiSystemDesign, ProgramSystemConfig};
use crate::platform::Platform;
use crate::system::{Totals, LADDER};
use hls::HlsReport;
use mnemosyne::MemorySubsystem;

/// The most designs one [`best_program_config`] prices. Programs of up to
/// three stages have at most 7³ = 343.
pub const SEARCH_CAP: usize = 1 << 16;

/// The price of a main-loop round in simulator ticks, as the replication
/// search reads it. At a fixed `m`, [`RoundCost::stage`] must not rise
/// as `k` rises: the search's rung skip relies on it.
pub trait RoundCost {
    /// Ticks of one stage per round: `k` accelerators of `kernel_s`
    /// seconds each over `m` PLM sets. `None` past the `u64` clock.
    fn stage(&self, k: usize, kernel_s: f64, m: usize) -> Option<u64>;

    /// Ticks of one round's external input and output transfers of `m`
    /// elements. `None` past the `u64` clock.
    fn transfers(&self, m: usize) -> Option<u64>;
}

/// The round ticks of `banks` (replication and HLS report of each stage)
/// over `m` PLM sets, or `None` past the `u64` clock.
pub fn round_ticks<'a>(
    cost: &impl RoundCost,
    banks: impl IntoIterator<Item = (usize, &'a HlsReport)>,
    m: usize,
) -> Option<u64> {
    (banks.into_iter()).try_fold(cost.transfers(m)?, |t, (k, kernel)| {
        t.checked_add(cost.stage(k, kernel.latency_seconds(), m)?)
    })
}

/// Whether `t_a` ticks per round of `m_a` elements cost less per element
/// than `t_b` ticks per round of `m_b`, compared exactly.
pub fn cheaper(t_a: u64, m_a: usize, t_b: u64, m_b: usize) -> bool {
    (t_a as u128 * m_b as u128) < t_b as u128 * m_a as u128
}

/// The program flow's automatic replication: the cheapest design per
/// element under the generalized Eq. (3), one `k_i` per stage (see the
/// module doc). `None` when not even `k = m = 1` fits.
pub fn best_program_config(
    platform: &Platform,
    stages: &[(String, HlsReport)],
    memory: &MemorySubsystem,
    cost: &impl RoundCost,
) -> Option<ProgramSystemConfig> {
    search(platform, stages, memory, cost).map(|(cfg, _)| cfg)
}

/// [`best_program_config`] with the number of designs it priced.
pub(crate) fn search(
    platform: &Platform,
    stages: &[(String, HlsReport)],
    memory: &MemorySubsystem,
    cost: &impl RoundCost,
) -> Option<(ProgramSystemConfig, usize)> {
    let k = max_equal_k(platform, stages, memory)?;
    let mut best = ProgramSystemConfig {
        ks: vec![k; stages.len()],
        m: k,
    };
    // With no stage, or an incumbent past the clock (which the simulator
    // reports), the uniform pick stands.
    let Some(mut t_best) =
        round_ticks(cost, banks(best.ks.iter().copied(), stages), k).filter(|_| !stages.is_empty())
    else {
        return Some((best, 0));
    };
    // The incumbent enters with `Σ k = 0`, so a tie never replaces it.
    let mut sum_best = 0;
    let n = stages.len();
    let mut designs = 0;
    for (rung, m) in LADDER.into_iter().enumerate() {
        // Rung `m` holds the designs whose widest stage has `k = m`. None
        // of them fits if every stage at `k = 1` does not, and none costs
        // less than every stage at `k = m` or has `Σ k` below `m + n - 1`.
        let least = Totals::fit(platform, banks(repeat_n(1, n), stages), memory, m);
        let fastest = round_ticks(cost, banks(repeat_n(m, n), stages), m);
        let open = |&t: &u64| {
            cheaper(t, m, t_best, best.m)
                || (!cheaper(t_best, best.m, t, m) && m + n - 1 <= sum_best)
        };
        if least.is_none() || fastest.filter(open).is_none() {
            continue;
        }
        let codes = (rung + 1).checked_pow(n as u32).unwrap_or(usize::MAX);
        for code in 0..codes {
            let ks = design(code, rung + 1, n);
            if ks.clone().max() != Some(m) {
                continue;
            }
            if designs == SEARCH_CAP {
                return Some((best, designs));
            }
            designs += 1;
            let t = Totals::fit(platform, banks(ks.clone(), stages), memory, m)
                .and_then(|_| round_ticks(cost, banks(ks.clone(), stages), m));
            let sum: usize = ks.clone().sum();
            let wins = |&t: &u64| {
                let first =
                    sum < sum_best || (sum == sum_best && ks.clone().lt(best.ks.iter().copied()));
                cheaper(t, m, t_best, best.m) || (!cheaper(t_best, best.m, t, m) && first)
            };
            if let Some(t) = t.filter(wins) {
                best.ks.iter_mut().zip(ks).for_each(|(slot, k)| *slot = k);
                (t_best, best.m, sum_best) = (t, m, sum);
            }
        }
    }
    Some((best, designs))
}

/// The `ks` of design `code` of a program of `n` stages on the lowest
/// `rungs` rungs of the ladder: `code` in base `rungs`, stage 0 the most
/// significant digit.
fn design(code: usize, rungs: usize, n: usize) -> impl Iterator<Item = usize> + Clone {
    (0..n).map(move |i| {
        let place = rungs.checked_pow((n - 1 - i) as u32);
        LADDER[place.map_or(0, |p| code / p % rungs)]
    })
}

/// Each stage's replication and HLS report.
fn banks<'a>(
    ks: impl IntoIterator<Item = usize> + 'a,
    stages: &'a [(String, HlsReport)],
) -> impl Iterator<Item = (usize, &'a HlsReport)> + 'a {
    ks.into_iter().zip(stages.iter().map(|(_, r)| r))
}

/// What stops one stage of a design from doubling its accelerators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Doubling {
    /// The stage is at the ladder's top, 64.
    LadderTop,
    /// The doubled design breaks Eq. (3) in these terms (`LUT`, `FF`,
    /// `DSP`, `BRAM`).
    Exceeds(Vec<&'static str>),
    /// The doubled design fits but costs no less per element.
    NoGain,
    /// The doubled design fits and costs less per element: only a
    /// design the caller forced can stop here.
    Gains,
}

impl fmt::Display for Doubling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Doubling::LadderTop => f.write_str("ladder top"),
            Doubling::Exceeds(terms) => f.write_str(&terms.join("+")),
            Doubling::NoGain => f.write_str("no gain"),
            Doubling::Gains => f.write_str("would gain"),
        }
    }
}

/// What stops stage `stage` of `design` at its replication: doubling its
/// `k` (and `m` with it, when the stage is the widest) either passes the
/// ladder, breaks an Eq. (3) term, or does not make a round cheaper per
/// element under `cost`. Computed from the design, for reports.
pub fn next_doubling(design: &MultiSystemDesign, stage: usize, cost: &impl RoundCost) -> Doubling {
    let cfg = &design.config;
    let k = cfg.ks[stage];
    if k >= LADDER[LADDER.len() - 1] {
        return Doubling::LadderTop;
    }
    let m = cfg.m.max(2 * k);
    let doubled = || {
        let ks = cfg.ks.iter().enumerate();
        let ks = ks.map(move |(i, &ki)| if i == stage { 2 * k } else { ki });
        ks.zip(&design.stages).map(|(k, s)| (k, &s.kernel))
    };
    let totals = Totals::of(doubled(), &design.memory, m);
    let over: Vec<&'static str> = totals.exceeded(design.board()).collect();
    if !over.is_empty() {
        return Doubling::Exceeds(over);
    }
    let now = round_ticks(
        cost,
        cfg.ks
            .iter()
            .zip(&design.stages)
            .map(|(&k, s)| (k, &s.kernel)),
        cfg.m,
    );
    match (now, round_ticks(cost, doubled(), m)) {
        (Some(a), Some(b)) if cheaper(b, m, a, cfg.m) => Doubling::Gains,
        (None, Some(_)) => Doubling::Gains,
        _ => Doubling::NoGain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{max_equal_program_config, ProgramHostProgram};

    /// A round priced in the simulator's shape: each of the `m/k`
    /// batches starts `k` accelerators and runs the kernel; transfers
    /// grow with `m`.
    struct Shaped;

    impl RoundCost for Shaped {
        fn stage(&self, k: usize, kernel_s: f64, m: usize) -> Option<u64> {
            let batch =
                (2_500_000u64.checked_mul(k as u64)?).checked_add((kernel_s * 1e12) as u64)?;
            batch.checked_mul((m / k) as u64)
        }

        fn transfers(&self, m: usize) -> Option<u64> {
            9_000_000u64.checked_mul(m as u64)
        }
    }

    fn report(latency_cycles: u64, luts: usize) -> HlsReport {
        HlsReport {
            kernel: "kernel_body".into(),
            clock_mhz: 100.0,
            latency_cycles,
            luts,
            ffs: 2_999,
            dsps: 15,
            brams: 0,
            loops: vec![],
        }
    }

    fn memory() -> MemorySubsystem {
        MemorySubsystem {
            units: vec![],
            brams: 4,
            luts: 450,
            ffs: 250,
        }
    }

    fn stages(latencies: &[u64]) -> Vec<(String, HlsReport)> {
        (latencies.iter().enumerate())
            .map(|(i, &l)| (format!("s{i}"), report(l, 2_000 + 100 * i)))
            .collect()
    }

    /// A platform whose board is exactly the totals of `ks` over `m`.
    fn tight(stages: &[(String, HlsReport)], ks: &[usize], m: usize) -> Platform {
        let mut platform = Platform::zcu106();
        let t = Totals::of(banks(ks.iter().copied(), stages), &memory(), m);
        (platform.board.luts, platform.board.ffs) = (t.luts, t.ffs);
        (platform.board.dsps, platform.board.brams) = (t.dsps, t.brams);
        platform
    }

    fn price(stages: &[(String, HlsReport)], cfg: &ProgramSystemConfig) -> Option<u64> {
        round_ticks(&Shaped, banks(cfg.ks.iter().copied(), stages), cfg.m)
    }

    #[test]
    fn one_stage_keeps_the_uniform_pick() {
        for platform in Platform::catalog() {
            for latency in [1_000, 100_000, 10_000_000] {
                let stages = stages(&[latency]);
                let uniform = max_equal_program_config(&platform, &stages, &memory());
                let best = best_program_config(&platform, &stages, &memory(), &Shaped);
                assert_eq!(best, uniform, "{} latency {latency}", platform.id);
            }
        }
    }

    #[test]
    fn the_slow_stage_gets_the_replicas() {
        // Room for [4, 8] over 8 PLM sets and not for [8, 8]: the uniform
        // pick is k = m = 4, and the slow stage takes the spare replicas.
        let stages = stages(&[10_000, 400_000]);
        let platform = tight(&stages, &[4, 8], 8);
        let uniform = max_equal_program_config(&platform, &stages, &memory()).unwrap();
        assert_eq!((uniform.ks.as_slice(), uniform.m), (&[4, 4][..], 4));
        let best = best_program_config(&platform, &stages, &memory(), &Shaped).unwrap();
        assert_eq!((best.ks.as_slice(), best.m), (&[4, 8][..], 8));
        let (t_best, t_uniform) = (
            price(&stages, &best).unwrap(),
            price(&stages, &uniform).unwrap(),
        );
        assert!(cheaper(t_best, best.m, t_uniform, uniform.m));
        // The mirror program mirrors the pick.
        let mirror: Vec<_> = stages.iter().rev().cloned().collect();
        let best = best_program_config(&platform, &mirror, &memory(), &Shaped).unwrap();
        assert_eq!(best.ks, [8, 4]);
    }

    #[test]
    fn ties_go_to_the_smaller_sum_then_the_smaller_ks() {
        // Two equal stages: [4, 8] and [8, 4] cost the same, and the
        // lexicographically smaller wins.
        let twins = stages(&[200_000, 200_000]);
        let twins = vec![twins[0].clone(), (String::from("s1"), twins[0].1.clone())];
        let platform = tight(&twins, &[4, 8], 8);
        let best = best_program_config(&platform, &twins, &memory(), &Shaped).unwrap();
        assert_eq!((best.ks.as_slice(), best.m), (&[4, 8][..], 8));
        // A stage that costs nothing at any k takes the fewest replicas
        // its rung allows (the smaller Σ k).
        let free = HlsReport {
            latency_cycles: 0,
            ..twins[0].1.clone()
        };
        let stages = vec![twins[0].clone(), ("free".to_string(), free)];
        let free_cost = |k: usize, m: usize| Shaped.stage(k, 0.0, m);
        assert_eq!(free_cost(1, 8), Some(8 * 2_500_000));
        assert_eq!(free_cost(8, 8), Some(8 * 2_500_000));
        let platform = tight(&stages, &[16, 2], 16);
        let best = best_program_config(&platform, &stages, &memory(), &Shaped).unwrap();
        assert_eq!((best.ks.as_slice(), best.m), (&[16, 1][..], 16));
    }

    #[test]
    fn the_design_cap_holds_on_twelve_stages() {
        let latencies: Vec<u64> = (0..12).map(|i| 20_000 + 37_000 * (i * 7 % 12)).collect();
        let stages = stages(&latencies);
        let platform = tight(&stages, &[16; 12], 16);
        // A third more logic, and PLM sets to spare: rung 32 opens. The
        // 7^12 designs end at the cap, and the pick still fits and is not
        // slower than uniform.
        let mut roomy = platform.clone();
        let b = &mut roomy.board;
        (b.luts, b.ffs, b.dsps) = (b.luts * 4 / 3, b.ffs * 4 / 3, b.dsps * 4 / 3);
        b.brams *= 4;
        let uniform = max_equal_program_config(&roomy, &stages, &memory()).unwrap();
        let (best, designs) = search(&roomy, &stages, &memory(), &Shaped).unwrap();
        assert_eq!(designs, SEARCH_CAP, "the search should reach its cap");
        assert!(best.valid() && best.m >= uniform.m, "{best:?}");
        assert!(Totals::fit(
            &roomy,
            banks(best.ks.iter().copied(), &stages),
            &memory(),
            best.m
        )
        .is_some());
        let (t_best, t_uniform) = (
            price(&stages, &best).unwrap(),
            price(&stages, &uniform).unwrap(),
        );
        assert!(!cheaper(t_uniform, uniform.m, t_best, best.m), "{best:?}");
    }

    #[test]
    fn a_round_past_the_clock_is_never_chosen() {
        // A stage of 2^62 ticks: one batch fits the clock, four do not.
        let near = (1u64 << 62) / 10_000;
        for latencies in [[near, 100_000, 100_000], [100_000, near, 1], [near; 3]] {
            let stages = stages(&latencies);
            for platform in Platform::catalog() {
                let uniform = max_equal_program_config(&platform, &stages, &memory());
                let best = best_program_config(&platform, &stages, &memory(), &Shaped);
                let (Some(uniform), Some(best)) = (uniform, best) else {
                    continue;
                };
                if best != uniform {
                    let t = price(&stages, &best).expect("a chosen round fits the clock");
                    let u = price(&stages, &uniform).expect("only a priced incumbent is replaced");
                    assert!(cheaper(t, best.m, u, uniform.m));
                }
            }
        }
        // Every candidate past the clock: the uniform pick stands.
        let stages = stages(&[u64::MAX / 10_000; 2]);
        let platform = Platform::zcu106();
        assert_eq!(
            best_program_config(&platform, &stages, &memory(), &Shaped),
            max_equal_program_config(&platform, &stages, &memory())
        );
    }

    #[test]
    fn next_doubling_names_what_stops_each_stage() {
        let stages = stages(&[10_000, 400_000]);
        let platform = tight(&stages, &[4, 8], 8);
        let cfg = best_program_config(&platform, &stages, &memory(), &Shaped).unwrap();
        let host = ProgramHostProgram::placeholder(cfg.clone(), &stages);
        let design = MultiSystemDesign::build(&platform, &stages, &memory(), cfg, host).unwrap();
        // The board is exactly this design: any doubling breaks Eq. (3).
        let limits: Vec<String> = (0..2)
            .map(|i| next_doubling(&design, i, &Shaped).to_string())
            .collect();
        assert_eq!(limits, ["LUT+FF+DSP", "LUT+FF+DSP+BRAM"]);
        // On a roomy board the fast stage gains nothing from a doubling
        // the design was forced without.
        let roomy = Platform::u250();
        let forced = ProgramSystemConfig {
            ks: vec![8, 4],
            m: 8,
        };
        let host = ProgramHostProgram::placeholder(forced.clone(), &stages);
        let design = MultiSystemDesign::build(&roomy, &stages, &memory(), forced, host).unwrap();
        assert_eq!(next_doubling(&design, 1, &Shaped), Doubling::Gains);
        let top = ProgramSystemConfig {
            ks: vec![64, 64],
            m: 64,
        };
        let host = ProgramHostProgram::placeholder(top.clone(), &stages);
        let design = MultiSystemDesign::build(&roomy, &stages, &memory(), top, host).unwrap();
        assert_eq!(next_doubling(&design, 0, &Shaped), Doubling::LadderTop);
    }
}
