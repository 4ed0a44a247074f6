//! The program flow's automatic replication against its definition.
//!
//! `sysgen::best_program_config` enumerates the designs of Eq. (3) up to
//! a cap and prices them through `zynq::RoundPricer`. Here every compiled
//! program's design is compared with the definition, written without
//! either: every `ks` on the ladder (`m = max k_i`) that
//! `Totals::fit` admits, each priced one round through
//! `zynq::ProgramRound::price`: the cheapest per element among the
//! designs strictly cheaper than the uniform pick, ties to the smaller
//! `Σ k_i` and then the smaller `ks`, or else the uniform pick. Around
//! it: the pick is never slower than the uniform one, its `m` never
//! smaller, and a single kernel's pick and every builtin's pick on the
//! zcu106 (the paper's board) are the uniform ones. The builtins run at
//! every size from 3 to 12 on every catalog board, and so do the
//! generated programs of `common/` (`CFD_GENERATED_PROGRAMS`, default
//! 200).

mod common;

use cfdfpga::cfdlang::examples as ex;
use cfdfpga::flow::program::{ProgramFlow, ProgramOptions};
use cfdfpga::hls::HlsReport;
use cfdfpga::sysgen::{self, MultiSystemDesign, Platform, ProgramSystemConfig, Totals};
use cfdfpga::zynq::{ProgramRound, SimConfig};

const LADDER: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// One round of `cfg` on `sys`'s platform and interface, in ticks, as the
/// simulator prices it; `None` past the `u64` clock.
fn round(
    sys: &MultiSystemDesign,
    stages: &[(String, HlsReport)],
    cfg: &ProgramSystemConfig,
) -> Option<u64> {
    let banks = (cfg.ks.iter())
        .zip(stages)
        .map(|(&k, (_, r))| (k, r.latency_seconds()));
    let (bytes_in, bytes_out) = (
        sys.host.bytes_in_per_element,
        sys.host.bytes_out_per_element,
    );
    ProgramRound::price(
        &sys.platform.dma,
        &SimConfig::default(),
        banks,
        cfg.m,
        bytes_in,
        bytes_out,
    )
    .serial_ticks(cfg.m, cfg.m)
}

/// `t_a / m_a < t_b / m_b`, exactly.
fn cheaper(t_a: u64, m_a: usize, t_b: u64, m_b: usize) -> bool {
    (t_a as u128 * m_b as u128) < t_b as u128 * m_a as u128
}

/// The definition of the automatic replication for `sys`'s stages,
/// memory and board.
fn exhaustive(sys: &MultiSystemDesign, stages: &[(String, HlsReport)]) -> ProgramSystemConfig {
    let (platform, memory) = (&sys.platform, &sys.memory);
    let uniform = sysgen::max_equal_program_config(platform, stages, memory).unwrap();
    let Some(t_uniform) = round(sys, stages, &uniform) else {
        return uniform;
    };
    let n = stages.len() as u32;
    let mut best: Option<(u64, ProgramSystemConfig)> = None;
    for code in 0..7usize.pow(n) {
        let ks: Vec<usize> = (0..n).map(|i| LADDER[code / 7usize.pow(i) % 7]).collect();
        let m = *ks.iter().max().unwrap();
        let cfg = ProgramSystemConfig { ks, m };
        let banks = cfg.ks.iter().copied().zip(stages.iter().map(|(_, r)| r));
        if Totals::fit(platform, banks, memory, m).is_none() {
            continue;
        }
        let Some(t) = round(sys, stages, &cfg) else {
            continue;
        };
        if !cheaper(t, m, t_uniform, uniform.m) {
            continue;
        }
        let key = |c: &ProgramSystemConfig| (c.ks.iter().sum::<usize>(), c.ks.clone());
        let wins = best.as_ref().is_none_or(|(tb, b)| {
            cheaper(t, m, *tb, b.m) || (!cheaper(*tb, b.m, t, m) && key(&cfg) < key(b))
        });
        if wins {
            best = Some((t, cfg));
        }
    }
    best.map_or(uniform, |(_, c)| c)
}

/// Compile `source` on `platform` and hold its design to the definition
/// and the properties around it. Whether the pick differs from the
/// uniform one.
fn check(what: &str, source: &str, platform: &Platform) -> bool {
    let mut opts = ProgramOptions::default();
    opts.flow.platform = platform.clone();
    opts.flow.hls.clock_mhz = platform.default_clock_mhz;
    opts.flow.jobs = 1;
    let art = ProgramFlow::compile(source, &opts)
        .unwrap_or_else(|e| panic!("{what}: compile failed: {e}\n{source}"));
    let Some(sys) = &art.system else {
        return false;
    };
    let stages: Vec<(String, HlsReport)> = (sys.stages.iter())
        .map(|s| (s.name.clone(), s.kernel.clone()))
        .collect();
    assert_eq!(sys.config, exhaustive(sys, &stages), "{what}\n{source}");
    let uniform = sysgen::max_equal_program_config(platform, &stages, &sys.memory).unwrap();
    assert!(sys.config.m >= uniform.m, "{what}: {:?}", sys.config);
    if let (Some(t), Some(u)) = (
        round(sys, &stages, &sys.config),
        round(sys, &stages, &uniform),
    ) {
        assert!(
            !cheaper(u, uniform.m, t, sys.config.m),
            "{what}: slower than uniform"
        );
    }
    if stages.len() == 1 {
        assert_eq!(sys.config, uniform, "{what}: a single kernel's pick moved");
    }
    sys.config != uniform
}

#[test]
fn the_search_equals_exhaustive_enumeration_on_the_builtins() {
    let mut sources = vec![
        ("axpy:8".to_string(), ex::axpy(8)),
        ("sandwich:8".to_string(), ex::matrix_sandwich(8)),
        ("interpolation:8:12".to_string(), ex::interpolation(8, 12)),
        ("axpychain:4".to_string(), ex::axpy_chain(4)),
        ("axpychain:8".to_string(), ex::axpy_chain(8)),
    ];
    for p in 3..=12 {
        sources.push((format!("helmholtz:{p}"), ex::inverse_helmholtz(p)));
        sources.push((format!("simstep:{p}"), ex::simulation_step(p)));
    }
    let mut moved = Vec::new();
    for platform in Platform::catalog() {
        for (name, source) in &sources {
            let what = format!("{name} on {}", platform.id);
            if check(&what, source, &platform) {
                assert_ne!(platform.id, "zcu106", "{what}: the paper's board moved");
                moved.push(what);
            }
        }
    }
    // The search's reason to exist: simstep on the zcu102.
    assert!(
        moved.contains(&"simstep:7 on zcu102".to_string()),
        "{moved:?}"
    );
}

#[test]
fn the_search_equals_exhaustive_enumeration_on_generated_programs() {
    let mut cov = common::Coverage::default();
    let (mut checked, mut moved) = (0, 0);
    for seed in 0..common::program_count() {
        let (source, _) = common::program(seed, &mut cov);
        for platform in Platform::catalog() {
            let what = format!("seed {seed} on {}", platform.id);
            moved += check(&what, &source, &platform) as usize;
            checked += 1;
        }
    }
    assert!(checked >= 5 * common::program_count() as usize);
    // The generated zoo reaches non-uniform picks (P3 found a better
    // design in about a fifth of the multi-kernel pairs).
    if common::program_count() >= 100 {
        assert!(moved > 0, "no generated pick moved");
    }
}

/// The pick at the zcu102's simstep:7 is the non-uniform design whose
/// rounds are 1.21x cheaper per element than the uniform one's.
#[test]
fn simstep7_on_the_zcu102_gives_its_slow_stages_the_replicas() {
    let platform = Platform::zcu102();
    let mut opts = ProgramOptions::default();
    opts.flow.platform = platform.clone();
    opts.flow.hls.clock_mhz = platform.default_clock_mhz;
    let art = ProgramFlow::compile(&ex::simulation_step(7), &opts).unwrap();
    let sys = art.system.as_ref().unwrap();
    let stages: Vec<(String, HlsReport)> = (sys.stages.iter())
        .map(|s| (s.name.clone(), s.kernel.clone()))
        .collect();
    let uniform = sysgen::max_equal_program_config(&platform, &stages, &sys.memory).unwrap();
    assert_eq!((uniform.ks.as_slice(), uniform.m), (&[16, 16, 16][..], 16));
    assert_eq!(
        (sys.config.ks.as_slice(), sys.config.m),
        (&[32, 16, 32][..], 32)
    );
    let per_element = |c: &ProgramSystemConfig| round(sys, &stages, c).unwrap() as f64 / c.m as f64;
    let gain = per_element(&uniform) / per_element(&sys.config);
    assert!((1.20..1.22).contains(&gain), "{gain}");
}
