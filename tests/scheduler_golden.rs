//! Golden matrix for the stream scheduler.
//!
//! Every row runs `zynq::simulate_online_stream` on one point of a
//! fixed grid — overlap × capacity × fault plan × recovery spec ×
//! online spec × arrival shape, plus hand-built corner rows — and
//! compares an FNV-64 of the outcome's text against
//! `tests/golden/scheduler_golden.txt`. Rows under the FIFO spec also
//! hash `simulate_faulty_stream`, and fully unarmed rows
//! `simulate_batch_stream`, so all three public entry points are pinned.
//!
//! The text is the `Debug` text of the three nested result types the
//! scheduler answered in when the table was written (`OnlineOutcome`
//! around `FaultStreamOutcome` around `StreamOutcome`); [`online_text`],
//! [`fault_text`] and [`stream_text`] print it from the one flat
//! [`StreamOutcome`], its `resolved_ticks` field from
//! `completion_ticks`.
//!
//! The table was written by this file's printer at commit 7085883, the
//! last one with six separate scheduler loops; the single event core
//! that replaced four of them has to reproduce it bit for bit. The six
//! `deep` rows at its end were written at commit e55483d, the last one
//! that formed rounds by sorting the wait queue.
//! Regenerate (only for an intended schedule change) with
//!
//! ```sh
//! cargo test --test scheduler_golden -- --ignored --nocapture print_table \
//!     | grep '^row ' | cut -d' ' -f2- > tests/golden/scheduler_golden.txt
//! ```

use sysgen::{MultiSystemDesign, Platform};
use zynq::des::Time;
use zynq::{
    program_round, simulate_batch_stream, simulate_faulty_stream, simulate_online_stream,
    FaultPlan, OnlineSpec, Outage, RecoverySpec, SimConfig, StreamOutcome,
};

const TABLE: &str = include_str!("golden/scheduler_golden.txt");
const REQUESTS: usize = 24;

/// Two stages, `k = 2` each, `m = 8`: every stage keeps a spare PLM
/// set, so requested overlap really double-buffers.
fn design() -> MultiSystemDesign {
    let platform = Platform::zcu106();
    let stages: Vec<(String, hls::HlsReport)> = [200_000u64, 300_000]
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            (
                format!("stage{i}"),
                hls::HlsReport {
                    kernel: format!("stage{i}"),
                    clock_mhz: platform.default_clock_mhz,
                    latency_cycles: l,
                    luts: 2_314,
                    ffs: 2_999,
                    dsps: 15,
                    brams: 0,
                    loops: vec![],
                },
            )
        })
        .collect();
    let memory = mnemosyne::MemorySubsystem {
        units: vec![],
        brams: 16,
        luts: 450,
        ffs: 250,
    };
    let cfg = sysgen::ProgramSystemConfig {
        ks: vec![2, 2],
        m: 8,
    };
    let host = sysgen::ProgramHostProgram {
        config: cfg.clone(),
        stage_names: stages.iter().map(|(n, _)| n.clone()).collect(),
        bytes_in_per_element: (121 + 2 * 1331) * 8,
        bytes_out_per_element: 1331 * 8,
        handoff_bytes_per_element: 0,
    };
    MultiSystemDesign::build(&platform, &stages, &memory, cfg, host).unwrap()
}

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `Debug` text of the old `StreamOutcome`: columns, fills and tick
/// totals.
fn stream_text(o: &StreamOutcome) -> String {
    format!(
        "StreamOutcome {{ admitted_ticks: {:?}, completion_ticks: {:?}, round_fills: {:?}, \
         exec_ticks: {}, transfer_ticks: {}, overlapped_ticks: {}, makespan_ticks: {}, \
         fast_forwarded_rounds: {}, double_buffered: {} }}",
        o.admitted_ticks,
        o.completion_ticks,
        o.round_fills,
        o.exec_ticks,
        o.transfer_ticks,
        o.overlapped_ticks,
        o.makespan_ticks,
        o.fast_forwarded_rounds,
        o.double_buffered,
    )
}

/// The `Debug` text of the old `FaultStreamOutcome`: the stream plus
/// statuses, attempts, the resolution column and the fault counters.
fn fault_text(o: &StreamOutcome) -> String {
    format!(
        "FaultStreamOutcome {{ stream: {}, statuses: {:?}, attempts: {:?}, resolved_ticks: {:?}, \
         dma_stalls: {}, transient_faults: {}, corrupt_payloads: {}, outage_requeues: {} }}",
        stream_text(o),
        o.statuses,
        o.attempts,
        o.completion_ticks,
        o.dma_stalls,
        o.transient_faults,
        o.corrupt_payloads,
        o.outage_requeues,
    )
}

/// The `Debug` text of the old `OnlineOutcome`: the fault outcome plus
/// the two policy counters.
fn online_text(o: &StreamOutcome) -> String {
    format!(
        "OnlineOutcome {{ fault: {}, backpressure_shed: {}, early_closed_rounds: {} }}",
        fault_text(o),
        o.backpressure_shed,
        o.early_closed_rounds,
    )
}

/// One grid point or corner case.
struct Row {
    label: String,
    arrivals: Vec<Time>,
    capacity: usize,
    overlap: bool,
    plan: FaultPlan,
    rec: RecoverySpec,
    spec: OnlineSpec,
}

impl Row {
    fn hash(&self, d: &MultiSystemDesign) -> u64 {
        let cfg = SimConfig::default();
        let Row {
            arrivals,
            capacity,
            overlap,
            plan,
            rec,
            spec,
            ..
        } = self;
        let online =
            simulate_online_stream(d, &cfg, arrivals, *capacity, *overlap, plan, rec, spec);
        let mut text = online_text(&online);
        if !spec.armed() {
            let faulty = simulate_faulty_stream(d, &cfg, arrivals, *capacity, *overlap, plan, rec);
            text.push_str(&fault_text(&faulty));
            if !plan.armed() && rec.deadline_ticks.is_none() {
                let batch = simulate_batch_stream(d, &cfg, arrivals, *capacity, *overlap);
                text.push_str(&stream_text(&batch));
            }
        }
        fnv64(&text)
    }
}

fn tiers(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 3) as u8).collect()
}

fn outage(fail_at: Time, recover_at: Option<Time>) -> FaultPlan {
    FaultPlan {
        outage: Some(Outage {
            fail_at,
            recover_at,
        }),
        ..FaultPlan::none()
    }
}

/// The seeded grid, in a fixed order. `rt` is one full round in ticks.
fn grid(d: &MultiSystemDesign, rt: Time) -> Vec<Row> {
    let n = REQUESTS;
    let mut seed = 0x5EED_0F15_5CED;
    let mut sparse: Vec<Time> = Vec::with_capacity(n);
    let mut t = 0;
    for _ in 0..n {
        // Exponential-ish gaps around 1.4 rounds: the queue drains
        // between most arrivals and backs up behind a few.
        t += rt / 5 + splitmix(&mut seed) % (12 * rt / 5);
        sparse.push(t);
    }
    // Bursts of five, one burst every 1.7 rounds.
    let bursty: Vec<Time> = (0..n).map(|i| (i as Time / 5) * (17 * rt / 10)).collect();
    let arrivals = [
        ("closed", vec![0; n]),
        ("sparse", sparse),
        ("bursty", bursty),
    ];
    let plans = [
        ("none", FaultPlan::none()),
        ("transient", FaultPlan::transient(7, 0.2)),
        (
            "mixed",
            FaultPlan {
                stall_rate: 0.3,
                corrupt_rate: 0.1,
                ..FaultPlan::transient(11, 0.15)
            },
        ),
        ("outage-recover", outage(5 * rt / 2, Some(6 * rt))),
        ("outage-dead", outage(7 * rt / 2, None)),
    ];
    let base = RecoverySpec::default();
    let recoveries = [
        ("default", base),
        (
            "backoff",
            RecoverySpec {
                backoff_ticks: rt / 3,
                backoff_cap_ticks: 2 * rt,
                ..base
            },
        ),
        (
            "far-deadline",
            RecoverySpec {
                deadline_ticks: Some(u64::MAX / 2),
                ..base
            },
        ),
        (
            "tight-deadline",
            RecoverySpec {
                deadline_ticks: Some(5 * rt / 2),
                ..base
            },
        ),
        (
            "no-retries",
            RecoverySpec {
                max_retries: 0,
                ..base
            },
        ),
    ];
    let specs = [
        ("fifo", OnlineSpec::fifo()),
        (
            "slo",
            OnlineSpec {
                slo_ticks: Some(3 * rt),
                ..OnlineSpec::fifo()
            },
        ),
        (
            "queue",
            OnlineSpec {
                max_queue: Some(4),
                ..OnlineSpec::fifo()
            },
        ),
        (
            "tiers",
            OnlineSpec {
                tiers: tiers(n),
                ..OnlineSpec::fifo()
            },
        ),
        (
            "all",
            OnlineSpec {
                slo_ticks: Some(3 * rt),
                max_queue: Some(4),
                tiers: tiers(n),
            },
        ),
    ];
    let mut rows = Vec::new();
    for overlap in [false, true] {
        for capacity in [1, 3, d.config.m] {
            for (plan_name, plan) in &plans {
                for (rec_name, rec) in &recoveries {
                    for (spec_name, spec) in &specs {
                        for (arr_name, arr) in &arrivals {
                            rows.push(Row {
                                label: format!(
                                    "overlap={} cap={capacity} plan={plan_name} rec={rec_name} \
                                     spec={spec_name} arr={arr_name}",
                                    overlap as u8
                                ),
                                arrivals: arr.clone(),
                                capacity,
                                overlap,
                                plan: plan.clone(),
                                rec: *rec,
                                spec: spec.clone(),
                            });
                        }
                    }
                }
            }
        }
    }
    rows
}

/// Hand-built rows for paths the grid reaches rarely or never.
fn corners(rt: Time) -> Vec<Row> {
    let mut rows = Vec::new();
    // Idle-jump after a backpressure shed: the first round always fails,
    // its two requests sit in a long backoff and fill the bounded queue,
    // so the arrivals that follow are shed while nothing is eligible.
    // The scheduler has to idle to the first retry without looping on
    // the shed arrival. Later arrivals land after the queue drained.
    let backoff = RecoverySpec {
        max_retries: 2,
        backoff_ticks: 4 * rt,
        backoff_cap_ticks: 4 * rt,
        deadline_ticks: None,
    };
    let jump_arrivals: Vec<Time> = vec![
        0,
        0,
        rt + rt / 4,
        rt + rt / 2,
        2 * rt,
        3 * rt,
        20 * rt,
        20 * rt,
        21 * rt,
        40 * rt,
    ];
    for overlap in [false, true] {
        for (name, plan) in [
            ("always", FaultPlan::transient(1, 1.0)),
            ("often", FaultPlan::transient(3, 0.6)),
            (
                "corrupt",
                FaultPlan {
                    corrupt_rate: 0.7,
                    ..FaultPlan::transient(5, 0.0)
                },
            ),
        ] {
            for slo in [None, Some(30 * rt)] {
                rows.push(Row {
                    label: format!(
                        "corner=idle-jump overlap={} plan={name} slo={}",
                        overlap as u8,
                        slo.is_some() as u8
                    ),
                    arrivals: jump_arrivals.clone(),
                    capacity: 2,
                    overlap,
                    plan: plan.clone(),
                    rec: backoff,
                    spec: OnlineSpec {
                        slo_ticks: slo,
                        max_queue: Some(2),
                        tiers: Vec::new(),
                    },
                });
            }
        }
    }
    // An outage on top of transient errors, with and without a bound on
    // the queue: requeued and retried work share the wait queue.
    for overlap in [false, true] {
        for recover_at in [Some(9 * rt), None] {
            for max_queue in [None, Some(3)] {
                rows.push(Row {
                    label: format!(
                        "corner=outage+transient overlap={} recover={} bound={}",
                        overlap as u8,
                        recover_at.is_some() as u8,
                        max_queue.is_some() as u8
                    ),
                    arrivals: (0..REQUESTS as Time).map(|i| i * rt / 3).collect(),
                    capacity: 3,
                    overlap,
                    plan: FaultPlan {
                        transient_rate: 0.3,
                        seed: 13,
                        ..outage(4 * rt + rt / 2, recover_at)
                    },
                    rec: RecoverySpec {
                        backoff_ticks: rt / 2,
                        ..RecoverySpec::default()
                    },
                    spec: OnlineSpec {
                        max_queue,
                        ..OnlineSpec::fifo()
                    },
                });
            }
        }
    }
    // Empty and single-request streams.
    for overlap in [false, true] {
        for n in [0usize, 1] {
            rows.push(Row {
                label: format!("corner=tiny overlap={} n={n}", overlap as u8),
                arrivals: vec![rt; n],
                capacity: 4,
                overlap,
                plan: FaultPlan::transient(2, 0.5),
                rec: RecoverySpec::default(),
                spec: OnlineSpec::fifo(),
            });
        }
    }
    rows
}

/// Deep-queue rows. The grid's 24 requests never back a queue up far,
/// so these serve 4 096 Poisson arrivals offered at 1.5x the serial
/// service rate under an SLO, a queue bound of 64 and three tiers:
/// every round is formed from a deep, tiered queue, under transient
/// errors, under stalls plus corrupt-payload requeues, and under an
/// outage that parks a lost round until the board recovers.
fn deep(d: &MultiSystemDesign, rt: Time) -> Vec<Row> {
    const N: usize = 4_096;
    let capacity = d.config.m;
    let mean_gap = rt as f64 / (1.5 * capacity as f64);
    let mut seed = 0xDEE9_0F1E_0E0E;
    let mut t = 0;
    let arrivals: Vec<Time> = (0..N)
        .map(|_| {
            let u = (splitmix(&mut seed) >> 11) as f64 / (1u64 << 53) as f64;
            t += (-(1.0 - u).ln() * mean_gap) as Time;
            t
        })
        .collect();
    let mixed = FaultPlan {
        stall_rate: 0.1,
        corrupt_rate: 0.1,
        ..FaultPlan::transient(11, 0.05)
    };
    let plans = [
        ("transient", FaultPlan::transient(7, 0.05)),
        ("mixed", mixed.clone()),
        (
            "outage-recover",
            FaultPlan {
                outage: Some(Outage {
                    fail_at: 150 * rt + rt / 3,
                    recover_at: Some(200 * rt),
                }),
                ..mixed
            },
        ),
    ];
    let mut rows = Vec::new();
    for overlap in [false, true] {
        for (name, plan) in &plans {
            rows.push(Row {
                label: format!("deep n={N} overlap={} plan={name}", overlap as u8),
                arrivals: arrivals.clone(),
                capacity,
                overlap,
                plan: plan.clone(),
                rec: RecoverySpec {
                    max_retries: 3,
                    ..RecoverySpec::default()
                },
                spec: OnlineSpec {
                    slo_ticks: Some(10 * rt),
                    max_queue: Some(64),
                    tiers: tiers(N),
                },
            });
        }
    }
    rows
}

/// The grid, the corners and the deep rows, in table order.
fn rows(d: &MultiSystemDesign) -> Vec<Row> {
    let rt = program_round(d, &SimConfig::default()).total();
    let mut rows = grid(d, rt);
    rows.extend(corners(rt));
    rows.extend(deep(d, rt));
    rows
}

fn render() -> String {
    let d = design();
    rows(&d)
        .iter()
        .map(|r| format!("{} {:016x}\n", r.label, r.hash(&d)))
        .collect()
}

#[test]
fn scheduler_matches_the_parent_generated_table() {
    let got = render();
    let want: Vec<&str> = TABLE.lines().collect();
    let got: Vec<&str> = got.lines().collect();
    assert_eq!(got.len(), want.len(), "row count changed");
    let bad: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got  {g}\n  want {w}"))
        .collect();
    assert!(
        bad.is_empty(),
        "{} of {} rows differ from the table:\n{}",
        bad.len(),
        want.len(),
        bad[..bad.len().min(12)].join("\n")
    );
}

/// Every row conserves request slots: each round holds between one
/// request and the clamped capacity, the fills add up to the attempts
/// (a request rides one slot per round it takes part in), and every
/// per-request column has one entry per arrival.
#[test]
fn every_row_conserves_request_slots() {
    let d = design();
    let cfg = SimConfig::default();
    for r in rows(&d) {
        let out = simulate_online_stream(
            &d,
            &cfg,
            &r.arrivals,
            r.capacity,
            r.overlap,
            &r.plan,
            &r.rec,
            &r.spec,
        );
        let (n, capacity) = (r.arrivals.len(), r.capacity.clamp(1, d.config.m));
        let slots: usize = out.round_fills.iter().sum();
        let attempts: usize = out.attempts.iter().map(|&a| a as usize).sum();
        assert_eq!(slots, attempts, "{}", r.label);
        assert!(
            out.round_fills.iter().all(|f| (1..=capacity).contains(f)),
            "{}: fills {:?} outside 1..={capacity}",
            r.label,
            out.round_fills
        );
        for len in [
            out.statuses.len(),
            out.attempts.len(),
            out.admitted_ticks.len(),
            out.completion_ticks.len(),
        ] {
            assert_eq!(len, n, "{}", r.label);
        }
    }
}

#[test]
#[ignore = "prints the table; see the module header"]
fn print_table() {
    for line in render().lines() {
        println!("row {line}");
    }
}
