//! The clean fold's summary sink against its column sink: over closed
//! backlogs of every size up to 200, every capacity up to `m`, every
//! `m` up to 64, replications with and without a spare PLM set (so both
//! the double-buffered and the serial schedule) and the quantiles the
//! serving reports read, `summarize_round_stream` keeps exactly the
//! makespan and the nearest-rank completion the per-request columns
//! give.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zynq::{FaultPlan, OnlineSpec, RecoverySpec};

/// The `(t_in, exec, t_out)` ticks of a two-stage round drawn from
/// `rng`: transfers from negligible to several times the execution.
fn random_round(rng: &mut StdRng) -> (u64, u64, u64) {
    let mut ticks = |max: u64| 1 + rng.next_u64() % max;
    let t_in = ticks(4_000);
    let exec = ticks(3_000) + ticks(1_000);
    (t_in, exec, ticks(2_000))
}

#[test]
fn summary_equals_the_columns() {
    let mut rng = StdRng::seed_from_u64(0x5eed_5105);
    let (plan, rec, fifo) = (
        FaultPlan::none(),
        RecoverySpec::default(),
        OnlineSpec::fifo(),
    );
    let mut cases = 0usize;
    for m in 1..=64usize {
        // `[1]` keeps a spare PLM set from m = 2 on (double-buffered);
        // `[m]` never does (serial).
        let ks_set: &[&[usize]] = if m >= 2 { &[&[1], &[m]] } else { &[&[1]] };
        for capacity in 1..=m {
            for &ks in ks_set {
                let drawn = 1 + (rng.next_u64() % 200) as usize;
                for n in [1, capacity, capacity + 1, 2 * capacity + 1, 64, 200, drawn] {
                    let round = random_round(&mut rng);
                    let arrivals = vec![0; n];
                    let columns = zynq::simulate_round_stream(
                        round, ks, m, &arrivals, capacity, true, &plan, &rec, &fifo,
                    );
                    assert_eq!(columns.double_buffered, m >= 2 * ks[0]);
                    let mut sorted = columns.completion_ticks.clone();
                    sorted.sort_unstable();
                    for q in [0.5, 0.99, 1.0] {
                        let summary = zynq::summarize_round_stream(
                            round,
                            ks,
                            m,
                            &arrivals,
                            capacity,
                            true,
                            runtime::rank(n, q),
                        );
                        let at = format!("n={n} m={m} capacity={capacity} ks={ks:?} q={q}");
                        assert_eq!(summary.makespan_ticks, columns.makespan_ticks, "{at}");
                        assert_eq!(summary.rank_ticks, runtime::percentile(&sorted, q), "{at}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 80_000, "{cases} cases");
}
