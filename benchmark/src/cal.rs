//! The calibration ops and the normaliser that turns wall seconds into
//! "cal-seconds": seconds on a reference machine that runs the
//! workload's calibration op in exactly its reference time.
//!
//! The ops are written against `std` only, so no product change can
//! move them. There are two because this shared box does not slow down
//! uniformly. Latency-bound code (sorting, tree lookups, small
//! allocations — the compiler, the sweeps and the schedulers) follows
//! the memory op. The product's loop-program executor (string-keyed
//! hash lookups and a small allocation per array access) does not:
//! divided by the memory op, ten `serve_execute` runs spread by 2.9 %
//! and 5.0 % (interquartile, two samples), divided by the interpreter
//! op by 1.6 % and 1.8 %.
//! Each workload names the one op its time is divided by
//! ([`crate::harness::Workload::CAL`]): [`INTERP`] for `serve_execute`,
//! [`MEM`] for the other four. README.md, "Calibration", has the
//! measurements behind that choice.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

const MEM_WORDS: usize = 200_000;
/// Extent of the interpreter op's tensors (the paper kernel's).
const INTERP_N: i64 = 11;

/// Latency-bound work: fill 200 000 LCG `u64`s, `sort_unstable`, insert
/// every 8th into a `BTreeMap`, fold. Returns its wall time, seconds.
fn mem_op() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..MEM_WORDS)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x
        })
        .collect();
    v.sort_unstable();
    let map: BTreeMap<u64, u64> = v.iter().step_by(8).map(|&k| (k, k >> 7)).collect();
    let fold = map
        .iter()
        .fold(0u64, |acc, (k, val)| acc.wrapping_add(k ^ val));
    black_box(fold);
    t.elapsed().as_secs_f64()
}

/// Interpreter-like work: one 11x11 by 11x11x11 contraction walked the
/// way the product's loop-program executor walks it — arrays and the
/// accumulator looked up by name in `HashMap`s, a fresh index vector per
/// access, address arithmetic over it, bounds-checked loads. Returns its
/// wall time, seconds.
fn interp_op() -> f64 {
    let n = INTERP_N;
    let t = Instant::now();
    let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
    mem.insert(
        "a".into(),
        (0..n * n).map(|i| 0.21 / (1 + i % 7) as f64).collect(),
    );
    mem.insert(
        "u".into(),
        (0..n * n * n).map(|i| (i % 13) as f64 * 0.01).collect(),
    );
    mem.insert("t".into(), vec![0.0; (n * n * n) as usize]);
    let mut scalars: HashMap<String, f64> = HashMap::new();
    let load =
        |mem: &HashMap<String, Vec<f64>>, name: &str, coeffs: &[i64], vars: &[(String, i64)]| {
            let vals: Vec<i64> = vars.iter().map(|(_, v)| *v).collect();
            let addr: i64 = coeffs.iter().zip(&vals).map(|(c, v)| c * v).sum();
            mem.get(name)
                .and_then(|a| a.get(addr as usize))
                .copied()
                .unwrap_or(0.0)
        };
    let mut vars: Vec<(String, i64)> = ["i", "j", "k", "l"]
        .iter()
        .map(|v| (v.to_string(), 0))
        .collect();
    for i in 0..n {
        vars[0].1 = i;
        for j in 0..n {
            vars[1].1 = j;
            for k in 0..n {
                vars[2].1 = k;
                scalars.insert("s".into(), 0.0);
                for l in 0..n {
                    vars[3].1 = l;
                    let a = load(&mem, "a", &[n, 0, 0, 1], &vars);
                    let u = load(&mem, "u", &[0, n, 1, n * n], &vars);
                    if let Some(s) = scalars.get_mut("s") {
                        *s += a * u;
                    }
                }
                let s = scalars.get("s").copied().unwrap_or(0.0);
                let addr = ((i * n + j) * n + k) as usize;
                if let Some(slot) = mem.get_mut("t").and_then(|t| t.get_mut(addr)) {
                    *slot = s;
                }
            }
        }
    }
    black_box(mem.get("t").map(|t| t[7]));
    t.elapsed().as_secs_f64()
}

/// A calibration op and the time the reference machine takes for it.
#[derive(Debug, Clone, Copy)]
pub struct CalOp {
    run: fn() -> f64,
    ref_s: f64,
}

/// The memory op; 5 ms on the reference machine.
pub const MEM: CalOp = CalOp {
    run: mem_op,
    ref_s: 0.005,
};

/// The interpreter op; 3 ms on the reference machine.
pub const INTERP: CalOp = CalOp {
    run: interp_op,
    ref_s: 0.003,
};

impl CalOp {
    /// Run the op once; its wall time, seconds.
    pub fn measure(self) -> f64 {
        (self.run)()
    }

    /// Mean wall time of `n` back-to-back runs.
    pub fn mean(self, n: usize) -> f64 {
        (0..n).map(|_| self.measure()).sum::<f64>() / n as f64
    }

    /// Wall seconds → cal-seconds, given the op's time right before and
    /// right after the timed interval.
    pub fn normalise(self, wall_s: f64, before_s: f64, after_s: f64) -> f64 {
        wall_s * self.ref_s / (0.5 * (before_s + after_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slowdown_of_op_and_calibration_alike_cancels() {
        for cal in [MEM, INTERP] {
            let fast = cal.normalise(0.120, 0.0050, 0.0054);
            // The same interval on a machine running everything 2x slower.
            let slow = cal.normalise(0.240, 0.0100, 0.0108);
            assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
        }
    }

    #[test]
    fn the_reference_machine_is_the_identity() {
        assert!((MEM.normalise(0.75, 0.005, 0.005) - 0.75).abs() < 1e-12);
        assert!((INTERP.normalise(0.75, 0.003, 0.003) - 0.75).abs() < 1e-12);
        // A machine twice as slow as the reference halves the reading.
        assert!((MEM.normalise(1.0, 0.010, 0.010) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn calibration_ops_take_time() {
        assert!(MEM.measure() > 0.0 && INTERP.measure() > 0.0);
        assert!(MEM.mean(2) > 0.0);
    }
}
