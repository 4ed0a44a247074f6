//! The simulators' virtual clock.
//!
//! Time is kept in integer picoseconds so that event ordering, round
//! arithmetic and replay are exact and deterministic; [`crate::sim`] and
//! the stream scheduler compute in ticks and convert at the edges.

/// Simulation time in picoseconds.
pub type Time = u64;

/// Convert seconds to simulation time.
pub fn secs(s: f64) -> Time {
    (s * 1e12).round() as Time
}

/// Convert simulation time to seconds.
pub fn to_secs(t: Time) -> f64 {
    t as f64 * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_roundtrip() {
        let t = secs(1.5e-3);
        assert!((to_secs(t) - 1.5e-3).abs() < 1e-15);
    }
}
