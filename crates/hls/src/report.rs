//! The synthesis report (the artifact the system generator consumes).

use crate::latency::LoopReport;
use std::fmt;

/// Vivado-style synthesis summary for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct HlsReport {
    pub kernel: String,
    pub clock_mhz: f64,
    /// Kernel latency for one invocation, in cycles.
    pub latency_cycles: u64,
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
    /// BRAMs inside the accelerator (0 in decoupled mode).
    pub brams: usize,
    pub loops: Vec<LoopReport>,
}

impl HlsReport {
    /// The same report under a different kernel label — multi-kernel
    /// systems label each stage's report with the stage name (every
    /// kernel synthesizes as `kernel_body` on its own).
    pub fn renamed(&self, kernel: impl Into<String>) -> HlsReport {
        HlsReport {
            kernel: kernel.into(),
            ..self.clone()
        }
    }

    /// Latency in seconds at the synthesis clock.
    pub fn latency_seconds(&self) -> f64 {
        self.latency_cycles as f64 / (self.clock_mhz * 1e6)
    }

    /// Latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.latency_seconds() * 1e6
    }
}

impl fmt::Display for HlsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== HLS Report: {} @ {:.0} MHz ==",
            self.kernel, self.clock_mhz
        )?;
        writeln!(
            f,
            "  latency: {} cycles ({:.1} us)",
            self.latency_cycles,
            self.latency_us()
        )?;
        writeln!(
            f,
            "  resources: {} LUT, {} FF, {} DSP, {} BRAM",
            self.luts, self.ffs, self.dsps, self.brams
        )?;
        writeln!(f, "  pipelined loops:")?;
        for l in &self.loops {
            writeln!(
                f,
                "    {:<24} trip {:>6}  II {:>2}  depth {:>3}  latency {:>8}",
                l.label, l.trip, l.ii, l.depth, l.latency
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_units() {
        let r = HlsReport {
            kernel: "k".into(),
            clock_mhz: 200.0,
            latency_cycles: 200_000,
            luts: 1,
            ffs: 2,
            dsps: 3,
            brams: 0,
            loops: vec![],
        };
        assert!((r.latency_seconds() - 0.001).abs() < 1e-12);
        assert!((r.latency_us() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn renamed_keeps_everything_but_the_label() {
        let r = HlsReport {
            kernel: "kernel_body".into(),
            clock_mhz: 200.0,
            latency_cycles: 200_000,
            luts: 1,
            ffs: 2,
            dsps: 3,
            brams: 4,
            loops: vec![],
        };
        let s = r.renamed("interpolate");
        assert_eq!(s.kernel, "interpolate");
        assert_eq!(
            (s.latency_cycles, s.luts, s.ffs, s.dsps, s.brams),
            (r.latency_cycles, r.luts, r.ffs, r.dsps, r.brams)
        );
    }

    #[test]
    fn display_contains_summary() {
        let r = HlsReport {
            kernel: "kernel_body".into(),
            clock_mhz: 200.0,
            latency_cycles: 42,
            luts: 2314,
            ffs: 2999,
            dsps: 15,
            brams: 0,
            loops: vec![LoopReport {
                label: "i0.i1".into(),
                trip: 11,
                ii: 5,
                depth: 12,
                latency: 62,
                muls_per_iter: 1,
                adds_per_iter: 1,
                divs_per_iter: 0,
            }],
        };
        let s = r.to_string();
        assert!(s.contains("2314 LUT"));
        assert!(s.contains("15 DSP"));
        assert!(s.contains("II  5"));
    }
}
