//! First-class target platforms: the portable replacement for the
//! ZCU106 assumption that used to be smeared across the layers.
//!
//! A [`Platform`] bundles everything a compilation needs to know about
//! one deployment target:
//!
//! * the programmable-logic resources ([`BoardSpec`]) that bound
//!   Eq. (3) — `[H]·k + [M]·m ≤ [A]`,
//! * the host CPU ([`HostCpuModel`]) that runs the generated main loop
//!   and the software reference (the cycle coefficients `zynq::arm`
//!   consumes),
//! * the host↔PL DMA fabric ([`DmaSpec`]), whose transfer model the
//!   full-system simulator charges per burst,
//! * the **achievable fabric-clock ladder**: the synthesis clocks this
//!   part realistically closes timing at, plus the default the paper
//!   flow uses.
//!
//! [`Platform::catalog`] ships five real boards, from the small
//! Pynq-Z2 (Zynq-7020) up to an Alveo U250 datacenter card. The
//! ZCU106 entry reproduces the paper's calibration exactly — its
//! board, host and DMA numbers are byte-for-byte the constants the
//! pre-platform code hardcoded, so ZCU106 results are bit-identical
//! across the refactor.

use crate::board::BoardSpec;

/// Host CPU description: clock plus average retired-cycle costs per
/// dynamic operation (the coefficients of the software cost model).
#[derive(Debug, Clone, PartialEq)]
pub struct HostCpuModel {
    pub name: String,
    /// Core clock in Hz.
    pub hz: f64,
    pub cycles_per_load: f64,
    pub cycles_per_store: f64,
    pub cycles_per_flop: f64,
    /// Loop bookkeeping per innermost iteration.
    pub cycles_per_iter: f64,
    /// Integer multiply in address computation (flat-index code only).
    pub cycles_per_addr_mul: f64,
    pub cycles_per_addr_add: f64,
}

impl HostCpuModel {
    /// The calibrated Cortex-A53 of the Zynq UltraScale+ boards — the
    /// paper's host, anchored so the ~177 kFLOP Inverse Helmholtz
    /// element lands at ~2 ms (Figure 10).
    pub fn cortex_a53(hz: f64) -> HostCpuModel {
        HostCpuModel {
            name: "Cortex-A53".into(),
            hz,
            cycles_per_load: 8.0,
            cycles_per_store: 8.0,
            cycles_per_flop: 3.0,
            cycles_per_iter: 4.0,
            cycles_per_addr_mul: 0.75,
            cycles_per_addr_add: 0.35,
        }
    }

    /// The ZCU106's 1.2 GHz Cortex-A53, equal to
    /// `Platform::zcu106().host`. No compile path calls this; it stays
    /// for the `benchmark/` harness (as `zynq::ArmCostModel::a53_1200mhz`).
    pub fn a53_1200mhz() -> HostCpuModel {
        Platform::zcu106().host
    }

    /// The Cortex-A9 of the Zynq-7000 boards: VFP double precision is
    /// slower per FLOP and the smaller L1 costs more per access.
    pub fn cortex_a9(hz: f64) -> HostCpuModel {
        HostCpuModel {
            name: "Cortex-A9".into(),
            hz,
            cycles_per_load: 10.0,
            cycles_per_store: 10.0,
            cycles_per_flop: 4.0,
            cycles_per_iter: 4.0,
            cycles_per_addr_mul: 1.0,
            cycles_per_addr_add: 0.5,
        }
    }

    /// A datacenter x86 host (Alveo-class cards): wide out-of-order
    /// cores retire FP multiply–adds well under one cycle per FLOP.
    pub fn xeon(hz: f64) -> HostCpuModel {
        HostCpuModel {
            name: "Xeon".into(),
            hz,
            cycles_per_load: 4.0,
            cycles_per_store: 4.0,
            cycles_per_flop: 0.5,
            cycles_per_iter: 1.0,
            cycles_per_addr_mul: 0.3,
            cycles_per_addr_add: 0.15,
        }
    }
}

/// Host↔PL DMA fabric description: effective bandwidth and the fixed
/// setup latency per transfer burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaSpec {
    pub bytes_per_sec: f64,
    pub setup_s: f64,
}

impl DmaSpec {
    /// Seconds to move `bytes` split into `bursts` independent bursts
    /// (one per PLM instance; the paper transfers `m` instances of each
    /// array to power-of-two aligned addresses): `setup` per burst plus
    /// `bytes / bandwidth`.
    pub fn transfer_bursts_s(&self, bytes: usize, bursts: usize) -> f64 {
        if bytes == 0 || bursts == 0 {
            return 0.0;
        }
        self.setup_s * bursts as f64 + bytes as f64 / self.bytes_per_sec
    }
}

/// One deployment target: PL resources, host CPU, DMA fabric and the
/// achievable fabric-clock ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Catalog key (`--board` accepts it case-insensitively). Every
    /// platform comes from a catalog constructor, so the key is a
    /// literal that reports and sweep rows borrow instead of copying.
    pub id: &'static str,
    /// Programmable-logic resources — the `[A]` vector of Eq. (3).
    pub board: BoardSpec,
    pub host: HostCpuModel,
    pub dma: DmaSpec,
    /// Fabric clocks (MHz) this part closes timing at, ascending.
    pub clock_ladder_mhz: Vec<f64>,
    /// The clock a plain compile synthesizes at.
    pub default_clock_mhz: f64,
}

impl Platform {
    /// The Xilinx Zynq UltraScale+ ZCU106 (xczu7ev-ffvc1156-2) used in
    /// the paper: ~230K LUTs, ~460K FFs, 312 BRAM36, 1,728 DSPs; quad
    /// Cortex-A53 at 1.2 GHz; kernels synthesized at 200 MHz. The DMA
    /// bandwidth is calibrated to the transfer fraction implied by
    /// Figures 9/10 (~0.7 GB/s effective on the HP ports).
    pub fn zcu106() -> Platform {
        Platform {
            id: "zcu106",
            board: BoardSpec {
                name: "ZCU106 (xczu7ev)".into(),
                luts: 230_400,
                ffs: 460_800,
                dsps: 1_728,
                brams: 312,
            },
            host: HostCpuModel::cortex_a53(1.2e9),
            dma: DmaSpec {
                bytes_per_sec: 0.70e9,
                setup_s: 4.0e-6,
            },
            clock_ladder_mhz: vec![100.0, 150.0, 200.0, 300.0],
            default_clock_mhz: 200.0,
        }
    }

    /// The Zynq UltraScale+ ZCU102 (xczu9eg-ffvb1156-2): the larger
    /// sibling of the ZCU106 with the same A53 host complex and HP
    /// ports.
    pub fn zcu102() -> Platform {
        Platform {
            id: "zcu102",
            board: BoardSpec {
                name: "ZCU102 (xczu9eg)".into(),
                luts: 274_080,
                ffs: 548_160,
                dsps: 2_520,
                brams: 912,
            },
            host: HostCpuModel::cortex_a53(1.2e9),
            dma: DmaSpec {
                bytes_per_sec: 0.70e9,
                setup_s: 4.0e-6,
            },
            clock_ladder_mhz: vec![100.0, 150.0, 200.0, 300.0],
            default_clock_mhz: 200.0,
        }
    }

    /// The Zynq-7000 ZC706 (xc7z045-ffg900-2): 28 nm fabric (slower
    /// clock ladder), dual Cortex-A9 at 800 MHz, slower HP-port DMA.
    pub fn zc706() -> Platform {
        Platform {
            id: "zc706",
            board: BoardSpec {
                name: "ZC706 (xc7z045)".into(),
                luts: 218_600,
                ffs: 437_200,
                dsps: 900,
                brams: 545,
            },
            host: HostCpuModel::cortex_a9(800.0e6),
            dma: DmaSpec {
                bytes_per_sec: 0.40e9,
                setup_s: 6.0e-6,
            },
            clock_ladder_mhz: vec![100.0, 150.0, 200.0],
            default_clock_mhz: 150.0,
        }
    }

    /// The Pynq-Z2 (xc7z020-clg400-1): the small-board scenario —
    /// designs that fit the ZCU106 at k = 16 must degrade to small
    /// replications here or report infeasible.
    pub fn pynq_z2() -> Platform {
        Platform {
            id: "pynq-z2",
            board: BoardSpec {
                name: "Pynq-Z2 (xc7z020)".into(),
                luts: 53_200,
                ffs: 106_400,
                dsps: 220,
                brams: 140,
            },
            host: HostCpuModel::cortex_a9(650.0e6),
            dma: DmaSpec {
                bytes_per_sec: 0.30e9,
                setup_s: 6.0e-6,
            },
            clock_ladder_mhz: vec![50.0, 100.0, 142.0],
            default_clock_mhz: 100.0,
        }
    }

    /// The Alveo U250 (xcu250-figd2104-2L): a datacenter card behind
    /// PCIe — vastly more fabric, but each DMA burst pays the driver
    /// round-trip.
    pub fn u250() -> Platform {
        Platform {
            id: "u250",
            board: BoardSpec {
                name: "Alveo U250 (xcu250)".into(),
                luts: 1_728_000,
                ffs: 3_456_000,
                dsps: 12_288,
                brams: 2_688,
            },
            host: HostCpuModel::xeon(2.5e9),
            dma: DmaSpec {
                bytes_per_sec: 12.0e9,
                setup_s: 15.0e-6,
            },
            clock_ladder_mhz: vec![150.0, 200.0, 300.0],
            default_clock_mhz: 300.0,
        }
    }

    /// Every platform this build knows, small to large.
    pub fn catalog() -> Vec<Platform> {
        vec![
            Platform::pynq_z2(),
            Platform::zc706(),
            Platform::zcu106(),
            Platform::zcu102(),
            Platform::u250(),
        ]
    }

    /// Look a platform up by id or alias, case-insensitively and
    /// ignoring `-`/`_` (so `ZCU106`, `zcu-106`, `xczu7ev` all work).
    pub fn by_name(name: &str) -> Option<Platform> {
        let norm = |s: &str| -> String {
            s.chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase()
        };
        let want = norm(name);
        if want.is_empty() {
            return None;
        }
        Platform::catalog().into_iter().find(|p| {
            norm(p.id) == want
                || norm(&p.board.name) == want
                || aliases(p.id).iter().any(|a| norm(a) == want)
        })
    }
}

fn aliases(id: &str) -> &'static [&'static str] {
    match id {
        "zcu106" => &["xczu7ev"],
        "zcu102" => &["xczu9eg"],
        "zc706" => &["xc7z045", "z7045"],
        "pynq-z2" => &["pynq", "xc7z020", "z7020"],
        "u250" => &["alveo-u250", "xcu250", "alveo"],
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu106_matches_paper_calibration() {
        let p = Platform::zcu106();
        assert_eq!(p.board.brams, 312);
        // Paper: 11,318 LUT = 4.9%, 9,523 FF = 2.1%, 15 DSP = 0.9%.
        let pct = |used: usize, total: usize| 100.0 * used as f64 / total as f64;
        assert!((pct(11_318, p.board.luts) - 4.9).abs() < 0.05);
        assert!((pct(9_523, p.board.ffs) - 2.1).abs() < 0.05);
        assert!((pct(15, p.board.dsps) - 0.9).abs() < 0.05);
        // Clock ratio: the A53 is 6× faster than the 200 MHz fabric.
        assert_eq!(p.default_clock_mhz, 200.0);
        assert!((p.host.hz / (p.default_clock_mhz * 1e6) - 6.0).abs() < 1e-9);
        assert!(p.clock_ladder_mhz.contains(&200.0));
        // The paper's DMA calibration.
        assert_eq!(p.dma.bytes_per_sec, 0.70e9);
        assert_eq!(p.dma.setup_s, 4.0e-6);
        assert_eq!(p.host, HostCpuModel::a53_1200mhz());
    }

    #[test]
    fn zero_bytes_or_bursts_are_free() {
        let dma = Platform::zcu106().dma;
        assert_eq!(dma.transfer_bursts_s(0, 4), 0.0);
        assert_eq!(dma.transfer_bursts_s(1 << 20, 0), 0.0);
    }

    #[test]
    fn more_bursts_cost_more_setup() {
        let dma = Platform::zcu106().dma;
        let one = dma.transfer_bursts_s(1 << 20, 1);
        let many = dma.transfer_bursts_s(1 << 20, 16);
        assert!((many - one - 15.0 * 4e-6).abs() < 1e-12);
        // One burst is affine in the bytes: 0.7 MB at 0.7 GB/s is 1 ms.
        assert!((dma.transfer_bursts_s(700_000, 1) - (4e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn helmholtz_element_transfer_fraction() {
        // ~33 KB per element at 0.7 GB/s ≈ 47 µs — the ~1.7% of the
        // ~2.9 ms kernel that Figure 9's total-vs-accelerator gap implies.
        let t = Platform::zcu106()
            .dma
            .transfer_bursts_s((121 + 2 * 1331 + 1331) * 8, 1);
        assert!((40e-6..60e-6).contains(&t), "{t:.2e}");
    }

    #[test]
    fn catalog_is_ordered_and_unique() {
        let cat = Platform::catalog();
        assert!(cat.len() >= 4, "ISSUE requires >= 4 platforms");
        for w in cat.windows(2) {
            assert!(
                w[0].board.luts <= w[1].board.luts,
                "catalog sorted small to large"
            );
            assert_ne!(w[0].id, w[1].id);
        }
        for p in &cat {
            assert!(!p.clock_ladder_mhz.is_empty());
            assert!(
                p.clock_ladder_mhz.contains(&p.default_clock_mhz),
                "{}: default clock must be on the ladder",
                p.id
            );
            let mut sorted = p.clock_ladder_mhz.clone();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(sorted, p.clock_ladder_mhz, "{}: ladder ascending", p.id);
        }
    }

    #[test]
    fn lookup_accepts_aliases_and_case() {
        assert_eq!(Platform::by_name("ZCU106").unwrap().id, "zcu106");
        assert_eq!(Platform::by_name("xczu7ev").unwrap().id, "zcu106");
        assert_eq!(Platform::by_name("pynq").unwrap().id, "pynq-z2");
        assert_eq!(Platform::by_name("PYNQ_Z2").unwrap().id, "pynq-z2");
        assert_eq!(Platform::by_name("alveo").unwrap().id, "u250");
        assert_eq!(Platform::by_name("ZCU106 (xczu7ev)").unwrap().id, "zcu106");
        assert!(Platform::by_name("de10-nano").is_none());
        // No substring matching: partial or empty names never resolve.
        assert!(Platform::by_name("").is_none());
        assert!(Platform::by_name("z").is_none());
        assert!(Platform::by_name("-").is_none());
    }

    #[test]
    fn small_board_is_strictly_smaller() {
        let small = Platform::pynq_z2().board;
        let big = Platform::zcu106().board;
        assert!(small.luts < big.luts);
        assert!(small.brams < big.brams);
        assert!(small.dsps < big.dsps);
    }
}
