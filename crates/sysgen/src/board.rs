//! FPGA board descriptions: the programmable-logic resource vector.
//!
//! A `BoardSpec` is the `[A]` side of Eq. (3) and nothing else. The
//! host CPU, DMA fabric and clock ladder that used to live here belong
//! to the surrounding [`Platform`](crate::platform::Platform) — boards
//! are looked up through the platform catalog, never constructed ad
//! hoc.

use serde::{Deserialize, Serialize};

/// Programmable-logic resources of a target device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardSpec {
    pub name: String,
    pub luts: usize,
    pub ffs: usize,
    pub dsps: usize,
    pub brams: usize,
}
