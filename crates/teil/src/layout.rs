//! Layout materialization (step ⓘⓘ of Figure 4).
//!
//! Tensors are values; before scheduling, the compiler concretizes their
//! memory layouts as *placements* into one-dimensional arrays. The
//! default is the C99 row-major layout (`t[i,j,k] ↦ t[121i + 11j + k]`
//! for the paper's running example). Placements are affine
//! (`strides`, `offset`); the `pschedule` crate turns them into the
//! address functions of its layout-aware dependence and liveness
//! analyses.
//!
//! Each tensor gets its own array here. Address-space sharing between
//! arrays is decided later, from the liveness analysis, by the memory
//! generator (Section V-A2).

use crate::ir::{Module, TensorId, TensorKind};

/// Index of an array within a [`LayoutPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// A one-dimensional array, later implemented as a PLM unit (a set of
/// BRAMs) by the memory generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    pub name: String,
    /// Number of 64-bit words.
    pub size: usize,
    /// Whether the array is part of the kernel interface (host-visible).
    pub interface: bool,
}

/// An affine placement of a tensor into an array:
/// `addr = Σ strides[d] · x_d + offset`.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub tensor: TensorId,
    pub array: ArrayId,
    pub strides: Vec<i64>,
    pub offset: i64,
}

impl Placement {
    /// Flat address of a tensor multi-index.
    pub fn addr(&self, idx: &[usize]) -> i64 {
        debug_assert_eq!(idx.len(), self.strides.len());
        self.offset
            + idx
                .iter()
                .zip(&self.strides)
                .map(|(&i, &s)| i as i64 * s)
                .sum::<i64>()
    }
}

/// The complete tensor→array mapping of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutPlan {
    pub arrays: Vec<ArrayDecl>,
    /// Indexed by `TensorId`.
    pub placements: Vec<Placement>,
}

impl LayoutPlan {
    /// The default layout: one array per tensor, row-major strides,
    /// offset 0 (Section IV-D's "C99 standard innermost dimension
    /// layout").
    pub fn row_major(module: &Module) -> LayoutPlan {
        let mut arrays = Vec::with_capacity(module.tensors.len());
        let mut placements = Vec::with_capacity(module.tensors.len());
        for (i, t) in module.tensors.iter().enumerate() {
            arrays.push(ArrayDecl {
                name: t.name.clone(),
                size: t.volume(),
                interface: t.kind != TensorKind::Temp,
            });
            let strides: Vec<i64> = crate::interp::row_major_strides(&t.shape)
                .into_iter()
                .map(|s| s as i64)
                .collect();
            placements.push(Placement {
                tensor: TensorId(i),
                array: ArrayId(i),
                strides,
                offset: 0,
            });
        }
        LayoutPlan { arrays, placements }
    }

    /// Replace a tensor's strides/offset (custom layout expression, e.g.
    /// implicit reshaping at the host-device interface).
    pub fn with_strides(&mut self, tensor: TensorId, strides: Vec<i64>, offset: i64) {
        let p = &mut self.placements[tensor.0];
        assert_eq!(p.strides.len(), strides.len(), "rank mismatch");
        p.strides = strides;
        p.offset = offset;
    }

    /// Arrays that still hold at least one tensor.
    pub fn live_arrays(&self) -> Vec<ArrayId> {
        let mut seen: Vec<ArrayId> = Vec::new();
        for p in &self.placements {
            if !seen.contains(&p.array) {
                seen.push(p.array);
            }
        }
        seen
    }

    /// Placement of a tensor.
    pub fn placement(&self, tensor: TensorId) -> &Placement {
        &self.placements[tensor.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;

    fn helmholtz(n: usize) -> Module {
        lower(
            &cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(n)).unwrap())
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn row_major_matches_paper_formula() {
        // t[i,j,k] -> 121i + 11j + k for p = 11.
        let m = helmholtz(11);
        let plan = LayoutPlan::row_major(&m);
        let t = m.find("t").unwrap();
        assert_eq!(plan.placement(t).strides, vec![121, 11, 1]);
        assert_eq!(plan.placement(t).addr(&[1, 2, 3]), 121 + 22 + 3);
    }

    #[test]
    fn interface_flags_follow_kinds() {
        let m = helmholtz(4);
        let plan = LayoutPlan::row_major(&m);
        let s = m.find("S").unwrap();
        let t = m.find("t").unwrap();
        assert!(plan.arrays[plan.placement(s).array.0].interface);
        assert!(!plan.arrays[plan.placement(t).array.0].interface);
    }

    #[test]
    fn custom_strides_reshape() {
        let m = helmholtz(4);
        let mut plan = LayoutPlan::row_major(&m);
        let t = m.find("t").unwrap();
        // Column-major layout.
        plan.with_strides(t, vec![1, 4, 16], 0);
        assert_eq!(plan.placement(t).addr(&[1, 2, 3]), 1 + 8 + 48);
    }
}
