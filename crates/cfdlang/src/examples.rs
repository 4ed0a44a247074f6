//! Canonical CFDlang programs used throughout the evaluation.
//!
//! These generate the kernels from the paper parameterized by the
//! polynomial degree `p` (the paper evaluates `p = 11`).

/// The Inverse Helmholtz operator of Figure 1, for `(p+1)`-point bases —
/// pass `n = p` to get tensors of extent `p`. The paper's instance is
/// `inverse_helmholtz(11)` (extent 11 per dimension).
///
/// ```text
/// t = (Sᵀ ⊗ Sᵀ ⊗ Sᵀ) u       (Eq. 1a)
/// r = D ∘ t                   (Eq. 1b, Hadamard)
/// v = (S ⊗ S ⊗ S) r           (Eq. 1c)
/// ```
pub fn inverse_helmholtz(n: usize) -> String {
    format!(
        "var input S : [{n} {n}]\n\
         var input D : [{n} {n} {n}]\n\
         var input u : [{n} {n} {n}]\n\
         var output v : [{n} {n} {n}]\n\
         var t : [{n} {n} {n}]\n\
         var r : [{n} {n} {n}]\n\
         t = S # S # S # u . [[1 6] [3 7] [5 8]]\n\
         r = D * t\n\
         v = S # S # S # r . [[0 6] [2 7] [4 8]]\n"
    )
}

/// Tensor-product interpolation: evaluate a degree-`n` element at `m`
/// points per direction, `o = (P ⊗ P ⊗ P) u`. This is the "simpler
/// operator subsumed by the Inverse Helmholtz" mentioned in Section II-A.
pub fn interpolation(n: usize, m: usize) -> String {
    format!(
        "var input P : [{m} {n}]\n\
         var input u : [{n} {n} {n}]\n\
         var output o : [{m} {m} {m}]\n\
         o = P # P # P # u . [[1 6] [3 7] [5 8]]\n"
    )
}

/// A single 2-D matrix-apply `o = Sᵀ A S` expressed as two contractions —
/// a small kernel used by unit tests and the quickstart example.
pub fn matrix_sandwich(n: usize) -> String {
    format!(
        "var input S : [{n} {n}]\n\
         var input A : [{n} {n}]\n\
         var output o : [{n} {n}]\n\
         var w : [{n} {n}]\n\
         w = S # A . [[0 2]]\n\
         o = w # S . [[1 2]]\n"
    )
}

/// Element-wise AXPY-like update `o = a * x + y` (no contraction) —
/// exercises the pointwise-only path of the flow.
pub fn axpy(n: usize) -> String {
    format!(
        "var input x : [{n} {n} {n}]\n\
         var input y : [{n} {n} {n}]\n\
         var input a : []\n\
         var output o : [{n} {n} {n}]\n\
         o = a * x + y\n"
    )
}

/// A whole CFD time-step as a **multi-kernel program**: interpolation of
/// the solution onto the working basis, the Inverse Helmholtz solve, and
/// a final projection (the third sandwich contraction applied with its
/// own operator) — three kernels chained through name-matched tensor
/// handoffs (`u` from `interpolate` into `inverse_helmholtz`, `v` from
/// `inverse_helmholtz` into `project`). Compiles into one shared-memory
/// accelerator system; see `cfd_core::program`.
pub fn simulation_step(n: usize) -> String {
    format!(
        "kernel interpolate {{\n\
         \tvar input P : [{n} {n}]\n\
         \tvar input u0 : [{n} {n} {n}]\n\
         \tvar output u : [{n} {n} {n}]\n\
         \tu = P # P # P # u0 . [[1 6] [3 7] [5 8]]\n\
         }}\n\
         kernel inverse_helmholtz {{\n\
         \tvar input S : [{n} {n}]\n\
         \tvar input D : [{n} {n} {n}]\n\
         \tvar input u : [{n} {n} {n}]\n\
         \tvar output v : [{n} {n} {n}]\n\
         \tvar t : [{n} {n} {n}]\n\
         \tvar r : [{n} {n} {n}]\n\
         \tt = S # S # S # u . [[1 6] [3 7] [5 8]]\n\
         \tr = D * t\n\
         \tv = S # S # S # r . [[0 6] [2 7] [4 8]]\n\
         }}\n\
         kernel project {{\n\
         \tvar input Q : [{n} {n}]\n\
         \tvar input v : [{n} {n} {n}]\n\
         \tvar output w : [{n} {n} {n}]\n\
         \tw = Q # Q # Q # v . [[1 6] [3 7] [5 8]]\n\
         }}\n"
    )
}

/// A small two-kernel pointwise chain: `w = a·x + y`, then
/// `o = w·s + x` — exercises the pointwise-only multi-kernel path.
pub fn axpy_chain(n: usize) -> String {
    format!(
        "kernel axpy_scale {{\n\
         \tvar input x : [{n} {n} {n}]\n\
         \tvar input y : [{n} {n} {n}]\n\
         \tvar input a : []\n\
         \tvar output w : [{n} {n} {n}]\n\
         \tw = a * x + y\n\
         }}\n\
         kernel axpy_update {{\n\
         \tvar input w : [{n} {n} {n}]\n\
         \tvar input x : [{n} {n} {n}]\n\
         \tvar input s : []\n\
         \tvar output o : [{n} {n} {n}]\n\
         \to = w * s + x\n\
         }}\n"
    )
}

#[cfg(test)]
mod tests {
    use crate::{check, check_set, parse, parse_set};

    #[test]
    fn all_examples_check() {
        for src in [
            super::inverse_helmholtz(11),
            super::inverse_helmholtz(4),
            super::interpolation(4, 7),
            super::matrix_sandwich(8),
            super::axpy(5),
        ] {
            let p = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            check(&p).unwrap_or_else(|e| panic!("{e}\n{src}"));
        }
    }

    #[test]
    fn multi_kernel_examples_check_and_link() {
        let step = check_set(&parse_set(&super::simulation_step(4)).unwrap()).unwrap();
        assert_eq!(
            step.kernel_names(),
            vec!["interpolate", "inverse_helmholtz", "project"]
        );
        // u: interpolate → inverse_helmholtz; v: inverse_helmholtz → project.
        assert_eq!(step.links.len(), 2);
        assert_eq!(step.links[0].name, "u");
        assert_eq!((step.links[0].from, step.links[0].to), (0, 1));
        assert_eq!(step.links[1].name, "v");
        assert_eq!((step.links[1].from, step.links[1].to), (1, 2));
        // Host interface: P, u0, S, D, Q are external.
        assert_eq!(step.external_inputs().len(), 5);

        let chain = check_set(&parse_set(&super::axpy_chain(5)).unwrap()).unwrap();
        assert_eq!(chain.links.len(), 1);
        assert_eq!(chain.links[0].name, "w");
    }

    #[test]
    fn interpolation_changes_shape() {
        let t = check(&parse(&super::interpolation(4, 7)).unwrap()).unwrap();
        assert_eq!(t.shape_of("o"), Some(&[7, 7, 7][..]));
        assert_eq!(t.shape_of("u"), Some(&[4, 4, 4][..]));
    }
}
