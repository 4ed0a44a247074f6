//! Property-based tests of the whole flow: randomly generated tensor
//! programs must compile, verify bit-exactly against the interpreter,
//! and preserve semantics under factorization.

use cfdfpga::flow::{Flow, FlowOptions};
use proptest::prelude::*;
use std::collections::HashMap;
use teil::interp::{inputs_from, Interpreter, Tensor};

/// Random small contraction program: o = A # B . [[a b]] with compatible
/// random shapes, plus an optional pointwise epilogue.
fn contraction_program(n1: usize, n2: usize, epilogue: bool) -> String {
    // A : [n1 n2], B : [n2], o = A # B . [[1 2]] : [n1]
    let mut src =
        format!("var input A : [{n1} {n2}]\nvar input B : [{n2}]\nvar input C : [{n1}]\n");
    if epilogue {
        src.push_str(&format!("var w : [{n1}]\nvar output o : [{n1}]\n"));
        src.push_str("w = A # B . [[1 2]]\no = w * C + w\n");
    } else {
        src.push_str(&format!("var output o : [{n1}]\n"));
        src.push_str("o = A # B . [[1 2]]\n");
    }
    src
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    Tensor::from_fn(shape, |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random contraction programs flow end-to-end and verify bitexact.
    #[test]
    fn random_contractions_verify(
        n1 in 2usize..6,
        n2 in 2usize..6,
        epilogue in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let src = contraction_program(n1, n2, epilogue);
        let art = Flow::compile(&src, &FlowOptions::default()).unwrap();
        let v = art.verify(1, seed).unwrap();
        prop_assert!(v.bitexact);
    }

    /// Factorization never changes results beyond FP reassociation.
    #[test]
    fn factorization_preserves_helmholtz(n in 2usize..6, seed in 0u64..100) {
        let src = cfdfpga::cfdlang::examples::inverse_helmholtz(n);
        let typed = cfdfpga::cfdlang::check(&cfdfpga::cfdlang::parse(&src).unwrap()).unwrap();
        let naive = teil::lower(&typed).unwrap();
        let fact = teil::transform::factorize(&naive);
        let inputs = inputs_from(vec![
            ("S", rand_tensor(&[n, n], seed)),
            ("D", rand_tensor(&[n, n, n], seed + 1)),
            ("u", rand_tensor(&[n, n, n], seed + 2)),
        ]);
        let e1 = Interpreter::new(&naive).run(&inputs).unwrap();
        let e2 = Interpreter::new(&fact).run(&inputs).unwrap();
        let v1 = e1.value(&naive, "v").unwrap();
        let v2 = e2.value(&fact, "v").unwrap();
        prop_assert!(v1.max_rel_diff(v2) < 1e-10, "diff {}", v1.max_rel_diff(v2));
    }

    /// The generated C program computes the same function regardless of
    /// sharing/decoupling options (memory layout must not leak into
    /// values).
    #[test]
    fn options_do_not_change_semantics(
        n in 2usize..5,
        decoupled in proptest::bool::ANY,
        seed in 0u64..100,
    ) {
        let src = cfdfpga::cfdlang::examples::matrix_sandwich(n);
        let art = Flow::compile(
            &src,
            &FlowOptions { decoupled, ..Default::default() },
        )
        .unwrap();
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &art.kernel.params {
            mem.insert(p.name.clone(), vec![0.0; p.words]);
        }
        mem.insert("S".into(), rand_tensor(&[n, n], seed).data);
        mem.insert("A".into(), rand_tensor(&[n, n], seed + 7).data);
        let s = Tensor { shape: vec![n, n], data: mem["S"].clone() };
        let a = Tensor { shape: vec![n, n], data: mem["A"].clone() };
        cgen::run_kernel(&art.kernel, &mut mem).unwrap();
        let ex = Interpreter::new(&art.module)
            .run(&inputs_from(vec![("S", s), ("A", a)]))
            .unwrap();
        let expect = ex.value(&art.module, "o").unwrap();
        prop_assert_eq!(&mem["o"], &expect.data);
    }

    /// Eq. (3): for any feasible configuration, doubling m keeps BRAM
    /// monotonicity, and the maximal k=m is indeed maximal.
    #[test]
    fn eq3_maximality(sharing in proptest::bool::ANY) {
        let src = cfdfpga::cfdlang::examples::inverse_helmholtz(5);
        let art = Flow::compile(
            &src,
            &FlowOptions {
                memory: cfdfpga::mnemosyne::MemoryOptions { sharing },
                ..Default::default()
            },
        )
        .unwrap();
        let board = cfdfpga::sysgen::Platform::zcu106();
        let max = cfdfpga::sysgen::max_equal_config(&board, &art.hls_report, &art.memory).unwrap();
        // The next power of two must not fit.
        let next = [(max.k * 2, &art.hls_report)];
        prop_assert!(
            cfdfpga::sysgen::Totals::fit(&board, next, &art.memory, max.m * 2).is_none()
        );
    }
}
