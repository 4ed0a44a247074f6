//! The flat-walk interpreter must be indistinguishable from the seed
//! multi-index walk: bit-identical tensors and identical operation
//! counts on every example kernel — and the element-access path must not
//! allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use teil::interp::{Interpreter, Tensor};
use teil::ir::TensorKind;
use teil::Module;

/// Counting wrapper around the system allocator.
struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread: the tests below run on parallel
    /// threads, so a process-wide count would see the neighbours' work.
    /// `const` + no destructor, so the access inside `alloc` never
    /// allocates or fails.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn example_kernels() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for p in [3usize, 4, 5] {
        out.push((
            format!("inverse_helmholtz({p})"),
            cfdlang::examples::inverse_helmholtz(p),
        ));
    }
    for (n, m) in [(3usize, 5usize), (4, 6)] {
        out.push((
            format!("interpolation({n}, {m})"),
            cfdlang::examples::interpolation(n, m),
        ));
    }
    for n in [3usize, 4] {
        out.push((
            format!("matrix_sandwich({n})"),
            cfdlang::examples::matrix_sandwich(n),
        ));
    }
    for n in [4usize, 7] {
        out.push((format!("axpy({n})"), cfdlang::examples::axpy(n)));
    }
    out
}

fn lower(src: &str) -> Module {
    let typed = cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap();
    teil::lower(&typed).unwrap()
}

fn random_inputs(module: &Module, seed: u64) -> HashMap<String, Tensor> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut inputs = HashMap::new();
    for id in module.of_kind(TensorKind::Input) {
        let t = Tensor::from_fn(module.shape(id), |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        inputs.insert(module.name(id).to_string(), t);
    }
    inputs
}

#[test]
fn flat_walk_is_bit_identical_to_multi_index_walk() {
    for (name, src) in example_kernels() {
        for factored in [false, true] {
            let mut m = lower(&src);
            if factored {
                m = teil::transform::factorize(&m);
            }
            let inputs = random_inputs(&m, 0xC0FFEE ^ m.stmts.len() as u64);
            let interp = Interpreter::new(&m);
            let flat = interp.run(&inputs).unwrap();
            let reference = interp.run_reference(&inputs).unwrap();
            assert_eq!(
                flat.stats, reference.stats,
                "{name} (factored={factored}): op counts diverged"
            );
            assert_eq!(
                flat.values.len(),
                reference.values.len(),
                "{name}: tensor count"
            );
            for (i, (a, b)) in flat.values.iter().zip(&reference.values).enumerate() {
                assert_eq!(a.shape, b.shape, "{name}: shape of tensor {i}");
                // Bit-identical, not approximately equal: the flat walk
                // must evaluate the same operations in the same order.
                let ab: Vec<u64> = a.data.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = b.data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "{name} (factored={factored}): tensor {i} bits");
            }
        }
    }
}

#[test]
fn tensor_element_access_does_not_allocate() {
    let t = Tensor::from_fn(&[7, 5, 3], |i| (i[0] * 15 + i[1] * 3 + i[2]) as f64);
    let idx = [4usize, 2, 1];
    // Warm up (the closure and any lazy statics).
    let _ = t.offset(&idx);
    let _ = t.get(&idx);
    let before = allocations();
    let mut acc = 0.0;
    let mut off = 0usize;
    for _ in 0..10_000 {
        off = off.wrapping_add(t.offset(&idx));
        acc += t.get(&idx);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "Tensor::offset/get allocated on the access path"
    );
    assert!(acc > 0.0 && off > 0);
}

#[test]
fn flat_walk_inner_loop_does_not_allocate_per_element() {
    // The interpreter allocates the result tensor, the compiled plans and
    // the odometer once per statement — but nothing per element. Running
    // the same kernel at two sizes must show allocation counts that do
    // not scale with the iteration volume (3^6 = 729 vs 5^6 = 15,625
    // inner iterations for the unfactored Helmholtz contraction).
    let count_run = |p: usize| {
        let m = lower(&cfdlang::examples::inverse_helmholtz(p));
        let inputs = random_inputs(&m, 42);
        let interp = Interpreter::new(&m);
        let _ = interp.run(&inputs).unwrap(); // warm-up
        let before = allocations();
        let _ = interp.run(&inputs).unwrap();
        allocations() - before
    };
    let small = count_run(3);
    let large = count_run(5);
    // Identical statement structure -> identical allocation count modulo
    // the handful of Vec growth differences from larger shapes.
    assert!(
        large <= small + 16,
        "per-element allocations detected: {small} allocs at p=3 vs {large} at p=5"
    );
}
