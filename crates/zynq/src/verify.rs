//! Functional verification of the hardware path.
//!
//! The simulated accelerator executes the same generated loop program
//! that HLS would synthesize ([`cgen::run_kernel`]); this module runs a
//! sample of CFD elements through a chain of them with randomized inputs
//! and compares every output word against the `teil` reference
//! interpreter. A single kernel is the one-kernel chain, so
//! [`verify_program`] is the one verifier.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use teil::ir::{Module, TensorKind};
use teil::{Interpreter, Tensor};

/// Result of verifying `elements` random elements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerifyResult {
    pub elements: usize,
    /// Maximum relative difference across all outputs and elements.
    pub max_rel_diff: f64,
    /// Whether every output matched bit-for-bit (same evaluation order).
    pub bitexact: bool,
}

/// Execute a chained multi-kernel program through the generated loop
/// programs. `external` supplies the host-side inputs by name (names
/// are program-global: equally named external inputs of different
/// kernels receive the same tensor). Returns every kernel's outputs as
/// `"kernel.tensor"` → values; a later kernel's input named like an
/// earlier kernel's output receives that output (the PLM handoff).
pub fn run_program_chain(
    names: &[String],
    modules: &[&Module],
    kernels: &[&cgen::CKernel],
    external: &HashMap<String, Tensor>,
) -> Result<HashMap<String, Vec<f64>>, String> {
    assert_eq!(modules.len(), kernels.len());
    // Latest produced value per tensor name (the handoff buffers).
    let mut produced: HashMap<String, Vec<f64>> = HashMap::new();
    let mut out: HashMap<String, Vec<f64>> = HashMap::new();
    for ((name, module), kernel) in names.iter().zip(modules).zip(kernels) {
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for id in module.of_kind(TensorKind::Input) {
            let n = module.name(id);
            let data = if let Some(v) = produced.get(n) {
                v.clone()
            } else {
                external
                    .get(n)
                    .map(|t| t.data.clone())
                    .ok_or_else(|| format!("missing external input '{n}' for kernel '{name}'"))?
            };
            mem.insert(n.to_string(), data);
        }
        for p in &kernel.params {
            if !mem.contains_key(&p.name) {
                mem.insert(p.name.clone(), vec![0.0; p.words]);
            }
        }
        cgen::run_kernel(kernel, &mut mem)?;
        for id in module.of_kind(TensorKind::Output) {
            let n = module.name(id);
            let v = mem
                .remove(n)
                .ok_or_else(|| format!("output '{n}' missing in kernel '{name}'"))?;
            out.insert(format!("{name}.{n}"), v.clone());
            produced.insert(n.to_string(), v);
        }
    }
    Ok(out)
}

/// Run the reference interpreter over the chained program. Same handoff
/// semantics as [`run_program_chain`].
pub fn run_program_reference(
    names: &[String],
    modules: &[&Module],
    external: &HashMap<String, Tensor>,
) -> Result<HashMap<String, Tensor>, String> {
    let mut produced: HashMap<String, Tensor> = HashMap::new();
    let mut out: HashMap<String, Tensor> = HashMap::new();
    for (name, module) in names.iter().zip(modules) {
        let mut inputs: HashMap<String, Tensor> = HashMap::new();
        for id in module.of_kind(TensorKind::Input) {
            let n = module.name(id);
            let t = if let Some(v) = produced.get(n) {
                v.clone()
            } else {
                external
                    .get(n)
                    .cloned()
                    .ok_or_else(|| format!("missing external input '{n}' for kernel '{name}'"))?
            };
            inputs.insert(n.to_string(), t);
        }
        let ex = Interpreter::new(module).run(&inputs)?;
        for id in module.of_kind(TensorKind::Output) {
            let n = module.name(id);
            let t = ex.values[id.0].clone();
            out.insert(format!("{name}.{n}"), t.clone());
            produced.insert(n.to_string(), t);
        }
    }
    Ok(out)
}

/// Random external inputs for a chained program: one tensor per
/// distinct external input name (program-global), drawn in chain order.
pub fn random_program_inputs(modules: &[&Module], seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut external: HashMap<String, Tensor> = HashMap::new();
    let mut produced: Vec<String> = Vec::new();
    for module in modules {
        for id in module.of_kind(TensorKind::Input) {
            let n = module.name(id);
            if produced.iter().any(|p| p == n) || external.contains_key(n) {
                continue;
            }
            let shape = module.shape(id).to_vec();
            external.insert(
                n.to_string(),
                Tensor::from_fn(&shape, |_| rng.gen_range(-1.0..1.0)),
            );
        }
        for id in module.of_kind(TensorKind::Output) {
            produced.push(module.name(id).to_string());
        }
    }
    external
}

/// Verify `n` elements of a chained program: the generated kernels,
/// executed with PLM handoffs, must match the chained reference
/// interpreter on every kernel's outputs. Elements are independent,
/// exactly like the accelerator replicas, so they are split into one
/// contiguous run per available core ([`crate::fan_out`]), each folded
/// to its largest difference without allocating; the runs are combined
/// in order, so the first failing element reports, as in a serial loop.
pub fn verify_program(
    names: &[String],
    modules: &[&Module],
    kernels: &[&cgen::CKernel],
    n: usize,
    seed: u64,
) -> Result<VerifyResult, String> {
    let threads = crate::resolve_jobs(0).clamp(1, n.max(1));
    let run = n.div_ceil(threads);
    let verify_run = |t: usize| {
        (t * run..n.min((t + 1) * run)).try_fold((0.0, true), |acc, e| {
            verify_element(names, modules, kernels, seed.wrapping_add(e as u64), acc)
        })
    };
    let runs = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::fan_out(threads, threads, verify_run)
    }))
    .map_err(|_| "verification worker panicked".to_string())?;
    let (mut max_rel_diff, mut bitexact) = (0.0f64, true);
    for run in runs {
        let (rel, exact) = run?;
        max_rel_diff = max_rel_diff.max(rel);
        bitexact &= exact;
    }
    Ok(VerifyResult {
        elements: n,
        max_rel_diff,
        bitexact,
    })
}

/// One element on inputs drawn from `seed`, folded into the running
/// largest relative difference over output words and whether all
/// matched bit for bit.
fn verify_element(
    names: &[String],
    modules: &[&Module],
    kernels: &[&cgen::CKernel],
    seed: u64,
    (mut max_rel, mut bitexact): (f64, bool),
) -> Result<(f64, bool), String> {
    let external = random_program_inputs(modules, seed);
    let expect = run_program_reference(names, modules, &external)?;
    let got = run_program_chain(names, modules, kernels, &external)?;
    if expect.len() != got.len() {
        return Err("program output-set mismatch".into());
    }
    for (key, t) in &expect {
        let g = got
            .get(key)
            .ok_or_else(|| format!("output '{key}' missing from hardware path"))?;
        if g.len() != t.data.len() {
            return Err(format!("output '{key}' size mismatch"));
        }
        for (a, b) in t.data.iter().zip(g) {
            bitexact &= a.to_bits() == b.to_bits();
            let scale = a.abs().max(b.abs()).max(1.0);
            max_rel = max_rel.max((a - b).abs() / scale);
        }
    }
    Ok((max_rel, bitexact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgen::{build_kernel, CodegenOptions};
    use pschedule::{KernelModel, Schedule};
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn setup(n: usize, factored: bool) -> (Module, cgen::CKernel) {
        let typed =
            cfdlang::check(&cfdlang::parse(&cfdlang::examples::inverse_helmholtz(n)).unwrap())
                .unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let s = Schedule::reference(&km);
        let k = build_kernel(&m, &km, &s, &CodegenOptions::default());
        (m, k)
    }

    fn verify_kernel(
        m: &Module,
        k: &cgen::CKernel,
        n: usize,
        seed: u64,
    ) -> Result<VerifyResult, String> {
        verify_program(std::slice::from_ref(&k.name), &[m], &[k], n, seed)
    }

    #[test]
    fn hardware_path_is_bitexact_for_reference_schedule() {
        let (m, k) = setup(5, true);
        let r = verify_kernel(&m, &k, 8, 42).unwrap();
        assert_eq!(r.elements, 8);
        assert!(r.bitexact, "max rel diff {}", r.max_rel_diff);
        assert_eq!(r.max_rel_diff, 0.0);
    }

    #[test]
    fn unfactored_kernel_verifies_too() {
        let (m, k) = setup(4, false);
        let r = verify_kernel(&m, &k, 4, 7).unwrap();
        assert!(r.bitexact);
    }

    #[test]
    fn different_seeds_change_inputs_not_correctness() {
        let (m, k) = setup(4, true);
        for seed in [1u64, 99, 12345] {
            let r = verify_kernel(&m, &k, 2, seed).unwrap();
            assert!(r.bitexact, "seed {seed}");
        }
    }

    fn setup_program(n: usize) -> (Vec<String>, Vec<Module>, Vec<cgen::CKernel>) {
        let set = cfdlang::check_set(
            &cfdlang::parse_set(&cfdlang::examples::simulation_step(n)).unwrap(),
        )
        .unwrap();
        let mut names = Vec::new();
        let mut modules = Vec::new();
        let mut kernels = Vec::new();
        for tk in &set.kernels {
            let m = factorize(&lower(&tk.typed).unwrap());
            let layout = LayoutPlan::row_major(&m);
            let km = KernelModel::build(&m, &layout);
            let s = Schedule::reference(&km);
            kernels.push(build_kernel(&m, &km, &s, &CodegenOptions::default()));
            names.push(tk.name.clone());
            modules.push(m);
        }
        (names, modules, kernels)
    }

    #[test]
    fn chained_program_is_bitexact() {
        let (names, modules, kernels) = setup_program(4);
        let mrefs: Vec<&Module> = modules.iter().collect();
        let krefs: Vec<&cgen::CKernel> = kernels.iter().collect();
        let r = verify_program(&names, &mrefs, &krefs, 3, 11).unwrap();
        assert!(r.bitexact, "max rel diff {}", r.max_rel_diff);
        assert_eq!(r.max_rel_diff, 0.0);
    }

    #[test]
    fn handoff_feeds_downstream_kernel() {
        // The chained result must differ from running the last kernel
        // on raw external data — i.e. the handoff really flows.
        let (names, modules, _) = setup_program(4);
        let mrefs: Vec<&Module> = modules.iter().collect();
        let external = random_program_inputs(&mrefs, 5);
        let chained = run_program_reference(&names, &mrefs, &external).unwrap();
        // Run 'project' alone on a fresh random v (not the handoff).
        let mut solo_inputs: HashMap<String, Tensor> = HashMap::new();
        let project = &modules[2];
        for id in project.of_kind(TensorKind::Input) {
            let n = project.name(id);
            let t = external.get(n).cloned().unwrap_or_else(|| {
                Tensor::from_fn(project.shape(id), |i| i.iter().sum::<usize>() as f64)
            });
            solo_inputs.insert(n.to_string(), t);
        }
        let solo = Interpreter::new(project).run(&solo_inputs).unwrap();
        let w_id = project.of_kind(TensorKind::Output)[0];
        let solo_w = &solo.values[w_id.0];
        let chained_w = &chained["project.w"];
        assert!(solo_w.max_rel_diff(chained_w) > 1e-12);
    }

    #[test]
    fn program_chain_matches_manual_per_kernel_chain() {
        // Feeding each separately generated kernel by hand must agree
        // with run_program_chain — the handoff is pure data flow.
        let (names, modules, kernels) = setup_program(4);
        let mrefs: Vec<&Module> = modules.iter().collect();
        let krefs: Vec<&cgen::CKernel> = kernels.iter().collect();
        let external = random_program_inputs(&mrefs, 99);
        let auto = run_program_chain(&names, &mrefs, &krefs, &external).unwrap();

        let mut produced: HashMap<String, Vec<f64>> = HashMap::new();
        for ((name, module), kernel) in names.iter().zip(&modules).zip(&kernels) {
            let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
            for p in &kernel.params {
                mem.insert(p.name.clone(), vec![0.0; p.words]);
            }
            for id in module.of_kind(TensorKind::Input) {
                let n = module.name(id);
                let data = produced
                    .get(n)
                    .cloned()
                    .unwrap_or_else(|| external[n].data.clone());
                mem.insert(n.to_string(), data);
            }
            cgen::run_kernel(kernel, &mut mem).unwrap();
            for id in module.of_kind(TensorKind::Output) {
                let n = module.name(id);
                let v = mem[n].clone();
                assert_eq!(
                    auto[&format!("{name}.{n}")],
                    v,
                    "kernel '{name}' output '{n}' diverged"
                );
                produced.insert(n.to_string(), v);
            }
        }
    }

    #[test]
    fn corrupted_kernel_is_detected() {
        let (m, mut k) = setup(4, true);
        // Flip an operation: the verifier must notice.
        fn corrupt(stmts: &mut [cgen::CStmt]) -> bool {
            for s in stmts.iter_mut() {
                let hit = match s {
                    cgen::CStmt::For { body, .. } => corrupt(body),
                    cgen::CStmt::AccumScalar {
                        expr: cgen::CExpr::Bin { op, .. },
                        ..
                    } => {
                        *op = cfdlang::BinOp::Add;
                        true
                    }
                    _ => false,
                };
                if hit {
                    return true;
                }
            }
            false
        }
        assert!(corrupt(&mut k.body));
        let r = verify_kernel(&m, &k, 2, 3).unwrap();
        assert!(!r.bitexact);
        assert!(r.max_rel_diff > 1e-6);
    }
}
