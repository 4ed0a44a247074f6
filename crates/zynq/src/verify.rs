//! Functional verification of the hardware path.
//!
//! The simulated accelerator executes the same generated loop program
//! that HLS would synthesize ([`cgen::run_kernel`]); this module runs a
//! sample of CFD elements through a chain of them with randomized inputs
//! and compares every output word against the `teil` reference
//! interpreter. A single kernel is the one-kernel chain, so
//! [`verify_program`] is the one verifier. [`matches_the_definition`]
//! holds the interpreter itself to its multi-index walk
//! ([`Interpreter::run_reference`]), the definition both lane executors
//! are built against; `cfdc verify` runs it on its first element. Both
//! runners are one chain walk. Serving runs each completed request, after
//! the final schedule, through one [`PreparedChain`] per call, which
//! prepares every stage's kernel once; so does each worker of
//! [`verify_program`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use teil::ir::{Module, TensorDecl, TensorKind};
use teil::{Interpreter, Tensor};

/// Result of verifying `elements` random elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyResult {
    pub elements: usize,
    /// Maximum relative difference across all outputs and elements.
    pub max_rel_diff: f64,
    /// Whether every output matched bit-for-bit (same evaluation order).
    pub bitexact: bool,
}

/// The one chain walk. Stage `s` binds each input to the latest earlier
/// stage's output of that name, else to `external(decl)`, and
/// `stage(s, bound)` leaves its outputs in `bound`. A handoff is lent to
/// its consumer and taken back after it (unchanged: the frontend rejects
/// any assignment to an input), so each output is stored once. Yields
/// every output in chain order, keyed `"kernel.tensor"` by `names`.
fn walk_chain<'m, V: 'm>(
    names: &'m [String],
    modules: &[&'m Module],
    mut external: impl FnMut(&'m TensorDecl) -> Option<V>,
    mut stage: impl FnMut(usize, &mut HashMap<String, V>) -> Result<(), String>,
) -> Result<impl Iterator<Item = (String, V)> + 'm, String> {
    let mut outputs: Vec<(usize, &'m str, Option<V>)> = Vec::new();
    for (s, module) in modules.iter().enumerate() {
        let mut bound = HashMap::new();
        for d in decls(module, TensorKind::Input) {
            let n = &d.name;
            let value = match outputs.iter_mut().rev().find(|(_, p, _)| p == n) {
                Some((.., lent)) => lent.take().ok_or_else(|| {
                    format!("handoff '{n}' is bound twice in kernel '{}'", names[s])
                })?,
                None => external(d).ok_or_else(|| {
                    format!("missing external input '{n}' for kernel '{}'", names[s])
                })?,
            };
            bound.insert(n.clone(), value);
        }
        stage(s, &mut bound)?;
        for (_, n, lent) in outputs.iter_mut().filter(|(.., v)| v.is_none()) {
            let lost = || format!("kernel '{}' did not give back handoff '{n}'", names[s]);
            *lent = Some(bound.remove(*n).ok_or_else(lost)?);
        }
        for d in decls(module, TensorKind::Output) {
            let missing = || format!("output '{}' missing in kernel '{}'", d.name, names[s]);
            outputs.push((s, &d.name, Some(bound.remove(&d.name).ok_or_else(missing)?)));
        }
    }
    let key = move |(s, n, v): (usize, &str, Option<V>)| (format!("{}.{n}", names[s]), v);
    // Invariant: each stage gives back every handoff it was lent, or the walk failed above.
    Ok((outputs.into_iter().map(key)).map(|(k, v)| (k, v.expect("a lent handoff is taken back"))))
}

/// The declarations of `kind` in `module`, in declaration order.
fn decls(module: &Module, kind: TensorKind) -> impl Iterator<Item = &TensorDecl> {
    module.tensors.iter().filter(move |d| d.kind == kind)
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
    PreparedChain::new(names, modules, kernels).run(external)
}

/// A chained program to run on many input sets, as
/// [`run_program_chain`] runs one: each stage's generated kernel is
/// prepared once ([`cgen::PreparedKernel`]), by the first run that
/// reaches it, and every later run reuses it. Serving and
/// [`verify_program`] hold one for a call and drop it when the call
/// returns.
pub struct PreparedChain<'a> {
    names: &'a [String],
    modules: &'a [&'a Module],
    kernels: &'a [&'a cgen::CKernel],
    stages: Vec<Option<cgen::PreparedKernel<'a>>>,
}

impl<'a> PreparedChain<'a> {
    /// The chain of `kernels`, one per module; nothing is prepared yet.
    pub fn new(
        names: &'a [String],
        modules: &'a [&'a Module],
        kernels: &'a [&'a cgen::CKernel],
    ) -> PreparedChain<'a> {
        assert_eq!(modules.len(), kernels.len());
        PreparedChain {
            names,
            modules,
            kernels,
            stages: kernels.iter().map(|_| None).collect(),
        }
    }

    /// [`run_program_chain`] on `external`.
    pub fn run(
        &mut self,
        external: &HashMap<String, Tensor>,
    ) -> Result<HashMap<String, Vec<f64>>, String> {
        let (kernels, stages) = (self.kernels, &mut self.stages);
        let host = |d: &TensorDecl| external.get(&d.name).map(|t| t.data.clone());
        let outputs = walk_chain(self.names, self.modules, host, |s, mem| {
            for p in &kernels[s].params {
                if !mem.contains_key(&p.name) {
                    mem.insert(p.name.clone(), vec![0.0; p.words]);
                }
            }
            let mut stage = match stages[s].take() {
                Some(stage) => stage,
                None => cgen::PreparedKernel::new(kernels[s])?,
            };
            let ran = stage.run(mem).map(drop);
            stages[s] = Some(stage);
            ran
        });
        Ok(outputs?.collect())
    }
}

/// Run the reference interpreter over the chained program. Same handoff
/// semantics as [`run_program_chain`].
pub fn run_program_reference(
    names: &[String],
    modules: &[&Module],
    external: &HashMap<String, Tensor>,
) -> Result<HashMap<String, Tensor>, String> {
    interpret_chain(names, modules, external, |i, bound| i.run_computed(bound))
}

/// The interpreter over the chained program, each stage run by `walk`
/// ([`Interpreter::run_computed`], or [`Interpreter::run_reference`] as
/// its values), which borrows the bound inputs.
fn interpret_chain(
    names: &[String],
    modules: &[&Module],
    external: &HashMap<String, Tensor>,
    walk: impl Fn(&Interpreter, &HashMap<String, Tensor>) -> Result<Vec<Option<Tensor>>, String>,
) -> Result<HashMap<String, Tensor>, String> {
    let host = |d: &TensorDecl| external.get(&d.name).cloned();
    let outputs = walk_chain(names, modules, host, |s, bound| {
        let values = walk(&Interpreter::new(modules[s]), bound)?;
        for (t, d) in values.into_iter().zip(&modules[s].tensors) {
            if d.kind == TensorKind::Output {
                let missing =
                    || format!("output '{}' not computed in kernel '{}'", d.name, names[s]);
                bound.insert(d.name.clone(), t.ok_or_else(missing)?);
            }
        }
        Ok(())
    });
    Ok(outputs?.collect())
}

/// [`Interpreter::run_reference`]'s values as [`interpret_chain`] takes
/// them.
fn reference_walk(
    i: &Interpreter,
    inputs: &HashMap<String, Tensor>,
) -> Result<Vec<Option<Tensor>>, String> {
    Ok(i.run_reference(inputs)?
        .values
        .into_iter()
        .map(Some)
        .collect())
}

/// Random external inputs for a chained program: one tensor per
/// distinct external input name (program-global), drawn in chain order
/// as the walk binds them: each stage's inputs in declaration order,
/// except the names an earlier stage outputs (its handoffs).
pub fn random_program_inputs(modules: &[&Module], seed: u64) -> HashMap<String, Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut external: HashMap<String, Tensor> = HashMap::new();
    let mut produced: Vec<&str> = Vec::new();
    for module in modules {
        for d in decls(module, TensorKind::Input) {
            if !produced.contains(&d.name.as_str()) && !external.contains_key(&d.name) {
                let t = Tensor::from_fn(&d.shape, |_| rng.gen_range(-1.0..1.0));
                external.insert(d.name.clone(), t);
            }
        }
        produced.extend(decls(module, TensorKind::Output).map(|d| d.name.as_str()));
    }
    external
}

/// Whether the chained interpreter ([`run_program_reference`], a lane
/// at a time) equals its multi-index walk ([`Interpreter::run_reference`])
/// bit for bit on the inputs `seed` draws. The walk costs about ten
/// interpreter runs, so [`verify_program`], which compiles and set-up
/// checks call per design, leaves it to the caller.
pub fn matches_the_definition(
    names: &[String],
    modules: &[&Module],
    seed: u64,
) -> Result<bool, String> {
    let external = random_program_inputs(modules, seed);
    let lanes = run_program_reference(names, modules, &external)?;
    let walked = interpret_chain(names, modules, &external, reference_walk)?;
    Ok(compare(&walked, |key| &lanes[key].data, (0.0, true))?.1)
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
        let mut chain = PreparedChain::new(names, modules, kernels);
        (t * run..n.min((t + 1) * run)).try_fold((0.0, true), |acc, e| {
            verify_element(&mut chain, seed.wrapping_add(e as u64), acc)
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
    chain: &mut PreparedChain,
    seed: u64,
    acc: (f64, bool),
) -> Result<(f64, bool), String> {
    let external = random_program_inputs(chain.modules, seed);
    let expect = run_program_reference(chain.names, chain.modules, &external)?;
    let got = chain.run(&external)?;
    compare(&expect, |key| &got[key], acc)
}

/// Fold `expect` against `got` (keyed alike: every runner keys the chain
/// walk's outputs) into the running largest relative difference and
/// whether every word matched bit for bit.
fn compare<'a>(
    expect: &HashMap<String, Tensor>,
    got: impl Fn(&str) -> &'a [f64],
    (mut max_rel, mut bitexact): (f64, bool),
) -> Result<(f64, bool), String> {
    for (key, t) in expect {
        let g = got(key);
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
        compile_program(&cfdlang::examples::simulation_step(n))
    }

    fn compile_program(src: &str) -> (Vec<String>, Vec<Module>, Vec<cgen::CKernel>) {
        let set = cfdlang::check_set(&cfdlang::parse_set(src).unwrap()).unwrap();
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
    fn a_prepared_chain_reruns_as_fresh_chains_do() {
        // One preparation, three input sets: each run equals a fresh
        // `run_program_chain` on the same inputs, key for key and bit for
        // bit.
        let (names, modules, kernels) = setup_program(5);
        let mrefs: Vec<&Module> = modules.iter().collect();
        let krefs: Vec<&cgen::CKernel> = kernels.iter().collect();
        let mut chain = PreparedChain::new(&names, &mrefs, &krefs);
        for seed in [4, 9, 4] {
            let external = random_program_inputs(&mrefs, seed);
            let got = chain.run(&external).unwrap();
            let fresh = run_program_chain(&names, &mrefs, &krefs, &external).unwrap();
            assert_eq!(got.len(), fresh.len());
            for (key, values) in &fresh {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got[key]), bits(values), "seed {seed} '{key}'");
            }
        }
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

    /// Kernel `k0`'s output `y` is lent to both `k1` and `k2`, and the
    /// external `A` is read by `k0` and `k2`: the walk takes each handoff
    /// back after its consumer, and the draw binds each external once.
    #[test]
    fn a_handoff_lent_to_two_consumers_comes_back_to_each() {
        let src = "kernel k0 {\n\
                   \tvar input A : [3 3]\n\
                   \tvar input x : [3 3 3]\n\
                   \tvar output y : [3 3 3]\n\
                   \ty = A # A # A # x . [[1 6] [3 7] [5 8]]\n\
                   }\n\
                   kernel k1 {\n\
                   \tvar input D : [3 3 3]\n\
                   \tvar input y : [3 3 3]\n\
                   \tvar output z : [3 3 3]\n\
                   \tz = D * y\n\
                   }\n\
                   kernel k2 {\n\
                   \tvar input y : [3 3 3]\n\
                   \tvar input A : [3 3]\n\
                   \tvar output w : [3 3 3]\n\
                   \tw = A # A # A # y . [[0 6] [2 7] [4 8]]\n\
                   }\n";
        let (names, modules, kernels) = compile_program(src);
        let mrefs: Vec<&Module> = modules.iter().collect();
        let krefs: Vec<&cgen::CKernel> = kernels.iter().collect();
        for seed in [3u64, 17] {
            // Each external name drawn once, in the order the chain
            // first binds it: A and x by k0, then D by k1.
            let external = random_program_inputs(&mrefs, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |shape: &[usize]| Tensor::from_fn(shape, |_| rng.gen_range(-1.0..1.0));
            let expect = [
                ("A", draw(&[3, 3])),
                ("x", draw(&[3; 3])),
                ("D", draw(&[3; 3])),
            ];
            assert_eq!(external.len(), expect.len());
            for (n, t) in &expect {
                assert_eq!(&external[*n], t, "external '{n}'");
            }

            let got = run_program_chain(&names, &mrefs, &krefs, &external).unwrap();
            let want = run_program_reference(&names, &mrefs, &external).unwrap();
            let keys = ["k0.y", "k1.z", "k2.w"];
            assert_eq!(got.len(), keys.len());
            assert_eq!(want.len(), keys.len());
            for key in keys {
                let (g, w) = (&got[key], &want[key].data);
                assert_eq!(g.len(), w.len(), "{key}");
                assert!(
                    g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{key}"
                );
            }
        }
        let r = verify_program(&names, &mrefs, &krefs, 4, 5).unwrap();
        assert!(r.bitexact, "max rel diff {}", r.max_rel_diff);
    }

    /// `matches_the_definition`: the chained interpreter meets its
    /// multi-index walk bit for bit, on stages longer than one lane and on
    /// a three-stage chain, and `compare` flags a word that differs in its
    /// last bit.
    #[test]
    fn the_interpreter_chain_meets_its_multi_index_walk() {
        let sources = [
            cfdlang::examples::inverse_helmholtz(18),
            cfdlang::examples::simulation_step(5),
        ];
        for src in &sources {
            let (names, modules, kernels) = compile_program(src);
            let mrefs: Vec<&Module> = modules.iter().collect();
            let external = random_program_inputs(&mrefs, 23);
            let lanes = run_program_reference(&names, &mrefs, &external).unwrap();
            let walked = interpret_chain(&names, &mrefs, &external, reference_walk).unwrap();
            assert_eq!(
                compare(&walked, |k| &lanes[k].data, (0.0, true)),
                Ok((0.0, true))
            );
            let mut off = lanes.clone();
            let word = &mut off.values_mut().next().unwrap().data[0];
            *word = f64::from_bits(word.to_bits() ^ 1);
            assert!(!compare(&walked, |k| &off[k].data, (0.0, true)).unwrap().1);
            assert_eq!(matches_the_definition(&names, &mrefs, 23), Ok(true));
            let krefs: Vec<&cgen::CKernel> = kernels.iter().collect();
            assert!(
                verify_program(&names, &mrefs, &krefs, 2, 23)
                    .unwrap()
                    .bitexact
            );
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
