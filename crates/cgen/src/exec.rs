//! Direct execution of generated loop programs.
//!
//! This is the repository's stand-in for "compile the generated C and run
//! it": the loop program is executed over flat `f64` arrays, producing
//! both the functional result (validated against the `teil` interpreter)
//! and the operation counts that parameterize the ARM cost model for the
//! paper's *SW HLS code* measurement (Figure 10).
//!
//! Execution has two phases, both run once per call:
//!
//! * **resolve** walks the [`CKernel`] in program order and turns every
//!   name into a slot: arrays into positions of a `Vec<Vec<f64>>`,
//!   scalars into positions of a `Vec<f64>`, every [`ArrAccess`] into one
//!   running offset that each enclosing loop bumps by the access's
//!   coefficient at that loop's depth. Coefficients beyond the statement's
//!   own depth are dropped (an address may name fewer loops than are live,
//!   e.g. the write-back outside the reduction loops, so it aligns by
//!   prefix). Everything that can fail is decided here: an access is in
//!   bounds iff the extremes of its affine address over the enclosing
//!   extents are, and a scalar is declared before use iff it is in
//!   program order, because control flow does not depend on data. A loop
//!   of extent zero is dropped with its body, which is never evaluated.
//! * **walk** runs the resolved program. It cannot fail, allocates
//!   nothing and sees no name.
//!
//! [`ExecCounts`] come from the resolve phase in closed form: what one
//! visit of a statement costs times the product of the enclosing extents.
//! That is exact for the same reason the checks are static.

use crate::ir::{ArrAccess, CExpr, CKernel, CParam, CStmt};
use cfdlang::BinOp;
use std::collections::HashMap;

/// Operation counts of one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    pub fp_ops: u64,
    pub loads: u64,
    pub stores: u64,
    /// Integer multiplies spent on address computation.
    pub addr_muls: u64,
    /// Integer additions spent on address computation.
    pub addr_adds: u64,
    /// Loop iterations executed (innermost bodies).
    pub iters: u64,
}

/// Execute a kernel over named flat arrays. Arrays listed as parameters
/// must be present in `mem` with the right size; locals are allocated and
/// dropped internally. On an error `mem` is left as it came in.
pub fn run_kernel(k: &CKernel, mem: &mut HashMap<String, Vec<f64>>) -> Result<ExecCounts, String> {
    for p in &k.params {
        let a = mem
            .get(&p.name)
            .ok_or_else(|| format!("missing array '{}'", p.name))?;
        if a.len() != p.words {
            return Err(format!(
                "array '{}' has {} words, expected {}",
                p.name,
                a.len(),
                p.words
            ));
        }
    }
    let mut plan = resolve(k)?;
    let offsets = std::mem::take(&mut plan.offsets);
    // The caller's arrays are taken out of the map for the walk and put
    // back after it; nothing in between can fail.
    let (caller, locals) = plan.arrays.split_at(plan.caller_arrays);
    let mut walk = Walk {
        plan: &plan,
        arrays: caller
            .iter()
            .map(|p| std::mem::take(mem.get_mut(&p.name).expect("presence checked above")))
            .chain(locals.iter().map(|l| vec![0.0; l.words]))
            .collect(),
        offsets,
        scalars: vec![0.0; plan.scalars],
    };
    walk.run(0, plan.ops.len());
    for (p, a) in caller.iter().zip(walk.arrays) {
        *mem.get_mut(&p.name).expect("presence checked above") = a;
    }
    Ok(plan.counts)
}

/// The counts [`run_kernel`] returns for `k`, without executing it:
/// array sizes come from the kernel's own `params` and `locals`.
pub fn kernel_counts(k: &CKernel) -> Result<ExecCounts, String> {
    Ok(resolve(k)?.counts)
}

/// One statement of the resolved program. A loop's body follows its
/// header in [`Plan::ops`] and ends before `end`.
#[derive(Clone, Copy)]
enum Op {
    For {
        extent: usize,
        end: usize,
        /// The accesses of the body are `first..last` (they are numbered
        /// in program order), and `steps..` in [`Plan::steps`] holds what
        /// one iteration adds to each of their offsets.
        first: usize,
        last: usize,
        steps: usize,
    },
    Decl {
        scalar: usize,
        init: f64,
    },
    Accum {
        scalar: usize,
        expr: usize,
    },
    Store {
        array: usize,
        access: usize,
        expr: usize,
        accumulate: bool,
    },
}

/// One expression node; operands precede their operator in [`Plan::nodes`].
#[derive(Clone, Copy)]
enum Node {
    Const(f64),
    Scalar(usize),
    Load { array: usize, access: usize },
    Bin { op: BinOp, lhs: usize, rhs: usize },
}

struct Plan<'k> {
    /// Distinct arrays by name: the first `caller_arrays` are parameters
    /// (the caller's storage), the rest locals.
    arrays: Vec<&'k CParam>,
    caller_arrays: usize,
    ops: Vec<Op>,
    nodes: Vec<Node>,
    steps: Vec<usize>,
    /// Offset of every access with all loop variables at zero.
    offsets: Vec<usize>,
    scalars: usize,
    counts: ExecCounts,
}

struct Resolver<'k> {
    plan: Plan<'k>,
    scalars: Vec<&'k str>,
    /// Extents of the loops around the statement being resolved.
    extents: Vec<usize>,
    /// Per access, its coefficients cut to the depth of its statement.
    coeffs: Vec<&'k [i64]>,
    /// What one visit of the statement being resolved costs.
    visit: ExecCounts,
}

fn resolve(k: &CKernel) -> Result<Plan<'_>, String> {
    fn push_distinct<'k>(arrays: &mut Vec<&'k CParam>, more: &'k [CParam]) {
        for p in more {
            if !arrays.iter().any(|a| a.name == p.name) {
                arrays.push(p);
            }
        }
    }
    let mut arrays = Vec::with_capacity(k.params.len() + k.locals.len());
    push_distinct(&mut arrays, &k.params);
    let caller_arrays = arrays.len();
    push_distinct(&mut arrays, &k.locals);
    // A statement becomes at most one op; sized once, `ops` carries no
    // spare half of a grown vector through the walk.
    let mut stmts = 0;
    k.visit_stmts(&mut |_| stmts += 1);
    let mut r = Resolver {
        plan: Plan {
            arrays,
            caller_arrays,
            ops: Vec::with_capacity(stmts),
            nodes: Vec::new(),
            steps: Vec::new(),
            offsets: Vec::new(),
            scalars: 0,
            counts: ExecCounts::default(),
        },
        scalars: Vec::new(),
        extents: Vec::new(),
        coeffs: Vec::new(),
        visit: ExecCounts::default(),
    };
    r.stmts(&k.body, 1)?;
    r.plan.scalars = r.scalars.len();
    Ok(r.plan)
}

impl<'k> Resolver<'k> {
    /// Resolve `stmts`, each of which is visited `trips` times.
    fn stmts(&mut self, stmts: &'k [CStmt], trips: u64) -> Result<(), String> {
        for s in stmts {
            match s {
                CStmt::For { extent: 0, .. } => {}
                CStmt::For { extent, body, .. } => {
                    let trips = trips
                        .checked_mul(*extent as u64)
                        .ok_or("operation counts overflow")?;
                    // The header goes before the body; where the body's
                    // ops, accesses and steps end is known after it.
                    let (header, first) = (self.plan.ops.len(), self.coeffs.len());
                    let for_op = |end, last, steps| Op::For {
                        extent: *extent,
                        end,
                        first,
                        last,
                        steps,
                    };
                    self.plan.ops.push(for_op(0, 0, 0));
                    self.extents.push(*extent);
                    self.stmts(body, trips)?;
                    self.extents.pop();
                    self.plan.ops[header] = for_op(
                        self.plan.ops.len(),
                        self.coeffs.len(),
                        self.plan.steps.len(),
                    );
                    let depth = self.extents.len();
                    self.plan.steps.extend(
                        self.coeffs[first..]
                            .iter()
                            .map(|c| c.get(depth).map_or(0, |&c| c as usize)),
                    );
                }
                CStmt::DeclScalar { name, init } => {
                    let scalar = match self.scalars.iter().position(|s| s == name) {
                        Some(scalar) => scalar,
                        None => {
                            self.scalars.push(name);
                            self.scalars.len() - 1
                        }
                    };
                    let init = *init;
                    self.emit(Op::Decl { scalar, init }, trips)?;
                }
                CStmt::AccumScalar { name, expr } => {
                    let expr = self.expr(expr)?;
                    let scalar = self.scalar(name)?;
                    self.visit.fp_ops += 1;
                    self.visit.iters += 1;
                    self.emit(Op::Accum { scalar, expr }, trips)?;
                }
                CStmt::Store { target, expr } | CStmt::StoreAccum { target, expr } => {
                    let accumulate = matches!(s, CStmt::StoreAccum { .. });
                    let expr = self.expr(expr)?;
                    let (array, access) = self.access(target, "store")?;
                    self.visit.fp_ops += u64::from(accumulate);
                    self.visit.stores += 1;
                    self.visit.iters += 1;
                    let op = Op::Store {
                        array,
                        access,
                        expr,
                        accumulate,
                    };
                    self.emit(op, trips)?;
                }
            }
        }
        Ok(())
    }

    /// Finish the current statement: append its op and add `trips` visits
    /// of it to the kernel's counts.
    fn emit(&mut self, op: Op, trips: u64) -> Result<(), String> {
        self.plan.ops.push(op);
        let (c, v) = (&mut self.plan.counts, std::mem::take(&mut self.visit));
        for (total, per_visit) in [
            (&mut c.fp_ops, v.fp_ops),
            (&mut c.loads, v.loads),
            (&mut c.stores, v.stores),
            (&mut c.addr_muls, v.addr_muls),
            (&mut c.addr_adds, v.addr_adds),
            (&mut c.iters, v.iters),
        ] {
            *total = per_visit
                .checked_mul(trips)
                .and_then(|n| total.checked_add(n))
                .ok_or("operation counts overflow")?;
        }
        Ok(())
    }

    fn scalar(&self, name: &str) -> Result<usize, String> {
        self.scalars
            .iter()
            .position(|s| *s == name)
            .ok_or_else(|| format!("undeclared scalar '{name}'"))
    }

    /// Resolve an access of the current statement: its array's slot and
    /// its own offset slot. `kind` names it in the out-of-bounds message.
    fn access(&mut self, a: &'k ArrAccess, kind: &str) -> Result<(usize, usize), String> {
        let array = self
            .plan
            .arrays
            .iter()
            .position(|p| p.name == a.array)
            .ok_or_else(|| format!("unknown array '{}'", a.array))?;
        let depth = a.addr.coeffs.len().min(self.extents.len());
        let coeffs = &a.addr.coeffs[..depth];
        // Every enclosing extent is at least one, and the loop variables
        // range independently, so both extremes are reached.
        let (mut lo, mut hi) = (a.addr.constant as i128, a.addr.constant as i128);
        for (&c, &extent) in coeffs.iter().zip(&self.extents) {
            let span = c as i128 * (extent as i128 - 1);
            if span < 0 {
                lo += span;
            } else {
                hi += span;
            }
        }
        if lo < 0 || hi >= self.plan.arrays[array].words as i128 {
            let addr = if lo < 0 { lo } else { hi };
            return Err(format!("{kind} OOB: {}[{addr}]", a.array));
        }
        self.visit.addr_muls += a.addr.mul_terms() as u64;
        self.visit.addr_adds += a.addr.add_terms() as u64;
        self.coeffs.push(coeffs);
        self.plan.offsets.push(a.addr.constant as usize);
        Ok((array, self.coeffs.len() - 1))
    }

    /// Resolve an expression of the current statement to its root node.
    fn expr(&mut self, e: &'k CExpr) -> Result<usize, String> {
        let node = match e {
            CExpr::Const(c) => Node::Const(*c),
            CExpr::Var(name) => Node::Scalar(self.scalar(name)?),
            CExpr::Load(a) => {
                let (array, access) = self.access(a, "load")?;
                self.visit.loads += 1;
                Node::Load { array, access }
            }
            CExpr::Bin { op, lhs, rhs } => {
                let (lhs, rhs) = (self.expr(lhs)?, self.expr(rhs)?);
                self.visit.fp_ops += 1;
                Node::Bin { op: *op, lhs, rhs }
            }
        };
        self.plan.nodes.push(node);
        Ok(self.plan.nodes.len() - 1)
    }
}

/// The mutable state of one execution of a [`Plan`].
struct Walk<'p> {
    plan: &'p Plan<'p>,
    arrays: Vec<Vec<f64>>,
    /// Current offset of every access.
    offsets: Vec<usize>,
    scalars: Vec<f64>,
}

impl Walk<'_> {
    fn run(&mut self, mut pc: usize, end: usize) {
        while pc < end {
            match self.plan.ops[pc] {
                Op::For {
                    extent,
                    end: body_end,
                    first,
                    last,
                    steps,
                } => {
                    // Offsets wrap: past the last iteration an offset may
                    // leave the array (even go below zero) until the
                    // rewind brings it back; it is not read in between.
                    let steps = &self.plan.steps[steps..steps + (last - first)];
                    for _ in 0..extent {
                        self.run(pc + 1, body_end);
                        for (o, s) in self.offsets[first..last].iter_mut().zip(steps) {
                            *o = o.wrapping_add(*s);
                        }
                    }
                    for (o, s) in self.offsets[first..last].iter_mut().zip(steps) {
                        *o = o.wrapping_sub(s.wrapping_mul(extent));
                    }
                    pc = body_end;
                    continue;
                }
                Op::Decl { scalar, init } => self.scalars[scalar] = init,
                Op::Accum { scalar, expr } => self.scalars[scalar] += self.eval(expr),
                Op::Store {
                    array,
                    access,
                    expr,
                    accumulate,
                } => {
                    let v = self.eval(expr);
                    let slot = &mut self.arrays[array][self.offsets[access]];
                    if accumulate {
                        *slot += v;
                    } else {
                        *slot = v;
                    }
                }
            }
            pc += 1;
        }
    }

    fn eval(&self, node: usize) -> f64 {
        match self.plan.nodes[node] {
            Node::Const(c) => c,
            Node::Scalar(scalar) => self.scalars[scalar],
            Node::Load { array, access } => self.arrays[array][self.offsets[access]],
            Node::Bin { op, lhs, rhs } => {
                let (a, b) = (self.eval(lhs), self.eval(rhs));
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_kernel, CodegenOptions};
    use crate::ir::AffineAddr;
    use pschedule::{Dependences, KernelModel, Schedule, SchedulerOptions};
    use teil::interp::{inputs_from, Interpreter, Tensor};
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    /// Every kernel of `src` (a single kernel or a `kernel { .. }` set).
    fn setup_all(
        src: &str,
        factored: bool,
        decoupled: bool,
        rescheduled: bool,
    ) -> Vec<(teil::ir::Module, CKernel)> {
        let set = cfdlang::check_set(&cfdlang::parse_set(src).unwrap()).unwrap();
        set.kernels
            .iter()
            .map(|tk| {
                let mut m = lower(&tk.typed).unwrap();
                if factored {
                    m = factorize(&m);
                }
                let layout = LayoutPlan::row_major(&m);
                let km = KernelModel::build(&m, &layout);
                let s = if rescheduled {
                    let deps = Dependences::analyze(&km);
                    pschedule::reschedule(&m, &km, &deps, &SchedulerOptions)
                } else {
                    Schedule::reference(&km)
                };
                let opts = CodegenOptions { decoupled };
                let k = build_kernel(&m, &km, &s, &opts);
                (m, k)
            })
            .collect()
    }

    fn setup(src: &str, factored: bool, decoupled: bool) -> (teil::ir::Module, CKernel) {
        setup_all(src, factored, decoupled, false).remove(0)
    }

    fn rand_tensor(shape: &[usize], seed: usize) -> Tensor {
        Tensor::from_fn(shape, |idx| {
            let h = idx
                .iter()
                .enumerate()
                .fold(seed * 2654435761, |a, (d, &i)| {
                    a.wrapping_mul(31).wrapping_add(i * 7 + d)
                });
            ((h % 1000) as f64) / 499.5 - 1.0
        })
    }

    /// Every parameter filled with values (outputs and temporaries too:
    /// the kernel has to overwrite them).
    fn filled_params(k: &CKernel) -> HashMap<String, Vec<f64>> {
        k.params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), rand_tensor(&[p.words], i + 1).data))
            .collect()
    }

    /// Generated code must agree with the interpreter bit-for-bit when
    /// both use the same evaluation order (reference schedule).
    #[test]
    fn generated_code_matches_interpreter_exactly() {
        for factored in [false, true] {
            for decoupled in [true, false] {
                let (m, k) = setup(
                    &cfdlang::examples::inverse_helmholtz(5),
                    factored,
                    decoupled,
                );
                let s = rand_tensor(&[5, 5], 1);
                let d = rand_tensor(&[5, 5, 5], 2);
                let u = rand_tensor(&[5, 5, 5], 3);
                let ex = Interpreter::new(&m)
                    .run(&inputs_from(vec![
                        ("S", s.clone()),
                        ("D", d.clone()),
                        ("u", u.clone()),
                    ]))
                    .unwrap();
                let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
                for p in &k.params {
                    mem.insert(p.name.clone(), vec![0.0; p.words]);
                }
                mem.insert("S".into(), s.data.clone());
                mem.insert("D".into(), d.data.clone());
                mem.insert("u".into(), u.data.clone());
                run_kernel(&k, &mut mem).unwrap();
                let v_ref = ex.value(&m, "v").unwrap();
                assert_eq!(
                    mem["v"], v_ref.data,
                    "factored={factored} decoupled={decoupled}"
                );
            }
        }
    }

    #[test]
    fn axpy_kernel_runs() {
        let (m, k) = setup(&cfdlang::examples::axpy(3), false, true);
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.0; p.words]);
        }
        mem.insert("x".into(), vec![1.0; 27]);
        mem.insert("y".into(), vec![2.0; 27]);
        mem.insert("a".into(), vec![3.0]);
        run_kernel(&k, &mut mem).unwrap();
        assert!(mem["o"].iter().all(|&v| v == 5.0));
        drop(m);
    }

    #[test]
    fn op_counts_scale_with_volume() {
        let (_m, k) = setup(&cfdlang::examples::inverse_helmholtz(4), true, true);
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.0; p.words]);
        }
        let c = run_kernel(&k, &mut mem).unwrap();
        // 6 stages × 4^4 iterations × (1 mul + 1 acc) + hadamard 4^3.
        let stage_iters = 6 * 4u64.pow(4);
        assert_eq!(c.iters, stage_iters + 4u64.pow(3) + 6 * 4u64.pow(3));
        assert!(c.fp_ops >= 2 * stage_iters);
        assert!(c.addr_muls > 0, "flat addressing costs integer muls");
    }

    #[test]
    fn missing_array_is_error() {
        let (_m, k) = setup(&cfdlang::examples::axpy(2), false, true);
        let mut mem = HashMap::new();
        assert!(run_kernel(&k, &mut mem)
            .unwrap_err()
            .contains("missing array"));
    }

    #[test]
    fn wrong_size_is_error() {
        let (_m, k) = setup(&cfdlang::examples::axpy(2), false, true);
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.0; p.words + 1]);
        }
        assert!(run_kernel(&k, &mut mem).unwrap_err().contains("words"));
    }

    #[test]
    fn locals_are_cleaned_up() {
        let (_m, k) = setup(&cfdlang::examples::inverse_helmholtz(3), true, false);
        let mut mem: HashMap<String, Vec<f64>> = HashMap::new();
        for p in &k.params {
            mem.insert(p.name.clone(), vec![0.0; p.words]);
        }
        run_kernel(&k, &mut mem).unwrap();
        assert!(!mem.contains_key("t0"), "locals must not leak");
        assert!(mem.contains_key("v"));
    }

    // Hand-built kernels: `a` is a parameter of `words` words, `t` a
    // local of four.

    fn kernel(words: usize, body: Vec<CStmt>) -> CKernel {
        let array = |name: &str, words, role| CParam {
            name: name.into(),
            words,
            role,
        };
        CKernel {
            name: "hand_built".into(),
            params: vec![array("a", words, crate::ir::ParamRole::Output)],
            locals: vec![array("t", 4, crate::ir::ParamRole::Temp)],
            body,
        }
    }

    fn at(array: &str, coeffs: &[i64], constant: i64) -> ArrAccess {
        ArrAccess {
            array: array.into(),
            addr: AffineAddr {
                coeffs: coeffs.to_vec(),
                constant,
            },
        }
    }

    fn nest(extents: &[usize], body: Vec<CStmt>) -> CStmt {
        let mut body = body;
        for (d, &extent) in extents.iter().enumerate().rev() {
            body = vec![CStmt::For {
                var: format!("i{d}"),
                extent,
                body,
            }];
        }
        body.remove(0)
    }

    fn store(target: ArrAccess, expr: CExpr) -> CStmt {
        CStmt::Store { target, expr }
    }

    /// Run `k` on a parameter full of ones; an error must leave `mem`
    /// exactly as it came in.
    fn run_hand_built(k: &CKernel) -> Result<Vec<f64>, String> {
        let before: HashMap<String, Vec<f64>> = [
            ("a".to_string(), vec![1.0; k.params[0].words]),
            ("bystander".to_string(), vec![7.0; 3]),
        ]
        .into();
        let mut mem = before.clone();
        match run_kernel(k, &mut mem) {
            Ok(_) => {
                assert_eq!(mem.len(), 2, "locals must not leak");
                assert_eq!(mem["bystander"], before["bystander"]);
                Ok(mem.remove("a").unwrap())
            }
            Err(e) => {
                assert_eq!(mem, before, "a failing kernel must not touch mem");
                assert_eq!(kernel_counts(k), Err(e.clone()));
                Err(e)
            }
        }
    }

    #[test]
    fn failing_kernel_leaves_mem_as_it_came_in() {
        // The first statement is fine and writes both arrays; the second
        // is out of range. Nothing of either may be visible afterwards.
        let k = kernel(
            4,
            vec![
                nest(
                    &[4],
                    vec![
                        store(at("a", &[1], 0), CExpr::Const(2.0)),
                        store(at("t", &[1], 0), CExpr::Const(2.0)),
                    ],
                ),
                nest(&[5], vec![store(at("a", &[1], 0), CExpr::Const(3.0))]),
            ],
        );
        assert_eq!(run_hand_built(&k).unwrap_err(), "store OOB: a[4]");
    }

    #[test]
    fn out_of_range_addresses_are_errors_naming_the_array() {
        let load = |a| store(at("a", &[1], 0), CExpr::Load(a));
        for (stmt, message) in [
            (nest(&[4], vec![load(at("t", &[1], 1))]), "load OOB: t[4]"),
            (nest(&[4], vec![load(at("t", &[-1], 0))]), "load OOB: t[-3]"),
            (nest(&[4], vec![load(at("t", &[2], -1))]), "load OOB: t[-1]"),
            (
                nest(&[2, 4], vec![store(at("a", &[4, 1], 1), CExpr::Const(0.0))]),
                "store OOB: a[8]",
            ),
            (
                nest(
                    &[2, 4],
                    vec![store(at("a", &[-4, 1], 0), CExpr::Const(0.0))],
                ),
                "store OOB: a[-4]",
            ),
            (store(at("a", &[], 8), CExpr::Const(0.0)), "store OOB: a[8]"),
            (load(at("nowhere", &[], 0)), "unknown array 'nowhere'"),
            (
                store(at("nowhere", &[], 0), CExpr::Const(0.0)),
                "unknown array 'nowhere'",
            ),
        ] {
            assert_eq!(run_hand_built(&kernel(8, vec![stmt])).unwrap_err(), message);
        }
        // The same shapes, in range: a reversed and an offset traversal.
        let k = kernel(
            8,
            vec![nest(
                &[2, 4],
                vec![
                    store(at("t", &[0, -1], 3), CExpr::Const(5.0)),
                    store(at("a", &[4, -1], 3), CExpr::Load(at("t", &[0, -1], 3))),
                ],
            )],
        );
        assert_eq!(run_hand_built(&k).unwrap(), vec![5.0; 8]);
    }

    #[test]
    fn access_deeper_than_its_nest_aligns_by_prefix() {
        // Two coefficients under one loop: the second names a loop that
        // is not there and must not move the address (nor excuse it).
        let k = kernel(
            4,
            vec![nest(
                &[4],
                vec![store(at("a", &[1, 1000], 0), CExpr::Const(2.0))],
            )],
        );
        assert_eq!(run_hand_built(&k).unwrap(), vec![2.0; 4]);
        let k = kernel(
            4,
            vec![nest(
                &[5],
                vec![store(at("a", &[1, 1000], 0), CExpr::Const(2.0))],
            )],
        );
        assert_eq!(run_hand_built(&k).unwrap_err(), "store OOB: a[4]");
        // The dropped coefficient still costs what the emitted C spends.
        let counts = kernel_counts(&kernel(
            4,
            vec![nest(
                &[4],
                vec![store(at("a", &[1, 1000], 0), CExpr::Const(2.0))],
            )],
        ))
        .unwrap();
        assert_eq!((counts.addr_muls, counts.addr_adds), (4, 4));
    }

    #[test]
    fn scalars_must_be_declared_in_program_order() {
        let decl = || CStmt::DeclScalar {
            name: "acc".into(),
            init: 1.0,
        };
        let accum = || CStmt::AccumScalar {
            name: "acc".into(),
            expr: CExpr::Const(1.0),
        };
        let write_back = || store(at("a", &[], 0), CExpr::Var("acc".into()));
        let undeclared = "undeclared scalar 'acc'";
        for body in [
            vec![accum(), decl()],
            vec![write_back(), decl()],
            // First iteration accumulates before the declaration below it.
            vec![nest(&[3], vec![accum(), decl()])],
            // Declared only inside a loop that never runs.
            vec![nest(&[0], vec![decl()]), write_back()],
            vec![nest(&[2, 0, 2], vec![decl()]), accum()],
        ] {
            assert_eq!(run_hand_built(&kernel(1, body)).unwrap_err(), undeclared);
        }
        // Declared in a loop that runs, used after it; redeclared per
        // iteration.
        let k = kernel(
            1,
            vec![nest(&[3], vec![decl(), accum(), accum()]), write_back()],
        );
        assert_eq!(run_hand_built(&k).unwrap(), vec![3.0]);
    }

    #[test]
    fn zero_extent_loop_hides_its_body() {
        // Out of range, unknown and undeclared — and never evaluated.
        let dead = vec![
            store(at("a", &[1], 100), CExpr::Load(at("nowhere", &[], 0))),
            CStmt::AccumScalar {
                name: "acc".into(),
                expr: CExpr::Const(1.0),
            },
        ];
        for extents in [&[0][..], &[3, 0], &[0, 3]] {
            let k = kernel(2, vec![nest(extents, dead.clone())]);
            assert_eq!(run_hand_built(&k).unwrap(), vec![1.0; 2]);
            assert_eq!(kernel_counts(&k).unwrap(), ExecCounts::default());
        }
    }

    /// The definition the executor is held to: visit every statement
    /// instance in program order, take each address from
    /// [`AffineAddr::eval`] at the live loop variables, count per visit.
    #[derive(Default)]
    struct Definition {
        mem: HashMap<String, Vec<f64>>,
        scalars: HashMap<String, f64>,
        vars: Vec<i64>,
        counts: ExecCounts,
    }

    impl Definition {
        fn addr(&mut self, a: &ArrAccess) -> usize {
            self.counts.addr_muls += a.addr.mul_terms() as u64;
            self.counts.addr_adds += a.addr.add_terms() as u64;
            a.addr.eval(&self.vars) as usize
        }

        fn eval(&mut self, e: &CExpr) -> f64 {
            match e {
                CExpr::Const(c) => *c,
                CExpr::Var(name) => self.scalars[name],
                CExpr::Load(a) => {
                    self.counts.loads += 1;
                    let addr = self.addr(a);
                    self.mem[&a.array][addr]
                }
                CExpr::Bin { op, lhs, rhs } => {
                    let (a, b) = (self.eval(lhs), self.eval(rhs));
                    self.counts.fp_ops += 1;
                    match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                    }
                }
            }
        }

        fn run(&mut self, stmts: &[CStmt]) {
            for s in stmts {
                match s {
                    CStmt::For { extent, body, .. } => {
                        self.vars.push(0);
                        for i in 0..*extent as i64 {
                            *self.vars.last_mut().unwrap() = i;
                            self.run(body);
                        }
                        self.vars.pop();
                        continue;
                    }
                    CStmt::DeclScalar { name, init } => {
                        self.scalars.insert(name.clone(), *init);
                        continue;
                    }
                    CStmt::AccumScalar { name, expr } => {
                        let v = self.eval(expr);
                        *self.scalars.get_mut(name).unwrap() += v;
                        self.counts.fp_ops += 1;
                    }
                    CStmt::Store { target, expr } | CStmt::StoreAccum { target, expr } => {
                        let v = self.eval(expr);
                        let addr = self.addr(target);
                        let slot = &mut self.mem.get_mut(&target.array).unwrap()[addr];
                        if matches!(s, CStmt::StoreAccum { .. }) {
                            *slot += v;
                            self.counts.fp_ops += 1;
                        } else {
                            *slot = v;
                        }
                        self.counts.stores += 1;
                    }
                }
                self.counts.iters += 1;
            }
        }
    }

    /// `run_kernel` and `kernel_counts` against [`Definition`] on `k`.
    fn assert_meets_definition(k: &CKernel, what: &str) {
        let mut mem = filled_params(k);
        let mut def = Definition {
            mem: mem.clone(),
            ..Default::default()
        };
        for l in &k.locals {
            def.mem.insert(l.name.clone(), vec![0.0; l.words]);
        }
        def.run(&k.body);
        let counts = run_kernel(k, &mut mem).unwrap();
        assert_eq!(counts, def.counts, "{what}: counts");
        assert_eq!(kernel_counts(k), Ok(def.counts), "{what}: kernel_counts");
        assert_eq!(mem.len(), k.params.len(), "{what}: arrays");
        for (name, got) in &mem {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&def.mem[name]), "{what}: array '{name}'");
        }
    }

    #[test]
    fn executor_meets_the_definition_on_every_example() {
        use cfdlang::examples::*;
        let sources = [
            inverse_helmholtz(4),
            interpolation(3, 5),
            matrix_sandwich(4),
            axpy(3),
            simulation_step(3),
            axpy_chain(3),
        ];
        let (mut kernels, mut accumulators) = (0, 0);
        for (i, src) in sources.iter().enumerate() {
            for variant in 0..8 {
                let (factored, decoupled, rescheduled) =
                    (variant & 1 != 0, variant & 2 != 0, variant & 4 != 0);
                for (j, (_m, k)) in setup_all(src, factored, decoupled, rescheduled)
                    .iter()
                    .enumerate()
                {
                    let what = format!(
                        "example {i} kernel {j} factored={factored} \
                         decoupled={decoupled} rescheduled={rescheduled}"
                    );
                    assert_meets_definition(k, &what);
                    kernels += 1;
                    k.visit_stmts(&mut |s| {
                        accumulators += usize::from(matches!(s, CStmt::DeclScalar { .. }))
                    });
                }
            }
        }
        assert_eq!(kernels, 8 * (4 + 3 + 2));
        assert!(accumulators > 0, "the accumulator nest is covered");
    }

    #[test]
    fn executor_meets_the_definition_on_the_in_memory_accumulate_nest() {
        // A reduction loop moved outermost cannot use the accumulator:
        // the nest is zero-init plus `+=` into the array.
        let src = "var input S : [3 4]\nvar input u : [4]\nvar output o : [3]\no = S # u . [[1 2]]";
        let m = lower(&cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap()).unwrap();
        let km = KernelModel::build(&m, &LayoutPlan::row_major(&m));
        let mut s = Schedule::reference(&km);
        s.perms[0] = vec![1, 0];
        assert!(pschedule::legal(&km, &Dependences::analyze(&km), &s));
        let k = build_kernel(&m, &km, &s, &CodegenOptions::default());
        let mut accumulates = false;
        k.visit_stmts(&mut |st| accumulates |= matches!(st, CStmt::StoreAccum { .. }));
        assert!(accumulates);
        assert_meets_definition(&k, "reduction-outer matvec");
    }
}
