//! Direct execution of generated loop programs.
//!
//! This is the repository's stand-in for "compile the generated C and run
//! it": the loop program is executed over flat `f64` arrays, producing
//! both the functional result (validated against the `teil` interpreter)
//! and the operation counts that parameterize the ARM cost model for the
//! paper's *SW HLS code* measurement (Figure 10).
//!
//! Execution has three phases. The first two run once per
//! [`PreparedKernel`], the walk once per run of it; [`run_kernel`]
//! prepares and runs once:
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
//! * **plan lanes** marks the loop nests that run a lane at a time
//!   through the one lane planner, [`teil::lane`]: a perfect nest around
//!   one store (the lane spans the whole nest and is written along the
//!   target), around one accumulation (the lane spans the nest and is
//!   summed into the scalar), or the accumulator nest `s = init; for r…
//!   { s += e } X[..] = s` inside a perfect nest of output loops (the
//!   lane runs across the output points, each element with its own
//!   accumulator, and the reduction loops are walked inside it, in
//!   order, unless [`teil::lane::across`] finds the reduction fuller —
//!   then only the reduction nest runs lane-wise). A nest qualifies only
//!   if its expression reads neither the scalar it accumulates nor the
//!   array it stores to. Each marked nest gets its [`lane::Table`], the
//!   extents and per-access strides of its digits, built here once.
//!   **Lane order:** the points of a store or accumulator nest are
//!   independent when, besides that condition, its store's address is
//!   injective over the lane digits. The planner proves that from the
//!   store's strides: taken largest first, each lane digit's stride must
//!   exceed the span of the digits after it. Such a nest's lane digits
//!   are put in the store's order, largest stride first, which is the
//!   order the interpreter's row-major result is written in, so its
//!   chunks gather and scatter along consecutive words. An accumulation
//!   nest, and a nest whose store is not proven injective, keeps program
//!   order. Every point's own sum keeps its order, and the point whose
//!   every lane digit is at its last value comes last in either order,
//!   so an accumulator's scalar ends as program order leaves it.
//!   [`kernel_counts`] skips this phase.
//! * **walk** runs the resolved program. It cannot fail, allocates
//!   nothing and sees no name. A marked nest runs through
//!   [`teil::lane::run`]: each expression node over up to
//!   [`teil::lane::W`] consecutive points of the lane box, a load a
//!   gather at each point's own offset, a constant or scalar a broadcast,
//!   an operator element-wise. Every point does the same operations on
//!   the same operands, every sum keeps its order, and no point reads
//!   what another wrote — the condition the planning checks — so the
//!   values are those of running the nest point by point, which every
//!   other loop does.
//!
//! [`ExecCounts`] come from the resolve phase in closed form: what one
//! visit of a statement costs times the product of the enclosing extents.
//! That is exact for the same reason the checks are static.

use crate::ir::{ArrAccess, CExpr, CKernel, CParam, CStmt};
use cfdlang::BinOp;
use std::collections::HashMap;
use teil::lane;

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

/// Execute a kernel over named flat arrays: [`PreparedKernel::new`], then
/// one [`PreparedKernel::run`].
pub fn run_kernel(k: &CKernel, mem: &mut HashMap<String, Vec<f64>>) -> Result<ExecCounts, String> {
    PreparedKernel::new(k)?.run(mem)
}

/// The counts [`run_kernel`] returns for `k`, without executing it:
/// array sizes come from the kernel's own `params` and `locals`.
pub fn kernel_counts(k: &CKernel) -> Result<ExecCounts, String> {
    Ok(resolve(k)?.counts)
}

/// A kernel resolved and lane-planned once, to be run any number of
/// times. It keeps the storage of the kernel's locals, its offsets and
/// scalars between runs, and a run leaves them as a fresh kernel starts
/// them (locals and scalars zero, offsets at the resolved origin), so
/// every run equals a [`run_kernel`] call bit for bit.
pub struct PreparedKernel<'k> {
    params: &'k [CParam],
    plan: Plan<'k>,
    state: State,
}

impl<'k> PreparedKernel<'k> {
    /// Resolve and plan `k`; fails where [`kernel_counts`] fails.
    pub fn new(k: &'k CKernel) -> Result<PreparedKernel<'k>, String> {
        let mut plan = resolve(k)?;
        plan.most = plan_lanes(&mut plan);
        compact(&mut plan);
        let state = State {
            arrays: (plan.arrays.iter().enumerate())
                .map(|(slot, a)| match slot < plan.caller_arrays {
                    true => Vec::new(),
                    false => vec![0.0; a.words],
                })
                .collect(),
            offsets: std::mem::take(&mut plan.offsets),
            scalars: vec![0.0; plan.scalars],
        };
        Ok(PreparedKernel {
            params: &k.params,
            plan,
            state,
        })
    }

    /// Execute the kernel over named flat arrays. Arrays listed as
    /// parameters must be present in `mem` with the right size; on an
    /// error `mem` is left as it came in.
    pub fn run(&mut self, mem: &mut HashMap<String, Vec<f64>>) -> Result<ExecCounts, String> {
        for p in self.params {
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
        // The caller's arrays are taken out of the map for the walk and put
        // back after it; nothing in between can fail.
        let (plan, st) = (&self.plan, &mut self.state);
        for (slot, p) in st.arrays.iter_mut().zip(&plan.arrays[..plan.caller_arrays]) {
            *slot = std::mem::take(mem.get_mut(&p.name).expect("presence checked above"));
        }
        let places = vec![lane::Place::new(0); plan.most];
        Walk { plan, st, places }.run(0, plan.ops.len());
        // The state goes back to what a fresh kernel starts from; the walk
        // has rewound every offset already.
        let (caller, locals) = st.arrays.split_at_mut(plan.caller_arrays);
        for (slot, p) in caller.iter_mut().zip(&plan.arrays) {
            *mem.get_mut(&p.name).expect("presence checked above") = std::mem::take(slot);
        }
        locals.iter_mut().for_each(|l| l.fill(0.0));
        st.scalars.fill(0.0);
        Ok(plan.counts)
    }
}

/// What one run of a [`PreparedKernel`] changes.
struct State {
    /// Every array by slot: a caller's is empty outside a run, a local
    /// keeps its storage.
    arrays: Vec<Vec<f64>>,
    /// Current offset of every access; at the resolved origin outside a
    /// run, since every loop rewinds what it added.
    offsets: Vec<usize>,
    /// Every scalar; zero outside a run.
    scalars: Vec<f64>,
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
        /// The outermost loop of a nest that runs a lane at a time: its
        /// place in [`Plan::nests`].
        nest: Option<usize>,
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

/// A loop nest that runs a lane at a time ([`lane::run`]), as
/// [`plan_lanes`] found it: the `lane` loops from its header on and, in
/// an accumulator nest, the reduction loops after the declaration.
struct Nest {
    lane: usize,
    /// The lane digits in the order the lane walks them (see the module
    /// docs), then the reduction digits; one stride row per access.
    table: lane::Table,
    /// The nest's accesses are the plan's `first..last`.
    first: usize,
    last: usize,
    expr: usize,
    /// What each point's accumulator starts from.
    init: f64,
    /// The scalar the nest accumulates into or leaves.
    scalar: Option<usize>,
    store: Option<Target>,
}

/// A nest's store: the array, the access and whether it adds.
#[derive(Clone, Copy)]
struct Target {
    array: usize,
    access: usize,
    accumulate: bool,
    /// The store is the nest's last access and writes lane point `i` `i`
    /// words past its origin (its lane strides, in walk order, are those
    /// of a row-major box): the walk does not place it, and writes each
    /// chunk from its first point on.
    dense: bool,
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
    nests: Vec<Nest>,
    nodes: Vec<Node>,
    steps: Vec<usize>,
    /// Offset of every access with all loop variables at zero (a
    /// [`PreparedKernel`] moves them to its [`State`]).
    offsets: Vec<usize>,
    scalars: usize,
    /// The most accesses a lane nest has.
    most: usize,
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
            nests: Vec::new(),
            nodes: Vec::new(),
            steps: Vec::new(),
            offsets: Vec::new(),
            scalars: 0,
            most: 0,
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
                        nest: None,
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

/// Mark every loop nest of `plan` that runs a lane at a time, outermost
/// first, and plan it ([`nest_at`]); returns the most accesses one of
/// them has. Only a [`PreparedKernel`] plans lanes: [`kernel_counts`]
/// never pays for it.
fn plan_lanes(plan: &mut Plan) -> usize {
    let (mut most, mut pc) = (0, 0);
    while pc < plan.ops.len() {
        let Some(found) = nest_at(plan, pc) else {
            pc += 1;
            continue;
        };
        most = most.max(found.last - found.first);
        if let Op::For { end, nest, .. } = &mut plan.ops[pc] {
            *nest = Some(plan.nests.len());
            pc = *end;
        }
        plan.nests.push(found);
    }
    most
}

/// Keep of `plan`'s ops and steps only what the walk reads: a lane
/// nest's header stays, the ops inside it and their loops' steps go (its
/// table holds what it needs); `end` and `steps` are renumbered.
fn compact(plan: &mut Plan) {
    fn keep(plan: &Plan, pcs: std::ops::Range<usize>, ops: &mut Vec<Op>, steps: &mut Vec<usize>) {
        let mut pc = pcs.start;
        while pc < pcs.end {
            let Op::For {
                extent,
                end,
                first,
                last,
                steps: s,
                nest,
            } = plan.ops[pc]
            else {
                ops.push(plan.ops[pc]);
                pc += 1;
                continue;
            };
            let (header, at) = (ops.len(), steps.len());
            ops.push(plan.ops[pc]);
            if nest.is_none() {
                steps.extend_from_slice(&plan.steps[s..s + (last - first)]);
                keep(plan, pc + 1..end, ops, steps);
            }
            ops[header] = Op::For {
                extent,
                end: ops.len(),
                first,
                last,
                steps: at,
                nest,
            };
            pc = end;
        }
    }
    let (mut ops, mut steps) = (Vec::new(), Vec::new());
    keep(plan, 0..plan.ops.len(), &mut ops, &mut steps);
    (plan.ops, plan.steps) = (ops, steps);
    // A prepared kernel lives for many runs: no spare capacity.
    plan.ops.shrink_to_fit();
    plan.steps.shrink_to_fit();
    plan.nodes.shrink_to_fit();
    plan.nests.shrink_to_fit();
}

/// The nest whose outermost loop is `ops[pc]`, if it runs a lane at a
/// time: a perfect nest of loops around
/// - one store or `+=` store whose expression does not read its array
///   (the lane spans the nest and is written along the target),
/// - one accumulation whose expression does not read its scalar (the
///   lane spans the nest and is summed into the scalar), or
/// - an accumulator nest `s = init; for … { s += e } X[..] = s` whose
///   expression reads neither `s` nor `X`, where [`lane::across`] holds:
///   the lane spans the outer loops, one accumulator per point, and the
///   reduction loops are walked inside it.
///
/// A lane evaluates several points' expressions before the first result
/// lands, hence the conditions on what the expression reads.
fn nest_at(plan: &Plan, pc: usize) -> Option<Nest> {
    let ops = &plan.ops;
    let (lane, points, end) = chain(ops, pc);
    let body = pc + lane;
    let Op::For { first, last, .. } = ops[pc] else {
        return None;
    };
    if body == end {
        return None;
    }
    let reads = |expr, hit: &dyn Fn(Node) -> bool| reads(&plan.nodes, expr, hit);
    let target = |array, access, accumulate| {
        Some(Target {
            array,
            access,
            accumulate,
            dense: false,
        })
    };
    let (inner, expr, init, scalar, store) = match ops[body] {
        Op::Store {
            array,
            access,
            expr,
            accumulate,
        } if end == body + 1 => {
            let own = |n| matches!(n, Node::Load { array: a, .. } if a == array);
            if reads(expr, &own) {
                return None;
            }
            (0, expr, 0.0, None, target(array, access, accumulate))
        }
        Op::Accum { scalar, expr } if end == body + 1 => {
            let own = |n| matches!(n, Node::Scalar(s) if s == scalar);
            if reads(expr, &own) {
                return None;
            }
            (0, expr, 0.0, Some(scalar), None)
        }
        Op::Decl { scalar, init } => {
            let (inner, red, inner_end) = chain(ops, body + 1);
            let (
                Op::Accum { scalar: s, expr },
                Op::Store {
                    array,
                    access,
                    expr: x,
                    accumulate,
                },
            ) = (ops[inner_end - 1], *ops.get(inner_end)?)
            else {
                return None;
            };
            let own = |n| {
                matches!(n, Node::Scalar(s) if s == scalar)
                    || matches!(n, Node::Load { array: a, .. } if a == array)
            };
            let holds = inner > 0
                && inner_end == body + inner + 2
                && end == inner_end + 1
                && s == scalar
                && matches!(plan.nodes[x], Node::Scalar(s) if s == scalar)
                && !reads(expr, &own)
                && lane::across(points, red);
            if !holds {
                return None;
            }
            let store = target(array, access, accumulate);
            (inner, expr, init, Some(scalar), store)
        }
        _ => return None,
    };
    let mut table = digits(plan, pc, lane, inner, first..last);
    let mut store = store;
    if let Some(t) = &mut store {
        if let Some(order) = store_order(&table, lane, t.access - first) {
            table = reorder(&table, &order);
        }
        t.dense = t.access + 1 == last && dense(&table, lane, t.access - first);
    }
    Some(Nest {
        lane,
        table,
        first,
        last,
        expr,
        init,
        scalar,
        store,
    })
}

/// The digits of the nest at `ops[pc]`, whose accesses are `accesses`,
/// in program order: the `lane` loops, then, past an accumulator's
/// declaration, the `inner` reduction loops.
fn digits(
    plan: &Plan,
    pc: usize,
    lane: usize,
    inner: usize,
    accesses: std::ops::Range<usize>,
) -> lane::Table {
    let loops = (pc..pc + lane).chain(pc + lane + 1..pc + lane + 1 + inner);
    let (n, first) = (lane + inner, accesses.start);
    let mut t = lane::Table {
        extents: Vec::with_capacity(n),
        strides: vec![0; accesses.len() * n],
    };
    for (d, pc) in loops.enumerate() {
        if let Op::For {
            extent,
            last,
            steps,
            ..
        } = plan.ops[pc]
        {
            t.extents.push(extent);
            // A reduction loop does not contain the write-back after it,
            // whose stride along it stays zero.
            for a in 0..last - first {
                t.strides[a * n + d] = plan.steps[steps + a];
            }
        }
    }
    t
}

/// The lane digits `..lane` of `t` in the order of access `a`, the
/// nest's store, largest stride first, if that order proves the store
/// injective over them: each digit of extent above one must step
/// further than the digits after it span together. Then no two lane
/// points write one element.
fn store_order(t: &lane::Table, lane: usize, a: usize) -> Option<Vec<usize>> {
    let n = t.extents.len();
    let stride = |d: usize| (t.strides[a * n + d] as isize).unsigned_abs();
    let mut order: Vec<usize> = (0..lane).collect();
    order.sort_by_key(|&d| std::cmp::Reverse(stride(d)));
    let mut span = 0;
    for &d in order.iter().rev().filter(|&&d| t.extents[d] > 1) {
        if stride(d) <= span {
            return None;
        }
        // In bounds: the resolver checked the address's extremes, which
        // lie `span` apart.
        span += stride(d) * (t.extents[d] - 1);
    }
    Some(order)
}

/// Whether access `a` of `t` steps through the lane digits `..lane` as
/// through a row-major box: each digit of extent above one by the points
/// of the digits after it.
fn dense(t: &lane::Table, lane: usize, a: usize) -> bool {
    let n = t.extents.len();
    let mut points = 1;
    for d in (0..lane).rev() {
        let x = t.extents[d];
        if x > 1 && t.strides[a * n + d] != points {
            return false;
        }
        points *= x;
    }
    true
}

/// `t` with its first `order.len()` digits taken in `order`.
fn reorder(t: &lane::Table, order: &[usize]) -> lane::Table {
    let lane = order.len();
    let permute = |row: &[usize]| -> Vec<usize> {
        let rest = row[lane..].iter();
        order.iter().map(|&d| row[d]).chain(rest.copied()).collect()
    };
    lane::Table {
        extents: permute(&t.extents),
        strides: t
            .strides
            .chunks(t.extents.len())
            .flat_map(permute)
            .collect(),
    }
}

/// The perfect nest of loops from `ops[pc]` on: how many loops, their
/// points, and where the outermost one ends (`pc` and one point if there
/// is no loop at `pc`).
fn chain(ops: &[Op], pc: usize) -> (usize, usize, usize) {
    let Some(&Op::For { end, .. }) = ops.get(pc) else {
        return (0, 1, pc);
    };
    let (mut loops, mut points) = (0, 1);
    while let Some(&Op::For { extent, end: e, .. }) = ops.get(pc + loops) {
        if e != end {
            break;
        }
        (loops, points) = (loops + 1, points * extent);
    }
    (loops, points, end)
}

/// Whether the expression rooted at `node` has a node for which `hit`
/// holds.
fn reads(nodes: &[Node], node: usize, hit: &dyn Fn(Node) -> bool) -> bool {
    let n = nodes[node];
    hit(n)
        || matches!(n, Node::Bin { lhs, rhs, .. } if reads(nodes, lhs, hit) || reads(nodes, rhs, hit))
}

/// One run of a [`Plan`] over its [`State`].
struct Walk<'p> {
    plan: &'p Plan<'p>,
    st: &'p mut State,
    /// Room for every access of the largest lane nest.
    places: Vec<lane::Place>,
}

impl Walk<'_> {
    fn run(&mut self, mut pc: usize, end: usize) {
        let plan = self.plan;
        while pc < end {
            match plan.ops[pc] {
                Op::For {
                    extent,
                    end: body_end,
                    first,
                    last,
                    steps,
                    nest,
                } => {
                    if let Some(nest) = nest {
                        self.run_nest(&plan.nests[nest]);
                        pc = body_end;
                        continue;
                    }
                    let steps = &plan.steps[steps..steps + (last - first)];
                    // Offsets wrap: past the last iteration an offset may
                    // leave the array (even go below zero) until the
                    // rewind brings it back; it is not read in between.
                    for _ in 0..extent {
                        self.run(pc + 1, body_end);
                        for (o, s) in self.st.offsets[first..last].iter_mut().zip(steps) {
                            *o = o.wrapping_add(*s);
                        }
                    }
                    for (o, s) in self.st.offsets[first..last].iter_mut().zip(steps) {
                        *o = o.wrapping_sub(s.wrapping_mul(extent));
                    }
                    pc = body_end;
                    continue;
                }
                Op::Decl { scalar, init } => self.st.scalars[scalar] = init,
                Op::Accum { scalar, expr } => self.st.scalars[scalar] += self.eval(expr),
                Op::Store {
                    array,
                    access,
                    expr,
                    accumulate,
                } => {
                    let v = self.eval(expr);
                    let slot = &mut self.st.arrays[array][self.st.offsets[access]];
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

    /// Run `nest` a lane at a time (see [`nest_at`] for its three
    /// shapes).
    fn run_nest(&mut self, nest: &Nest) {
        let st = &mut *self.st;
        let dense = nest.store.is_some_and(|t| t.dense);
        let places_of_nest = &mut self.places[..nest.last - nest.first - usize::from(dense)];
        for (p, &o) in places_of_nest.iter_mut().zip(&st.offsets[nest.first..]) {
            *p = lane::Place::new(o);
        }
        // A store's target is set aside while the lanes are written: the
        // expression does not read it.
        let mut target = nest.store.map(|t| std::mem::take(&mut st.arrays[t.array]));
        let origin = nest.store.map_or(0, |t| st.offsets[t.access]);
        let mut value = nest.scalar.map_or(0.0, |s| st.scalars[s]);
        let view = NestLanes {
            nodes: &self.plan.nodes,
            st,
            first: nest.first,
        };
        let take = |start: usize, l: &[f64], at: &[lane::Place]| match (&mut target, nest.store) {
            (Some(data), Some(t)) => {
                if t.dense {
                    lane::put(&mut data[origin + start..][..l.len()], l, t.accumulate);
                } else {
                    lane::scatter(data, &at[t.access - nest.first], l, t.accumulate);
                }
                // An accumulator ends as the last point left it.
                value = l[l.len() - 1];
            }
            _ => value = lane::sum(value, l),
        };
        let (expr, init) = (nest.expr, nest.init);
        lane::run(
            &view,
            &nest.table,
            expr,
            nest.lane,
            places_of_nest,
            init,
            take,
        );
        if let Some(scalar) = nest.scalar {
            st.scalars[scalar] = value;
        }
        if let (Some(t), Some(data)) = (nest.store, target) {
            st.arrays[t.array] = data;
        }
    }

    fn eval(&self, node: usize) -> f64 {
        match self.plan.nodes[node] {
            Node::Const(c) => c,
            Node::Scalar(scalar) => self.st.scalars[scalar],
            Node::Load { array, access } => self.st.arrays[array][self.st.offsets[access]],
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

/// A lane nest's expression at the walk's current state, as the lane
/// kernel sees it: access `a` is the plan's access `first + a`, row `a`
/// of the nest's [`lane::Table`].
struct NestLanes<'w> {
    nodes: &'w [Node],
    st: &'w State,
    first: usize,
}

impl lane::Lanes for NestLanes<'_> {
    type Node = usize;

    fn term(&self, node: usize) -> lane::Term<'_, usize> {
        match self.nodes[node] {
            Node::Const(c) => lane::Term::Splat(c),
            Node::Scalar(scalar) => lane::Term::Splat(self.st.scalars[scalar]),
            Node::Load { array, access } => lane::Term::Gather {
                data: &self.st.arrays[array],
                access: access - self.first,
            },
            Node::Bin { op, lhs, rhs } => lane::Term::Bin(op, lhs, rhs),
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
    use teil::transform::{cse, dce, factorize};

    /// Every kernel of `src` (a single kernel or a `kernel { .. }` set),
    /// cleaned up as the compile flow does it or not.
    fn setup_flow(
        src: &str,
        factored: bool,
        clean: bool,
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
                if clean {
                    m = dce(&cse(&m));
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

    /// Every kernel of `src` as lowered, without the clean-up.
    fn setup_all(
        src: &str,
        factored: bool,
        decoupled: bool,
        rescheduled: bool,
    ) -> Vec<(teil::ir::Module, CKernel)> {
        setup_flow(src, factored, false, decoupled, rescheduled)
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
    fn executor_meets_the_definition_on_generated_kernels() {
        // Every stage of the generated programs, with and without
        // factorisation, under the reference and the compiled schedule.
        let mut cov = crate::generator::Coverage::default();
        let (mut kernels, mut across) = (0, 0);
        for seed in 0..crate::generator::program_count() {
            let (source, _) = crate::generator::program(seed, &mut cov);
            for variant in 0..4 {
                let (factored, rescheduled) = (variant & 1 != 0, variant & 2 != 0);
                for (j, (_m, k)) in setup_flow(&source, factored, true, true, rescheduled)
                    .iter()
                    .enumerate()
                {
                    let what = format!(
                        "seed {seed} kernel {j} factored={factored} rescheduled={rescheduled}\n{source}"
                    );
                    assert_meets_definition(k, &what);
                    kernels += 1;
                    across += lane_nests(k).iter().filter(|n| n.1 > 0).count();
                }
            }
        }
        let n = crate::generator::program_count() as usize;
        assert!(kernels >= 4 * n, "{kernels} kernels");
        // Nests whose lane runs across output points, each element with
        // its own accumulator, ran: the check is not vacuous.
        assert!(across >= n, "{across} accumulator nests across outputs");
    }

    #[test]
    fn simulation_step_runs_its_contractions_across_outputs() {
        // The served program, compiled: every factorised contraction is
        // an accumulator nest whose lane runs across its 343 outputs
        // (3 + 6 + 3), and the Hadamard product a store nest over 7 × 7 × 7.
        let mut nests = Vec::new();
        for (_m, k) in setup_flow(
            &cfdlang::examples::simulation_step(7),
            true,
            true,
            true,
            true,
        ) {
            assert_meets_definition(&k, "simulation_step(7)");
            nests.extend(lane_nests(&k));
        }
        let count = |lane, inner| nests.iter().filter(|n| (n.0, n.1) == (lane, inner)).count();
        assert_eq!((count(3, 1), count(3, 0), nests.len()), (12, 1, 13));
        // The rescheduled loop order is not the store's in 7 of them,
        // whose lanes walk in store order.
        assert_eq!(nests.iter().filter(|n| n.2).count(), 7);
    }

    /// The nests of `k` that run a lane at a time, in program order: their
    /// lane and reduction digits, and whether the lane walks its points
    /// in another order than the program's (the store's).
    fn lane_nests(k: &CKernel) -> Vec<(usize, usize, bool)> {
        let mut plan = resolve(k).unwrap();
        plan_lanes(&mut plan);
        (plan.ops.iter().enumerate())
            .filter_map(|(pc, op)| match *op {
                Op::For { nest: Some(n), .. } => Some((pc, &plan.nests[n])),
                _ => None,
            })
            .map(|(pc, n)| {
                let inner = n.table.extents.len() - n.lane;
                let program = digits(&plan, pc, n.lane, inner, n.first..n.last);
                (n.lane, inner, n.table != program)
            })
            .collect()
    }

    #[test]
    fn leaf_loops_meet_the_definition_a_lane_at_a_time() {
        // `x` is an input of 80 words next to the hand-built `a`.
        let with_x = |words, body| {
            let mut k = kernel(words, body);
            k.params.push(CParam {
                name: "x".into(),
                words: 80,
                role: crate::ir::ParamRole::Input,
            });
            k
        };
        let load = |array, coeffs: &[i64], constant| CExpr::Load(at(array, coeffs, constant));
        let bin = |op, lhs, rhs| CExpr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        let decl = || CStmt::DeclScalar {
            name: "acc".into(),
            init: 0.5,
        };
        let accum = |expr| CStmt::AccumScalar {
            name: "acc".into(),
            expr,
        };
        let acc = || CExpr::Var("acc".into());
        let cases = [
            (
                "a store reading its own target one instance behind",
                with_x(
                    8,
                    vec![nest(
                        &[7],
                        vec![store(
                            at("a", &[1], 1),
                            bin(BinOp::Mul, load("a", &[1], 0), CExpr::Const(2.0)),
                        )],
                    )],
                ),
                &[][..],
            ),
            (
                "an accumulation reading its accumulator",
                with_x(
                    2,
                    vec![
                        decl(),
                        nest(
                            &[5],
                            vec![accum(bin(BinOp::Mul, acc(), load("x", &[1], 0)))],
                        ),
                        store(at("a", &[], 1), acc()),
                    ],
                ),
                &[],
            ),
            (
                "leaves of extent one",
                with_x(
                    3,
                    vec![
                        decl(),
                        nest(
                            &[3, 1],
                            vec![CStmt::StoreAccum {
                                target: at("a", &[1, 1], 0),
                                expr: bin(BinOp::Div, load("x", &[1, 1], 2), acc()),
                            }],
                        ),
                        nest(&[1], vec![accum(load("x", &[5], 7))]),
                        store(at("a", &[], 2), acc()),
                    ],
                ),
                &[(2, 0), (1, 0)],
            ),
            (
                "leaves longer than a lane",
                with_x(
                    40,
                    vec![
                        nest(
                            &[40],
                            vec![store(
                                at("a", &[1], 0),
                                bin(BinOp::Add, load("x", &[1], 0), load("x", &[1], 40)),
                            )],
                        ),
                        nest(
                            &[2],
                            vec![
                                decl(),
                                nest(
                                    &[37],
                                    vec![accum(bin(
                                        BinOp::Mul,
                                        load("x", &[40, 1], 3),
                                        load("a", &[0, 1], 0),
                                    ))],
                                ),
                                store(at("a", &[1], 38), acc()),
                            ],
                        ),
                    ],
                ),
                // The accumulator nest reads the array it stores (`a`),
                // so only its reduction runs a lane at a time.
                &[(1, 0), (1, 0)],
            ),
            (
                "negative steps",
                with_x(
                    20,
                    vec![nest(
                        &[2, 20],
                        vec![CStmt::StoreAccum {
                            target: at("a", &[0, -1], 19),
                            expr: bin(BinOp::Sub, load("x", &[40, -2], 39), load("x", &[0, 1], 0)),
                        }],
                    )],
                ),
                &[(2, 0)],
            ),
            (
                "an accumulator nest reading the array it stores",
                with_x(
                    8,
                    vec![nest(
                        &[6],
                        vec![
                            decl(),
                            nest(
                                &[5],
                                vec![accum(bin(
                                    BinOp::Mul,
                                    load("x", &[5, 1], 0),
                                    load("a", &[0, 1], 0),
                                ))],
                            ),
                            store(at("a", &[1], 0), acc()),
                        ],
                    )],
                ),
                &[(1, 0)],
            ),
            (
                "an unfactorised contraction with three reduction digits",
                with_x(
                    20,
                    vec![nest(
                        &[4, 5],
                        vec![
                            decl(),
                            nest(
                                &[2, 3, 2],
                                vec![accum(bin(
                                    BinOp::Mul,
                                    load("x", &[12, 1, 6, 2, 1], 0),
                                    load("x", &[0, 2, 20, 3, 7], 9),
                                ))],
                            ),
                            store(at("a", &[5, 1], 0), acc()),
                        ],
                    )],
                ),
                &[(2, 3)],
            ),
            (
                "chunks across output-digit carries, 3 × 5 and 5 × 5 × 5",
                with_x(
                    125,
                    vec![
                        nest(
                            &[3, 5],
                            vec![store(
                                at("a", &[5, 1], 0),
                                bin(BinOp::Add, load("x", &[1, 7], 2), load("x", &[0, 1], 60)),
                            )],
                        ),
                        nest(
                            &[5, 5, 5],
                            vec![
                                decl(),
                                nest(
                                    &[2],
                                    vec![accum(bin(
                                        BinOp::Div,
                                        load("x", &[0, 5, 1, 40], 0),
                                        load("x", &[3, 0, 2, 1], 50),
                                    ))],
                                ),
                                store(at("a", &[25, 5, 1], 0), acc()),
                            ],
                        ),
                    ],
                ),
                &[(2, 0), (3, 1)],
            ),
            (
                "an accumulator nest with digits of extent one",
                with_x(
                    12,
                    vec![nest(
                        &[3, 1, 4],
                        vec![
                            decl(),
                            nest(
                                &[1, 5],
                                vec![accum(bin(
                                    BinOp::Sub,
                                    load("x", &[20, 9, 1, 7, 3], 1),
                                    load("x", &[1, 1, 4, 1, 13], 0),
                                ))],
                            ),
                            store(at("a", &[4, 3, 1], 0), acc()),
                        ],
                    )],
                ),
                &[(3, 2)],
            ),
            (
                "an accumulator nest with negative steps",
                with_x(
                    16,
                    vec![nest(
                        &[4, 4],
                        vec![
                            decl(),
                            nest(
                                &[3],
                                vec![accum(bin(
                                    BinOp::Add,
                                    load("x", &[-4, -1, 20], 15),
                                    load("x", &[1, -5, -1], 22),
                                ))],
                            ),
                            store(at("a", &[-4, -1], 15), acc()),
                        ],
                    )],
                ),
                &[(2, 1)],
            ),
            (
                "a kernel ending in a loop around a lone declaration",
                with_x(1, vec![nest(&[2], vec![decl()])]),
                &[],
            ),
            (
                "store nests whose lane points alias one target element",
                with_x(
                    3,
                    vec![
                        nest(
                            &[3, 6],
                            vec![CStmt::StoreAccum {
                                target: at("a", &[1, 0], 0),
                                expr: load("x", &[6, 1], 0),
                            }],
                        ),
                        nest(
                            &[2, 5],
                            vec![store(at("a", &[0, 0], 2), load("x", &[5, 1], 30))],
                        ),
                    ],
                ),
                &[(2, 0), (2, 0)],
            ),
        ];
        for (what, k, nests) in cases {
            let shapes: Vec<(usize, usize)> = lane_nests(&k).iter().map(|n| (n.0, n.1)).collect();
            assert_eq!(shapes, nests, "{what}: nests run lane-wise");
            assert_meets_definition(&k, what);
        }
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

    /// `k` with an input `x` of 80 words next to the hand-built `a`.
    fn with_x(words: usize, body: Vec<CStmt>) -> CKernel {
        let mut k = kernel(words, body);
        k.params.push(CParam {
            name: "x".into(),
            words: 80,
            role: crate::ir::ParamRole::Input,
        });
        k
    }

    fn load(array: &str, coeffs: &[i64], constant: i64) -> CExpr {
        CExpr::Load(at(array, coeffs, constant))
    }

    #[test]
    fn a_store_not_injective_over_its_lanes_keeps_program_order() {
        let store = |accumulate: bool, target, expr| match accumulate {
            true => CStmt::StoreAccum { target, expr },
            false => CStmt::Store { target, expr },
        };
        for accumulate in [false, true] {
            // A lane digit of stride 0, outermost and innermost, and two
            // lane digits whose spans overlap (element 2 is written by the
            // points (0, 1) and (2, 0), in another order in store order).
            for (extents, coeffs) in [
                (&[3, 6][..], &[0, 1][..]),
                (&[6, 3], &[1, 0]),
                (&[3, 2], &[1, 2]),
            ] {
                let expr = load("x", &[7, 1], 3);
                let k = with_x(
                    8,
                    vec![nest(
                        extents,
                        vec![store(accumulate, at("a", coeffs, 0), expr)],
                    )],
                );
                let what = format!("{extents:?} {coeffs:?} accumulate={accumulate}");
                assert_eq!(lane_nests(&k), [(2, 0, false)], "{what}");
                assert_meets_definition(&k, &what);
            }
            // Injective, but not in program order: the lane walks in the
            // store's order.
            let k = with_x(
                12,
                vec![nest(
                    &[3, 4],
                    vec![store(
                        accumulate,
                        at("a", &[1, 3], 0),
                        load("x", &[1, 5], 2),
                    )],
                )],
            );
            assert_eq!(lane_nests(&k), [(2, 0, true)], "accumulate={accumulate}");
            assert_meets_definition(&k, "a transposed store");
            // Injective and in store order, with rows 8 words apart: the
            // lane scatters through the store's place.
            let k = with_x(
                24,
                vec![nest(
                    &[3, 6],
                    vec![store(
                        accumulate,
                        at("a", &[8, 1], 1),
                        load("x", &[2, 9], 0),
                    )],
                )],
            );
            assert_eq!(lane_nests(&k), [(2, 0, false)], "accumulate={accumulate}");
            assert_meets_definition(&k, "a store with padded rows");
        }
    }

    #[test]
    fn an_accumulator_in_store_order_ends_as_program_order_leaves_it() {
        // The write-back is transposed against the output loops, so the
        // lane walks them in store order; the scalar is read after the
        // nest, and must hold the last point's sum in program order.
        let acc = || CExpr::Var("acc".into());
        let k = with_x(
            13,
            vec![
                nest(
                    &[3, 4],
                    vec![
                        CStmt::DeclScalar {
                            name: "acc".into(),
                            init: 0.5,
                        },
                        nest(
                            &[5],
                            vec![CStmt::AccumScalar {
                                name: "acc".into(),
                                expr: CExpr::Bin {
                                    op: BinOp::Mul,
                                    lhs: Box::new(load("x", &[20, 5, 1], 0)),
                                    rhs: Box::new(load("x", &[0, 1, 7], 2)),
                                },
                            }],
                        ),
                        store(at("a", &[1, 3], 0), acc()),
                    ],
                ),
                store(at("a", &[], 12), acc()),
            ],
        );
        assert_eq!(lane_nests(&k), [(2, 1, true)]);
        assert_meets_definition(&k, "a transposed accumulator nest read after it");
    }

    #[test]
    fn a_prepared_kernel_runs_as_fresh_kernels_do() {
        // Every stage of the served program, decoupled (locals) and not,
        // run twice through one preparation on two input sets.
        for decoupled in [true, false] {
            let src = cfdlang::examples::simulation_step(5);
            for (_m, k) in setup_flow(&src, true, true, decoupled, true) {
                let mut prepared = PreparedKernel::new(&k).unwrap();
                for seed in [3, 8] {
                    let mut mem = filled_params(&k);
                    for (i, p) in k.params.iter().enumerate() {
                        mem.insert(p.name.clone(), rand_tensor(&[p.words], seed * 7 + i).data);
                    }
                    let mut fresh = mem.clone();
                    let counts = prepared.run(&mut mem).unwrap();
                    assert_eq!(counts, run_kernel(&k, &mut fresh).unwrap());
                    for (name, got) in &mem {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(&fresh[name]), "{} '{name}'", k.name);
                    }
                    // The state is back where a fresh preparation starts.
                    let (plan, st) = (&prepared.plan, &prepared.state);
                    assert_eq!(st.offsets, PreparedKernel::new(&k).unwrap().state.offsets);
                    assert!(st.scalars.iter().all(|&v| v.to_bits() == 0));
                    let (caller, locals) = st.arrays.split_at(plan.caller_arrays);
                    assert!(caller.iter().all(Vec::is_empty));
                    assert!(locals.iter().flatten().all(|&v| v.to_bits() == 0));
                    assert_eq!(locals.len(), k.locals.len());
                }
            }
        }
    }

    #[test]
    fn store_order_fires_on_the_verify_rows_of_ci() {
        // CI verifies simstep:7 and helmholtz:11 --no-decouple bit for
        // bit; both have nests whose lanes walk in store order.
        for (src, decoupled, reordered) in [
            (cfdlang::examples::simulation_step(7), true, 7),
            (cfdlang::examples::inverse_helmholtz(11), false, 3),
        ] {
            let kernels = setup_flow(&src, true, true, decoupled, true);
            let nests = kernels.iter().flat_map(|(_, k)| lane_nests(k));
            assert_eq!(nests.filter(|n| n.2).count(), reordered);
        }
    }
}
