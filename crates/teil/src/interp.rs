//! Reference interpreter with operation counting.
//!
//! The interpreter defines the functional semantics of the IR; every other
//! execution path in the repository (generated C-like loop nests, the HLS
//! accelerator model, the full-system simulation) is validated against it.
//! The operation counts it produces feed the ARM software cost model of
//! the `zynq` crate.
//!
//! # Execution strategy
//!
//! [`Interpreter::run`] compiles each statement once: every tensor access
//! becomes per-iteration-variable strides over one flat offset. The
//! statement then runs through the one lane planner, [`lane::run`], a
//! **box lane** of up to [`lane::W`] consecutive points at a time:
//! - a reduction runs its lane across its output points, each element
//!   with its own accumulator, and walks its reduction digits inside
//!   each chunk in iteration order, so every sum is still
//!   `0 + e(r0) + e(r1) + …`;
//! - an element-wise statement runs its lane over its whole box;
//! - a reduction whose output is smaller than a lane and than its
//!   reduction ([`lane::across`] is false, a scalar result for example)
//!   runs its lane over the whole box instead, and folds each lane into
//!   the output points it covers, in point order.
//!
//! Each chunk's lanes land in the result in place. The element path
//! performs no multi-index arithmetic and **no heap allocation**: the
//! places live in one buffer per run. Inputs are borrowed, never copied
//! ([`Interpreter::run_computed`] hands back only what the module
//! computes), and results go to a fresh tensor, so no point can read
//! what another wrote.
//!
//! Operation counts come in closed form ([`Interpreter::counts`]): what
//! one iteration point costs times the iteration volume, per statement.
//! The seed multi-index walk, which counts at every point, is kept as
//! [`Interpreter::run_reference`]; the two are bit-identical in results
//! and operation counts (enforced by `tests/interp_equiv.rs`).

use crate::ir::{Module, PointExpr, Stmt, TensorId, TensorKind};
use crate::lane;
use cfdlang::BinOp;
use std::borrow::Cow;
use std::collections::HashMap;

/// A dense row-major tensor of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    pub shape: Vec<usize>,
    pub data: Vec<f64>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Fill from a function of the multi-index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = Tensor::zeros(shape);
        let mut idx = vec![0usize; shape.len()];
        for flat in 0..t.data.len() {
            t.data[flat] = f(&idx);
            advance(&mut idx, shape);
        }
        t
    }

    /// Number of elements.
    #[inline]
    pub fn volume(&self) -> usize {
        self.data.len()
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<usize> {
        row_major_strides(&self.shape)
    }

    /// Flat offset of a multi-index. Folds the row-major strides on the
    /// fly from the innermost dimension outward — no stride vector is
    /// materialized, so element access never touches the heap.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0usize;
        let mut stride = 1usize;
        for d in (0..self.shape.len()).rev() {
            off += idx[d] * stride;
            stride *= self.shape[d];
        }
        off
    }

    /// Element access by multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.offset(idx)]
    }

    /// Mutable element access by multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let o = self.offset(idx);
        self.data[o] = v;
    }

    /// Maximum relative difference to another tensor (0 for identical).
    pub fn max_rel_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let scale = a.abs().max(b.abs()).max(1.0);
                (a - b).abs() / scale
            })
            .fold(0.0, f64::max)
    }
}

/// Row-major strides for a shape.
pub fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * shape[d + 1];
    }
    strides
}

/// Advance a multi-index odometer-style; wraps to all-zero at the end.
/// Mutates the caller's index buffer in place — a full iteration-space
/// walk reuses one buffer and never allocates.
#[inline]
pub fn advance(idx: &mut [usize], shape: &[usize]) {
    for d in (0..idx.len()).rev() {
        idx[d] += 1;
        if idx[d] < shape[d] {
            return;
        }
        idx[d] = 0;
    }
}

/// Scalar operation counts accumulated during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub fp_add: u64,
    pub fp_sub: u64,
    pub fp_mul: u64,
    pub fp_div: u64,
    pub loads: u64,
    pub stores: u64,
    /// Total innermost iteration count (used for loop-overhead modelling).
    pub iters: u64,
}

impl ExecStats {
    /// All floating-point operations.
    pub fn flops(&self) -> u64 {
        self.fp_add + self.fp_sub + self.fp_mul + self.fp_div
    }

    /// Element-wise sum of two stat records.
    pub fn merge(&self, o: &ExecStats) -> ExecStats {
        ExecStats {
            fp_add: self.fp_add + o.fp_add,
            fp_sub: self.fp_sub + o.fp_sub,
            fp_mul: self.fp_mul + o.fp_mul,
            fp_div: self.fp_div + o.fp_div,
            loads: self.loads + o.loads,
            stores: self.stores + o.stores,
            iters: self.iters + o.iters,
        }
    }
}

/// Result of running a module.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Value of every tensor after execution (indexed by `TensorId`).
    pub values: Vec<Tensor>,
    pub stats: ExecStats,
}

impl Execution {
    /// Value of a tensor by name.
    pub fn value(&self, module: &Module, name: &str) -> Option<&Tensor> {
        module.find(name).map(|id| &self.values[id.0])
    }
}

/// The reference interpreter.
pub struct Interpreter<'m> {
    module: &'m Module,
}

impl<'m> Interpreter<'m> {
    pub fn new(module: &'m Module) -> Self {
        Interpreter { module }
    }

    /// Execute the module on the given inputs (by tensor name). Every
    /// input tensor must be provided with the declared shape.
    ///
    /// Uses the lane walk (see the module docs). Results are bit-identical
    /// to [`Interpreter::run_reference`]; the operation counts are
    /// [`Interpreter::counts`], which equal the reference walk's.
    pub fn run(&self, inputs: &HashMap<String, Tensor>) -> Result<Execution, String> {
        Ok(Execution {
            values: owned(self.run_lanes(inputs)?),
            stats: self.counts(),
        })
    }

    /// [`Interpreter::run`]'s values without a copy of any input: the
    /// value of every tensor the module does not take as an input
    /// (indexed by `TensorId`), `None` for an input.
    pub fn run_computed(
        &self,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Vec<Option<Tensor>>, String> {
        let values = self.run_lanes(inputs)?;
        Ok((values.into_iter())
            .map(|v| match v {
                Cow::Owned(t) => Some(t),
                Cow::Borrowed(_) => None,
            })
            .collect())
    }

    /// The lane walk over the inputs as bound, every input borrowed.
    fn run_lanes<'i>(
        &self,
        inputs: &'i HashMap<String, Tensor>,
    ) -> Result<Vec<Cow<'i, Tensor>>, String> {
        let mut values = self.bind_inputs(inputs)?;
        let accesses = self.module.stmts.iter().map(|s| expr_size(&s.expr).1);
        let mut places = vec![lane::Place::new(0); accesses.max().unwrap_or(0)];
        for stmt in &self.module.stmts {
            let result = self.exec_stmt_lanes(stmt, &values, &mut places);
            values[stmt.out.0] = Cow::Owned(result);
        }
        Ok(values)
    }

    /// The operation counts of executing the module, whatever the inputs:
    /// per statement, what one iteration point costs times the iteration
    /// volume, plus one store per output element.
    pub fn counts(&self) -> ExecStats {
        let mut total = ExecStats::default();
        for stmt in &self.module.stmts {
            let out_vol = self.module.shape(stmt.out).iter().product::<usize>() as u64;
            let points = out_vol * stmt.reduce_extents.iter().product::<usize>().max(1) as u64;
            // One add per point folds a reduction into its accumulator.
            let mut point = ExecStats {
                fp_add: u64::from(stmt.is_reduction()),
                iters: 1,
                ..ExecStats::default()
            };
            count_point(&stmt.expr, &mut point);
            total = total.merge(&ExecStats {
                fp_add: point.fp_add * points,
                fp_sub: point.fp_sub * points,
                fp_mul: point.fp_mul * points,
                fp_div: point.fp_div * points,
                loads: point.loads * points,
                stores: out_vol,
                iters: points,
            });
        }
        total
    }

    /// Execute with the seed multi-index walk (`advance` + per-access
    /// offset recomputation). Kept as the oracle the flat path is
    /// validated against.
    pub fn run_reference(&self, inputs: &HashMap<String, Tensor>) -> Result<Execution, String> {
        let mut values = self.bind_inputs(inputs)?;
        let mut stats = ExecStats::default();
        for stmt in &self.module.stmts {
            self.exec_stmt(stmt, &mut values, &mut stats)?;
        }
        Ok(Execution {
            values: owned(values),
            stats,
        })
    }

    /// Every tensor's value before the first statement: each input
    /// borrowed from `inputs`, a tensor read before its first write (or
    /// never written) zero, and any other one empty, since the
    /// statement that writes it first replaces it whole.
    fn bind_inputs<'i>(
        &self,
        inputs: &'i HashMap<String, Tensor>,
    ) -> Result<Vec<Cow<'i, Tensor>>, String> {
        let m = self.module;
        let mut values = Vec::with_capacity(m.tensors.len());
        for decl in &m.tensors {
            match decl.kind {
                TensorKind::Input => {
                    let t = inputs
                        .get(&decl.name)
                        .ok_or_else(|| format!("missing input '{}'", decl.name))?;
                    if t.shape != decl.shape {
                        return Err(format!(
                            "input '{}' has shape {:?}, declared {:?}",
                            decl.name, t.shape, decl.shape
                        ));
                    }
                    values.push(Cow::Borrowed(t));
                }
                _ if read_before_written(m, TensorId(values.len())) => {
                    values.push(Cow::Owned(Tensor::zeros(&decl.shape)))
                }
                _ => values.push(Cow::Owned(Tensor {
                    shape: Vec::new(),
                    data: Vec::new(),
                })),
            }
        }
        Ok(values)
    }

    /// Lane-walk execution of one statement: the expression tree is
    /// compiled once (index maps → per-iteration-variable strides) and
    /// run through [`lane::run`] as the module docs describe. `places`
    /// has room for every access of the statement.
    fn exec_stmt_lanes(
        &self,
        stmt: &Stmt,
        values: &[Cow<'_, Tensor>],
        places: &mut [lane::Place],
    ) -> Tensor {
        let m = self.module;
        let ext = m.iter_extents(stmt);
        let (rank, out_rank) = (ext.len(), m.shape(stmt.out).len());
        // Sized once: a grown vector would leave a spare half behind.
        let (n_nodes, n_access) = expr_size(&stmt.expr);
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut strides = Vec::with_capacity(n_access * rank);
        let root = compile_expr(&stmt.expr, values, rank, &mut strides, &mut nodes);
        let places = &mut places[..n_access];
        places.fill(lane::Place::new(0));
        let view = StmtLanes {
            nodes: &nodes,
            values,
        };
        let table = lane::Table {
            extents: ext,
            strides,
        };

        let mut result = Tensor::zeros(m.shape(stmt.out));
        let out = &mut result.data;
        let red: usize = stmt.reduce_extents.iter().product();
        // An element-wise statement has no reduction digit: its lane
        // runs across its outputs, which are its whole box.
        if lane::across(out.len(), red) {
            lane::run(&view, &table, root, out_rank, places, 0.0, |start, l, _| {
                out[start..start + l.len()].copy_from_slice(l)
            });
        } else {
            // Along the reduction: the whole box in point order, each
            // lane folded into the output points it covers.
            let (mut o, mut left) = (0, red);
            lane::run(&view, &table, root, rank, places, 0.0, |_, l, _| {
                for v in l {
                    out[o] += v;
                    left -= 1;
                    if left == 0 {
                        (o, left) = (o + 1, red);
                    }
                }
            });
        }
        result
    }

    fn exec_stmt(
        &self,
        stmt: &Stmt,
        values: &mut [Cow<'_, Tensor>],
        stats: &mut ExecStats,
    ) -> Result<(), String> {
        let m = self.module;
        let out_shape = m.shape(stmt.out).to_vec();
        let out_rank = out_shape.len();
        let ext = m.iter_extents(stmt);
        let out_vol: usize = out_shape.iter().product();
        let red_vol: usize = stmt.reduce_extents.iter().product();

        let mut result = Tensor::zeros(&out_shape);
        let mut idx = vec![0usize; ext.len()];
        for o in 0..out_vol {
            let mut acc = 0.0f64;
            for _ in 0..red_vol.max(1) {
                let v = eval(m, &stmt.expr, &idx, values, stats);
                if stmt.is_reduction() {
                    acc += v;
                    stats.fp_add += 1;
                } else {
                    acc = v;
                }
                stats.iters += 1;
                // Advance reduction part of the odometer.
                advance(&mut idx[out_rank..], &ext[out_rank..]);
            }
            result.data[o] = acc;
            stats.stores += 1;
            advance(&mut idx[..out_rank], &ext[..out_rank]);
        }
        values[stmt.out.0] = Cow::Owned(result);
        Ok(())
    }
}

/// Whether a statement of `m` reads `t` before (or in) the first one
/// that writes it, or none writes it.
fn read_before_written(m: &Module, t: TensorId) -> bool {
    for stmt in &m.stmts {
        let mut reads = false;
        stmt.expr
            .walk(&mut |e| reads |= matches!(e, PointExpr::Access { tensor, .. } if *tensor == t));
        if reads || stmt.out == t {
            return reads;
        }
    }
    true
}

/// Every value owned, an input by a copy.
fn owned(values: Vec<Cow<'_, Tensor>>) -> Vec<Tensor> {
    values.into_iter().map(Cow::into_owned).collect()
}

#[allow(clippy::only_used_in_recursion)]
fn eval(
    m: &Module,
    e: &PointExpr,
    idx: &[usize],
    values: &[Cow<'_, Tensor>],
    stats: &mut ExecStats,
) -> f64 {
    match e {
        PointExpr::Const(c) => *c,
        PointExpr::Access { tensor, index_map } => {
            stats.loads += 1;
            let t = &values[tensor.0];
            let mut flat = 0usize;
            let strides = row_major_strides(&t.shape);
            for (d, &v) in index_map.iter().enumerate() {
                flat += idx[v] * strides[d];
            }
            t.data[flat]
        }
        PointExpr::Bin { op, lhs, rhs } => {
            let a = eval(m, lhs, idx, values, stats);
            let b = eval(m, rhs, idx, values, stats);
            match op {
                BinOp::Add => {
                    stats.fp_add += 1;
                    a + b
                }
                BinOp::Sub => {
                    stats.fp_sub += 1;
                    a - b
                }
                BinOp::Mul => {
                    stats.fp_mul += 1;
                    a * b
                }
                BinOp::Div => {
                    stats.fp_div += 1;
                    a / b
                }
            }
        }
    }
}

/// One node of a compiled expression; operands precede their operator.
#[derive(Debug, Clone, Copy)]
enum FlatNode {
    Const(f64),
    /// A load of `tensor`; `slot` numbers the access (evaluation order).
    Access {
        tensor: usize,
        slot: usize,
    },
    Bin {
        op: BinOp,
        lhs: usize,
        rhs: usize,
    },
}

/// Compile a [`PointExpr`] tree into `nodes`: each access gets a slot and
/// `rank` entries of `strides`, what a step of each iteration variable
/// adds to its flat offset under the operand's row-major layout (a
/// variable indexing several operand dims sums their strides). Returns
/// the root node.
fn compile_expr(
    e: &PointExpr,
    values: &[Cow<'_, Tensor>],
    rank: usize,
    strides: &mut Vec<usize>,
    nodes: &mut Vec<FlatNode>,
) -> usize {
    let node = match e {
        PointExpr::Const(c) => FlatNode::Const(*c),
        PointExpr::Access { tensor, index_map } => {
            let slot = nodes
                .iter()
                .filter(|n| matches!(n, FlatNode::Access { .. }))
                .count();
            let first = slot * rank;
            strides.resize(first + rank, 0);
            let mut stride = 1;
            let shape = &values[tensor.0].shape;
            for (&v, &extent) in index_map.iter().zip(shape).rev() {
                strides[first + v] += stride;
                stride *= extent;
            }
            FlatNode::Access {
                tensor: tensor.0,
                slot,
            }
        }
        PointExpr::Bin { op, lhs, rhs } => FlatNode::Bin {
            op: *op,
            lhs: compile_expr(lhs, values, rank, strides, nodes),
            rhs: compile_expr(rhs, values, rank, strides, nodes),
        },
    };
    nodes.push(node);
    nodes.len() - 1
}

/// Nodes and accesses of `e`.
fn expr_size(e: &PointExpr) -> (usize, usize) {
    match e {
        PointExpr::Const(_) => (1, 0),
        PointExpr::Access { .. } => (1, 1),
        PointExpr::Bin { lhs, rhs, .. } => {
            let ((ln, la), (rn, ra)) = (expr_size(lhs), expr_size(rhs));
            (1 + ln + rn, la + ra)
        }
    }
}

/// A compiled statement's expression as the lane kernel sees it, its
/// accesses by slot (the rows of its [`lane::Table`]).
struct StmtLanes<'a> {
    nodes: &'a [FlatNode],
    values: &'a [Cow<'a, Tensor>],
}

impl lane::Lanes for StmtLanes<'_> {
    type Node = usize;

    fn term(&self, node: usize) -> lane::Term<'_, usize> {
        match self.nodes[node] {
            FlatNode::Const(c) => lane::Term::Splat(c),
            FlatNode::Access { tensor, slot } => lane::Term::Gather {
                data: &self.values[tensor].data,
                access: slot,
            },
            FlatNode::Bin { op, lhs, rhs } => lane::Term::Bin(op, lhs, rhs),
        }
    }
}

/// Add what one evaluation of `e` costs to `stats`: a load per access,
/// an operation per operator.
fn count_point(e: &PointExpr, stats: &mut ExecStats) {
    match e {
        PointExpr::Const(_) => {}
        PointExpr::Access { .. } => stats.loads += 1,
        PointExpr::Bin { op, lhs, rhs } => {
            count_point(lhs, stats);
            count_point(rhs, stats);
            *match op {
                BinOp::Add => &mut stats.fp_add,
                BinOp::Sub => &mut stats.fp_sub,
                BinOp::Mul => &mut stats.fp_mul,
                BinOp::Div => &mut stats.fp_div,
            } += 1;
        }
    }
}

/// Build the input map for a module from `(name, tensor)` pairs.
pub fn inputs_from(pairs: Vec<(&str, Tensor)>) -> HashMap<String, Tensor> {
    pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::transform::factorize;

    fn lower_src(src: &str) -> Module {
        lower(&cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn tensor_row_major_layout() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.data, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(t.get(&[1, 2]), 12.0);
        assert_eq!(t.strides(), vec![3, 1]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = lower_src(
            "var input S : [2 2]\nvar input u : [2]\nvar output o : [2]\no = S # u . [[1 2]]",
        );
        let s = Tensor {
            shape: vec![2, 2],
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        let u = Tensor {
            shape: vec![2],
            data: vec![5.0, 6.0],
        };
        let ex = Interpreter::new(&m)
            .run(&inputs_from(vec![("S", s), ("u", u)]))
            .unwrap();
        let o = ex.value(&m, "o").unwrap();
        assert_eq!(o.data, vec![1.0 * 5.0 + 2.0 * 6.0, 3.0 * 5.0 + 4.0 * 6.0]);
    }

    #[test]
    fn hadamard_and_axpy() {
        let m = lower_src(&cfdlang::examples::axpy(2));
        let x = Tensor::from_fn(&[2, 2, 2], |i| (i[0] + i[1] + i[2]) as f64);
        let y = Tensor::from_fn(&[2, 2, 2], |_| 1.0);
        let a = Tensor {
            shape: vec![],
            data: vec![2.0],
        };
        let ex = Interpreter::new(&m)
            .run(&inputs_from(vec![("x", x.clone()), ("y", y), ("a", a)]))
            .unwrap();
        let o = ex.value(&m, "o").unwrap();
        for (i, v) in o.data.iter().enumerate() {
            assert_eq!(*v, 2.0 * x.data[i] + 1.0);
        }
    }

    #[test]
    fn factorization_preserves_semantics() {
        let m = lower_src(&cfdlang::examples::inverse_helmholtz(4));
        let f = factorize(&m);
        let mk = |seed: usize| {
            Tensor::from_fn(&[4, 4, 4], |i| {
                ((i[0] * 31 + i[1] * 17 + i[2] * 7 + seed) % 13) as f64 * 0.25 - 1.0
            })
        };
        let s = Tensor::from_fn(&[4, 4], |i| ((i[0] * 5 + i[1] * 3) % 7) as f64 * 0.5 - 1.0);
        let inputs = inputs_from(vec![("S", s), ("D", mk(1)), ("u", mk(2))]);
        let e1 = Interpreter::new(&m).run(&inputs).unwrap();
        let e2 = Interpreter::new(&f).run(&inputs).unwrap();
        let v1 = e1.value(&m, "v").unwrap();
        let v2 = e2.value(&f, "v").unwrap();
        assert!(
            v1.max_rel_diff(v2) < 1e-12,
            "factorized result diverged: {}",
            v1.max_rel_diff(v2)
        );
    }

    #[test]
    fn identity_helmholtz_is_identity() {
        // With S = I and D = 1, the operator reduces to v = u.
        let m = lower_src(&cfdlang::examples::inverse_helmholtz(3));
        let s = Tensor::from_fn(&[3, 3], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        let d = Tensor::from_fn(&[3, 3, 3], |_| 1.0);
        let u = Tensor::from_fn(&[3, 3, 3], |i| (i[0] * 9 + i[1] * 3 + i[2]) as f64);
        let ex = Interpreter::new(&m)
            .run(&inputs_from(vec![("S", s), ("D", d), ("u", u.clone())]))
            .unwrap();
        assert_eq!(ex.value(&m, "v").unwrap().data, u.data);
    }

    #[test]
    fn op_counts_match_formula() {
        let m = lower_src(&cfdlang::examples::inverse_helmholtz(4));
        let n = 4usize;
        let s = Tensor::zeros(&[n, n]);
        let d = Tensor::zeros(&[n, n, n]);
        let u = Tensor::zeros(&[n, n, n]);
        let ex = Interpreter::new(&m)
            .run(&inputs_from(vec![("S", s), ("D", d), ("u", u)]))
            .unwrap();
        // Two contractions: n^6 iterations × 3 muls; Hadamard: n^3 muls.
        let expected_mul = 2 * n.pow(6) * 3 + n.pow(3);
        assert_eq!(ex.stats.fp_mul, expected_mul as u64);
        // Accumulation adds: one per reduction iteration.
        assert_eq!(ex.stats.fp_add, (2 * n.pow(6)) as u64);
        // Stores: each statement writes its whole output once.
        assert_eq!(ex.stats.stores, (3 * n.pow(3)) as u64);
    }

    #[test]
    fn closed_form_counts_meet_the_reference_walk_on_every_example() {
        use cfdlang::examples::*;
        let sources = [
            inverse_helmholtz(4),
            interpolation(3, 5),
            matrix_sandwich(4),
            axpy(3),
            simulation_step(3),
            axpy_chain(3),
        ];
        let mut kernels = 0;
        for src in &sources {
            let set = cfdlang::check_set(&cfdlang::parse_set(src).unwrap()).unwrap();
            for k in &set.kernels {
                for factored in [false, true] {
                    let mut m = lower(&k.typed).unwrap();
                    if factored {
                        m = factorize(&m);
                    }
                    let inputs: HashMap<String, Tensor> = (m.of_kind(TensorKind::Input))
                        .into_iter()
                        .map(|id| {
                            let t =
                                Tensor::from_fn(m.shape(id), |i| i.iter().sum::<usize>() as f64);
                            (m.name(id).to_string(), t)
                        })
                        .collect();
                    let interp = Interpreter::new(&m);
                    let reference = interp.run_reference(&inputs).unwrap().stats;
                    assert_eq!(interp.counts(), reference, "{src} factored={factored}");
                    kernels += 1;
                }
            }
        }
        assert_eq!(kernels, 2 * (4 + 3 + 2));
    }

    #[test]
    fn missing_input_is_error() {
        let m = lower_src("var input a : [2]\nvar output o : [2]\no = a");
        let err = Interpreter::new(&m).run(&HashMap::new()).unwrap_err();
        assert!(err.contains("missing input 'a'"));
    }

    #[test]
    fn wrong_shape_is_error() {
        let m = lower_src("var input a : [2]\nvar output o : [2]\no = a");
        let err = Interpreter::new(&m)
            .run(&inputs_from(vec![("a", Tensor::zeros(&[3]))]))
            .unwrap_err();
        assert!(err.contains("shape"));
    }

    #[test]
    fn max_rel_diff_detects_difference() {
        let a = Tensor {
            shape: vec![2],
            data: vec![1.0, 2.0],
        };
        let b = Tensor {
            shape: vec![2],
            data: vec![1.0, 2.2],
        };
        assert!(a.max_rel_diff(&b) > 0.05);
        assert_eq!(a.max_rel_diff(&a), 0.0);
    }
}
