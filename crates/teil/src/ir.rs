//! The tensor IR: modules, tensor declarations, and the uniform
//! loop-nest statement form.

use cfdlang::BinOp;
use std::fmt;

/// Index of a tensor within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub usize);

/// Storage class of an IR tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Part of the kernel interface, written by the host.
    Input,
    /// Part of the kernel interface, read back by the host.
    Output,
    /// Kernel-local temporary (named in the DSL or compiler-generated).
    Temp,
}

/// A tensor declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDecl {
    pub name: String,
    pub shape: Vec<usize>,
    pub kind: TensorKind,
}

impl TensorDecl {
    /// Total number of scalar elements.
    pub fn volume(&self) -> usize {
        self.shape.iter().product()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }
}

/// A scalar expression tree evaluated at each iteration point.
///
/// Leaves access tensors through *index maps*: `index_map[d]` names the
/// iteration variable used for the operand's `d`-th dimension. Iteration
/// variables `0..out_rank` are the output dimensions; variables
/// `out_rank..out_rank+reduce_rank` are reduction dimensions.
#[derive(Debug, Clone, PartialEq)]
pub enum PointExpr {
    /// Read `tensor[x_{index_map[0]}, x_{index_map[1]}, ...]`.
    Access {
        tensor: TensorId,
        index_map: Vec<usize>,
    },
    /// A scalar constant.
    Const(f64),
    /// Binary entry-wise operation.
    Bin {
        op: BinOp,
        lhs: Box<PointExpr>,
        rhs: Box<PointExpr>,
    },
}

impl PointExpr {
    /// Multiply a list of expressions into a left-leaning product tree.
    pub fn product(mut factors: Vec<PointExpr>) -> PointExpr {
        assert!(!factors.is_empty());
        let mut acc = factors.remove(0);
        for f in factors {
            acc = PointExpr::Bin {
                op: BinOp::Mul,
                lhs: Box::new(acc),
                rhs: Box::new(f),
            };
        }
        acc
    }

    /// Collect all accesses in evaluation order.
    pub fn accesses(&self) -> Vec<(&TensorId, &Vec<usize>)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let PointExpr::Access { tensor, index_map } = e {
                out.push((tensor, index_map));
            }
        });
        out
    }

    /// Whether the tree is a pure product of accesses (factorizable
    /// contraction body).
    pub fn is_pure_product(&self) -> bool {
        match self {
            PointExpr::Access { .. } => true,
            PointExpr::Const(_) => false,
            PointExpr::Bin { op, lhs, rhs } => {
                *op == BinOp::Mul && lhs.is_pure_product() && rhs.is_pure_product()
            }
        }
    }

    /// Flatten a pure product into its access factors. Returns `None` if
    /// the tree is not a pure product.
    pub fn product_factors(&self) -> Option<Vec<(TensorId, Vec<usize>)>> {
        let mut out = Vec::new();
        if self.collect_factors(&mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn collect_factors(&self, out: &mut Vec<(TensorId, Vec<usize>)>) -> bool {
        match self {
            PointExpr::Access { tensor, index_map } => {
                out.push((*tensor, index_map.clone()));
                true
            }
            PointExpr::Const(_) => false,
            PointExpr::Bin { op, lhs, rhs } => {
                *op == BinOp::Mul && lhs.collect_factors(out) && rhs.collect_factors(out)
            }
        }
    }

    /// Pre-order traversal.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a PointExpr)) {
        f(self);
        if let PointExpr::Bin { lhs, rhs, .. } = self {
            lhs.walk(f);
            rhs.walk(f);
        }
    }

    /// Number of scalar floating-point operations per evaluation
    /// (additions from reduction accumulation are *not* included).
    pub fn flops(&self) -> usize {
        match self {
            PointExpr::Access { .. } | PointExpr::Const(_) => 0,
            PointExpr::Bin { lhs, rhs, .. } => 1 + lhs.flops() + rhs.flops(),
        }
    }
}

/// One IR statement: a perfectly-nested loop computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The defined tensor. Its rank fixes the number of output iteration
    /// variables.
    pub out: TensorId,
    /// Extents of the reduction dimensions (iteration variables
    /// `out_rank..out_rank + reduce_extents.len()`), summed over.
    pub reduce_extents: Vec<usize>,
    /// The per-point scalar expression.
    pub expr: PointExpr,
}

impl Stmt {
    /// Number of reduction dimensions.
    pub fn reduce_rank(&self) -> usize {
        self.reduce_extents.len()
    }

    /// Whether this is a reduction (contraction-like) statement.
    pub fn is_reduction(&self) -> bool {
        !self.reduce_extents.is_empty()
    }

    /// Tensors read by this statement (with duplicates).
    pub fn reads(&self) -> Vec<TensorId> {
        self.expr.accesses().iter().map(|(t, _)| **t).collect()
    }
}

/// A whole tensor program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    pub tensors: Vec<TensorDecl>,
    pub stmts: Vec<Stmt>,
}

impl Module {
    /// Declare a tensor, returning its id.
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        kind: TensorKind,
    ) -> TensorId {
        let name = name.into();
        assert!(
            self.find(&name).is_none(),
            "duplicate tensor declaration '{name}'"
        );
        self.tensors.push(TensorDecl { name, shape, kind });
        TensorId(self.tensors.len() - 1)
    }

    /// Look up a tensor by name.
    pub fn find(&self, name: &str) -> Option<TensorId> {
        self.tensors
            .iter()
            .position(|t| t.name == name)
            .map(TensorId)
    }

    /// Declaration of a tensor.
    pub fn decl(&self, id: TensorId) -> &TensorDecl {
        &self.tensors[id.0]
    }

    /// Name of a tensor.
    pub fn name(&self, id: TensorId) -> &str {
        &self.tensors[id.0].name
    }

    /// Shape of a tensor.
    pub fn shape(&self, id: TensorId) -> &[usize] {
        &self.tensors[id.0].shape
    }

    /// Ids of all tensors of a given kind, in declaration order.
    pub fn of_kind(&self, kind: TensorKind) -> Vec<TensorId> {
        (0..self.tensors.len())
            .map(TensorId)
            .filter(|id| self.decl(*id).kind == kind)
            .collect()
    }

    /// Look up a tensor by name *and* kind — the lookup multi-kernel
    /// linking performs when matching a later kernel's input against an
    /// earlier kernel's equally named output.
    pub fn find_of_kind(&self, name: &str, kind: TensorKind) -> Option<TensorId> {
        self.find(name).filter(|&id| self.decl(id).kind == kind)
    }

    /// Iteration-space extents of a statement: output dims then reduce
    /// dims.
    pub fn iter_extents(&self, stmt: &Stmt) -> Vec<usize> {
        let mut ext = self.shape(stmt.out).to_vec();
        ext.extend_from_slice(&stmt.reduce_extents);
        ext
    }

    /// Total loop iterations of a statement.
    pub fn iter_volume(&self, stmt: &Stmt) -> usize {
        self.iter_extents(stmt).iter().product()
    }

    /// Generate a temporary name not colliding with existing tensors.
    /// Names follow the paper's `t0, t1, ...` convention (Figure 6).
    pub fn fresh_temp_name(&self, hint: &str) -> String {
        for n in 0.. {
            let cand = format!("{hint}{n}");
            if self.find(&cand).is_none() {
                return cand;
            }
        }
        unreachable!()
    }

    /// Validate internal consistency: every access's index map is within
    /// the iteration space and matches the operand's rank and extents.
    pub fn validate(&self) -> Result<(), String> {
        for (si, stmt) in self.stmts.iter().enumerate() {
            let ext = self.iter_extents(stmt);
            for (tid, imap) in stmt.expr.accesses() {
                let decl = self.decl(*tid);
                if imap.len() != decl.rank() {
                    return Err(format!(
                        "stmt {si}: access to '{}' has {} indices, tensor has rank {}",
                        decl.name,
                        imap.len(),
                        decl.rank()
                    ));
                }
                for (d, &v) in imap.iter().enumerate() {
                    if v >= ext.len() {
                        return Err(format!(
                            "stmt {si}: access to '{}' uses iteration var {v} out of {}",
                            decl.name,
                            ext.len()
                        ));
                    }
                    if ext[v] != decl.shape[d] {
                        return Err(format!(
                            "stmt {si}: access to '{}' dim {d} extent {} != iter var {} extent {}",
                            decl.name, decl.shape[d], v, ext[v]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tensors {
            writeln!(
                f,
                "{} {} : {:?}",
                match t.kind {
                    TensorKind::Input => "input ",
                    TensorKind::Output => "output",
                    TensorKind::Temp => "temp  ",
                },
                t.name,
                t.shape
            )?;
        }
        for s in &self.stmts {
            let out_rank = self.shape(s.out).len();
            let ovars: Vec<String> = (0..out_rank).map(|v| format!("x{v}")).collect();
            let rvars: Vec<String> = (out_rank..out_rank + s.reduce_rank())
                .map(|v| format!("x{v}"))
                .collect();
            write!(f, "{}[{}] ", self.name(s.out), ovars.join(","))?;
            if s.is_reduction() {
                write!(f, "= sum[{}] ", rvars.join(","))?;
            } else {
                write!(f, "= ")?;
            }
            writeln!(f, "{}", display_expr(self, &s.expr))?;
        }
        Ok(())
    }
}

fn display_expr(m: &Module, e: &PointExpr) -> String {
    match e {
        PointExpr::Access { tensor, index_map } => {
            let idx: Vec<String> = index_map.iter().map(|v| format!("x{v}")).collect();
            format!("{}[{}]", m.name(*tensor), idx.join(","))
        }
        PointExpr::Const(c) => format!("{c}"),
        PointExpr::Bin { op, lhs, rhs } => format!(
            "({} {} {})",
            display_expr(m, lhs),
            op.c_symbol(),
            display_expr(m, rhs)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_module() -> Module {
        let mut m = Module::default();
        let s = m.declare("S", vec![4, 4], TensorKind::Input);
        let u = m.declare("u", vec![4], TensorKind::Input);
        let o = m.declare("o", vec![4], TensorKind::Output);
        // o[i] = sum_l S[i,l] * u[l]
        m.stmts.push(Stmt {
            out: o,
            reduce_extents: vec![4],
            expr: PointExpr::product(vec![
                PointExpr::Access {
                    tensor: s,
                    index_map: vec![0, 1],
                },
                PointExpr::Access {
                    tensor: u,
                    index_map: vec![1],
                },
            ]),
        });
        m
    }

    #[test]
    fn declare_and_find() {
        let m = tiny_module();
        assert_eq!(m.find("S"), Some(TensorId(0)));
        assert_eq!(m.find("nope"), None);
        assert_eq!(m.decl(TensorId(1)).volume(), 4);
    }

    #[test]
    fn iter_extents_include_reduction() {
        let m = tiny_module();
        assert_eq!(m.iter_extents(&m.stmts[0]), vec![4, 4]);
        assert_eq!(m.iter_volume(&m.stmts[0]), 16);
    }

    #[test]
    fn validate_accepts_consistent() {
        tiny_module().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_rank() {
        let mut m = tiny_module();
        if let PointExpr::Bin { lhs, .. } = &mut m.stmts[0].expr {
            if let PointExpr::Access { index_map, .. } = lhs.as_mut() {
                index_map.push(0);
            }
        }
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_extent_mismatch() {
        let mut m = tiny_module();
        if let PointExpr::Bin { rhs, .. } = &mut m.stmts[0].expr {
            if let PointExpr::Access { index_map, .. } = rhs.as_mut() {
                index_map[0] = 0; // u is [4] and var 0 also has extent 4 — fine
            }
        }
        m.validate().unwrap();
        // Now break it: resize u.
        m.tensors[1].shape = vec![5];
        assert!(m.validate().is_err());
    }

    #[test]
    fn pure_product_detection() {
        let m = tiny_module();
        assert!(m.stmts[0].expr.is_pure_product());
        let e = PointExpr::Bin {
            op: cfdlang::BinOp::Add,
            lhs: Box::new(PointExpr::Const(1.0)),
            rhs: Box::new(PointExpr::Const(2.0)),
        };
        assert!(!e.is_pure_product());
    }

    #[test]
    fn product_factors_flatten() {
        let m = tiny_module();
        let fs = m.stmts[0].expr.product_factors().unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].1, vec![0, 1]);
        assert_eq!(fs[1].1, vec![1]);
    }

    #[test]
    fn fresh_temp_names_skip_collisions() {
        let mut m = Module::default();
        m.declare("t0", vec![1], TensorKind::Temp);
        assert_eq!(m.fresh_temp_name("t"), "t1");
    }

    #[test]
    fn flops_counts_bin_nodes() {
        let m = tiny_module();
        assert_eq!(m.stmts[0].expr.flops(), 1);
    }

    #[test]
    fn display_is_readable() {
        let m = tiny_module();
        let s = m.to_string();
        assert!(s.contains("o[x0] = sum[x1] (S[x0,x1] * u[x1])"), "{s}");
    }
}
