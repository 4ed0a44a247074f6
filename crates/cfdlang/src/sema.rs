//! Semantic analysis: name resolution and shape checking.
//!
//! CFDlang tensors are statically shaped and non-aliasing (Section IV-B of
//! the paper), so the whole type system is shape inference plus a handful
//! of well-formedness rules:
//!
//! * every identifier must be declared before use,
//! * inputs may not be assigned; outputs must be assigned,
//! * each tensor is assigned at most once (pseudo-SSA),
//! * a program (and every kernel of a set) has at least one statement,
//! * entry-wise operators require equal shapes (scalars broadcast),
//! * contraction pairs must reference distinct, in-range, equal-extent
//!   dimensions of the product expression.

use crate::ast::{Decl, DeclKind, Expr, Program, ProgramSet, Stmt, TypeExpr};
use crate::diag::Diagnostic;
use std::collections::HashMap;

/// Shape of a tensor value; `[]` is a scalar.
pub type Shape = Vec<usize>;

/// A checked program with resolved shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedProgram {
    pub program: Program,
    /// Resolved shape of every declared variable.
    pub shapes: HashMap<String, Shape>,
    /// Declaration kind of every variable.
    pub kinds: HashMap<String, DeclKind>,
    /// Inferred shape of every statement's RHS (same as the LHS shape).
    pub stmt_shapes: Vec<Shape>,
    /// Declaration order of the variables (stable interface order).
    pub order: Vec<String>,
}

impl TypedProgram {
    /// Shape of a declared variable.
    pub fn shape_of(&self, name: &str) -> Option<&[usize]> {
        self.shapes.get(name).map(|s| s.as_slice())
    }

    /// Names of input tensors in declaration order.
    pub fn inputs(&self) -> Vec<&str> {
        self.order
            .iter()
            .filter(|n| self.kinds[*n] == DeclKind::Input)
            .map(String::as_str)
            .collect()
    }

    /// Names of output tensors in declaration order.
    pub fn outputs(&self) -> Vec<&str> {
        self.order
            .iter()
            .filter(|n| self.kinds[*n] == DeclKind::Output)
            .map(String::as_str)
            .collect()
    }

    /// Names of local (temporary) tensors in declaration order.
    pub fn locals(&self) -> Vec<&str> {
        self.order
            .iter()
            .filter(|n| self.kinds[*n] == DeclKind::Local)
            .map(String::as_str)
            .collect()
    }
}

/// One checked kernel of a multi-kernel program.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedKernel {
    pub name: String,
    pub typed: TypedProgram,
}

/// A cross-kernel tensor handoff: kernel `from`'s output `name` feeds
/// kernel `to`'s equally named input. Shapes are checked to match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorLink {
    pub name: String,
    /// Producing kernel (index into `TypedProgramSet::kernels`).
    pub from: usize,
    /// Consuming kernel.
    pub to: usize,
    pub shape: Shape,
}

/// A checked multi-kernel program with its resolved inter-kernel links.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedProgramSet {
    pub kernels: Vec<TypedKernel>,
    /// Handoffs in (from, to) order.
    pub links: Vec<TensorLink>,
}

impl TypedProgramSet {
    /// Kernel names in execution order.
    pub fn kernel_names(&self) -> Vec<&str> {
        self.kernels.iter().map(|k| k.name.as_str()).collect()
    }

    /// Whether kernel `to`'s input `name` is fed by an earlier kernel.
    pub fn link_into(&self, to: usize, name: &str) -> Option<&TensorLink> {
        self.links.iter().find(|l| l.to == to && l.name == name)
    }

    /// External inputs the host must supply: `(kernel index, name)`
    /// pairs for every input not fed by an upstream kernel.
    pub fn external_inputs(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (i, k) in self.kernels.iter().enumerate() {
            for n in k.typed.inputs() {
                if self.link_into(i, n).is_none() {
                    out.push((i, n.to_string()));
                }
            }
        }
        out
    }
}

/// Check a multi-kernel set: each kernel individually, then the
/// cross-kernel links (name-matched output→input handoffs must agree on
/// shape; an input may only be fed by a *preceding* kernel).
pub fn check_set(set: &ProgramSet) -> Result<TypedProgramSet, Diagnostic> {
    let mut kernels = Vec::with_capacity(set.kernels.len());
    for k in &set.kernels {
        let typed = check(&k.program).map_err(|d| {
            Diagnostic::new(d.span, format!("in kernel '{}': {}", k.name, d.message))
        })?;
        kernels.push(TypedKernel {
            name: k.name.clone(),
            typed,
        });
    }
    let mut links = Vec::new();
    for (j, cons) in kernels.iter().enumerate() {
        for input in cons.typed.inputs() {
            // The most recent producer wins, mirroring dataflow order.
            let producer = kernels[..j]
                .iter()
                .enumerate()
                .rev()
                .find(|(_, p)| p.typed.outputs().contains(&input));
            if let Some((i, prod)) = producer {
                let ps = prod.typed.shape_of(input).expect("declared output");
                let cs = cons.typed.shape_of(input).expect("declared input");
                if ps != cs {
                    return Err(Diagnostic::new(
                        set.kernels[j].span,
                        format!(
                            "kernel '{}' output '{}' {:?} does not match kernel '{}' input {:?}",
                            prod.name, input, ps, cons.name, cs
                        ),
                    ));
                }
                links.push(TensorLink {
                    name: input.to_string(),
                    from: i,
                    to: j,
                    shape: ps.to_vec(),
                });
            }
        }
    }
    let typed_set = TypedProgramSet { kernels, links };
    // External input names are program-global (the host supplies one
    // tensor per name), so same-named external inputs of different
    // kernels must agree on shape.
    let externals = typed_set.external_inputs();
    for (a, (ki, name)) in externals.iter().enumerate() {
        let sa = typed_set.kernels[*ki].typed.shape_of(name).expect("input");
        for (kj, other) in &externals[a + 1..] {
            if other != name {
                continue;
            }
            let sb = typed_set.kernels[*kj].typed.shape_of(name).expect("input");
            if sa != sb {
                return Err(Diagnostic::new(
                    set.kernels[*kj].span,
                    format!(
                        "external input '{}' has shape {:?} in kernel '{}' but {:?} in kernel '{}'",
                        name, sa, typed_set.kernels[*ki].name, sb, typed_set.kernels[*kj].name
                    ),
                ));
            }
        }
    }
    Ok(typed_set)
}

/// Check a parsed program.
pub fn check(program: &Program) -> Result<TypedProgram, Diagnostic> {
    let mut aliases: HashMap<String, Shape> = HashMap::new();
    let mut shapes: HashMap<String, Shape> = HashMap::new();
    let mut kinds: HashMap<String, DeclKind> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    for d in &program.decls {
        match d {
            Decl::TypeAlias { name, ty, span } => {
                let shape = resolve_type(ty, &aliases).map_err(|m| Diagnostic::new(*span, m))?;
                if aliases.insert(name.clone(), shape).is_some() {
                    return Err(Diagnostic::new(
                        *span,
                        format!("duplicate type alias '{name}'"),
                    ));
                }
            }
            Decl::Var {
                kind,
                name,
                ty,
                span,
            } => {
                let shape = resolve_type(ty, &aliases).map_err(|m| Diagnostic::new(*span, m))?;
                if shape.contains(&0) {
                    return Err(Diagnostic::new(
                        *span,
                        format!("tensor '{name}' has a zero-extent dimension"),
                    ));
                }
                if shapes.insert(name.clone(), shape).is_some() {
                    return Err(Diagnostic::new(
                        *span,
                        format!("duplicate variable '{name}'"),
                    ));
                }
                kinds.insert(name.clone(), *kind);
                order.push(name.clone());
            }
        }
    }

    let mut assigned: HashMap<&str, bool> = HashMap::new();
    let mut stmt_shapes = Vec::with_capacity(program.stmts.len());
    for stmt in &program.stmts {
        let shape = check_stmt(stmt, &shapes, &kinds, &mut assigned)?;
        stmt_shapes.push(shape);
    }

    // Every output must be assigned.
    for (name, kind) in &kinds {
        if *kind == DeclKind::Output && !assigned.get(name.as_str()).copied().unwrap_or(false) {
            return Err(Diagnostic::new(
                Default::default(),
                format!("output '{name}' is never assigned"),
            ));
        }
    }
    if program.stmts.is_empty() {
        return Err(Diagnostic::new(
            Default::default(),
            "program has no statement: there is nothing to compute".to_string(),
        ));
    }

    Ok(TypedProgram {
        program: program.clone(),
        shapes,
        kinds,
        stmt_shapes,
        order,
    })
}

fn resolve_type(ty: &TypeExpr, aliases: &HashMap<String, Shape>) -> Result<Shape, String> {
    match ty {
        TypeExpr::Shape(dims) => Ok(dims.clone()),
        TypeExpr::Alias(name) => aliases
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown type alias '{name}'")),
    }
}

fn check_stmt<'p>(
    stmt: &'p Stmt,
    shapes: &HashMap<String, Shape>,
    kinds: &HashMap<String, DeclKind>,
    assigned: &mut HashMap<&'p str, bool>,
) -> Result<Shape, Diagnostic> {
    let lhs_shape = shapes.get(&stmt.lhs).ok_or_else(|| {
        Diagnostic::new(
            stmt.span,
            format!("assignment to undeclared variable '{}'", stmt.lhs),
        )
    })?;
    match kinds[&stmt.lhs] {
        DeclKind::Input => {
            return Err(Diagnostic::new(
                stmt.span,
                format!("input '{}' may not be assigned", stmt.lhs),
            ))
        }
        DeclKind::Output | DeclKind::Local => {}
    }
    if assigned.insert(stmt.lhs.as_str(), true) == Some(true) {
        return Err(Diagnostic::new(
            stmt.span,
            format!("variable '{}' assigned more than once", stmt.lhs),
        ));
    }
    let rhs_shape = infer(&stmt.rhs, shapes)?;
    if &rhs_shape != lhs_shape {
        return Err(Diagnostic::new(
            stmt.span,
            format!(
                "shape mismatch in assignment to '{}': lhs {:?}, rhs {:?}",
                stmt.lhs, lhs_shape, rhs_shape
            ),
        ));
    }
    Ok(rhs_shape)
}

/// Infer the shape of an expression.
pub fn infer(expr: &Expr, shapes: &HashMap<String, Shape>) -> Result<Shape, Diagnostic> {
    match expr {
        Expr::Ident(name, span) => shapes
            .get(name)
            .cloned()
            .ok_or_else(|| Diagnostic::new(*span, format!("use of undeclared variable '{name}'"))),
        Expr::Num(..) => Ok(vec![]),
        Expr::Binary { op, lhs, rhs, span } => {
            let l = infer(lhs, shapes)?;
            let r = infer(rhs, shapes)?;
            // Scalars broadcast against any shape.
            if l.is_empty() {
                Ok(r)
            } else if r.is_empty() || l == r {
                Ok(l)
            } else {
                Err(Diagnostic::new(
                    *span,
                    format!(
                        "entry-wise '{}' on mismatched shapes {:?} and {:?}",
                        op.dsl_symbol(),
                        l,
                        r
                    ),
                ))
            }
        }
        Expr::Product { operands, .. } => {
            let mut shape = Vec::new();
            for o in operands {
                shape.extend(infer(o, shapes)?);
            }
            Ok(shape)
        }
        Expr::Contract {
            operand,
            pairs,
            span,
        } => {
            let inner = infer(operand, shapes)?;
            let rank = inner.len();
            let mut contracted = vec![false; rank];
            for &(a, b) in pairs {
                if a >= rank || b >= rank {
                    return Err(Diagnostic::new(
                        *span,
                        format!(
                            "contraction pair [{a} {b}] out of range for rank-{rank} expression"
                        ),
                    ));
                }
                if a == b {
                    return Err(Diagnostic::new(
                        *span,
                        format!("contraction pair [{a} {b}] repeats a dimension"),
                    ));
                }
                if contracted[a] || contracted[b] {
                    return Err(Diagnostic::new(
                        *span,
                        format!("dimension in pair [{a} {b}] contracted twice"),
                    ));
                }
                if inner[a] != inner[b] {
                    return Err(Diagnostic::new(
                        *span,
                        format!(
                            "contracted dimensions have different extents: dim {a} is {}, dim {b} is {}",
                            inner[a], inner[b]
                        ),
                    ));
                }
                contracted[a] = true;
                contracted[b] = true;
            }
            Ok(inner
                .iter()
                .enumerate()
                .filter(|(i, _)| !contracted[*i])
                .map(|(_, &d)| d)
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<TypedProgram, Diagnostic> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn helmholtz_type_checks() {
        let t = check_src(&crate::examples::inverse_helmholtz(11)).unwrap();
        assert_eq!(t.shape_of("S"), Some(&[11, 11][..]));
        assert_eq!(t.shape_of("v"), Some(&[11, 11, 11][..]));
        assert_eq!(t.inputs(), vec!["S", "D", "u"]);
        assert_eq!(t.outputs(), vec!["v"]);
        assert_eq!(t.locals(), vec!["t", "r"]);
    }

    #[test]
    fn contraction_shape_drops_pairs() {
        let t = check_src(
            "var input S : [3 3]\nvar input u : [3]\nvar output o : [3]\no = S # u . [[1 2]]",
        )
        .unwrap();
        assert_eq!(t.stmt_shapes[0], vec![3]);
    }

    #[test]
    fn rejects_undeclared_use() {
        let e = check_src("var output o : [2]\no = x").unwrap_err();
        assert!(e.message.contains("undeclared variable 'x'"));
    }

    #[test]
    fn rejects_assignment_to_input() {
        let e = check_src("var input a : [2]\na = a").unwrap_err();
        assert!(e.message.contains("may not be assigned"));
    }

    #[test]
    fn rejects_double_assignment() {
        let e = check_src("var input a : [2]\nvar output o : [2]\no = a\no = a").unwrap_err();
        assert!(e.message.contains("assigned more than once"));
    }

    #[test]
    fn rejects_a_program_without_statements() {
        for src in ["", "var input a : [4]", "type v : [2]\nvar input a : v"] {
            let e = check_src(src).unwrap_err();
            assert_eq!(
                e.message,
                "program has no statement: there is nothing to compute"
            );
        }
        let set = crate::parse_set("kernel a { var input x : [2] }").unwrap();
        let e = check_set(&set).unwrap_err();
        assert!(
            e.message
                .starts_with("in kernel 'a': program has no statement"),
            "{e}"
        );
    }

    #[test]
    fn rejects_unassigned_output() {
        let e = check_src("var input a : [2]\nvar output o : [2]").unwrap_err();
        assert!(e.message.contains("never assigned"));
    }

    #[test]
    fn rejects_shape_mismatch_entrywise() {
        let e = check_src("var input a : [2]\nvar input b : [3]\nvar output o : [2]\no = a * b")
            .unwrap_err();
        assert!(e.message.contains("mismatched shapes"));
    }

    #[test]
    fn rejects_mismatched_contraction_extents() {
        let e = check_src(
            "var input S : [2 3]\nvar input u : [2]\nvar output o : [2]\no = S # u . [[1 2]]",
        )
        .unwrap_err();
        assert!(e.message.contains("different extents"));
    }

    #[test]
    fn rejects_out_of_range_pair() {
        let e = check_src("var input S : [2 2]\nvar output o : []\no = S . [[0 7]]").unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn rejects_dimension_contracted_twice() {
        let e = check_src("var input T : [2 2 2 2]\nvar output o : []\no = T . [[0 1] [1 2]]")
            .unwrap_err();
        assert!(e.message.contains("contracted twice") || e.message.contains("repeats"));
    }

    #[test]
    fn scalar_broadcast() {
        let t = check_src("var input a : [4]\nvar output o : [4]\no = a * 2").unwrap();
        assert_eq!(t.stmt_shapes[0], vec![4]);
    }

    #[test]
    fn rejects_zero_extent() {
        let e = check_src("var input a : [0]\nvar output o : []\no = a . [[0 0]]").unwrap_err();
        assert!(e.message.contains("zero-extent"));
    }

    #[test]
    fn rejects_conflicting_external_input_shapes() {
        // x is an external input to both kernels with different shapes:
        // the host cannot supply one tensor under that name.
        let src = "kernel a { var input x : [4]\nvar output u : [4]\nu = x + x }\n\
                   kernel b { var input x : [5]\nvar input u : [4]\nvar output o : [5]\no = x * 2 }";
        let e = crate::check_set(&crate::parse_set(src).unwrap()).unwrap_err();
        assert!(e.message.contains("external input 'x'"), "{}", e.message);
        assert!(
            e.span != crate::Span::default(),
            "diagnostic carries a span"
        );
    }

    #[test]
    fn handoff_shape_mismatch_carries_span() {
        let src = "kernel a { var input x : [4]\nvar output u : [4]\nu = x + x }\n\
                   kernel b { var input u : [5]\nvar output o : [5]\no = u * 2 }";
        let e = crate::check_set(&crate::parse_set(src).unwrap()).unwrap_err();
        assert!(e.message.contains("does not match"), "{}", e.message);
        assert!(e.span != crate::Span::default());
    }

    #[test]
    fn type_alias_resolves() {
        let t =
            check_src("type vec : [5]\nvar input a : vec\nvar output o : vec\no = a + a").unwrap();
        assert_eq!(t.shape_of("a"), Some(&[5][..]));
    }
}
