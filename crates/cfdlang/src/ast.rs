//! Abstract syntax tree for CFDlang programs.

use crate::diag::Span;

/// A full CFDlang program: declarations followed by assignment statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub decls: Vec<Decl>,
    pub stmts: Vec<Stmt>,
}

/// One `kernel name { ... }` block of a multi-kernel source.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDef {
    pub name: String,
    pub program: Program,
    pub span: Span,
}

/// A multi-kernel source: an ordered sequence of kernel declarations
/// that execute as one chained CFD step. A source without `kernel`
/// blocks parses as the degenerate single-kernel set (one kernel named
/// `main`). Kernels are linked by tensor name: an `input` of a later
/// kernel whose name matches an `output` of an earlier kernel receives
/// that kernel's result (the buffer handoff the host orchestrates).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSet {
    pub kernels: Vec<KernelDef>,
}

impl ProgramSet {
    /// Wrap a single program as the degenerate one-kernel set.
    pub fn single(program: Program) -> ProgramSet {
        ProgramSet {
            kernels: vec![KernelDef {
                name: "main".to_string(),
                program,
                span: Span::default(),
            }],
        }
    }

    /// Whether the source declared more than one kernel.
    pub fn is_multi(&self) -> bool {
        self.kernels.len() > 1
    }

    /// Kernel names in declaration (= execution) order.
    pub fn kernel_names(&self) -> Vec<&str> {
        self.kernels.iter().map(|k| k.name.as_str()).collect()
    }

    /// Find a kernel by name.
    pub fn find_kernel(&self, name: &str) -> Option<&KernelDef> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Storage class of a declared tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclKind {
    /// `var input x : [..]` — written by the host before execution.
    Input,
    /// `var output x : [..]` — read by the host after execution.
    Output,
    /// `var x : [..]` — kernel-local tensor.
    Local,
}

/// A tensor declaration or type alias.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `var [input|output] name : [d0 d1 ...]` or `var ... : alias`.
    Var {
        kind: DeclKind,
        name: String,
        ty: TypeExpr,
        span: Span,
    },
    /// `type name : [d0 d1 ...]`.
    TypeAlias {
        name: String,
        ty: TypeExpr,
        span: Span,
    },
}

/// A type expression: an explicit shape or a reference to an alias.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// `[d0 d1 ...]`; `[]` denotes a scalar.
    Shape(Vec<usize>),
    /// A previously declared `type` alias.
    Alias(String),
}

/// An assignment `name = expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub lhs: String,
    pub rhs: Expr,
    pub span: Span,
}

/// Entry-wise binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// The C99 operator spelling.
    pub fn c_symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// The DSL spelling.
    pub fn dsl_symbol(&self) -> &'static str {
        self.c_symbol()
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a declared tensor.
    Ident(String, Span),
    /// Integer literal used as a scalar.
    Num(f64, Span),
    /// Entry-wise binary operation (shapes must match).
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
    /// Tensor (outer) product `a # b`; the result's dimensions are the
    /// concatenation of the operands' dimensions.
    Product { operands: Vec<Expr>, span: Span },
    /// Contraction `expr . [[a b] ...]`: sums over each paired dimension
    /// of the operand expression; the result keeps the remaining
    /// dimensions in their original order.
    Contract {
        operand: Box<Expr>,
        pairs: Vec<(usize, usize)>,
        span: Span,
    },
}

impl Expr {
    /// Source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Ident(_, s) | Expr::Num(_, s) => *s,
            Expr::Binary { span, .. }
            | Expr::Product { span, .. }
            | Expr::Contract { span, .. } => *span,
        }
    }

    /// Visit every identifier referenced by the expression.
    pub fn visit_idents<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Expr::Ident(name, _) => f(name),
            Expr::Num(..) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_idents(f);
                rhs.visit_idents(f);
            }
            Expr::Product { operands, .. } => {
                for o in operands {
                    o.visit_idents(f);
                }
            }
            Expr::Contract { operand, .. } => operand.visit_idents(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_idents_collects_all() {
        let e = Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(Expr::Ident("D".into(), Span::default())),
            rhs: Box::new(Expr::Ident("t".into(), Span::default())),
            span: Span::default(),
        };
        let mut seen = Vec::new();
        e.visit_idents(&mut |n| seen.push(n.to_string()));
        assert_eq!(seen, vec!["D", "t"]);
    }

    #[test]
    fn binop_symbols() {
        assert_eq!(BinOp::Add.c_symbol(), "+");
        assert_eq!(BinOp::Div.dsl_symbol(), "/");
    }
}
