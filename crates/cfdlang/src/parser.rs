//! Recursive-descent parser for CFDlang.
//!
//! Grammar (whitespace-separated):
//!
//! ```text
//! program   := (decl)* (stmt)*
//! decl      := 'var' ('input'|'output')? ident ':' type
//!            | 'type' ident ':' type
//! type      := '[' int* ']' | ident
//! stmt      := ident '=' expr
//! expr      := term (('+'|'-') term)*
//! term      := contract (('*'|'/') contract)*
//! contract  := product ('.' '[' pair* ']')*
//! product   := primary ('#' primary)*
//! primary   := ident | int | '(' expr ')'
//! pair      := '[' int int ']'
//! ```
//!
//! `.` (contraction) binds to the whole preceding `#`-product chain, so
//! `S # S # S # u . [[1 6] [3 7] [5 8]]` contracts the 9-dimensional
//! product, exactly as in Figure 1 of the paper.

use crate::ast::{BinOp, Decl, DeclKind, Expr, KernelDef, Program, ProgramSet, Stmt, TypeExpr};
use crate::diag::Diagnostic;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parse a single-kernel CFDlang source string into an AST.
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    let tokens = lex(src)?;
    Parser { tokens, pos: 0 }.program(false)
}

/// Parse a (possibly multi-kernel) source into a [`ProgramSet`].
///
/// A source made of `kernel name { ... }` blocks yields one kernel per
/// block in declaration order; a plain declaration/statement source is
/// the degenerate case — a single kernel named `main`. Mixing the two
/// forms is an error.
pub fn parse_set(src: &str) -> Result<ProgramSet, Diagnostic> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    if p.peek().kind != TokenKind::Kernel {
        return Ok(ProgramSet::single(p.program(false)?));
    }
    let mut kernels: Vec<KernelDef> = Vec::new();
    while p.peek().kind != TokenKind::Eof {
        let kw = p.eat(&TokenKind::Kernel)?;
        let (name, _) = p.eat_ident()?;
        if kernels.iter().any(|k| k.name == name) {
            return Err(Diagnostic::new(
                kw.span,
                format!("duplicate kernel '{name}'"),
            ));
        }
        p.eat(&TokenKind::LBrace)?;
        let program = p.program(true)?;
        p.eat(&TokenKind::RBrace)?;
        kernels.push(KernelDef {
            name,
            program,
            span: kw.span,
        });
    }
    Ok(ProgramSet { kernels })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> Result<Token, Diagnostic> {
        if &self.peek().kind == kind {
            Ok(self.next())
        } else {
            Err(Diagnostic::new(
                self.peek().span,
                format!("expected {kind}, found {}", self.peek().kind),
            ))
        }
    }

    fn eat_ident(&mut self) -> Result<(String, crate::diag::Span), Diagnostic> {
        match self.peek().kind.clone() {
            TokenKind::Ident(name) => {
                let t = self.next();
                Ok((name, t.span))
            }
            other => Err(Diagnostic::new(
                self.peek().span,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn eat_int(&mut self) -> Result<u64, Diagnostic> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.next();
                Ok(v)
            }
            ref other => Err(Diagnostic::new(
                self.peek().span,
                format!("expected integer, found {other}"),
            )),
        }
    }

    /// A program body: declarations and statements up to the end of
    /// input or, inside a `kernel { ... }` block, up to its `}`.
    fn program(&mut self, in_block: bool) -> Result<Program, Diagnostic> {
        let mut decls = Vec::new();
        let mut stmts = Vec::new();
        loop {
            match self.peek().kind {
                TokenKind::Var => decls.push(self.var_decl()?),
                TokenKind::Type => decls.push(self.type_decl()?),
                TokenKind::Ident(_) => stmts.push(self.stmt()?),
                TokenKind::Eof => break,
                TokenKind::RBrace if in_block => break,
                ref other => {
                    return Err(Diagnostic::new(
                        self.peek().span,
                        format!("expected declaration or statement, found {other}"),
                    ))
                }
            }
        }
        Ok(Program { decls, stmts })
    }

    fn var_decl(&mut self) -> Result<Decl, Diagnostic> {
        let var = self.eat(&TokenKind::Var)?;
        let kind = match self.peek().kind {
            TokenKind::Input => {
                self.next();
                DeclKind::Input
            }
            TokenKind::Output => {
                self.next();
                DeclKind::Output
            }
            _ => DeclKind::Local,
        };
        let (name, _) = self.eat_ident()?;
        self.eat(&TokenKind::Colon)?;
        let ty = self.type_expr()?;
        Ok(Decl::Var {
            kind,
            name,
            ty,
            span: var.span,
        })
    }

    fn type_decl(&mut self) -> Result<Decl, Diagnostic> {
        let kw = self.eat(&TokenKind::Type)?;
        let (name, _) = self.eat_ident()?;
        self.eat(&TokenKind::Colon)?;
        let ty = self.type_expr()?;
        Ok(Decl::TypeAlias {
            name,
            ty,
            span: kw.span,
        })
    }

    fn type_expr(&mut self) -> Result<TypeExpr, Diagnostic> {
        match self.peek().kind.clone() {
            TokenKind::LBracket => {
                self.next();
                let mut dims = Vec::new();
                while self.peek().kind != TokenKind::RBracket {
                    dims.push(self.eat_int()? as usize);
                }
                self.eat(&TokenKind::RBracket)?;
                Ok(TypeExpr::Shape(dims))
            }
            TokenKind::Ident(name) => {
                self.next();
                Ok(TypeExpr::Alias(name))
            }
            other => Err(Diagnostic::new(
                self.peek().span,
                format!("expected type (shape or alias), found {other}"),
            )),
        }
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let (lhs, span) = self.eat_ident()?;
        self.eat(&TokenKind::Equals)?;
        let rhs = self.expr()?;
        Ok(Stmt { lhs, rhs, span })
    }

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.term()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.contract()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.next();
            let rhs = self.contract()?;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn contract(&mut self) -> Result<Expr, Diagnostic> {
        let mut e = self.product()?;
        while self.peek().kind == TokenKind::Dot {
            let dot = self.next();
            self.eat(&TokenKind::LBracket)?;
            let mut pairs = Vec::new();
            while self.peek().kind == TokenKind::LBracket {
                self.next();
                let a = self.eat_int()? as usize;
                let b = self.eat_int()? as usize;
                self.eat(&TokenKind::RBracket)?;
                pairs.push((a, b));
            }
            let close = self.eat(&TokenKind::RBracket)?;
            if pairs.is_empty() {
                return Err(Diagnostic::new(
                    dot.span,
                    "contraction requires at least one index pair",
                ));
            }
            let span = e.span().to(close.span);
            e = Expr::Contract {
                operand: Box::new(e),
                pairs,
                span,
            };
        }
        Ok(e)
    }

    fn product(&mut self) -> Result<Expr, Diagnostic> {
        let first = self.primary()?;
        let mut operands = vec![first];
        while self.peek().kind == TokenKind::Hash {
            self.next();
            operands.push(self.primary()?);
        }
        if operands.len() == 1 {
            Ok(operands.pop().expect("nonempty"))
        } else {
            let span = operands[0]
                .span()
                .to(operands.last().expect("nonempty").span());
            Ok(Expr::Product { operands, span })
        }
    }

    fn primary(&mut self) -> Result<Expr, Diagnostic> {
        match self.peek().kind.clone() {
            TokenKind::Ident(name) => {
                let t = self.next();
                Ok(Expr::Ident(name, t.span))
            }
            TokenKind::Int(v) => {
                let t = self.next();
                Ok(Expr::Num(v as f64, t.span))
            }
            TokenKind::LParen => {
                self.next();
                let e = self.expr()?;
                self.eat(&TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(Diagnostic::new(
                self.peek().span,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Decl, DeclKind, Expr, TypeExpr};

    #[test]
    fn parse_inverse_helmholtz() {
        let src = crate::examples::inverse_helmholtz(11);
        let p = parse(&src).unwrap();
        assert_eq!(p.decls.len(), 6);
        assert_eq!(p.stmts.len(), 3);
        match &p.stmts[0].rhs {
            Expr::Contract { operand, pairs, .. } => {
                assert_eq!(pairs, &[(1, 6), (3, 7), (5, 8)]);
                match operand.as_ref() {
                    Expr::Product { operands, .. } => assert_eq!(operands.len(), 4),
                    other => panic!("expected product, got {other:?}"),
                }
            }
            other => panic!("expected contraction, got {other:?}"),
        }
    }

    #[test]
    fn parse_decl_kinds() {
        let p = parse("var input a : [2]\nvar output b : [2]\nvar c : [2]").unwrap();
        let kinds: Vec<DeclKind> = p
            .decls
            .iter()
            .map(|d| match d {
                Decl::Var { kind, .. } => *kind,
                _ => panic!(),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![DeclKind::Input, DeclKind::Output, DeclKind::Local]
        );
    }

    #[test]
    fn parse_type_alias() {
        let p = parse("type mat : [4 4]\nvar input A : mat").unwrap();
        match &p.decls[0] {
            Decl::TypeAlias { name, ty, .. } => {
                assert_eq!(name, "mat");
                assert_eq!(ty, &TypeExpr::Shape(vec![4, 4]));
            }
            other => panic!("expected alias, got {other:?}"),
        }
        match &p.decls[1] {
            Decl::Var { ty, .. } => assert_eq!(ty, &TypeExpr::Alias("mat".into())),
            other => panic!("expected var, got {other:?}"),
        }
    }

    #[test]
    fn hadamard_precedence() {
        // a * b + c parses as (a*b) + c
        let p = parse("var a : [2]\nvar b : [2]\nvar c : [2]\nvar o : [2]\no = a * b + c").unwrap();
        match &p.stmts[0].rhs {
            Expr::Binary {
                op: BinOp::Add,
                lhs,
                ..
            } => match lhs.as_ref() {
                Expr::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("expected mul on lhs, got {other:?}"),
            },
            other => panic!("expected add at top, got {other:?}"),
        }
    }

    #[test]
    fn contraction_binds_to_product_chain() {
        let p = parse("var S : [2 2]\nvar u : [2]\nvar o : [2]\no = S # u . [[1 2]]").unwrap();
        match &p.stmts[0].rhs {
            Expr::Contract { operand, .. } => {
                assert!(matches!(operand.as_ref(), Expr::Product { .. }));
            }
            other => panic!("expected contract, got {other:?}"),
        }
    }

    #[test]
    fn parenthesized_expression() {
        let p = parse("var a : [2]\nvar b : [2]\nvar o : [2]\no = (a + b) * a").unwrap();
        match &p.stmts[0].rhs {
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                ..
            } => {
                assert!(matches!(lhs.as_ref(), Expr::Binary { op: BinOp::Add, .. }));
            }
            other => panic!("expected mul at top, got {other:?}"),
        }
    }

    #[test]
    fn error_on_missing_equals() {
        let err = parse("var a : [2]\na a").unwrap_err();
        assert!(err.message.contains("expected '='"), "{}", err.message);
    }

    #[test]
    fn error_on_empty_contraction() {
        let err = parse("var a : [2 2]\nvar o : []\no = a . []").unwrap_err();
        assert!(err.message.contains("at least one index pair"));
    }

    #[test]
    fn scalar_literal() {
        let p = parse("var a : [2]\nvar o : [2]\no = a * 2").unwrap();
        match &p.stmts[0].rhs {
            Expr::Binary { rhs, .. } => {
                assert!(matches!(rhs.as_ref(), Expr::Num(v, _) if *v == 2.0))
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
