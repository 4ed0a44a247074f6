//! C99 text emission.
//!
//! Produces the kernel source handed to the HLS tool: a single function
//! with every exported array as a flat `double` pointer parameter (the
//! hardware interface of Figure 6), `restrict`-qualified since CFDlang
//! tensors never alias.

use crate::ir::{CExpr, CKernel, CParam, CStmt, ParamRole};
use std::fmt::Write;

/// Render a kernel as C99.
pub fn emit_c99(k: &CKernel) -> String {
    emit_c99_as(k, &k.name)
}

/// Render a kernel as C99 under an explicit function symbol. Every
/// kernel compiles to `kernel_body` on its own, but the stages of a
/// multi-kernel program link into **one** accelerator system — their
/// sources need distinct symbols (`<stage>_body`). The header comment
/// names the build contract, `cc -std=c99 -ffp-contract=off`: without
/// contraction into fused multiply-adds the C computes the reference
/// interpreter's doubles bit for bit.
pub fn emit_c99_as(k: &CKernel, symbol: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "/* generated by cfdfpga — CFDlang kernel");
    let _ = writeln!(out, " * build contract: cc -std=c99 -ffp-contract=off */");
    let _ = writeln!(out, "#include <stddef.h>");
    let _ = writeln!(out);
    let params: Vec<String> = k
        .params
        .iter()
        .map(|p| format!("double *restrict {} /* [{}] */", p.name, p.words))
        .collect();
    let _ = writeln!(out, "void {}({})", symbol, params.join(",\n     "));
    let _ = writeln!(out, "{{");
    for l in &k.locals {
        let _ = writeln!(out, "  static double {}[{}];", l.name, l.words);
    }
    // An input no statement reads (a handoff the kernel never uses) is
    // still part of the interface; casting it to void keeps `-Wextra
    // -Werror` quiet about it. Every other parameter is written: the
    // frontend rejects an output that is never assigned.
    let unread = |p: &&CParam| p.role == ParamRole::Input && !reads_array(&k.body, &p.name);
    for p in k.params.iter().filter(unread) {
        let _ = writeln!(out, "  (void){};", p.name);
    }
    for s in &k.body {
        emit_stmt(&mut out, s, 1);
    }
    let _ = writeln!(out, "}}");
    out
}

/// Whether a statement of `body` reads array `name`.
fn reads_array(body: &[CStmt], name: &str) -> bool {
    body.iter().any(|s| match s {
        CStmt::For { body, .. } => reads_array(body, name),
        CStmt::DeclScalar { .. } => false,
        CStmt::AccumScalar { expr, .. }
        | CStmt::Store { expr, .. }
        | CStmt::StoreAccum { expr, .. } => reads(expr, name),
    })
}

/// Whether `e` loads from array `name`.
fn reads(e: &CExpr, name: &str) -> bool {
    match e {
        CExpr::Load(a) => a.array == name,
        CExpr::Const(_) | CExpr::Var(_) => false,
        CExpr::Bin { lhs, rhs, .. } => reads(lhs, name) || reads(rhs, name),
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_stmt(out: &mut String, s: &CStmt, depth: usize) {
    match s {
        CStmt::For { var, extent, body } => {
            indent(out, depth);
            let _ = writeln!(out, "for (int {var} = 0; {var} < {extent}; ++{var}) {{");
            for b in body {
                emit_stmt(out, b, depth + 1);
            }
            indent(out, depth);
            let _ = writeln!(out, "}}");
        }
        CStmt::DeclScalar { name, init } => {
            indent(out, depth);
            let _ = writeln!(out, "double {name} = {init:?};");
        }
        CStmt::AccumScalar { name, expr } => {
            indent(out, depth);
            let _ = writeln!(out, "{name} += {};", emit_expr(expr));
        }
        CStmt::Store { target, expr } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{}[{}] = {};",
                target.array,
                target.addr.to_c(&loop_vars(&target.addr.coeffs)),
                emit_expr(expr)
            );
        }
        CStmt::StoreAccum { target, expr } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{}[{}] += {};",
                target.array,
                target.addr.to_c(&loop_vars(&target.addr.coeffs)),
                emit_expr(expr)
            );
        }
    }
}

fn loop_vars(coeffs: &[i64]) -> Vec<String> {
    (0..coeffs.len()).map(|d| format!("i{d}")).collect()
}

fn emit_expr(e: &CExpr) -> String {
    match e {
        CExpr::Load(a) => format!("{}[{}]", a.array, a.addr.to_c(&loop_vars(&a.addr.coeffs))),
        CExpr::Const(c) => format!("{c:?}"),
        CExpr::Var(v) => v.clone(),
        CExpr::Bin { op, lhs, rhs } => {
            format!("({} {} {})", emit_expr(lhs), op.c_symbol(), emit_expr(rhs))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{build_kernel, CodegenOptions};
    use pschedule::{KernelModel, Schedule};
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn emit(src: &str, factored: bool, decoupled: bool) -> String {
        let typed = cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let s = Schedule::reference(&km);
        let opts = CodegenOptions { decoupled };
        super::emit_c99(&build_kernel(&m, &km, &s, &opts))
    }

    #[test]
    fn named_emission_only_changes_the_symbol() {
        let typed =
            cfdlang::check(&cfdlang::parse(&cfdlang::examples::matrix_sandwich(4)).unwrap())
                .unwrap();
        let m = factorize(&lower(&typed).unwrap());
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let s = Schedule::reference(&km);
        let k = build_kernel(&m, &km, &s, &CodegenOptions::default());
        let plain = super::emit_c99(&k);
        let named = super::emit_c99_as(&k, "project_body");
        assert!(named.contains("void project_body("), "{named}");
        assert!(!named.contains("void kernel_body("));
        // Everything but the symbol is identical.
        assert_eq!(
            plain.replace("void kernel_body(", "void project_body("),
            named
        );
    }

    #[test]
    fn helmholtz_c_has_figure6_signature() {
        let c = emit(&cfdlang::examples::inverse_helmholtz(11), true, true);
        assert!(c.contains("void kernel_body("), "{c}");
        for p in ["S", "D", "u", "v", "t", "r", "t0", "t1", "t2", "t3"] {
            assert!(
                c.contains(&format!("double *restrict {p} ")),
                "missing param {p}:\n{c}"
            );
        }
        // Row-major flat addressing for p = 11.
        assert!(c.contains("121 * i0 + 11 * i1 + i2"), "{c}");
        // Accumulator idiom.
        assert!(c.contains("double acc = 0.0;"), "{c}");
        assert!(c.contains("acc +="), "{c}");
    }

    #[test]
    fn non_decoupled_uses_static_locals() {
        let c = emit(&cfdlang::examples::inverse_helmholtz(11), true, false);
        assert!(c.contains("static double t0[1331];"), "{c}");
        assert!(!c.contains("restrict t0"), "{c}");
    }

    #[test]
    fn loops_have_correct_bounds() {
        let c = emit(&cfdlang::examples::inverse_helmholtz(7), false, true);
        assert!(c.contains("for (int i0 = 0; i0 < 7; ++i0)"), "{c}");
    }

    #[test]
    fn emitted_c_is_braced_consistently() {
        let c = emit(&cfdlang::examples::inverse_helmholtz(4), true, true);
        let opens = c.matches('{').count();
        let closes = c.matches('}').count();
        assert_eq!(opens, closes, "{c}");
    }
}
