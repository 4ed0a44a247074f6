//! Build a [`CKernel`] from a scheduled tensor module.

use crate::ir::{AffineAddr, ArrAccess, CExpr, CKernel, CParam, CStmt, ParamRole};
use pschedule::{KernelModel, Schedule};
use teil::ir::{Module, PointExpr, TensorKind};
use teil::layout::LayoutPlan;

/// Codegen options.
#[derive(Debug, Clone)]
pub struct CodegenOptions {
    /// Decoupled mode (the paper's contribution): temporaries are
    /// exported as parameters and implemented in PLM units. When false,
    /// temporaries stay local to the accelerator (the baseline the paper
    /// compares against: 33 BRAMs vs 18).
    pub decoupled: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions { decoupled: true }
    }
}

/// Generate the loop program implementing `sched` for `module`. Every
/// kernel is named `kernel_body`; a program stage is emitted under its
/// own symbol by [`crate::emit_c99_as`].
pub fn build_kernel(
    module: &Module,
    model: &KernelModel,
    sched: &Schedule,
    opts: &CodegenOptions,
) -> CKernel {
    let layout = &model.layout;
    let (params, locals) = build_params(module, layout, opts);
    // One nest per statement in `(seq, micro)` order. A fused group
    // (equal `seq`, only from hand-built schedules) runs its statements
    // one after another, which keeps its order only when no RAW edge in
    // it needs the statements interleaved.
    let mut body = Vec::new();
    for si in sched.groups().into_iter().flatten() {
        body.extend(build_single_nest(module, model, sched, si));
    }
    CKernel {
        name: "kernel_body".into(),
        params,
        locals,
        body,
    }
}

/// Parameter order follows Figure 6: inputs, outputs, then exported
/// temporaries.
fn build_params(
    module: &Module,
    layout: &LayoutPlan,
    opts: &CodegenOptions,
) -> (Vec<CParam>, Vec<CParam>) {
    let mut params = Vec::new();
    let mut locals = Vec::new();
    let mut seen: Vec<teil::layout::ArrayId> = Vec::new();
    let mut push = |arr: teil::layout::ArrayId,
                    role: ParamRole,
                    into_params: bool,
                    params: &mut Vec<CParam>,
                    locals: &mut Vec<CParam>| {
        if seen.contains(&arr) {
            return;
        }
        seen.push(arr);
        let d = &layout.arrays[arr.0];
        let p = CParam {
            name: d.name.clone(),
            words: d.size,
            role,
        };
        if into_params {
            params.push(p);
        } else {
            locals.push(p);
        }
    };
    for kind in [TensorKind::Input, TensorKind::Output, TensorKind::Temp] {
        for id in module.of_kind(kind) {
            let arr = layout.placement(id).array;
            let role = match kind {
                TensorKind::Input => ParamRole::Input,
                TensorKind::Output => ParamRole::Output,
                TensorKind::Temp => ParamRole::Temp,
            };
            let exported = kind != TensorKind::Temp || opts.decoupled;
            push(arr, role, exported, &mut params, &mut locals);
        }
    }
    (params, locals)
}

fn permuted_extents(model: &KernelModel, sched: &Schedule, si: usize) -> Vec<usize> {
    sched.perms[si]
        .iter()
        .map(|&v| model.stmts[si].extents[v])
        .collect()
}

/// A single statement's loop nest. Reductions with all reduce dims
/// innermost use a scalar accumulator; otherwise fall back to zero-init +
/// in-memory accumulation.
fn build_single_nest(
    module: &Module,
    model: &KernelModel,
    sched: &Schedule,
    si: usize,
) -> Vec<CStmt> {
    let stmt = &module.stmts[si];
    let pst = &model.stmts[si];
    let perm = &sched.perms[si];
    let rank = pst.rank();
    let out_rank = pst.out_rank;
    let ext = permuted_extents(model, sched, si);
    let vars: Vec<String> = (0..rank).map(|d| format!("i{d}")).collect();

    if !stmt.is_reduction() {
        let body = vec![store_stmt(module, model, sched, si)];
        return vec![wrap_loops(&vars, &ext, body)];
    }

    // Accumulator form requires every reduction variable in the loop
    // suffix.
    let reduce_rank = stmt.reduce_rank();
    let suffix_ok = perm[rank - reduce_rank..].iter().all(|&v| v >= out_rank);
    if suffix_ok {
        let acc = "acc".to_string();
        let expr = point_to_cexpr(module, model, sched, si, &stmt.expr);
        let target = write_access(module, model, sched, si);
        // Innermost reduction loops around the accumulation.
        let mut inner: Vec<CStmt> = vec![CStmt::AccumScalar {
            name: acc.clone(),
            expr,
        }];
        for d in (out_rank..rank).rev() {
            inner = vec![CStmt::For {
                var: vars[d].clone(),
                extent: ext[d],
                body: inner,
            }];
        }
        let mut body = vec![CStmt::DeclScalar {
            name: acc.clone(),
            init: 0.0,
        }];
        body.extend(inner);
        body.push(CStmt::Store {
            target,
            expr: CExpr::Var(acc),
        });
        let mut nest = body;
        for d in (0..out_rank).rev() {
            nest = vec![CStmt::For {
                var: vars[d].clone(),
                extent: ext[d],
                body: nest,
            }];
        }
        return nest;
    }

    // General form: zero-init the output, then accumulate in memory.
    let out_ext: Vec<usize> = module.shape(stmt.out).to_vec();
    let zvars: Vec<String> = (0..out_ext.len()).map(|d| format!("z{d}")).collect();
    let wp = model.layout.placement(stmt.out);
    let zero_target = ArrAccess {
        array: model.layout.arrays[wp.array.0].name.clone(),
        addr: AffineAddr {
            coeffs: wp.strides.clone(),
            constant: wp.offset,
        },
    };
    let zero_nest = wrap_loops(
        &zvars,
        &out_ext,
        vec![CStmt::Store {
            target: zero_target,
            expr: CExpr::Const(0.0),
        }],
    );
    let expr = point_to_cexpr(module, model, sched, si, &stmt.expr);
    let target = write_access(module, model, sched, si);
    let accum_nest = wrap_loops(&vars, &ext, vec![CStmt::StoreAccum { target, expr }]);
    vec![zero_nest, accum_nest]
}

/// Plain (non-reduction) store for a statement.
fn store_stmt(module: &Module, model: &KernelModel, sched: &Schedule, si: usize) -> CStmt {
    let stmt = &module.stmts[si];
    CStmt::Store {
        target: write_access(module, model, sched, si),
        expr: point_to_cexpr(module, model, sched, si, &stmt.expr),
    }
}

/// The write access of a statement, with loop variables in permuted
/// order.
fn write_access(module: &Module, model: &KernelModel, sched: &Schedule, si: usize) -> ArrAccess {
    let stmt = &module.stmts[si];
    let wp = model.layout.placement(stmt.out);
    let out_rank = model.stmts[si].out_rank;
    let index_map: Vec<usize> = (0..out_rank).collect();
    ArrAccess {
        array: model.layout.arrays[wp.array.0].name.clone(),
        addr: addr_for(&index_map, &wp.strides, wp.offset, &sched.perms[si]),
    }
}

/// Translate a point expression into a C expression under a loop
/// permutation.
#[allow(clippy::only_used_in_recursion)]
fn point_to_cexpr(
    module: &Module,
    model: &KernelModel,
    sched: &Schedule,
    si: usize,
    e: &PointExpr,
) -> CExpr {
    match e {
        PointExpr::Const(c) => CExpr::Const(*c),
        PointExpr::Access { tensor, index_map } => {
            let p = model.layout.placement(*tensor);
            CExpr::Load(ArrAccess {
                array: model.layout.arrays[p.array.0].name.clone(),
                addr: addr_for(index_map, &p.strides, p.offset, &sched.perms[si]),
            })
        }
        PointExpr::Bin { op, lhs, rhs } => CExpr::Bin {
            op: *op,
            lhs: Box::new(point_to_cexpr(module, model, sched, si, lhs)),
            rhs: Box::new(point_to_cexpr(module, model, sched, si, rhs)),
        },
    }
}

/// Affine address over *loop* variables: loop depth `d` iterates
/// iteration variable `perm[d]`, so stride contributions land at the
/// depth that iterates the accessed variable.
fn addr_for(index_map: &[usize], strides: &[i64], offset: i64, perm: &[usize]) -> AffineAddr {
    let mut coeffs = vec![0i64; perm.len()];
    for (dim, &v) in index_map.iter().enumerate() {
        let depth = perm
            .iter()
            .position(|&p| p == v)
            .expect("iteration variable in permutation");
        coeffs[depth] += strides[dim];
    }
    AffineAddr {
        coeffs,
        constant: offset,
    }
}

fn wrap_loops(vars: &[String], extents: &[usize], body: Vec<CStmt>) -> CStmt {
    let mut cur = body;
    for d in (0..vars.len()).rev() {
        cur = vec![CStmt::For {
            var: vars[d].clone(),
            extent: extents[d],
            body: cur,
        }];
    }
    match cur.into_iter().next() {
        Some(s) => s,
        None => unreachable!("loop body empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pschedule::Dependences;
    use teil::layout::LayoutPlan;
    use teil::lower::lower;
    use teil::transform::factorize;

    fn setup(src: &str, factored: bool) -> (Module, KernelModel, Schedule) {
        let typed = cfdlang::check(&cfdlang::parse(src).unwrap()).unwrap();
        let mut m = lower(&typed).unwrap();
        if factored {
            m = factorize(&m);
        }
        let layout = LayoutPlan::row_major(&m);
        let km = KernelModel::build(&m, &layout);
        let s = Schedule::reference(&km);
        (m, km, s)
    }

    #[test]
    fn params_follow_figure6_order() {
        let (m, km, s) = setup(&cfdlang::examples::inverse_helmholtz(11), true);
        let k = build_kernel(&m, &km, &s, &CodegenOptions::default());
        let names: Vec<&str> = k.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["S", "D", "u", "v", "t", "r", "t0", "t1", "t2", "t3"]
        );
        assert!(k.locals.is_empty());
        assert_eq!(k.params[0].words, 121);
        assert_eq!(k.params[2].words, 1331);
    }

    #[test]
    fn non_decoupled_keeps_temps_local() {
        let (m, km, s) = setup(&cfdlang::examples::inverse_helmholtz(11), true);
        let opts = CodegenOptions { decoupled: false };
        let k = build_kernel(&m, &km, &s, &opts);
        let names: Vec<&str> = k.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["S", "D", "u", "v"]);
        assert_eq!(k.locals.len(), 6);
        assert!(k.locals.iter().all(|p| p.words == 1331));
    }

    #[test]
    fn contraction_uses_scalar_accumulator() {
        let (m, km, s) = setup(&cfdlang::examples::inverse_helmholtz(4), true);
        let k = build_kernel(&m, &km, &s, &CodegenOptions::default());
        let mut decls = 0;
        k.visit_stmts(&mut |st| {
            if matches!(st, CStmt::DeclScalar { .. }) {
                decls += 1;
            }
        });
        // Six contraction stages, each with one accumulator.
        assert_eq!(decls, 6);
    }

    #[test]
    fn permutation_moving_reduction_out_falls_back() {
        let (m, km, mut s) = setup(
            "var input S : [3 3]\nvar input u : [3]\nvar output o : [3]\no = S # u . [[1 2]]",
            false,
        );
        // o[i] = sum_l S[i,l]u[l]: vars (i=0, l=1); permute reduction out.
        s.perms[0] = vec![1, 0];
        let deps = Dependences::analyze(&km);
        assert!(pschedule::legal(&km, &deps, &s));
        let k = build_kernel(&m, &km, &s, &CodegenOptions::default());
        let mut has_accum_mem = false;
        k.visit_stmts(&mut |st| {
            if matches!(st, CStmt::StoreAccum { .. }) {
                has_accum_mem = true;
            }
        });
        assert!(
            has_accum_mem,
            "reduction-outer schedule needs memory accumulation"
        );
    }

    #[test]
    fn addresses_respect_permutation() {
        let (m, km, mut s) = setup(
            "var input A : [4 8]\nvar output o : [4 8]\no = A + A",
            false,
        );
        s.perms[0] = vec![1, 0]; // iterate columns outer
        let k = build_kernel(&m, &km, &s, &CodegenOptions::default());
        // Store target: o[8*i1 + i0] — loop var 0 now iterates x1.
        let mut seen = false;
        k.visit_stmts(&mut |st| {
            if let CStmt::Store { target, .. } = st {
                assert_eq!(target.addr.coeffs, vec![1, 8]);
                seen = true;
            }
        });
        assert!(seen);
    }

    #[test]
    fn hadamard_body_is_two_loads_one_store() {
        let (m, km, s) = setup(&cfdlang::examples::inverse_helmholtz(4), false);
        let k = build_kernel(&m, &km, &s, &CodegenOptions::default());
        let mut found = false;
        k.visit_stmts(&mut |st| {
            if let CStmt::Store { target, expr } = st {
                if target.array == "r" {
                    assert_eq!(expr.counts(), (2, 1));
                    found = true;
                }
            }
        });
        assert!(found);
    }
}
