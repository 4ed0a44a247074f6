//! Compiler-stage microbenchmarks: the cost of each step of Figure 4
//! (frontend, lowering, canonicalization, polyhedral model, dependence
//! analysis, rescheduling, liveness, code generation) on the paper's
//! kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use pschedule::{
    CompatibilityGraph, Dependences, KernelModel, Liveness, Schedule, SchedulerOptions,
};
use std::hint::black_box;
use teil::layout::LayoutPlan;

fn bench(c: &mut Criterion) {
    let src = cfdlang::examples::inverse_helmholtz(bench::PAPER_P);
    let ast = cfdlang::parse(&src).unwrap();
    let typed = cfdlang::check(&ast).unwrap();
    let lowered = teil::lower(&typed).unwrap();
    let module = teil::transform::factorize(&lowered);
    let layout = LayoutPlan::row_major(&module);
    let model = KernelModel::build(&module, &layout);
    let deps = Dependences::analyze(&model);
    let sched = pschedule::reschedule(&module, &model, &deps, &SchedulerOptions::default());

    let mut g = c.benchmark_group("compiler");
    g.bench_function("parse_and_check", |b| {
        b.iter(|| cfdlang::check(&cfdlang::parse(black_box(&src)).unwrap()).unwrap())
    });
    g.bench_function("lower", |b| {
        b.iter(|| teil::lower(black_box(&typed)).unwrap())
    });
    g.bench_function("factorize", |b| {
        b.iter(|| teil::transform::factorize(black_box(&lowered)))
    });
    g.sample_size(20);
    g.bench_function("polyhedral_model", |b| {
        b.iter(|| KernelModel::build(black_box(&module), &layout))
    });
    g.bench_function("dependence_analysis", |b| {
        b.iter(|| Dependences::analyze(black_box(&model)))
    });
    g.sample_size(10);
    g.bench_function("reschedule", |b| {
        b.iter(|| pschedule::reschedule(&module, &model, &deps, &SchedulerOptions::default()))
    });
    g.bench_function("liveness", |b| {
        b.iter(|| {
            let lv = Liveness::analyze(&module, &model, black_box(&sched));
            CompatibilityGraph::build(&model, &lv)
        })
    });
    g.bench_function("codegen_c99", |b| {
        b.iter(|| {
            let k = cgen::build_kernel(&module, &model, &sched, &cgen::CodegenOptions::default());
            cgen::emit_c99(&k)
        })
    });
    // Sanity: the reference schedule is the legality fallback.
    assert!(pschedule::legal(
        &model,
        &deps,
        &Schedule::reference(&model)
    ));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
