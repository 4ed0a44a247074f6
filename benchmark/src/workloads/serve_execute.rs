//! `serve_execute`: serving with the tensors actually computed.
//!
//! One op is `ProgramArtifacts::serve` of 32 closed requests with
//! `execute: true` on the ZCU106 `simulation_step(7)` system; inside
//! the op every request's outputs are compared bit for bit with
//! `zynq::run_program_reference` on the same inputs. The scheduler is
//! noise here: the time is the `cgen` exec chain (the served path), the
//! `teil` reference interpreter (the check) and input generation — the
//! split of the old `serve2048_execute_wall` the roadmap asks for, and
//! the only workload where interpreter work moves the headline. The
//! seed draws every request's input tensors.

use std::collections::HashMap;
use std::path::Path;

use cfd_core::program::ProgramArtifacts;
use cfd_core::{RuntimeOptions, ServiceReport};
use sysgen::Platform;
use teil::Tensor;

use super::{
    compile, conserves, program_options, same_json, sim_of, stages, valid_json, verify_bitexact,
    SERVED_P,
};
use crate::cal;
use crate::harness::{fnv64, probe_s, OpKind, SimMetrics, Workload};
use crate::metrics::Metrics;
use crate::trace::{SpanAgg, Tracer};

const REQUESTS: usize = 32;

pub struct ExecuteOut {
    report: ServiceReport,
    /// Output values that differ from the reference interpreter's.
    mismatches: usize,
}

pub struct ServeExecute {
    kinds: Vec<OpKind>,
    art: ProgramArtifacts,
    opts: RuntimeOptions,
    reference: u64,
    sim: SimMetrics,
    /// Reference-interpreter flops of one request.
    flops_per_req: u64,
    traced_mismatches: usize,
}

/// Values of `got` that are not bit-identical to `want` (a missing or
/// extra output counts whole).
fn mismatches(got: &HashMap<String, Vec<f64>>, want: &HashMap<String, Tensor>) -> usize {
    let mut bad = got.keys().filter(|k| !want.contains_key(*k)).count();
    for (name, tensor) in want {
        bad += match got.get(name) {
            Some(values) if values.len() == tensor.data.len() => values
                .iter()
                .zip(&tensor.data)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count(),
            _ => tensor.data.len().max(1),
        };
    }
    bad
}

impl ServeExecute {
    /// Request `id`'s inputs, as `runtime::generate_requests` draws them.
    fn inputs(&self, id: usize) -> HashMap<String, Tensor> {
        zynq::random_program_inputs(&stages(&self.art).0, self.opts.seed.wrapping_add(id as u64))
    }

    fn reference(&self, inputs: &HashMap<String, Tensor>) -> HashMap<String, Tensor> {
        zynq::run_program_reference(&self.art.names, &stages(&self.art).0, inputs)
            .expect("the reference interpreter ran in set-up")
    }

    fn check_outputs(&self, outputs: &[HashMap<String, Vec<f64>>], t: &mut Tracer) -> usize {
        let mut bad = outputs.len().abs_diff(REQUESTS);
        for (id, got) in outputs.iter().enumerate() {
            let inputs = t.leaf("zynq.gen_inputs", || self.inputs(id));
            let want = t.leaf("teil.interp", || self.reference(&inputs));
            bad += mismatches(got, &want);
        }
        bad
    }

    fn serve_staged(&self, t: &mut Tracer) -> ExecuteOut {
        let design = self.art.system.as_ref().expect("fits, checked in set-up");
        let (modules, kernels) = stages(&self.art);
        let requests = t.leaf("runtime.gen_requests", || {
            runtime::generate_requests(&modules, REQUESTS, &self.opts.arrival, self.opts.seed)
                .expect("closed arrivals never fail")
        });
        let served = t.leaf("runtime.serve", || {
            runtime::serve(
                design,
                &self.art.names,
                &modules,
                &kernels,
                &requests,
                &self.opts,
            )
            .expect("served in set-up")
        });
        // The product's entry point drops the request stream before it
        // returns; holding it longer changes what the allocator sees.
        drop(requests);
        let mismatches = self.check_outputs(&served.outputs, t);
        ExecuteOut {
            report: served.report,
            mismatches,
        }
    }
}

impl Workload for ServeExecute {
    type Out = ExecuteOut;

    const ROUNDS_PER_SECOND: f64 = 4.0;
    const CAL: cal::CalOp = cal::INTERP;

    fn setup(seed: u64, _out_dir: &Path) -> Result<Self, String> {
        let source = cfdlang::examples::simulation_step(SERVED_P);
        let art = compile(&source, &program_options(Platform::zcu106()))?;
        verify_bitexact("simulation_step_7", &art, seed)?;
        let mut w = ServeExecute {
            kinds: vec![OpKind {
                name: format!("serve_execute_{REQUESTS}"),
                units: REQUESTS as u64,
            }],
            art,
            opts: RuntimeOptions {
                requests: REQUESTS,
                execute: true,
                seed,
                ..RuntimeOptions::default()
            },
            reference: 0,
            sim: SimMetrics::default(),
            flops_per_req: 0,
            traced_mismatches: 0,
        };
        let out = w.run(0, &mut Tracer::new(false));
        if out.mismatches != 0 {
            return Err(format!(
                "{} served output values differ from the reference interpreter",
                out.mismatches
            ));
        }
        conserves(&out.report)?;
        let json = out.report.to_json();
        valid_json("service report", &json)?;
        w.reference = fnv64(json.as_bytes());
        w.sim = sim_of("simulation_step_7", &w.art, &out.report)?;

        // Flops the reference interpreter spends on one request: each
        // stage run on zero inputs of the right shapes (the count does
        // not depend on the values).
        for k in &w.art.kernels {
            let zeros = k
                .module
                .of_kind(teil::TensorKind::Input)
                .into_iter()
                .map(|id| (k.module.name(id), Tensor::zeros(k.module.shape(id))))
                .collect();
            let run = teil::Interpreter::new(&k.module).run(&teil::interp::inputs_from(zeros))?;
            w.flops_per_req += run.stats.flops();
        }
        Ok(w)
    }

    fn kinds(&self) -> &[OpKind] {
        &self.kinds
    }

    fn headline(&self) -> usize {
        0
    }

    fn run(&mut self, _kind: usize, tracer: &mut Tracer) -> ExecuteOut {
        if !tracer.enabled() {
            let served = self.art.serve(&self.opts).expect("served in set-up");
            let mismatches = self.check_outputs(&served.outputs, tracer);
            return ExecuteOut {
                report: served.report,
                mismatches,
            };
        }
        let out = tracer.span("op.serve_execute", |t| self.serve_staged(t));
        self.traced_mismatches += out.mismatches;
        out
    }

    fn check(&self, _kind: usize, out: &ExecuteOut) -> Result<(), String> {
        if out.mismatches != 0 {
            return Err(format!(
                "{} output values differ from the reference interpreter",
                out.mismatches
            ));
        }
        conserves(&out.report)?;
        same_json(&out.report.to_json(), self.reference)
    }

    fn sim(&self) -> SimMetrics {
        self.sim
    }

    fn layers(&mut self, agg: &SpanAgg, m: &mut Metrics) -> Result<(), String> {
        let us = 1e6;
        m.set("teil.interp_us_per_req", agg.per_call_s("teil.interp") * us);
        m.set("teil.interp_flops_per_req", self.flops_per_req as f64);
        m.set("zynq.verify_mismatches", self.traced_mismatches as f64);
        m.set(
            "runtime.gen_requests_ns_per_req",
            agg.per_call_s("runtime.gen_requests") / REQUESTS as f64 * 1e9,
        );

        // The exec chain `serve` runs for every completed request,
        // called directly on the same 32 inputs, and the rest of `serve`:
        // the same call with `execute` off. Measured, not subtracted:
        // the rest is some ten thousand times smaller than the exec
        // chain, far below the difference between two measurements of it.
        let design = self.art.system.as_ref().expect("fits, checked in set-up");
        let (modules, kernels) = stages(&self.art);
        let requests =
            runtime::generate_requests(&modules, REQUESTS, &self.opts.arrival, self.opts.seed)
                .map_err(|e| e.to_string())?;
        let exec_s = probe_s(Self::CAL, 5, || {
            requests
                .iter()
                .filter(|r| {
                    zynq::run_program_chain(&self.art.names, &modules, &kernels, &r.inputs).is_ok()
                })
                .count()
        });
        m.set("cgen.exec_us_per_req", exec_s / REQUESTS as f64 * us);
        let timing_only = RuntimeOptions {
            execute: false,
            ..self.opts.clone()
        };
        let names = &self.art.names;
        let self_s = probe_s(Self::CAL, 25, || {
            runtime::serve(design, names, &modules, &kernels, &requests, &timing_only)
                .map(|o| o.report.rounds)
        });
        m.set(
            "runtime.serve_self_ns_per_req",
            self_s / REQUESTS as f64 * 1e9,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_bit_differences_and_missing_outputs() {
        let want: HashMap<String, Tensor> = [(
            "k.o".to_string(),
            Tensor::from_fn(&[2, 2], |i| (i[0] * 2 + i[1]) as f64),
        )]
        .into();
        let exact: HashMap<String, Vec<f64>> =
            [("k.o".to_string(), vec![0.0, 1.0, 2.0, 3.0])].into();
        assert_eq!(mismatches(&exact, &want), 0);
        let off: HashMap<String, Vec<f64>> =
            [("k.o".to_string(), vec![0.0, 1.0, 2.0, 3.0 + 1e-15])].into();
        assert_eq!(mismatches(&off, &want), 1);
        let negative_zero: HashMap<String, Vec<f64>> =
            [("k.o".to_string(), vec![-0.0, 1.0, 2.0, 3.0])].into();
        assert_eq!(mismatches(&negative_zero, &want), 1);
        assert_eq!(mismatches(&HashMap::new(), &want), 4);
        let extra: HashMap<String, Vec<f64>> = [
            ("k.o".to_string(), vec![0.0, 1.0, 2.0, 3.0]),
            ("k.x".to_string(), vec![]),
        ]
        .into();
        assert_eq!(mismatches(&extra, &want), 1);
    }
}
