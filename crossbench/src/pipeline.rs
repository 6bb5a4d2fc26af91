//! `gpt-pipeline`: closed loop, one caller. Each operation is one
//! training iteration of Table-3 GPT case 1 (2.6B parameters, parallel
//! (2,2,2), 32 microbatches) on two p3.8xlarge hosts: eager-1F1B with
//! overlapped communication, the ensemble planner, one plan cache for
//! all iterations and the exact simulator.

use crate::trace::{Timed, Tracer};
use crate::Outcome;
use crossmesh_core::{EnsemblePlanner, PlanCache, PlannerConfig};
use crossmesh_models::gpt::GptConfig;
use crossmesh_models::{presets, ModelJob, Precision};
use crossmesh_netsim::{ClusterSpec, SimBackend};
use crossmesh_pipeline::{simulate_with_cache, PipelineConfig, PipelineReport};
use std::time::Instant;

/// How many times set-up runs; the median is reported.
const SETUP_REPEATS: usize = 9;

struct Setup {
    cluster: ClusterSpec,
    job: ModelJob,
    cache: PlanCache,
    /// The cold iteration every timed iteration must reproduce.
    reference: PipelineReport,
}

fn planner() -> EnsemblePlanner {
    EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()))
}

/// Builds the job and runs the first (cold) iteration.
fn set_up() -> Result<Setup, String> {
    let cluster = presets::aws_p3_8xlarge(2, Precision::Fp16);
    let job = GptConfig::case1()
        .build(&cluster)
        .map_err(|e| format!("gpt case1: {e}"))?;
    let cache = PlanCache::new();
    let reference = simulate_with_cache(
        &job.graph,
        &cluster,
        &planner(),
        &PipelineConfig::ours(),
        &SimBackend,
        Some(&cache),
    )
    .map_err(|e| format!("cold iteration: {e}"))?;
    Ok(Setup {
        cluster,
        job,
        cache,
        reference,
    })
}

/// The output checks of one timed iteration against the cold one.
fn check(report: &PipelineReport, reference: &PipelineReport) -> Result<(), String> {
    if report.iteration_seconds.to_bits() != reference.iteration_seconds.to_bits() {
        return Err(format!(
            "iteration time {} differs from set-up's {}",
            report.iteration_seconds, reference.iteration_seconds
        ));
    }
    if report.cross_host_bytes.to_bits() != reference.cross_host_bytes.to_bits() {
        return Err(format!(
            "cross-host bytes {} differ from set-up's {}",
            report.cross_host_bytes, reference.cross_host_bytes
        ));
    }
    if report.plan_cache_misses != 0 {
        return Err(format!("{} plan-cache misses", report.plan_cache_misses));
    }
    Ok(())
}

/// Runs the workload; with `traced`, every other iteration records spans.
pub fn run(seconds: f64, traced: bool, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(0.01, 0.99);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        setup = Some(set_up()?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = setup.expect("set-up ran");

    let planner = Timed::new(planner(), tracer, "core.plan_cold");
    let sim = Timed::new(SimBackend, tracer, "netsim.exec");
    let config = PipelineConfig::ours();

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let op = out.attempted;
        let trace_op = traced && op.is_multiple_of(2);
        tracer.set_enabled(trace_op);
        tracer.set_op(op);
        let t = Instant::now();
        let result = tracer.span("op", || {
            let report = tracer.span("pipeline.iteration", || {
                simulate_with_cache(
                    &s.job.graph,
                    &s.cluster,
                    &planner,
                    &config,
                    &sim,
                    Some(&s.cache),
                )
            });
            let report = report.map_err(|e| format!("simulate: {e}"))?;
            check(&report, &s.reference)?;
            Ok::<_, String>(report)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.fail(format!("iteration {op}: {e}"));
                continue;
            }
        };
        let lookups = report.plan_cache_hits + report.plan_cache_misses;
        tracer.count("core.plan_cache", "lookups", lookups as f64);
        tracer.count("core.plan_cache", "hits", report.plan_cache_hits as f64);
        out.passed(ms, trace_op);
    }
    out.timed_s = start.elapsed().as_secs_f64();
    tracer.set_enabled(false);

    out.detail("sim_makespan_s", s.reference.iteration_seconds);
    out.detail("cross_host_bytes", s.reference.cross_host_bytes);
    out.unattributed = "the loop around each iteration call: the output checks";
    Ok(out)
}
