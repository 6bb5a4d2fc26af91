//! `reshard-bytes`: closed loop, one client, no think time. Each pass
//! issues the nine Table-2 cases plus one MoE dispatch and one MoE
//! combine in a seed-shuffled order; every request decomposes, plans
//! through a shared plan cache, verifies, lowers, executes on the TCP
//! backend, and checks every byte.

use crate::trace::{Timed, Tracer};
use crate::Outcome;
use crossmesh_bench::cases::{Case, TABLE2};
use crossmesh_check::verify::verify_a2a;
use crossmesh_check::{Diagnostic, Severity};
use crossmesh_core::dataplane::execute_and_verify;
use crossmesh_core::{
    Assignment, DeviceMesh, EnsemblePlanner, LoadBalancePlanner, Plan, PlanCache, Planner,
    PlannerConfig, ReshardingTask, SenderExclusions, Strategy, StrategyChoice,
};
use crossmesh_models::moe::GptMoeConfig;
use crossmesh_models::{presets, Precision};
use crossmesh_moe::{execute_reference, A2aDirection, A2aTask, RoutingConfig};
use crossmesh_netsim::{Backend, ClusterSpec, FabricModel, LinkParams, SimBackend, TaskGraph};
use crossmesh_runtime::ThreadedBackend;
use rand::prelude::*;
use std::time::Instant;

/// Table-2 tensor shape, scaled down from 1024x1024x512 so that a request
/// costs a few hundred ms on a small host, most of it the TCP backend,
/// and a 35 s run completes well over the 100 requests a p90 needs.
const TABLE2_SHAPE: [u64; 3] = [16, 16, 16];
/// fp32 elements, as in Table 2.
const TABLE2_ELEM_BYTES: u64 = 4;
/// Tokens per device for the MoE gate, scaled down from GPT-MoE case 1.
/// At this size the two MoE requests (2 of every 11) are the slowest
/// kind by a margin, so the p90 falls inside their cluster rather than on
/// the edge between two kinds, where it would jump from run to run.
const MOE_TOKENS_PER_DEVICE: u64 = 8;
/// The MoE fabric: 4 hosts of 4 devices on a rail-optimized network.
const MOE_HOSTS: u32 = 4;
const MOE_DEVICES_PER_HOST: u32 = 4;
/// How many times set-up runs; the median is reported.
const SETUP_REPEATS: usize = 5;

/// What one request kind moves.
enum Input {
    Table2(Case),
    Moe {
        direction: A2aDirection,
        bytes: Vec<Vec<u64>>,
    },
}

/// One request kind with the reference values set-up computed for it.
struct Kind {
    name: String,
    cluster: ClusterSpec,
    input: Input,
    /// Cross-host bytes of the lowered graph on the exact simulator.
    sim_cross_host_bytes: f64,
    /// Completion time of the lowered graph on the exact simulator.
    sim_seconds: f64,
}

/// Everything a timed request needs.
struct Setup {
    kinds: Vec<Kind>,
    cache: PlanCache,
}

fn table2_planner() -> EnsemblePlanner {
    EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()))
}

fn moe_planner() -> LoadBalancePlanner {
    LoadBalancePlanner::new(
        PlannerConfig::default().with_strategy(StrategyChoice::Fixed(Strategy::MultiRail {
            rails: MOE_DEVICES_PER_HOST,
            chunks: MOE_DEVICES_PER_HOST,
        })),
    )
}

fn moe_cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(
        MOE_HOSTS,
        MOE_DEVICES_PER_HOST,
        LinkParams::new(100e9, 1.25e9).with_latencies(5e-6, 25e-6),
    )
    .with_fabric(FabricModel::RailOptimized {
        rails: MOE_DEVICES_PER_HOST,
        spine_capacity: 1.25e9,
    })
}

/// Layer 1 for a Table-2 request: meshes, specs and unit tasks.
fn decompose_table2(case: &Case, cluster: &ClusterSpec) -> Result<ReshardingTask, String> {
    let src = DeviceMesh::from_cluster(cluster, 0, case.send_mesh, "send");
    let dst = DeviceMesh::from_cluster(cluster, case.send_mesh.0, case.recv_mesh, "recv");
    let task = ReshardingTask::new(
        src.map_err(|e| e.to_string())?,
        case.send_spec.parse().map_err(|e| format!("{e}"))?,
        dst.map_err(|e| e.to_string())?,
        case.recv_spec.parse().map_err(|e| format!("{e}"))?,
        &TABLE2_SHAPE,
        TABLE2_ELEM_BYTES,
    );
    task.map_err(|e| e.to_string())
}

/// Layer 1 for an MoE request: the all-to-all over tokens and experts.
fn decompose_moe(
    direction: A2aDirection,
    bytes: &[Vec<u64>],
    cluster: &ClusterSpec,
) -> Result<A2aTask, String> {
    let half = (MOE_HOSTS / 2) as usize;
    let per = MOE_DEVICES_PER_HOST as usize;
    let tokens = DeviceMesh::from_cluster(cluster, 0, (half, per), "moe-tokens");
    let experts = DeviceMesh::from_cluster(cluster, half, (half, per), "moe-experts");
    let (tokens, experts) = (
        tokens.map_err(|e| e.to_string())?,
        experts.map_err(|e| e.to_string())?,
    );
    Ok(match direction {
        A2aDirection::Dispatch => A2aTask::dispatch(&tokens, &experts, bytes),
        A2aDirection::Combine => A2aTask::combine(&tokens, &experts, bytes),
    })
}

fn errors(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

fn lower(plan: &Plan<'_>, cluster: &ClusterSpec) -> TaskGraph {
    let mut graph = TaskGraph::new();
    plan.lower_on(&mut graph, &[], Some(cluster));
    graph
}

/// Builds every request kind, plans each cold through a fresh cache and
/// records its exact-simulator reference.
fn set_up(seed: u64) -> Result<Setup, String> {
    let cache = PlanCache::new();
    let mut kinds = Vec::new();
    for case in TABLE2 {
        let hosts = (case.send_mesh.0 + case.recv_mesh.0) as u32;
        let cluster = presets::aws_p3_8xlarge(hosts, Precision::Fp32);
        kinds.push(Kind {
            name: case.name.to_string(),
            cluster,
            input: Input::Table2(case),
            sim_cross_host_bytes: 0.0,
            sim_seconds: 0.0,
        });
    }
    let routing = RoutingConfig {
        tokens_per_device: MOE_TOKENS_PER_DEVICE,
        ..GptMoeConfig::case1().with_seed(seed).routing()
    };
    let senders = (MOE_HOSTS / 2 * MOE_DEVICES_PER_HOST) as usize;
    let bytes = routing.bytes_matrix(senders, senders);
    for direction in [A2aDirection::Dispatch, A2aDirection::Combine] {
        kinds.push(Kind {
            name: format!("moe-{direction}"),
            cluster: moe_cluster(),
            input: Input::Moe {
                direction,
                bytes: bytes.clone(),
            },
            sim_cross_host_bytes: 0.0,
            sim_seconds: 0.0,
        });
    }
    let (t2, moe) = (table2_planner(), moe_planner());
    for kind in &mut kinds {
        let trace = match &kind.input {
            Input::Table2(case) => {
                let task = decompose_table2(case, &kind.cluster)?;
                let plan = cache.plan(&t2, &task);
                SimBackend.execute(&kind.cluster, &lower(&plan, &kind.cluster))
            }
            Input::Moe { direction, bytes } => {
                let a2a = decompose_moe(*direction, bytes, &kind.cluster)?;
                let plan = cache.plan(&moe, a2a.task());
                SimBackend.execute(&kind.cluster, &lower(&plan, &kind.cluster))
            }
        }
        .map_err(|e| format!("{}: simulator: {e}", kind.name))?;
        kind.sim_cross_host_bytes = trace.usage().total_cross_host_bytes();
        kind.sim_seconds = trace.makespan();
    }
    Ok(Setup { kinds, cache })
}

/// The layers after planning, shared by both request kinds: verify
/// verdict, lower, execute on TCP, compare cross-host bytes with the
/// simulator, then run the byte check. Returns the verified bytes.
fn finish(
    kind: &Kind,
    plan: &Plan<'_>,
    verify_errors: usize,
    tcp: &dyn Backend,
    tracer: &Tracer,
    check: impl FnOnce() -> Result<u64, String>,
) -> Result<u64, String> {
    if verify_errors > 0 {
        return Err(format!("verifier reported {verify_errors} errors"));
    }
    let graph = tracer.span("collectives.lower", || lower(plan, &kind.cluster));
    tracer.count("collectives.lower", "tasks", graph.len() as f64);
    let trace = tcp
        .execute(&kind.cluster, &graph)
        .map_err(|e| format!("tcp execute: {e}"))?;
    let tcp_bytes = trace.usage().total_cross_host_bytes();
    if tcp_bytes.to_bits() != kind.sim_cross_host_bytes.to_bits() {
        return Err(format!(
            "tcp moved {tcp_bytes} cross-host bytes, simulator {}",
            kind.sim_cross_host_bytes
        ));
    }
    check()
}

/// Plans through the shared cache, counting lookups and hits.
fn plan_cached<'t>(
    cache: &PlanCache,
    planner: &dyn Planner,
    task: &'t ReshardingTask,
    tracer: &Tracer,
) -> Plan<'t> {
    let (plan, hit) = tracer.span("core.plan_cache", || {
        cache
            .plan_with_exclusions_outcome(planner, task, &SenderExclusions::none())
            .expect("no exclusions, no data loss")
    });
    tracer.count("core.plan_cache", "lookups", 1.0);
    tracer.count("core.plan_cache", "hits", f64::from(u8::from(hit)));
    plan
}

/// One request through every layer.
fn request(
    kind: &Kind,
    setup: &Setup,
    planners: (&dyn Planner, &dyn Planner),
    tcp: &dyn Backend,
    tracer: &Tracer,
) -> Result<u64, String> {
    let cluster = &kind.cluster;
    match &kind.input {
        Input::Table2(case) => {
            let task = tracer.span("mesh.decompose", || decompose_table2(case, cluster))?;
            let plan = plan_cached(&setup.cache, planners.0, &task, tracer);
            let errs = tracer.span("check.verify", || {
                errors(&plan.verify(Some(cluster), &|_, _| false))
            });
            tracer.count("check.verify", "errors", errs as f64);
            finish(kind, &plan, errs, tcp, tracer, || {
                let out = tracer.span("core.dataplane", || execute_and_verify(&plan));
                account(tracer, "core.dataplane", out.map(|r| r.delivered_bytes))
            })
        }
        Input::Moe { direction, bytes } => {
            let a2a = tracer.span("mesh.decompose", || {
                decompose_moe(*direction, bytes, cluster)
            })?;
            let plan = plan_cached(&setup.cache, planners.1, a2a.task(), tracer);
            let errs = tracer.span("check.verify", || {
                let views: Vec<_> = plan.assignments().iter().map(Assignment::as_view).collect();
                let mut diags = plan.verify(Some(cluster), &|_, _| false);
                diags.extend(verify_a2a(
                    a2a.pairs(),
                    a2a.task().units(),
                    a2a.task().elem_bytes(),
                    &views,
                    Some(cluster),
                ));
                errors(&diags)
            });
            tracer.count("check.verify", "errors", errs as f64);
            finish(kind, &plan, errs, tcp, tracer, || {
                let out = tracer.span("moe.dataplane", || execute_reference(&a2a));
                account(tracer, "moe.dataplane", out.map(|r| r.delivered_bytes))
            })
        }
    }
}

/// Counts a data check's verified bytes or failure on `layer`.
fn account<E: std::fmt::Display>(
    tracer: &Tracer,
    layer: &str,
    out: Result<u64, E>,
) -> Result<u64, String> {
    match out {
        Ok(bytes) => {
            tracer.count(layer, "bytes", bytes as f64);
            Ok(bytes)
        }
        Err(e) => {
            tracer.count(layer, "failures", 1.0);
            Err(format!("{layer}: {e}"))
        }
    }
}

/// Runs the workload: set-up [`SETUP_REPEATS`] times, then closed-loop
/// passes until `seconds` have elapsed. With `traced`, every other pass
/// records spans and the rest measure the tracing overhead.
pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(0.5, 0.9);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        setup = Some(set_up(seed)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("set-up ran");
    let sim_makespan: f64 = setup.kinds.iter().map(|k| k.sim_seconds).sum();

    let (t2, moe) = (table2_planner(), moe_planner());
    let t2 = Timed::new(t2, tracer, "core.plan_cold");
    let moe = Timed::new(moe, tracer, "core.plan_cold");
    let tcp = Timed::new(ThreadedBackend::tcp(), tracer, "runtime.tcp");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..setup.kinds.len()).collect();
    let mut verified_bytes = 0u64;

    let start = Instant::now();
    let mut pass = 0u64;
    'passes: loop {
        order.shuffle(&mut rng);
        let trace_pass = traced && pass.is_multiple_of(2);
        tracer.set_enabled(trace_pass);
        for &k in &order {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let kind = &setup.kinds[k];
            let op = out.attempted;
            tracer.set_op(op);
            let t = Instant::now();
            let result = tracer.span("op", || request(kind, &setup, (&t2, &moe), &tcp, tracer));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match result {
                Ok(bytes) => verified_bytes += bytes,
                Err(e) => {
                    out.fail(format!("op {op} ({}): {e}", kind.name));
                    continue;
                }
            }
            out.passed(ms, trace_pass);
        }
        pass += 1;
    }
    out.timed_s = start.elapsed().as_secs_f64();
    tracer.set_enabled(false);

    out.detail(
        "verified_mb_per_s",
        verified_bytes as f64 / 1e6 / out.timed_s,
    );
    out.detail("sim_makespan_s", sim_makespan);
    out.detail("passes", pass as f64);
    out.unattributed =
        "the loop between layer calls: the cross-host byte comparison and bookkeeping";
    Ok(out)
}
