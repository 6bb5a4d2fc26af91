//! The crossmesh benchmark: one command per workload that runs it through
//! the crates' public API, checks every output, and prints its metrics as
//! the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path crossbench/Cargo.toml -- \
//!     --workload reshard-bytes --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate
//! run that prints the per-layer metrics and writes its spans under
//! `.bench_out/`. See `crossbench/README.md` for the workloads and the
//! layer-to-metric table.

mod pipeline;
mod reshard;
mod serve;
mod stats;
mod trace;

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["reshard-bytes", "gpt-pipeline", "serve-poisson"];

/// End-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_body_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit.
const PER_LAYER: [(&str, &str); 46] = [
    ("runtime.tcp.calls", "count"),
    ("runtime.tcp.busy_ms", "ms"),
    ("runtime.tcp.mb_per_s", "MB/s"),
    ("runtime.tcp.failures", "count"),
    ("core.dataplane.calls", "count"),
    ("core.dataplane.busy_ms", "ms"),
    ("core.dataplane.mb_per_s", "MB/s"),
    ("core.dataplane.failures", "count"),
    ("moe.dataplane.calls", "count"),
    ("moe.dataplane.busy_ms", "ms"),
    ("moe.dataplane.mb_per_s", "MB/s"),
    ("moe.dataplane.failures", "count"),
    ("netsim.exec.calls", "count"),
    ("netsim.exec.busy_ms", "ms"),
    ("netsim.exec.tasks_per_s", "1/s"),
    ("pipeline.iteration.busy_ms", "ms"),
    ("pipeline.iteration.self_ms", "ms"),
    ("collectives.lower.calls", "count"),
    ("collectives.lower.busy_ms", "ms"),
    ("collectives.lower.tasks", "count"),
    ("core.plan_cold.calls", "count"),
    ("core.plan_cold.busy_ms", "ms"),
    ("core.plan_cache.lookups", "count"),
    ("core.plan_cache.busy_ms", "ms"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("mesh.decompose.calls", "count"),
    ("mesh.decompose.busy_ms", "ms"),
    ("check.verify.calls", "count"),
    ("check.verify.busy_ms", "ms"),
    ("check.verify.errors", "count"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.proto.bytes", "bytes"),
    ("serve.queue.p50_ms", "ms"),
    ("serve.queue.p99_ms", "ms"),
    ("serve.plan.p50_ms", "ms"),
    ("serve.plan.p99_ms", "ms"),
    ("serve.exec.p50_ms", "ms"),
    ("serve.exec.p99_ms", "ms"),
    ("serve.admission.shed_ratio", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.check.convictions", "count"),
    ("bench.loadgen.lag_p99_ms", "ms"),
    ("bench.attributed_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_ms", "ms"),
];

/// Named failures kept in the report (the count is always exact).
const MAX_NAMED_FAILURES: usize = 20;

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Percentile reported as `latency_body_ms`: 0.5, or 0.01 where the
    /// host's two speed modes split the latencies and the median would
    /// jump between them.
    pub body_p: f64,
    /// Percentile reported as `latency_tail_ms` (0.9 or 0.99).
    pub tail_p: f64,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every operation that passed its checks.
    latencies_ms: Vec<f64>,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// What the operations' wall time outside every layer span holds.
    pub unattributed: &'static str,
    failures: Vec<String>,
    failure_events: u64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    detail: Map,
    layers: BTreeMap<String, Option<f64>>,
    tails: Map,
}

impl Outcome {
    /// An empty outcome reporting percentiles `body_p` and `tail_p` as
    /// the body and the tail of its latencies.
    pub fn new(body_p: f64, tail_p: f64) -> Outcome {
        Outcome {
            body_p,
            tail_p,
            setup_s: Vec::new(),
            latencies_ms: Vec::new(),
            timed_s: 0.0,
            attempted: 0,
            failed: 0,
            unattributed: "",
            failures: Vec::new(),
            failure_events: 0,
            traced_ms: Vec::new(),
            untraced_ms: Vec::new(),
            detail: Map::new(),
            layers: BTreeMap::new(),
            tails: Map::new(),
        }
    }

    /// One failed operation, named in the report.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }

    /// A failed check that is not one operation (e.g. a verifier
    /// conviction counted by the server); it still makes the run incorrect.
    pub fn problem(&mut self, what: String) {
        self.failure_events += 1;
        if self.failures.len() < MAX_NAMED_FAILURES {
            self.failures.push(what);
        }
    }

    /// A workload-specific value for the detail record.
    pub fn detail(&mut self, key: &str, v: f64) {
        self.detail.insert(key.into(), json!(v));
    }

    /// A per-layer value; `None` marks a flagged percentile.
    pub fn layer(&mut self, key: &str, v: Option<f64>) {
        self.layers.insert(key.into(), v);
    }

    /// Records the sample counts behind a percentile.
    pub fn tail_detail(&mut self, key: &str, t: stats::Tail) {
        self.tails.insert(
            key.into(),
            json!({"samples": t.samples, "beyond": t.beyond, "flagged": t.value.is_none()}),
        );
    }

    /// One operation that passed its checks, and whether it was traced.
    pub fn passed(&mut self, ms: f64, traced: bool) {
        self.latencies_ms.push(ms);
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.untraced_ms.push(ms);
        }
    }

    /// Tracing overhead: mean latency of traced operations over untraced
    /// ones from the same run, in percent.
    fn trace_overhead_pct(&self) -> Option<f64> {
        let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
        match (mean(&self.traced_ms), mean(&self.untraced_ms)) {
            (Some(t), Some(u)) if u > 0.0 => Some((t / u - 1.0) * 100.0),
            _ => None,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit under test: `git rev-parse HEAD` where the working directory
/// is the top of a git repository, otherwise an FNV-1a digest of the
/// workspace sources.
fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let (Ok(out), Ok(cwd)) = (git, std::env::current_dir()) {
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        if let (true, Some((top, head))) = (out.status.success(), text.trim().split_once('\n')) {
            if std::fs::canonicalize(top).ok() == std::fs::canonicalize(cwd).ok() {
                return head.trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates"), "shims".into()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let name = f.to_string_lossy();
        let body = std::fs::read(f).unwrap_or_default();
        for b in name.as_bytes().iter().chain(&body) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a-{h:016x}")
}

fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let secs = args.seconds as f64;
    match args.workload.as_str() {
        "reshard-bytes" => reshard::run(args.seed, secs, args.trace, tracer),
        "gpt-pipeline" => pipeline::run(secs, args.trace, tracer),
        "serve-poisson" => serve::run(args.seed, secs, args.trace, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The per-layer values: span/counter-derived metrics overlaid with the
/// workload's own; absent layers read 0, flagged percentiles are listed.
fn per_layer(out: &Outcome, tracer: &Tracer) -> (Map, Vec<String>) {
    let mut values: BTreeMap<String, Option<f64>> = tracer
        .layer_metrics()
        .into_iter()
        .map(|(k, v)| (k, Some(v)))
        .collect();
    let get = |k: &str| values.get(k).copied().flatten().unwrap_or(0.0);
    let (lookups, hits) = (get("core.plan_cache.lookups"), get("core.plan_cache.hits"));
    let op_ms = get("op.busy_ms");
    if lookups > 0.0 {
        values.insert("core.plan_cache.hit_ratio".into(), Some(hits / lookups));
    }
    let share = tracer.attributed_share();
    values.insert("bench.attributed_share".into(), Some(share));
    values.insert("bench.unattributed_ms".into(), Some(op_ms * (1.0 - share)));
    values.insert("bench.trace_overhead_pct".into(), out.trace_overhead_pct());
    values.extend(out.layers.clone());

    let mut metrics = Map::new();
    let mut flagged = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = match values.get(name) {
            Some(Some(v)) => *v,
            Some(None) => {
                flagged.push(name.to_string());
                0.0
            }
            None => 0.0,
        };
        metrics.insert(name.into(), json!({"value": v, "unit": unit}));
    }
    (metrics, flagged)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: crossbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = Tracer::new();
    let out = match run(&args, &tracer) {
        Ok(out) if out.attempted > 0 => out,
        Ok(_) => {
            eprintln!("error: {} attempted no operation", args.workload);
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("error: {} failed to run: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let lat = stats::sorted(out.latencies_ms.clone());
    let body = stats::head(&lat, out.body_p);
    let tail = stats::tail(&lat, out.tail_p);
    let name = |p: f64| format!("latency_p{}_ms", (p * 100.0).round());
    let (body_name, tail_name) = (name(out.body_p), name(out.tail_p));
    let setup = stats::median(&stats::sorted(out.setup_s.clone()));
    let completed = out.attempted - out.failed.min(out.attempted);
    let mut flagged = Vec::new();
    let metrics = if args.trace {
        let (m, f) = per_layer(&out, &tracer);
        flagged = f;
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}-spans.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.spans_json()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        m
    } else {
        let values = [setup, body.value, tail.value, peak_rss_mb()];
        let mut m = Map::new();
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            match v {
                Some(v) => {
                    m.insert(name.into(), json!({"value": v, "unit": unit}));
                }
                None => flagged.push(name.to_string()),
            }
        }
        m
    };

    let mut tails = out.tails.clone();
    tails.insert(
        body_name.clone(),
        json!({"samples": body.samples, "below": body.beyond, "flagged": body.value.is_none()}),
    );
    tails.insert(
        tail_name.clone(),
        json!({"samples": tail.samples, "beyond": tail.beyond, "flagged": tail.value.is_none()}),
    );
    let quartiles = stats::quartiles(&lat);
    let report = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "commit": commit(),
        "operations": out.attempted,
        "completed": completed,
        "fail_rate": out.failed as f64 / out.attempted.max(1) as f64,
        "failures": out.failures,
        "failure_events": out.failure_events,
        "latency_body": body_name,
        "latency_tail": tail_name,
        "ops_per_s": completed as f64 / out.timed_s.max(1e-9),
        "latency_p50_ms": stats::percentile(&lat, 0.5),
        "latency_quartiles_ms": quartiles.map(|(a, b)| vec![a, b]),
        "percentile_samples": Value::Object(tails),
        "flagged": flagged,
        "unattributed": out.unattributed,
        "setup_samples_s": out.setup_s,
        "detail": Value::Object(out.detail),
    });
    println!(
        "report {}",
        serde_json::to_string(&report).expect("report serializes")
    );
    let result = json!({
        "correct": out.failure_events == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the metric tables here must agree exactly.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = spec.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{k}: {other:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let Some(Value::Array(workloads)) = spec.get("workloads") else {
            panic!("workloads missing");
        };
        let declared: Vec<_> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(declared, WORKLOADS);
    }
}
