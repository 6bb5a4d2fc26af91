//! `serve-poisson`: open loop with seeded Poisson arrivals at one fixed
//! offered rate against an in-process resharding server on the simulator
//! backend. One connection carries every request, written by one thread
//! and read by another; about 90% of requests draw from a shape pool the
//! set-up planned, and every tenth is a shape never seen before.

use crate::stats::{self, tail};
use crate::trace::Tracer;
use crate::Outcome;
use crossmesh_serve::proto::{self, MAX_FRAME};
use crossmesh_serve::{
    AdmissionConfig, BackendKind, Client, Request, RequestBody, ReshardRequest, Response,
    ServeConfig, Server,
};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Offered load, requests per second: p99 stays well under a 50 ms
/// latency limit on a 2-CPU host, and a run collects thousands of
/// requests, so the p99 has far more than 10 samples beyond it.
const RATE: f64 = 200.0;
/// Tenants the load is spread over.
const TENANTS: u64 = 5;
/// Distinct shapes planned during set-up.
const POOL: usize = SPEC_PAIRS.len() * MESH_PAIRS.len() * 8;
/// Every `NOVEL_EVERY`-th request is a shape never seen before, so cache
/// misses stay steady through the run instead of dying out early.
const NOVEL_EVERY: u64 = 10;
/// How many times set-up runs; the median is reported.
const SETUP_REPEATS: usize = 5;
/// Longest wait for any single reply before the run is declared hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

const SPEC_PAIRS: [(&str, &str); 4] = [
    ("RS0R", "S0RR"),
    ("S0RR", "RS0R"),
    ("RRS0", "S0RR"),
    ("RS0R", "RRS0"),
];
const MESH_PAIRS: [(&str, &str); 3] = [("2x4", "2x4"), ("2x2", "2x4"), ("2x4", "2x2")];

fn request(spec: usize, mesh: usize, shape: [u64; 3]) -> ReshardRequest {
    let (src_spec, dst_spec) = SPEC_PAIRS[spec];
    let (src_mesh, dst_mesh) = MESH_PAIRS[mesh];
    ReshardRequest {
        src_spec: src_spec.into(),
        dst_spec: dst_spec.into(),
        src_mesh: src_mesh.into(),
        dst_mesh: dst_mesh.into(),
        shape: format!("{}x{}x{}", shape[0], shape[1], shape[2]),
        elem_bytes: 4,
        planner: String::new(),
        seed: None,
        faults: None,
    }
}

/// The shape pool: every spec pair on every mesh pair at eight tensor
/// sizes, all first dimensions multiples of 16. Fixed, so that every seed
/// draws from the same mix of request costs.
fn shape_pool() -> Vec<ReshardRequest> {
    let mut pool = Vec::with_capacity(POOL);
    for spec in 0..SPEC_PAIRS.len() {
        for mesh in 0..MESH_PAIRS.len() {
            for size in 0..8u64 {
                let b = 8 * (1 + (size * 3 + spec as u64) % 8);
                pool.push(request(spec, mesh, [16 * (1 + size), b, 4]));
            }
        }
    }
    pool
}

/// The `j`-th never-seen shape: distinct for every `j`, and its first
/// dimension is 8 modulo 16, so it never collides with the pool.
fn novel(j: u64) -> ReshardRequest {
    request(
        (j % 4) as usize,
        ((j / 4) % 3) as usize,
        [
            8 + 16 * ((j / 12) % 8),
            8 * (1 + (j / 96) % 8),
            4 * (1 + j / 768),
        ],
    )
}

struct Arrival {
    due: Duration,
    req: Request,
}

/// The seeded open-loop schedule: exponential gaps at [`RATE`].
fn schedule(rng: &mut SmallRng, pool: &[ReshardRequest], seconds: f64) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.gen_f64()).ln() / RATE;
        if at >= seconds {
            return out;
        }
        let i = out.len() as u64;
        let tenant = format!("tenant-{}", rng.gen_range_u64(TENANTS));
        let body = if i % NOVEL_EVERY == NOVEL_EVERY - 1 {
            novel(i / NOVEL_EVERY)
        } else {
            pool[rng.gen_range_u64(POOL as u64) as usize].clone()
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(at),
            req: Request {
                id: i + 1,
                tenant,
                body: RequestBody::Reshard(body),
            },
        });
    }
}

/// Starts a server and plans the pool through it.
fn set_up(pool: &[ReshardRequest]) -> Result<Server, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let server = Server::start(ServeConfig {
        workers,
        admission: AdmissionConfig {
            rate: 1e5,
            burst: 1e5,
            queue_depth: 1 << 16,
        },
        backend: BackendKind::Sim,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for (i, req) in pool.iter().enumerate() {
        let req = Request {
            id: i as u64 + 1,
            tenant: "warmup".into(),
            body: RequestBody::Reshard(req.clone()),
        };
        client.send(&req).map_err(|e| format!("warmup send: {e}"))?;
    }
    for _ in pool {
        match client.recv() {
            Ok(Some(Response::Done(_))) => {}
            other => return Err(format!("warmup reply: {other:?}")),
        }
    }
    Ok(server)
}

/// What the writer knows about one sent request.
#[derive(Clone, Copy)]
struct Sent {
    start: Instant,
    encoded: Instant,
    bytes: usize,
}

/// Sends every arrival at its due time, recording when each send began
/// and how long its encoding took.
fn write_loop(
    mut stream: TcpStream,
    arrivals: Vec<Arrival>,
    start: Instant,
    sent: &Mutex<Vec<Option<Sent>>>,
) -> Result<(), String> {
    let mut buf = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        let due = start + a.due;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let begin = Instant::now();
        buf.clear();
        proto::write_frame(&mut buf, &a.req).map_err(|e| format!("encode: {e}"))?;
        let encoded = Instant::now();
        sent.lock().expect("writer lock")[i] = Some(Sent {
            start: begin,
            encoded,
            bytes: buf.len(),
        });
        stream
            .write_all(&buf)
            .map_err(|e| format!("send {}: {e}", a.req.id))?;
    }
    Ok(())
}

/// Reads one length-prefixed frame's bytes (prefix included).
fn read_raw(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame)?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::other(format!("reply frame of {len} bytes")));
    }
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// Runs the workload. The traced run records, for every other block of
/// requests, spans for generator lag, encode, the server's queue/plan/exec
/// stage times and decode; the rest measure the tracing overhead.
pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(0.5, 0.99);
    let mut rng = SmallRng::seed_from_u64(seed);
    let pool = shape_pool();
    let arrivals = schedule(&mut rng, &pool, seconds);
    let n = arrivals.len();

    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            Server::shutdown(old);
        }
        let t = Instant::now();
        server = Some(set_up(&pool)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("set-up ran");
    let before = server.stats();

    let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = stream;
    let sent: Arc<Mutex<Vec<Option<Sent>>>> = Arc::new(Mutex::new(vec![None; n]));
    let dues: Vec<Duration> = arrivals.iter().map(|a| a.due).collect();

    let start = Instant::now() + Duration::from_millis(20);
    let writer_thread = {
        let sent = Arc::clone(&sent);
        thread::spawn(move || write_loop(writer, arrivals, start, &sent))
    };

    // No wrapped calls run here: the tracer only holds the spans recorded
    // below for traced requests.
    tracer.set_enabled(traced);
    let mut replied = vec![false; n];
    let mut answered = 0;
    let mut lag_ms = Vec::with_capacity(n);
    let mut stage: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut sims, mut hits, mut rejected) = (Vec::new(), 0u64, 0u64);
    let mut last = start;
    while answered < n {
        let frame = match read_raw(&mut reader) {
            Ok(f) => f,
            Err(e) => {
                out.problem(format!("reading replies stopped: {e}"));
                break;
            }
        };
        let received = Instant::now();
        let resp: Response = match proto::read_frame(&mut frame.as_slice()) {
            Ok(Some(r)) => r,
            other => {
                out.problem(format!("undecodable reply: {other:?}"));
                answered += 1;
                continue;
            }
        };
        let decoded = Instant::now();
        last = decoded;
        answered += 1;
        let id = resp.id();
        let Some(i) = (id as usize).checked_sub(1).filter(|&i| i < n) else {
            out.problem(format!("reply to unknown id {id}"));
            continue;
        };
        if std::mem::replace(&mut replied[i], true) {
            out.problem(format!("second reply to request {id}"));
            continue;
        }
        let due = start + dues[i];
        let s = sent.lock().expect("reader lock")[i].expect("sent before its reply");
        lag_ms.push(ms(s.start.saturating_duration_since(due)));
        let d = match resp {
            Response::Done(d) => d,
            Response::Rejected(r) => {
                rejected += 1;
                out.fail(format!("request {id} refused: {}", r.reason));
                continue;
            }
            Response::Error(e) => {
                out.fail(format!("request {id} failed: {}", e.message));
                continue;
            }
            other => {
                out.fail(format!("request {id}: unexpected reply {other:?}"));
                continue;
            }
        };
        sims.push(d.simulated_seconds);
        hits += u64::from(d.cache_hit);
        stage.entry("queue").or_default().push(d.queue_ms);
        stage.entry("plan").or_default().push(d.plan_ms);
        stage.entry("exec").or_default().push(d.exec_ms);
        // Trace alternate blocks of NOVEL_EVERY requests, so both halves
        // hold the same share of never-seen shapes.
        let trace_req = traced && (i as u64 / NOVEL_EVERY).is_multiple_of(2);
        out.passed(ms(decoded.saturating_duration_since(due)), trace_req);
        if !trace_req {
            continue;
        }
        // Server stage times end where the reply arrived; their placement
        // before it is inferred, their durations are the server's own.
        tracer.set_op(id);
        let op = tracer.record("op", due, decoded, None);
        tracer.record("bench.loadgen", due, s.start, Some(op));
        tracer.record("serve.proto.encode", s.start, s.encoded, Some(op));
        let exec_start = received - Duration::from_secs_f64(d.exec_ms / 1e3);
        let plan_start = exec_start - Duration::from_secs_f64(d.plan_ms / 1e3);
        let queue_start = plan_start - Duration::from_secs_f64(d.queue_ms / 1e3);
        tracer.record("serve.queue", queue_start, plan_start, Some(op));
        let plan_layer = if d.cache_hit {
            "core.plan_cache"
        } else {
            "core.plan_cold"
        };
        tracer.record(plan_layer, plan_start, exec_start, Some(op));
        tracer.record("netsim.exec", exec_start, received, Some(op));
        tracer.record("serve.proto.decode", received, decoded, Some(op));
        tracer.count("serve.proto", "bytes", (s.bytes + frame.len()) as f64);
        tracer.count("core.plan_cache", "lookups", 1.0);
        tracer.count("core.plan_cache", "hits", f64::from(u8::from(d.cache_hit)));
    }
    out.timed_s = last.saturating_duration_since(start).as_secs_f64();
    out.attempted = n as u64;
    tracer.set_enabled(false);
    drop(reader);
    match writer_thread.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.problem(format!("writer: {e}")),
        Err(_) => out.problem("writer thread panicked".into()),
    }
    let after = server.stats();
    Server::shutdown(server);

    let missing = replied.iter().filter(|r| !**r).count();
    if missing > 0 {
        out.failed += missing as u64;
        out.problem(format!("{missing} requests never answered"));
    }
    let convictions = after.verifier_convictions - before.verifier_convictions;
    if convictions > 0 {
        out.problem(format!("{convictions} verifier convictions"));
    }
    let done = sims.len();
    out.detail(
        "sim_makespan_s",
        sims.iter().sum::<f64>() / done.max(1) as f64,
    );
    out.detail("offered_rps", RATE);
    out.detail(
        "novel_share",
        (n as u64 / NOVEL_EVERY) as f64 / n.max(1) as f64,
    );

    let lag = tail(&stats::sorted(lag_ms), 0.99);
    out.tail_detail("bench.loadgen.lag_p99_ms", lag);
    out.layer("bench.loadgen.lag_p99_ms", lag.value);
    for (name, v) in stage {
        let v = stats::sorted(v);
        out.layer(&format!("serve.{name}.p50_ms"), stats::percentile(&v, 0.5));
        let t = tail(&v, 0.99);
        out.tail_detail(&format!("serve.{name}.p99_ms"), t);
        out.layer(&format!("serve.{name}.p99_ms"), t.value);
    }
    out.layer(
        "serve.admission.shed_ratio",
        Some(rejected as f64 / n.max(1) as f64),
    );
    out.layer(
        "serve.cache.hit_ratio",
        Some(hits as f64 / done.max(1) as f64),
    );
    out.layer("serve.check.convictions", Some(convictions as f64));
    if traced {
        let m = tracer.layer_metrics();
        let per_call_us = |layer: &str| {
            let calls = m.get(&format!("{layer}.calls")).copied().unwrap_or(0.0);
            let busy = m.get(&format!("{layer}.busy_ms")).copied().unwrap_or(0.0);
            (calls > 0.0).then(|| busy * 1e3 / calls)
        };
        out.layer("serve.proto.encode_us", per_call_us("serve.proto.encode"));
        out.layer("serve.proto.decode_us", per_call_us("serve.proto.decode"));
        let calls = m.get("serve.proto.encode.calls").copied().unwrap_or(0.0);
        let bytes = m.get("serve.proto.bytes").copied().unwrap_or(0.0);
        out.layer("serve.proto.bytes", (calls > 0.0).then(|| bytes / calls));
    }
    out.unattributed = "socket transfer both ways, the server's frame read, admission and task build, and its reply write";
    Ok(out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
