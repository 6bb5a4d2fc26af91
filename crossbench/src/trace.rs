//! In-memory span recording around calls into the crossmesh layers.
//!
//! Spans are recorded from the benchmark's side of each public call: a
//! direct call is wrapped in [`Tracer::span`], and calls the program makes
//! internally (cold planning inside `PlanCache`, simulator runs inside
//! `pipeline::simulate_with_cache`) are caught by [`Timed`], which
//! implements the public `Planner` and `Backend` traits around the real
//! implementation and forwards `name()` and `fingerprint()` unchanged, so
//! cache keys and outputs stay those of the untraced program.

use crossmesh_core::{Plan, Planner, ReshardingTask};
use crossmesh_netsim::{Backend, ClusterSpec, SimError, TaskGraph, Trace};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer name, e.g. `runtime.tcp`; the root of each operation is `op`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (request or iteration) the span belongs to.
    pub op: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and per-layer counters while enabled; a disabled tracer
/// runs the wrapped calls and records nothing. Single-threaded: every
/// wrapped call in this benchmark runs on the thread driving the workload.
pub struct Tracer {
    enabled: Cell<bool>,
    op: Cell<u64>,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
    counters: RefCell<BTreeMap<String, f64>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled.get())
            .field("spans", &self.spans.borrow().len())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer with its epoch at `now`.
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            op: Cell::new(0),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags the spans that follow with operation id `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (child of the innermost open
    /// span) when enabled; just runs it otherwise.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (e.g. stage times a server
    /// reports), returning its index for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op: self.op.get(),
        });
        spans.len() - 1
    }

    /// Adds `v` to counter `layer.what` when enabled.
    pub fn count(&self, layer: &str, what: &str, v: f64) {
        if self.enabled.get() {
            *self
                .counters
                .borrow_mut()
                .entry(format!("{layer}.{what}"))
                .or_insert(0.0) += v;
        }
    }

    /// A copy of every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// Per-layer metrics derived from the spans and counters: for each
    /// span name `L`, `L.calls`, `L.busy_ms`, `L.self_ms`; every counter
    /// as recorded; and the rates `L.mb_per_s` (from `L.bytes`) and
    /// `L.tasks_per_s` (from `L.tasks`) over the layer's busy time.
    pub fn layer_metrics(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let busy = s.dur_ns() as f64 / 1e6;
            let own = s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
            *out.entry(format!("{}.calls", s.name)).or_insert(0.0) += 1.0;
            *out.entry(format!("{}.busy_ms", s.name)).or_insert(0.0) += busy;
            *out.entry(format!("{}.self_ms", s.name)).or_insert(0.0) += own;
        }
        for (k, v) in self.counters.borrow().iter() {
            out.insert(k.clone(), *v);
        }
        let rates: Vec<(String, f64)> = out
            .iter()
            .filter_map(|(k, v)| {
                let (layer, what) = k.rsplit_once('.')?;
                let busy_s = out.get(&format!("{layer}.busy_ms"))? / 1e3;
                (busy_s > 0.0).then(|| match what {
                    "bytes" => Some((format!("{layer}.mb_per_s"), v / 1e6 / busy_s)),
                    "tasks" => Some((format!("{layer}.tasks_per_s"), v / busy_s)),
                    _ => None,
                })?
            })
            .collect();
        out.extend(rates);
        out
    }

    /// The share of the operations' wall time that layer spans cover:
    /// the summed self time of every non-root span over the summed
    /// duration of the root `op` spans.
    pub fn attributed_share(&self) -> f64 {
        let spans = self.spans.borrow();
        let op_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(SpanRec::dur_ns)
            .sum();
        let root_children_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| spans[p].parent.is_none()))
            .map(SpanRec::dur_ns)
            .sum();
        // Self times of all non-root spans telescope to the durations of
        // the roots' direct children.
        if op_ns == 0 {
            0.0
        } else {
            root_children_ns as f64 / op_ns as f64
        }
    }

    /// Renders the spans as one JSON array.
    pub fn spans_json(&self) -> String {
        let items: Vec<serde_json::Value> = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start_us": s.start_ns as f64 / 1e3,
                    "end_us": s.end_ns as f64 / 1e3,
                })
            })
            .collect();
        serde_json::to_string(&items).expect("spans serialize")
    }
}

/// A timing wrapper around a [`Planner`] or [`Backend`]: each call runs
/// inside a span named `layer`. Identity methods forward unchanged.
pub struct Timed<'a, T> {
    inner: T,
    tracer: &'a Tracer,
    layer: &'static str,
}

impl<'a, T> Timed<'a, T> {
    /// Wraps `inner`, recording its calls as `layer` spans on `tracer`.
    pub fn new(inner: T, tracer: &'a Tracer, layer: &'static str) -> Self {
        Timed {
            inner,
            tracer,
            layer,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Timed<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timed")
            .field("layer", &self.layer)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<P: Planner> Planner for Timed<'_, P> {
    fn plan<'t>(&self, task: &'t ReshardingTask) -> Plan<'t> {
        self.tracer.span(self.layer, || self.inner.plan(task))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

impl<B: Backend> Backend for Timed<'_, B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(&self, cluster: &ClusterSpec, graph: &TaskGraph) -> Result<Trace, SimError> {
        let out = self
            .tracer
            .span(self.layer, || self.inner.execute(cluster, graph));
        self.tracer.count(self.layer, "tasks", graph.len() as f64);
        match &out {
            Ok(trace) => {
                self.tracer
                    .count(self.layer, "bytes", trace.usage().total_cross_host_bytes())
            }
            Err(_) => self.tracer.count(self.layer, "failures", 1.0),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_core::{EnsemblePlanner, PlanCache, PlannerConfig};
    use crossmesh_models::{gpt::GptConfig, presets, Precision};
    use crossmesh_netsim::SimBackend;
    use crossmesh_pipeline::{simulate_with_cache, PipelineConfig};

    #[test]
    fn self_time_subtracts_children_and_share_covers_layers() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.span("op", || {
            t.span("outer", || {
                t.span("inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(4))
                });
                std::thread::sleep(std::time::Duration::from_millis(2));
            })
        });
        let m = t.layer_metrics();
        assert_eq!(m["outer.calls"], 1.0);
        assert!(m["outer.busy_ms"] >= m["inner.busy_ms"] + 2.0);
        let outer_self = m["outer.self_ms"];
        assert!((outer_self - (m["outer.busy_ms"] - m["inner.busy_ms"])).abs() < 1e-9);
        let share = t.attributed_share();
        assert!(share > 0.9 && share <= 1.0, "share {share}");
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("op", || 7), 7);
        t.count("x", "bytes", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.layer_metrics().is_empty());
    }

    #[test]
    fn wrappers_forward_identity_and_change_no_output() {
        let cluster = presets::aws_p3_8xlarge(2, Precision::Fp16);
        let job = GptConfig::case1()
            .build(&cluster)
            .expect("gpt case1 builds");
        let planner = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()));
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let timed_planner = Timed::new(planner.clone(), &tracer, "core.plan_cold");
        let timed_sim = Timed::new(SimBackend, &tracer, "netsim.exec");
        assert_eq!(timed_planner.name(), planner.name());
        assert_eq!(timed_planner.fingerprint(), planner.fingerprint());
        assert_eq!(Backend::name(&timed_sim), SimBackend.name());

        let run = |p: &dyn Planner, b: &dyn Backend| {
            let cache = PlanCache::new();
            let reports: Vec<_> = (0..2)
                .map(|_| {
                    simulate_with_cache(
                        &job.graph,
                        &cluster,
                        p,
                        &PipelineConfig::ours(),
                        b,
                        Some(&cache),
                    )
                    .expect("pipeline simulates")
                })
                .collect();
            (reports, cache.stats())
        };
        let (plain, plain_stats) = run(&planner, &SimBackend);
        let (timed, timed_stats) = run(&timed_planner, &timed_sim);
        assert_eq!(plain_stats, timed_stats);
        assert_eq!(plain_stats.misses, plain[0].plan_cache_misses);
        assert!(plain[1].plan_cache_hits > 0);
        for (a, b) in plain.iter().zip(&timed) {
            assert_eq!(a.iteration_seconds.to_bits(), b.iteration_seconds.to_bits());
            assert_eq!(a.cross_host_bytes.to_bits(), b.cross_host_bytes.to_bits());
            assert_eq!(a, b);
        }
        // The wrappers saw exactly the program's internal calls.
        let m = tracer.layer_metrics();
        assert_eq!(m["core.plan_cold.calls"], timed_stats.misses as f64);
        assert_eq!(m["netsim.exec.calls"], 2.0);
        assert_eq!(m["netsim.exec.tasks"], 2.0 * plain[0].tasks_lowered as f64);
    }
}
