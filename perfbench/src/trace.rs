//! In-memory spans around the calls a traced pass makes into each layer.
//!
//! A span is (layer, start, end, parent). Spans are recorded only on the
//! thread that called [`record`]; adapters running on fleet worker threads
//! pass straight through. A layer's self time is the summed duration of its
//! spans minus the part their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use apparate_serving::{BatchOutcome, ExitPolicy, Request, StepOutcome, TokenPolicy, TokenSlot};
use apparate_sim::{SimDuration, SimTime};

use crate::clock::now;

/// The program layers a traced pass attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The pass itself: its self time is the unattributed remainder.
    Pass,
    /// Baseline policies' batch and decode-step execution (`apparate-exec`).
    Exec,
    /// Apparate's GPU half, controller and feedback link.
    Controller,
    /// One-shot offline threshold tuning (`offline_tuned_thresholds`).
    OfflineTune,
    /// Warm-started Apparate controllers.
    WarmStart,
    /// The classification loop (`ServingSimulator`), including the replica
    /// loops inside `ReplicaFleet::serve(..).run()`.
    Platform,
    /// The fleet run call itself (`ReplicaFleet::serve(..).run()`).
    Fleet,
    /// The batch-time estimator the batching policy calls.
    Batching,
    /// The decode loop (`GenerativeSimulator`).
    Generative,
    /// Dispatch and admission (`shard_arrivals`, `stream_arrivals`).
    Ingest,
    /// Scenario and workload generators.
    Workload,
    /// Arrival traces.
    Traces,
    /// Semantics model and ramp deployment.
    Prep,
    /// Latency summaries and CDFs.
    Metrics,
    /// Table construction and rendering.
    Report,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

#[derive(Default)]
struct Log {
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    decisions: u64,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

/// Run `f` inside a span of `layer` (a no-op unless this thread records).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let index = LOG.with(|log| {
        let mut log = log.borrow_mut();
        if !log.recording {
            return None;
        }
        let index = log.spans.len();
        let parent = log.open.last().copied();
        let start = now();
        log.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
        });
        log.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        let end = now();
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            log.spans[index].end = end;
            log.open.pop();
        });
    }
    out
}

/// Per-layer totals of one recorded pass.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Wall time of the root span, seconds.
    pub pass_s: f64,
    /// Self time per layer, seconds.
    pub self_s: BTreeMap<Layer, f64>,
    /// Summed span durations per layer (child spans included), seconds.
    pub inclusive_s: BTreeMap<Layer, f64>,
    /// Spans per layer.
    pub calls: BTreeMap<Layer, u64>,
    /// Batching decisions: estimator calls at batch size 1, which the
    /// Clockwork policy makes exactly once per decision.
    pub decisions: u64,
}

impl Breakdown {
    /// Self time of `layer`, seconds.
    pub fn self_of(&self, layer: Layer) -> f64 {
        self.self_s.get(&layer).copied().unwrap_or(0.0)
    }

    /// Summed span durations of `layer`, seconds.
    pub fn inclusive_of(&self, layer: Layer) -> f64 {
        self.inclusive_s.get(&layer).copied().unwrap_or(0.0)
    }

    /// Spans recorded for `layer`.
    pub fn calls_of(&self, layer: Layer) -> u64 {
        self.calls.get(&layer).copied().unwrap_or(0)
    }
}

/// Run `f` as a recorded pass on this thread and return its result with the
/// per-layer breakdown. Nested calls are not supported.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Breakdown) {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        assert!(!log.recording, "recorded passes do not nest");
        log.recording = true;
        log.spans.clear();
        log.open.clear();
        log.decisions = 0;
    });
    let out = span(Layer::Pass, f);
    let (spans, decisions) = LOG.with(|log| {
        let mut log = log.borrow_mut();
        log.recording = false;
        (std::mem::take(&mut log.spans), log.decisions)
    });
    let mut totals = breakdown(&spans);
    totals.decisions = decisions;
    (out, totals)
}

fn breakdown(spans: &[Span]) -> Breakdown {
    let seconds = |s: &Span| s.end.saturating_duration_since(s.start).as_secs_f64();
    let mut children = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += seconds(span);
        }
    }
    let mut out = Breakdown {
        pass_s: spans.first().map(seconds).unwrap_or(0.0),
        ..Breakdown::default()
    };
    for (span, child_s) in spans.iter().zip(&children) {
        let total = seconds(span);
        *out.self_s.entry(span.layer).or_default() += total - child_s;
        *out.inclusive_s.entry(span.layer).or_default() += total;
        *out.calls.entry(span.layer).or_default() += 1;
    }
    out
}

/// An [`ExitPolicy`] or [`TokenPolicy`] whose every call is a span of
/// `layer`.
pub struct Timed<P> {
    /// The wrapped policy.
    pub inner: P,
    layer: Layer,
}

impl<P> Timed<P> {
    /// Wrap `inner`, attributing its calls to `layer`.
    pub fn new(layer: Layer, inner: P) -> Timed<P> {
        Timed { inner, layer }
    }
}

impl<P: ExitPolicy> ExitPolicy for Timed<P> {
    fn process_batch(&mut self, batch: &[Request], batch_start: SimTime) -> BatchOutcome {
        span(self.layer, || self.inner.process_batch(batch, batch_start))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<P: TokenPolicy> TokenPolicy for Timed<P> {
    fn process_step(&mut self, slots: &[TokenSlot], step_start: SimTime) -> StepOutcome {
        span(self.layer, || self.inner.process_step(slots, step_start))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The batch-time estimator a batching policy calls, with every call a
/// [`Layer::Batching`] span.
pub fn timed_estimator(
    estimate: impl Fn(u32) -> SimDuration + Sync,
) -> impl Fn(u32) -> SimDuration + Sync {
    move |batch| {
        if batch == 1 {
            LOG.with(|log| {
                let mut log = log.borrow_mut();
                if log.recording {
                    log.decisions += 1;
                }
            });
        }
        span(Layer::Batching, || estimate(batch))
    }
}
