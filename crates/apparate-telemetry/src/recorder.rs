//! The recorder: a bounded event ring plus a sampled metrics registry, and
//! the cheap cloneable [`Telemetry`] handle the instrumented crates hold.
//!
//! The handle is `Option`-dispatched: a disabled handle carries no recorder
//! at all, so the per-record hot path is one discriminant check and the
//! event-construction closures passed to [`Telemetry::emit`] never run. That
//! is what keeps vanilla runs byte-identical and the bench suites inside the
//! regression gate — there is no boxed-dyn sink, and nothing is allocated
//! when telemetry is off.

use crate::event::{EventKind, TraceEvent};
use apparate_sim::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Capacity and sampling knobs for a recording [`Telemetry`] handle.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Maximum events the trace ring retains; once full, the *oldest* events
    /// are dropped and counted (never silently).
    pub event_capacity: usize,
    /// Minimum simulated time between consecutive points of one series:
    /// gauge updates arriving faster are coalesced to the first observation
    /// in each interval.
    pub sample_interval: SimDuration,
    /// Maximum points one series retains; further points are dropped and
    /// counted per series.
    pub max_points_per_series: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            // Generous enough for a full `repro --sweep` quick run; ~64 B per
            // event, so the worst case is ~16 MiB — and only when recording.
            event_capacity: 1 << 18,
            sample_interval: SimDuration::from_millis(10),
            max_points_per_series: 1 << 16,
        }
    }
}

/// Drop-oldest bounded ring of trace events.
#[derive(Debug)]
struct EventRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        EventRing {
            buf: VecDeque::with_capacity(capacity.min(1 << 12)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// One sampled time series, keyed by `(name, replica)`.
#[derive(Debug, Default)]
struct Series {
    points: Vec<(u64, f64)>,
    last_at: Option<u64>,
    dropped: u64,
}

/// Upper bucket bounds of the fixed histogram layout: powers of two from 1 to
/// 2^16, plus an implicit overflow bucket.
pub const HISTOGRAM_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

#[derive(Debug)]
struct Hist {
    counts: [u64; HISTOGRAM_BOUNDS.len() + 1],
    total: u64,
    sum: f64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            counts: [0; HISTOGRAM_BOUNDS.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = HISTOGRAM_BOUNDS
            .iter()
            .position(|&b| value <= b as f64)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }
}

/// The state behind one replica's recording handle.
#[derive(Debug)]
pub(crate) struct Recorder {
    config: TelemetryConfig,
    replica: u32,
    ring: EventRing,
    series: BTreeMap<(String, u32), Series>,
    counters: BTreeMap<(String, u32), u64>,
    hists: BTreeMap<(String, u32), Hist>,
}

impl Recorder {
    fn new(config: TelemetryConfig, replica: u32) -> Self {
        Recorder {
            config,
            replica,
            ring: EventRing::new(config.event_capacity),
            series: BTreeMap::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn emit(&mut self, at: SimTime, kind: EventKind) {
        let replica = self.replica;
        self.ring.push(TraceEvent { at, replica, kind });
    }

    fn gauge(&mut self, at: SimTime, name: &str, value: f64) {
        let interval = self.config.sample_interval.as_micros();
        let max_points = self.config.max_points_per_series;
        let key = (name.to_string(), self.replica);
        let series = self.series.entry(key).or_default();
        let now = at.as_micros();
        let due = series.last_at.is_none_or(|last| now >= last + interval);
        if !due {
            return;
        }
        if series.points.len() < max_points {
            series.points.push((now, value));
        } else {
            series.dropped += 1;
        }
        series.last_at = Some(now);
    }

    fn counter(&mut self, name: &str, delta: u64) {
        let key = (name.to_string(), self.replica);
        *self.counters.entry(key).or_insert(0) += delta;
    }

    fn observe(&mut self, name: &str, value: f64) {
        let key = (name.to_string(), self.replica);
        self.hists
            .entry(key)
            .or_insert_with(Hist::new)
            .observe(value);
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        let mut events: Vec<TraceEvent> = self.ring.buf.iter().cloned().collect();
        // Time-order the trace. Some events are stamped at their *effect*
        // time (a link message is stamped when it was sent, a ramp change
        // when it was decided), so insertion order is already nearly sorted;
        // the stable sort keeps emission order for equal timestamps, which
        // makes per-replica timestamps monotone by construction.
        events.sort_by_key(|e| e.at.as_micros());
        TelemetrySnapshot {
            events,
            events_dropped: self.ring.dropped,
            series: self
                .series
                .iter()
                .map(|((name, replica), s)| SeriesData {
                    name: name.clone(),
                    replica: *replica,
                    points: s.points.clone(),
                    dropped: s.dropped,
                })
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|((name, replica), value)| CounterData {
                    name: name.clone(),
                    replica: *replica,
                    value: *value,
                })
                .collect(),
            histograms: self
                .hists
                .iter()
                .map(|((name, replica), h)| HistogramData {
                    name: name.clone(),
                    replica: *replica,
                    counts: h.counts.to_vec(),
                    count: h.total,
                    sum: h.sum,
                })
                .collect(),
        }
    }
}

/// One exported time series: `(at_us, value)` points for `(name, replica)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesData {
    /// Metric name (e.g. `queue_depth`).
    pub name: String,
    /// Replica the series was sampled on.
    pub replica: u32,
    /// Sampled `(sim-time µs, value)` points, in time order.
    pub points: Vec<(u64, f64)>,
    /// Points dropped after the per-series cap was hit.
    pub dropped: u64,
}

/// One exported counter total for `(name, replica)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterData {
    /// Counter name (e.g. `link_up_messages`).
    pub name: String,
    /// Replica the counter was accumulated on.
    pub replica: u32,
    /// Final value.
    pub value: u64,
}

/// One exported histogram for `(name, replica)`, over the fixed
/// [`HISTOGRAM_BOUNDS`] power-of-two layout (last bucket is overflow).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramData {
    /// Histogram name (e.g. `batch_size`).
    pub name: String,
    /// Replica the histogram was accumulated on.
    pub replica: u32,
    /// Per-bucket counts, parallel to [`HISTOGRAM_BOUNDS`] plus overflow.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// Everything a recording run captured, cloned out for export and assertions.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Trace events in time order (stable within equal timestamps).
    pub events: Vec<TraceEvent>,
    /// Events dropped from the ring after it filled (oldest-first).
    pub events_dropped: u64,
    /// Sampled gauge series, ordered by `(name, replica)`.
    pub series: Vec<SeriesData>,
    /// Counter totals, ordered by `(name, replica)`.
    pub counters: Vec<CounterData>,
    /// Histograms, ordered by `(name, replica)`.
    pub histograms: Vec<HistogramData>,
}

impl TelemetrySnapshot {
    /// Number of captured events of the given kind name.
    pub fn count_kind(&self, kind_name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.kind_name() == kind_name)
            .count()
    }

    /// All series with the given metric name (one per replica).
    pub fn series_named(&self, name: &str) -> Vec<&SeriesData> {
        self.series.iter().filter(|s| s.name == name).collect()
    }

    /// Sum of a counter across replicas.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Total series points dropped across all series (per-series caps).
    pub fn series_points_dropped(&self) -> u64 {
        self.series.iter().map(|s| s.dropped).sum()
    }
}

/// Shared root of one recording session: hands out (and retains) one
/// [`Recorder`] per replica, so handles derived via
/// [`Telemetry::for_replica`] write into disjoint per-replica buffers that
/// parallel replica threads never contend on — and that merge back into one
/// deterministic snapshot keyed by replica index.
#[derive(Debug)]
struct Registry {
    config: TelemetryConfig,
    replicas: Mutex<BTreeMap<u32, Arc<Mutex<Recorder>>>>,
}

impl Registry {
    fn recorder(self: &Arc<Self>, replica: u32) -> Arc<Mutex<Recorder>> {
        self.replicas
            .lock()
            .entry(replica)
            .or_insert_with(|| Arc::new(Mutex::new(Recorder::new(self.config, replica))))
            .clone()
    }
}

/// The cheap, cloneable telemetry handle threaded through the stack.
///
/// [`Telemetry::disabled`] (also the `Default`) is the zero-cost no-op sink:
/// it holds no recorder, so every instrumentation call reduces to an `Option`
/// discriminant check and the deferred event constructor never runs.
/// [`Telemetry::recording`] starts a session bound to replica 0; clones share
/// that replica's buffer, which is what lets the serving platform, the
/// controller halves and the link senders write into a single trace.
/// [`Telemetry::for_replica`] derives a handle bound to another replica's
/// buffer of the *same* session — fleet runners hand one to each replica
/// (safe to record from parallel threads), and [`Telemetry::snapshot`] merges
/// every replica's buffer deterministically by `(time, replica)`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
    recorder: Option<Arc<Mutex<Recorder>>>,
    replica: u32,
}

impl Telemetry {
    /// The no-op sink: records nothing, costs one discriminant check per call.
    pub fn disabled() -> Self {
        Telemetry {
            registry: None,
            recorder: None,
            replica: 0,
        }
    }

    /// Start a recording session with the given capacities, bound to
    /// replica 0. Capacities apply per replica buffer. All clones share the
    /// same session and the same replica-0 buffer; use
    /// [`Telemetry::for_replica`] to derive handles for other replicas.
    pub fn recording(config: TelemetryConfig) -> Self {
        let registry = Arc::new(Registry {
            config,
            replicas: Mutex::new(BTreeMap::new()),
        });
        let recorder = registry.recorder(0);
        Telemetry {
            registry: Some(registry),
            recorder: Some(recorder),
            replica: 0,
        }
    }

    /// Derive a handle bound to `replica`'s buffer of the same recording
    /// session. Replica buffers are created on first derivation and retained
    /// by the session, so any handle's [`Telemetry::snapshot`] sees them all.
    /// Deriving from a disabled handle yields a disabled handle.
    pub fn for_replica(&self, replica: u32) -> Telemetry {
        match &self.registry {
            None => Telemetry::disabled(),
            Some(registry) => Telemetry {
                recorder: Some(registry.recorder(replica)),
                registry: Some(registry.clone()),
                replica,
            },
        }
    }

    /// True when this handle records (i.e. was built by [`Telemetry::recording`]).
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// The replica index this handle stamps onto its records (0 for a root
    /// or disabled handle).
    pub fn replica(&self) -> u32 {
        self.replica
    }

    /// Record one trace event at simulated time `at`. The constructor closure
    /// only runs when recording, so callers can build event payloads
    /// (including `Vec`s) without charging disabled runs.
    #[inline]
    pub fn emit(&self, at: SimTime, make: impl FnOnce() -> EventKind) {
        if let Some(recorder) = &self.recorder {
            recorder.lock().emit(at, make());
        }
    }

    /// Record a gauge observation; coalesced to at most one point per
    /// configured sample interval per `(name, replica)` series.
    #[inline]
    pub fn gauge(&self, at: SimTime, name: &str, value: f64) {
        if let Some(recorder) = &self.recorder {
            recorder.lock().gauge(at, name, value);
        }
    }

    /// Add to a monotone counter.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.lock().counter(name, delta);
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(recorder) = &self.recorder {
            recorder.lock().observe(name, value);
        }
    }

    /// Clone out everything the whole session recorded so far — every
    /// replica's buffer, merged; `None` for a disabled handle.
    ///
    /// The merge is deterministic regardless of how many threads recorded:
    /// events are time-sorted with ties broken by replica index (then by
    /// per-replica emission order), and series/counters/histograms are
    /// ordered by `(name, replica)`.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let registry = self.registry.as_ref()?;
        let recorders: Vec<Arc<Mutex<Recorder>>> =
            registry.replicas.lock().values().cloned().collect();
        let mut merged = TelemetrySnapshot {
            events: Vec::new(),
            events_dropped: 0,
            series: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
        };
        // Ascending replica order (BTreeMap), so the stable time sort below
        // breaks equal-timestamp ties by replica index.
        for recorder in recorders {
            let part = recorder.lock().snapshot();
            merged.events.extend(part.events);
            merged.events_dropped += part.events_dropped;
            merged.series.extend(part.series);
            merged.counters.extend(part.counters);
            merged.histograms.extend(part.histograms);
        }
        merged.events.sort_by_key(|e| e.at.as_micros());
        // Runtime counterpart of the static determinism rules (apparate-lint
        // D-family): the merged trace must keep every replica's events
        // monotone in sim time, or the parallel fleet's "byte-identical for
        // any thread count" invariant is already gone here.
        if cfg!(debug_assertions) {
            let mut last: BTreeMap<u32, u64> = BTreeMap::new();
            for event in &merged.events {
                let at = event.at.as_micros();
                let prev = last.insert(event.replica, at);
                debug_assert!(
                    prev.is_none_or(|p| p <= at),
                    "telemetry merge broke per-replica sim-time monotonicity \
                     (replica {}: {:?} then {} µs)",
                    event.replica,
                    prev,
                    at
                );
            }
        }
        merged
            .series
            .sort_by(|a, b| (&a.name, a.replica).cmp(&(&b.name, b.replica)));
        merged
            .counters
            .sort_by(|a, b| (&a.name, a.replica).cmp(&(&b.name, b.replica)));
        merged
            .histograms
            .sort_by(|a, b| (&a.name, a.replica).cmp(&(&b.name, b.replica)));
        Some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(i: u64) -> EventKind {
        EventKind::BatchFormed {
            size: i as u32,
            queue_depth: 0,
            gpu_us: 100,
        }
    }

    #[test]
    fn disabled_handle_never_runs_the_constructor() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        telemetry.emit(SimTime::ZERO, || panic!("constructor must not run"));
        assert!(telemetry.snapshot().is_none());
    }

    #[test]
    fn ring_drops_oldest_and_reports_the_count() {
        let telemetry = Telemetry::recording(TelemetryConfig {
            event_capacity: 4,
            ..TelemetryConfig::default()
        });
        for i in 0..10u64 {
            telemetry.emit(SimTime::from_micros(i), || tick(i));
        }
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events_dropped, 6);
        // Oldest-first drops: the survivors are the last four events.
        let sizes: Vec<u32> = snap
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::BatchFormed { size, .. } => size,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sizes, vec![6, 7, 8, 9]);
    }

    #[test]
    fn clones_share_one_recorder() {
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        let clone = telemetry.clone();
        telemetry.emit(SimTime::from_micros(1), || tick(1));
        clone.emit(SimTime::from_micros(2), || tick(2));
        assert_eq!(telemetry.snapshot().unwrap().events.len(), 2);
    }

    #[test]
    fn gauge_sampling_coalesces_to_the_interval() {
        let telemetry = Telemetry::recording(TelemetryConfig {
            sample_interval: SimDuration::from_micros(100),
            ..TelemetryConfig::default()
        });
        for i in 0..250u64 {
            telemetry.gauge(SimTime::from_micros(i), "queue_depth", i as f64);
        }
        let snap = telemetry.snapshot().unwrap();
        let series = snap.series_named("queue_depth");
        assert_eq!(series.len(), 1);
        // First observation of each 100 µs interval: t = 0, 100, 200.
        assert_eq!(series[0].points, vec![(0, 0.0), (100, 100.0), (200, 200.0)]);
    }

    #[test]
    fn sampling_is_deterministic_for_identical_inputs() {
        let run = |seed: u64| {
            let telemetry = Telemetry::recording(TelemetryConfig {
                sample_interval: SimDuration::from_micros(50),
                ..TelemetryConfig::default()
            });
            // A seed-derived but fixed update pattern, as a simulator driven
            // by a deterministic RNG would produce.
            let mut x = seed;
            for i in 0..1_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                telemetry.gauge(
                    SimTime::from_micros(i * 7),
                    "depth",
                    (x >> 33) as f64 % 17.0,
                );
            }
            telemetry.snapshot().unwrap().series_named("depth")[0].clone()
        };
        assert_eq!(run(42).points, run(42).points);
        assert_ne!(run(42).points, run(43).points);
    }

    #[test]
    fn series_cap_drops_and_counts() {
        let telemetry = Telemetry::recording(TelemetryConfig {
            sample_interval: SimDuration::from_micros(1),
            max_points_per_series: 3,
            ..TelemetryConfig::default()
        });
        for i in 0..10u64 {
            telemetry.gauge(SimTime::from_micros(i * 10), "g", i as f64);
        }
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.series[0].points.len(), 3);
        assert_eq!(snap.series[0].dropped, 7);
        assert_eq!(snap.series_points_dropped(), 7);
    }

    #[test]
    fn replica_handles_partition_series_and_counters() {
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        telemetry.gauge(SimTime::ZERO, "depth", 1.0);
        telemetry.counter("msgs", 2);
        let lane = telemetry.for_replica(1);
        lane.gauge(SimTime::ZERO, "depth", 5.0);
        lane.counter("msgs", 3);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.series_named("depth").len(), 2);
        assert_eq!(snap.counter_total("msgs"), 5);
        let replicas: Vec<u32> = snap.counters.iter().map(|c| c.replica).collect();
        assert_eq!(replicas, vec![0, 1]);
    }

    #[test]
    fn for_replica_on_disabled_stays_disabled() {
        let telemetry = Telemetry::disabled();
        let lane = telemetry.for_replica(3);
        assert!(!lane.is_enabled());
        lane.emit(SimTime::ZERO, || panic!("constructor must not run"));
        assert!(lane.snapshot().is_none());
    }

    #[test]
    fn replica_handles_record_into_the_same_session() {
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        let lane = telemetry.for_replica(2);
        assert_eq!(telemetry.replica(), 0);
        assert_eq!(lane.replica(), 2);
        telemetry.emit(SimTime::from_micros(1), || tick(1));
        lane.emit(SimTime::from_micros(2), || tick(2));
        // Any handle of the session sees the merged whole.
        assert_eq!(telemetry.snapshot().unwrap().events.len(), 2);
        assert_eq!(lane.snapshot().unwrap().events.len(), 2);
        let replicas: Vec<u32> = lane
            .snapshot()
            .unwrap()
            .events
            .iter()
            .map(|e| e.replica)
            .collect();
        assert_eq!(replicas, vec![0, 2]);
    }

    #[test]
    fn parallel_replica_recording_merges_deterministically() {
        let run = || {
            let telemetry = Telemetry::recording(TelemetryConfig::default());
            std::thread::scope(|s| {
                for replica in 0..4u32 {
                    let lane = telemetry.for_replica(replica);
                    s.spawn(move || {
                        for i in 0..50u64 {
                            lane.emit(SimTime::from_micros(i * 10), || tick(i));
                            lane.gauge(SimTime::from_micros(i * 10), "depth", i as f64);
                            lane.counter("msgs", 1);
                        }
                    });
                }
            });
            telemetry.snapshot().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.events.len(), 200);
        assert_eq!(a.events, b.events);
        assert_eq!(a.series, b.series);
        assert_eq!(a.counters, b.counters);
        // Ties in time order are broken by replica index.
        let first_four: Vec<u32> = a.events[..4].iter().map(|e| e.replica).collect();
        assert_eq!(first_four, vec![0, 1, 2, 3]);
    }

    #[test]
    fn snapshot_is_time_ordered_and_monotone_within_replica() {
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        // Out-of-order stamps (a link message stamped at its future delivery
        // interleaved with earlier batch events).
        telemetry.emit(SimTime::from_micros(50), || tick(1));
        telemetry.emit(SimTime::from_micros(10), || tick(2));
        let lane = telemetry.for_replica(1);
        lane.emit(SimTime::from_micros(30), || tick(3));
        lane.emit(SimTime::from_micros(5), || tick(4));
        let snap = telemetry.snapshot().unwrap();
        for replica in [0u32, 1] {
            let stamps: Vec<u64> = snap
                .events
                .iter()
                .filter(|e| e.replica == replica)
                .map(|e| e.at.as_micros())
                .collect();
            assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        }
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        telemetry.observe("batch_size", 1.0);
        telemetry.observe("batch_size", 3.0);
        telemetry.observe("batch_size", 1e9); // overflow bucket
        let snap = telemetry.snapshot().unwrap();
        let hist = &snap.histograms[0];
        assert_eq!(hist.count, 3);
        assert_eq!(hist.counts[0], 1); // <= 1
        assert_eq!(hist.counts[2], 1); // <= 4
        assert_eq!(*hist.counts.last().unwrap(), 1); // overflow
        assert!((hist.sum - (4.0 + 1e9)).abs() < 1.0);
    }
}
