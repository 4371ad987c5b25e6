//! Multi-replica scale-out: one shared stream served by a fleet.
//!
//! The paper evaluates Apparate per model replica; production deployments run
//! *fleets* of identical replicas behind a front-end dispatcher, each replica
//! carrying its own GPU + controller pair over its own coordination link.
//! This module provides the platform half of that story:
//!
//! * [`FleetDispatch`] — how the front-end assigns arrivals to replicas
//!   (round-robin, or least-loaded via a virtual-backlog estimate);
//! * [`shard_arrivals`] / [`TraceShard`] and [`shard_requests`] /
//!   [`RequestShard`] — deterministic sharding of one shared arrival trace,
//!   or of one shared generative request stream, into per-replica shards
//!   that keep absolute arrival times (replicas run in parallel wall-clock
//!   time), both folds over the streaming front end's
//!   [`IncrementalDispatcher`]. Whole sequences are dispatched (a sequence's
//!   decode steps are stateful, so it must stay on one replica), and the
//!   least-loaded backlog model weights each request by its output length;
//! * [`ReplicaFleet::serve`] — build a [`FleetRun`]: one named
//!   [`ReplicaUnit`] per replica over shared read-only shards, with an
//!   explicit [`FleetRun::threads`] knob (default: available parallelism,
//!   `1` ⇒ the sequential path). The fleet's [`ReplicaLoop`] is the one
//!   thing the two paths differ in: [`ServingConfig`] runs the
//!   classification loop, [`ContinuousBatchingConfig`] the decode loop, and
//!   a unit's [`ReplicaPolicy`] serves either;
//! * [`run_fleets`] — execute several [`FleetRun`]s (say, one per policy
//!   family over the same shards) on one work queue, so a worker that
//!   finishes one run's replicas takes the next run's instead of idling;
//!   [`FleetRun::run`] is its one-run case;
//! * [`FleetOutcome`] — per-replica outcomes aggregated into fleet-level
//!   views via the [`FleetOutcomeView`] trait, whose summary is
//!   [`LatencySummary::of`] over the replicas (the fleet makespan is the
//!   slowest replica's; latencies pool across every replica).
//!
//! Replicas are independent discrete-event simulations over disjoint shards,
//! so every replica of every run is one item of [`run_queue`] (the
//! workspace's one work queue) on scoped threads, and the merged output is
//! still *byte-identical* for any thread count: each replica records
//! telemetry through its own [`Telemetry::for_replica`] handle into a
//! per-replica buffer, results are re-ordered by (run, replica) index, and
//! the telemetry snapshot merges buffers deterministically by
//! `(time, replica)`.
//!
//! The policies themselves stay pluggable exactly as in [`crate::platform`] /
//! [`crate::generative`]: the fleet knows nothing about early exits, and an
//! adaptive policy owns its controller's feedback link, so each replica's
//! link is its own.

use crate::generative::{
    ContinuousBatchingConfig, GenerativeOutcome, GenerativeSimulator, TokenPolicy, TokenSemantics,
};
use crate::ingest::IncrementalDispatcher;
use crate::metrics::{LatencySummary, ReplicaOutcome};
use crate::platform::{ExitPolicy, ServingConfig, ServingOutcome, ServingSimulator};
use crate::request::Request;
use crate::traces::ArrivalTrace;
use apparate_exec::SampleSemantics;
use apparate_sim::SimDuration;
use apparate_telemetry::Telemetry;
use std::sync::Mutex;

/// How the front-end dispatcher assigns arrivals to replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetDispatch {
    /// Arrival `i` goes to replica `i % n`: oblivious, perfectly fair counts.
    RoundRobin,
    /// Each arrival goes to the replica with the smallest estimated backlog.
    /// The dispatcher models every replica as a single-server queue: assigning
    /// a request advances that replica's virtual finish time by the service
    /// estimate, so bursts spread across the fleet instead of piling onto one
    /// replica. Ties break toward the lowest replica index.
    LeastLoaded,
}

impl std::str::FromStr for FleetDispatch {
    type Err = String;

    fn from_str(s: &str) -> Result<FleetDispatch, String> {
        match s {
            "round-robin" => Ok(FleetDispatch::RoundRobin),
            "least-loaded" => Ok(FleetDispatch::LeastLoaded),
            other => Err(format!("unknown dispatch policy: {other}")),
        }
    }
}

impl std::fmt::Display for FleetDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FleetDispatch::RoundRobin => "round-robin",
            FleetDispatch::LeastLoaded => "least-loaded",
        })
    }
}

/// Number of worker threads a [`FleetRun`] uses by default: the machine's
/// available parallelism, falling back to 1 when it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `run(i, item)` for every item on up to `threads` workers sharing one
/// scoped work queue, and return the results in item order.
///
/// An idle worker takes the next unstarted item, so list the longest items
/// first: a long item then never waits behind short ones. The calling thread
/// is one of the workers; with `threads == 1` (or one item) it runs every
/// item itself, in order, and no thread starts. Results are placed by item
/// index, never by completion order, so the output depends on the thread
/// count only if `run` does. A panic in an item reaches the caller with its
/// own payload once every worker has stopped.
pub fn run_queue<T, O, F>(threads: usize, items: Vec<T>, run: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(usize, T) -> O + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // Bind the item first so the guard drops before the item runs.
            let next = queue
                .lock()
                .expect("the queue is only locked to take an item, which cannot panic")
                .next();
            let Some((i, item)) = next else {
                break done;
            };
            done.push((i, run(i, item)));
        }
    };
    let mut indexed: Vec<(usize, O)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut indexed = work();
        for helper in helpers {
            match helper.join() {
                Ok(done) => indexed.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        indexed
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, out)| out).collect()
}

/// One replica's share of the shared arrival stream.
#[derive(Debug, Clone)]
pub struct TraceShard {
    /// The replica's sub-trace, with the *original* (absolute) arrival times.
    pub trace: ArrivalTrace,
    /// For each shard arrival, its index in the shared trace — used to carry
    /// per-request payloads (semantics samples) along with the arrival.
    pub indices: Vec<usize>,
}

impl TraceShard {
    /// Gather this shard's slice of a per-request payload array.
    pub fn gather<T: Copy>(&self, shared: &[T]) -> Vec<T> {
        self.indices.iter().map(|&i| shared[i]).collect()
    }
}

/// Deterministically shard a shared arrival trace across `replicas` replicas.
///
/// `service_estimate` is the dispatcher's per-request service-time estimate
/// (only used by [`FleetDispatch::LeastLoaded`]); a coarse batch-1 execution
/// time is what a production front-end would know.
pub fn shard_arrivals(
    trace: &ArrivalTrace,
    replicas: usize,
    dispatch: FleetDispatch,
    service_estimate: SimDuration,
) -> Vec<TraceShard> {
    let mut dispatcher = IncrementalDispatcher::new(replicas, dispatch);
    let mut times = vec![Vec::new(); replicas];
    let mut indices: Vec<Vec<usize>> = vec![Vec::new(); replicas];
    for (i, &at) in trace.times().iter().enumerate() {
        let r = dispatcher.select();
        dispatcher.commit(r, at, service_estimate, true);
        times[r].push(at);
        indices[r].push(i);
    }
    times
        .into_iter()
        .zip(indices)
        .map(|(t, indices)| TraceShard {
            trace: ArrivalTrace::from_times(t),
            indices,
        })
        .collect()
}

/// A policy one fleet replica serves with. Every policy type implements both
/// hooks, so any of them serves either loop: a replica reaches the hook its
/// loop calls by trait upcasting.
pub trait ReplicaPolicy: ExitPolicy + TokenPolicy {}

impl<P: ExitPolicy + TokenPolicy> ReplicaPolicy for P {}

/// Everything one replica needs to serve its shard: a name, a policy and the
/// batch-time estimator its batching decisions use (the decode loop never
/// reads it).
///
/// Units are `Send` — a [`FleetRun`] may execute each on a worker thread —
/// which is why the policy is a `dyn ReplicaPolicy + Send` and the estimator
/// a `dyn Fn + Sync`.
pub struct ReplicaUnit<'a> {
    label: String,
    policy: UnitPolicy<'a>,
    estimate: &'a (dyn Fn(u32) -> SimDuration + Sync),
}

/// A unit's policy: borrowed, so the caller can read it after the run, or
/// owned, so the run drops it as soon as its replica finishes.
enum UnitPolicy<'a> {
    Borrowed(&'a mut (dyn ReplicaPolicy + Send)),
    Owned(Box<dyn ReplicaPolicy + Send + 'a>),
}

impl<'a> ReplicaUnit<'a> {
    /// Name a replica unit over its policy and batch-time estimator. Each
    /// replica gets its own policy instance — fleet replicas never share
    /// controller state.
    pub fn new(
        label: impl Into<String>,
        policy: &'a mut (dyn ReplicaPolicy + Send),
        estimate: &'a (dyn Fn(u32) -> SimDuration + Sync),
    ) -> ReplicaUnit<'a> {
        ReplicaUnit {
            label: label.into(),
            policy: UnitPolicy::Borrowed(policy),
            estimate,
        }
    }

    /// Like [`ReplicaUnit::new`], with the unit owning `policy`: nothing can
    /// read it after the run, and its state is freed as soon as the replica
    /// finishes instead of when the whole run does.
    pub fn owned(
        label: impl Into<String>,
        policy: impl ReplicaPolicy + Send + 'a,
        estimate: &'a (dyn Fn(u32) -> SimDuration + Sync),
    ) -> ReplicaUnit<'a> {
        ReplicaUnit {
            label: label.into(),
            policy: UnitPolicy::Owned(Box::new(policy)),
            estimate,
        }
    }

    /// The unit's policy.
    fn policy(&mut self) -> &mut (dyn ReplicaPolicy + Send + 'a) {
        match &mut self.policy {
            UnitPolicy::Borrowed(policy) => &mut **policy,
            UnitPolicy::Owned(policy) => &mut **policy,
        }
    }

    /// The same unit, ignoring `_feedback`. Kept only for perfbench's traced
    /// rebuild (`perfbench/src/traced.rs`), which only a benchmark change may
    /// edit; delete it with that file.
    pub fn with_feedback(self, _feedback: ()) -> ReplicaUnit<'a> {
        self
    }
}

/// The serving loop every replica of a [`ReplicaFleet`] runs over its shard:
/// [`ServingConfig`] runs the classification loop over a [`TraceShard`],
/// [`ContinuousBatchingConfig`] the decode loop over a [`RequestShard`].
pub trait ReplicaLoop: Sync {
    /// One replica's share of the shared stream.
    type Shard: Sync;
    /// What every replica reads from the shared stream.
    type Shared: ?Sized + Sync;
    /// One replica's result.
    type Outcome: ReplicaOutcome + Send;

    /// Requests dispatched to `shard`.
    fn shard_len(shard: &Self::Shard) -> usize;

    /// Panic unless every shard can be served over `shared`.
    fn check_shards(shards: &[Self::Shard], shared: &Self::Shared);

    /// Serve `shard` with `unit`, recording through the replica's own
    /// `telemetry` handle. A recording handle also traces a `dispatch` event
    /// per request in-run, tagged with the request's fleet-global id.
    fn serve_shard(
        &self,
        shard: &Self::Shard,
        shared: &Self::Shared,
        unit: ReplicaUnit<'_>,
        telemetry: Telemetry,
    ) -> Self::Outcome;
}

impl ReplicaLoop for ServingConfig {
    type Shard = TraceShard;
    /// The shared semantic samples, indexed by each shard's `indices`.
    type Shared = [SampleSemantics];
    type Outcome = ServingOutcome;

    fn shard_len(shard: &TraceShard) -> usize {
        shard.trace.len()
    }

    fn check_shards(shards: &[TraceShard], samples: &[SampleSemantics]) {
        // Admission control may shed arrivals before they reach a replica, so
        // shards may cover a *subset* of the shared stream — but never more,
        // and every dispatched index must have its semantic sample.
        let dispatched: usize = shards.iter().map(|s| s.indices.len()).sum();
        assert!(
            dispatched <= samples.len(),
            "more dispatched arrivals than semantic samples"
        );
        assert!(
            shards
                .iter()
                .flat_map(|s| s.indices.iter())
                .all(|&i| i < samples.len()),
            "dispatched index out of the shared sample range"
        );
    }

    fn serve_shard(
        &self,
        shard: &TraceShard,
        samples: &[SampleSemantics],
        mut unit: ReplicaUnit<'_>,
        telemetry: Telemetry,
    ) -> ServingOutcome {
        let shard_samples = shard.gather(samples);
        let mut sim = ServingSimulator::new(self.clone());
        if telemetry.is_enabled() {
            let ids: Vec<u64> = shard.indices.iter().map(|&i| i as u64).collect();
            sim = sim.with_telemetry(telemetry).with_dispatch_ids(ids);
        }
        let estimate = unit.estimate;
        sim.run(&shard.trace, &shard_samples, unit.policy(), estimate)
    }
}

impl ReplicaLoop for ContinuousBatchingConfig {
    type Shard = RequestShard;
    /// Token semantics keyed by request id, so one provider serves every
    /// replica unchanged.
    type Shared = dyn TokenSemantics + Sync;
    type Outcome = GenerativeOutcome;

    fn shard_len(shard: &RequestShard) -> usize {
        shard.requests.len()
    }

    fn check_shards(_: &[RequestShard], _: &(dyn TokenSemantics + Sync)) {}

    fn serve_shard(
        &self,
        shard: &RequestShard,
        semantics: &(dyn TokenSemantics + Sync),
        mut unit: ReplicaUnit<'_>,
        telemetry: Telemetry,
    ) -> GenerativeOutcome {
        let mut sim = GenerativeSimulator::new(*self);
        if telemetry.is_enabled() {
            sim = sim.with_telemetry(telemetry).with_dispatch_events();
        }
        sim.run(&shard.requests, semantics, unit.policy())
    }
}

/// A configured fleet run: per-replica units plus the thread knob, built by
/// [`ReplicaFleet::serve`] and executed by [`FleetRun::run`], or together
/// with other runs by [`run_fleets`].
///
/// Replicas are independent simulations over disjoint shards, so the run
/// executes them through [`run_queue`] on up to `threads` workers (an idle
/// worker takes the next unstarted replica) and returns them in replica-index
/// order. `threads == 1` is the plain sequential loop. Output is *identical
/// for any thread count*:
/// each replica's telemetry lands in its own [`Telemetry::for_replica`]
/// buffer and per-replica outcomes are merged by replica index, never by
/// completion order.
pub struct FleetRun<'a, L: ReplicaLoop> {
    fleet: &'a ReplicaFleet<L>,
    shards: &'a [L::Shard],
    shared: &'a L::Shared,
    threads: usize,
    units: Vec<ReplicaUnit<'a>>,
}

impl<'a, L: ReplicaLoop> FleetRun<'a, L> {
    /// Set the number of workers [`FleetRun::run`] uses; `1` means the
    /// sequential path, and no more workers start than there are replicas.
    /// Defaults to [`available_threads`]. [`run_fleets`] reads its own
    /// count instead.
    pub fn threads(mut self, threads: usize) -> FleetRun<'a, L> {
        self.threads = threads.max(1);
        self
    }

    /// Add one replica's unit; replica index is assignment order.
    pub fn unit(mut self, unit: ReplicaUnit<'a>) -> FleetRun<'a, L> {
        self.units.push(unit);
        self
    }

    /// Add units for several replicas, in replica order.
    pub fn units(mut self, units: impl IntoIterator<Item = ReplicaUnit<'a>>) -> FleetRun<'a, L> {
        self.units.extend(units);
        self
    }

    /// Execute the run and aggregate per-replica outcomes in replica order:
    /// [`run_fleets`] with this one run.
    ///
    /// Panics if the number of added units differs from the fleet's replica
    /// count, or if a replica's simulation panics (the panic is propagated).
    pub fn run(self) -> FleetOutcome<L::Outcome> {
        let threads = self.threads;
        run_fleets(threads, vec![self])
            .pop()
            .expect("one run gives one outcome")
    }
}

/// One replica of one [`FleetRun`], as a [`run_fleets`] queue item.
struct ReplicaItem<'a, L: ReplicaLoop> {
    fleet: &'a ReplicaFleet<L>,
    shard: &'a L::Shard,
    shared: &'a L::Shared,
    replica: u32,
    unit: ReplicaUnit<'a>,
}

/// Execute several fleet runs on one [`run_queue`] of up to `threads`
/// workers, and return each run's outcome in `runs` order.
///
/// Every replica of every run is one item, queued run by run in replica
/// order, so list the run whose replicas take longest first. Each replica
/// records through its own run's fleet telemetry, and each outcome is placed
/// by (run, replica) index, never by completion order: every run gets
/// exactly what its own [`FleetRun::run`] returns, for any thread count and
/// whatever runs share the queue. Each run's own [`FleetRun::threads`]
/// setting is not read.
///
/// Panics like [`FleetRun::run`].
pub fn run_fleets<'a, L: ReplicaLoop>(
    threads: usize,
    runs: Vec<FleetRun<'a, L>>,
) -> Vec<FleetOutcome<L::Outcome>> {
    let mut items = Vec::new();
    let mut outcomes = Vec::with_capacity(runs.len());
    for run in runs {
        let FleetRun {
            fleet,
            shards,
            shared,
            units,
            ..
        } = run;
        assert_eq!(
            units.len(),
            fleet.replicas,
            "one unit per replica is required"
        );
        outcomes.push(FleetOutcome {
            per_replica: Vec::with_capacity(units.len()),
            shard_sizes: shards.iter().map(L::shard_len).collect(),
            labels: units.iter().map(|u| u.label.clone()).collect(),
        });
        items.extend(
            units
                .into_iter()
                .zip(shards)
                .enumerate()
                .map(|(r, (unit, shard))| ReplicaItem {
                    fleet,
                    shard,
                    shared,
                    replica: r as u32,
                    unit,
                }),
        );
    }
    let mut served = run_queue(threads, items, |_, item| {
        let telemetry = item.fleet.telemetry.for_replica(item.replica);
        item.fleet
            .serving
            .serve_shard(item.shard, item.shared, item.unit, telemetry)
    })
    .into_iter();
    for outcome in &mut outcomes {
        let replicas = outcome.shard_sizes.len();
        outcome.per_replica.extend(served.by_ref().take(replicas));
    }
    outcomes
}

/// A fleet of identical replicas behind one dispatcher, each running the
/// same [`ReplicaLoop`].
#[derive(Debug, Clone)]
pub struct ReplicaFleet<L = ServingConfig> {
    /// Number of replicas.
    pub replicas: usize,
    /// Dispatch policy of the front end.
    pub dispatch: FleetDispatch,
    /// Per-replica serving loop configuration, identical across the fleet.
    pub serving: L,
    /// Telemetry sink shared by the dispatcher and every replica simulator.
    telemetry: Telemetry,
}

impl<L: ReplicaLoop> ReplicaFleet<L> {
    /// Create a fleet. Panics if `replicas` is zero.
    pub fn new(replicas: usize, dispatch: FleetDispatch, serving: L) -> ReplicaFleet<L> {
        assert!(replicas >= 1, "a fleet needs at least one replica");
        ReplicaFleet {
            replicas,
            dispatch,
            serving,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry sink. Dispatch decisions are traced per request and
    /// every replica's serving events land in that replica's buffer (derived
    /// via [`Telemetry::for_replica`], safe for parallel runs).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ReplicaFleet<L> {
        self.telemetry = telemetry;
        self
    }

    /// Build a [`FleetRun`] over pre-computed shards and what every replica
    /// reads from the shared stream (both borrowed read-only by every
    /// replica). Sharding depends only on arrivals and dispatch, so callers
    /// comparing several policy families over the *same* shards should shard
    /// once and serve per family. Add one [`ReplicaUnit`] per replica, then
    /// call [`FleetRun::run`].
    pub fn serve<'a>(&'a self, shards: &'a [L::Shard], shared: &'a L::Shared) -> FleetRun<'a, L> {
        assert_eq!(
            shards.len(),
            self.replicas,
            "one shard per replica is required"
        );
        L::check_shards(shards, shared);
        FleetRun {
            fleet: self,
            shards,
            shared,
            threads: available_threads(),
            units: Vec::new(),
        }
    }
}

/// Aggregate result of one fleet run: per-replica outcomes plus fleet-level
/// views over the pooled records (see [`FleetOutcomeView`]).
#[derive(Debug, Clone)]
pub struct FleetOutcome<O> {
    /// One outcome per replica, in replica order.
    pub per_replica: Vec<O>,
    /// Requests dispatched to each replica (sums to the shared stream
    /// length).
    pub shard_sizes: Vec<usize>,
    /// The unit labels, in replica order.
    pub labels: Vec<String>,
}

/// Fleet-level views, implemented once over any [`FleetOutcome<O>`] whose
/// per-replica outcome is a [`ReplicaOutcome`].
pub trait FleetOutcomeView {
    /// Total units produced across the fleet (requests or tokens).
    fn total_units(&self) -> usize;
    /// Smallest shard any replica received (starvation indicator).
    fn min_shard(&self) -> usize;
    /// Fleet makespan: replicas run in parallel, so the fleet finishes when
    /// its slowest replica does.
    fn makespan(&self) -> SimDuration;
    /// Latency samples pooled across every replica, in milliseconds.
    fn pooled_samples_ms(&self) -> Vec<f64>;
    /// Summarise the fleet run over its pooled replicas
    /// ([`LatencySummary::of`]).
    fn summary(&self, policy: &str) -> LatencySummary;
}

impl<O: ReplicaOutcome> FleetOutcomeView for FleetOutcome<O> {
    fn total_units(&self) -> usize {
        self.per_replica.iter().map(|o| o.unit_count()).sum()
    }

    fn min_shard(&self) -> usize {
        self.shard_sizes.iter().copied().min().unwrap_or(0)
    }

    fn makespan(&self) -> SimDuration {
        self.per_replica
            .iter()
            .map(|o| o.replica_makespan())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    fn pooled_samples_ms(&self) -> Vec<f64> {
        self.per_replica
            .iter()
            .flat_map(|o| o.unit_samples_ms())
            .collect()
    }

    fn summary(&self, policy: &str) -> LatencySummary {
        LatencySummary::of(policy, &self.per_replica)
    }
}

/// One replica's share of a shared generative request stream.
#[derive(Debug, Clone)]
pub struct RequestShard {
    /// The replica's requests, with their *original* arrival times.
    pub requests: Vec<Request>,
    /// For each shard request, its index in the shared stream.
    pub indices: Vec<usize>,
}

/// Deterministically shard a shared generative request stream across
/// `replicas` replicas. Whole sequences are dispatched (a sequence's decode
/// steps are stateful, so it cannot migrate); the [`FleetDispatch::LeastLoaded`]
/// backlog model therefore weights each request by its output length
/// ([`Request::projected_decode`] from the model's batch-1 step time).
/// `requests` must be in arrival order (the order the front end observes
/// them).
pub fn shard_requests(
    requests: &[Request],
    replicas: usize,
    dispatch: FleetDispatch,
    per_token_estimate: SimDuration,
) -> Vec<RequestShard> {
    let mut dispatcher = IncrementalDispatcher::new(replicas, dispatch);
    let mut shards: Vec<RequestShard> = (0..replicas)
        .map(|_| RequestShard {
            requests: Vec::new(),
            indices: Vec::new(),
        })
        .collect();
    for (i, request) in requests.iter().enumerate() {
        let r = dispatcher.select();
        let service = request.projected_decode(per_token_estimate);
        dispatcher.commit(r, request.arrival, service, true);
        shards[r].requests.push(request.clone());
        shards[r].indices.push(i);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::BatchingPolicy;
    use crate::platform::VanillaPolicy;
    use apparate_sim::Percentiles;

    fn samples(n: usize) -> Vec<SampleSemantics> {
        (0..n)
            .map(|i| SampleSemantics::new(i as u64, 0.5))
            .collect()
    }

    fn exec_time(b: u32) -> SimDuration {
        SimDuration::from_millis(10 + 2 * b as u64)
    }

    /// The running thread's id, for the queue tests below that check which
    /// worker ran an item.
    fn thread_id() -> std::thread::ThreadId {
        // lint:allow(D003, reason = "the work-queue tests check which worker ran an item; no table or export reads it")
        std::thread::current().id()
    }

    #[test]
    fn run_queue_returns_results_in_item_order_whatever_the_finish_order() {
        use std::sync::mpsc::channel;
        // Item 0 waits for item 1 to finish and item 1 for item 2, so the
        // items finish in reverse order; each waiting item holds one worker,
        // which is why the queue needs all three.
        for threads in [3, 8] {
            let (one_done, after_one) = channel();
            let (two_done, after_two) = channel();
            let items = vec![
                (None, Some(after_one)),
                (Some(one_done), Some(after_two)),
                (Some(two_done), None),
            ];
            let finished = Mutex::new(Vec::new());
            let out = run_queue(threads, items, |i, (done, after)| {
                if let Some(after) = after {
                    after.recv().expect("the next item reports before exiting");
                }
                finished.lock().expect("no panics").push(i);
                if let Some(done) = done {
                    done.send(()).expect("the previous item is waiting");
                }
                i * 10
            });
            assert_eq!(out, vec![0, 10, 20], "results in item order at {threads}");
            assert_eq!(finished.into_inner().expect("no panics"), vec![2, 1, 0]);
        }
    }

    #[test]
    fn run_queue_reraises_a_worker_panic_on_the_caller() {
        // Both items wait at a two-party barrier, so each of the two workers
        // holds one: the item on the spawned worker panics, the caller's
        // completes, and the spawned worker's payload must reach the caller.
        let caller = thread_id();
        let barrier = std::sync::Barrier::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_queue(2, vec![(); 2], |i, ()| {
                barrier.wait();
                if thread_id() != caller {
                    panic!("item {i} failed on a spawned worker");
                }
                i
            })
        }));
        let payload = result.expect_err("the worker's panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic carries a String");
        assert!(message.ends_with("failed on a spawned worker"), "{message}");
    }

    #[test]
    fn run_queue_on_one_thread_runs_items_in_order_on_the_caller() {
        let caller = thread_id();
        let order = Mutex::new(Vec::new());
        let out = run_queue(1, vec!['a', 'b', 'c'], |i, c| {
            assert_eq!(thread_id(), caller);
            order.lock().expect("no panics").push(i);
            (i, c)
        });
        assert_eq!(out, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
        assert_eq!(order.into_inner().expect("no panics"), vec![0, 1, 2]);
        assert!(run_queue(4, Vec::<u8>::new(), |_, b| b).is_empty());
    }

    #[test]
    fn shard_counts_sum_to_trace_length_for_both_dispatchers() {
        let trace = ArrivalTrace::maf_like(977, 40.0, 7);
        for dispatch in [FleetDispatch::RoundRobin, FleetDispatch::LeastLoaded] {
            for n in [1, 2, 4, 8] {
                let shards = shard_arrivals(&trace, n, dispatch, exec_time(1));
                assert_eq!(shards.len(), n);
                let total: usize = shards.iter().map(|s| s.trace.len()).sum();
                assert_eq!(total, trace.len(), "{dispatch} x{n} loses/duplicates");
                // Index sets partition the shared trace.
                let mut seen: Vec<usize> = shards.iter().flat_map(|s| s.indices.clone()).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..trace.len()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn round_robin_counts_are_fair() {
        let trace = ArrivalTrace::fixed_rate(100, 50.0);
        let shards = shard_arrivals(&trace, 4, FleetDispatch::RoundRobin, exec_time(1));
        for s in &shards {
            assert_eq!(s.trace.len(), 25);
        }
    }

    #[test]
    fn least_loaded_never_starves_a_replica() {
        // Bursty arrivals, 8 replicas: the backlog model must still hand every
        // replica a meaningful share of the stream.
        let trace = ArrivalTrace::maf_like(2_000, 60.0, 11);
        let shards = shard_arrivals(&trace, 8, FleetDispatch::LeastLoaded, exec_time(1));
        let fair = trace.len() / 8;
        for (r, s) in shards.iter().enumerate() {
            assert!(
                s.trace.len() >= fair / 4,
                "replica {r} starved: {} of fair share {fair}",
                s.trace.len()
            );
        }
    }

    #[test]
    fn sharding_is_deterministic() {
        let trace = ArrivalTrace::poisson(500, 30.0, 3);
        let a = shard_arrivals(&trace, 4, FleetDispatch::LeastLoaded, exec_time(1));
        let b = shard_arrivals(&trace, 4, FleetDispatch::LeastLoaded, exec_time(1));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.indices, y.indices);
            assert_eq!(x.trace.times(), y.trace.times());
        }
    }

    #[test]
    fn shards_preserve_absolute_arrival_times() {
        let trace = ArrivalTrace::fixed_rate(20, 10.0);
        let shards = shard_arrivals(&trace, 3, FleetDispatch::RoundRobin, exec_time(1));
        for shard in &shards {
            for (&idx, &at) in shard.indices.iter().zip(shard.trace.times()) {
                assert_eq!(at, trace.times()[idx]);
            }
        }
    }

    /// Run a vanilla classification fleet over the given trace with the given
    /// thread count.
    fn vanilla_fleet_run(
        fleet: &ReplicaFleet,
        trace: &ArrivalTrace,
        shared: &[SampleSemantics],
        threads: usize,
    ) -> FleetOutcome<ServingOutcome> {
        let shards = shard_arrivals(trace, fleet.replicas, fleet.dispatch, exec_time(1));
        let mut policies: Vec<_> = (0..fleet.replicas)
            .map(|_| VanillaPolicy::new(exec_time))
            .collect();
        let estimate = exec_time;
        let units: Vec<ReplicaUnit<'_>> = policies
            .iter_mut()
            .enumerate()
            .map(|(r, p)| ReplicaUnit::new(format!("vanilla-{r}"), p, &estimate))
            .collect();
        fleet
            .serve(&shards, shared)
            .units(units)
            .threads(threads)
            .run()
    }

    #[test]
    fn fleet_run_serves_everything_and_aggregates() {
        let n = 200;
        let trace = ArrivalTrace::fixed_rate(n, 100.0);
        let shared = samples(n);
        let fleet = ReplicaFleet::new(
            4,
            FleetDispatch::LeastLoaded,
            ServingConfig {
                policy: BatchingPolicy::Immediate,
                slo: None,
            },
        );
        let out = vanilla_fleet_run(&fleet, &trace, &shared, 1);
        assert_eq!(out.total_units(), n);
        assert_eq!(out.shard_sizes.iter().sum::<usize>(), n);
        assert!(out.min_shard() > 0);
        let summary = out.summary("vanilla");
        assert!(summary.accuracy >= 1.0 - 1e-12);
        assert_eq!(summary.exit_rate, 0.0);
        assert!(summary.throughput > 0.0);
        assert_eq!(
            out.labels,
            vec!["vanilla-0", "vanilla-1", "vanilla-2", "vanilla-3"]
        );
        assert_eq!(summary.latency_ms.count, n);
    }

    #[test]
    fn thread_count_never_changes_the_fleet_outcome() {
        // The thread-count sweep invariant: any `threads` value produces the
        // same merged outcome as the sequential path, record for record.
        let n = 240;
        let trace = ArrivalTrace::maf_like(n, 90.0, 13);
        let shared = samples(n);
        let fleet = ReplicaFleet::new(
            4,
            FleetDispatch::LeastLoaded,
            ServingConfig {
                policy: BatchingPolicy::Immediate,
                slo: None,
            },
        );
        let sequential = vanilla_fleet_run(&fleet, &trace, &shared, 1);
        for threads in [2, 3, 4, 8] {
            let parallel = vanilla_fleet_run(&fleet, &trace, &shared, threads);
            assert_eq!(sequential.shard_sizes, parallel.shard_sizes);
            assert_eq!(sequential.labels, parallel.labels);
            assert_eq!(
                sequential.pooled_samples_ms(),
                parallel.pooled_samples_ms(),
                "pooled latencies diverged at {threads} threads"
            );
            for (s, p) in sequential.per_replica.iter().zip(&parallel.per_replica) {
                assert_eq!(
                    s.records, p.records,
                    "records diverged at {threads} threads"
                );
                assert_eq!(s.batch_sizes, p.batch_sizes);
            }
        }
    }

    #[test]
    fn run_fleets_gives_each_run_what_its_own_run_returns() {
        // Two fleets that differ in stream, size, dispatch and batching share
        // one queue. Listed in either order, at any thread count, each must
        // get exactly the outcome it gets when it runs alone.
        let fleets = [
            (
                ArrivalTrace::maf_like(240, 90.0, 13),
                ReplicaFleet::new(
                    3,
                    FleetDispatch::LeastLoaded,
                    ServingConfig {
                        policy: BatchingPolicy::Immediate,
                        slo: None,
                    },
                ),
            ),
            (
                ArrivalTrace::poisson(160, 120.0, 5),
                ReplicaFleet::new(
                    2,
                    FleetDispatch::RoundRobin,
                    ServingConfig {
                        policy: BatchingPolicy::TfServe {
                            max_batch_size: 8,
                            batch_timeout: SimDuration::from_millis(5),
                        },
                        slo: None,
                    },
                ),
            ),
        ];
        let shared: Vec<_> = fleets
            .iter()
            .map(|(trace, _)| samples(trace.len()))
            .collect();
        let shards: Vec<_> = fleets
            .iter()
            .map(|(trace, fleet)| {
                shard_arrivals(trace, fleet.replicas, fleet.dispatch, exec_time(1))
            })
            .collect();
        let alone: Vec<_> = fleets
            .iter()
            .zip(&shared)
            .map(|((trace, fleet), shared)| vanilla_fleet_run(fleet, trace, shared, 1))
            .collect();
        let estimate = exec_time;
        for threads in [1, 2, 8] {
            for order in [[0, 1], [1, 0]] {
                // Here the units own their policies; `vanilla_fleet_run`
                // lends them.
                let runs = order
                    .iter()
                    .map(|&k| {
                        let fleet = &fleets[k].1;
                        fleet
                            .serve(&shards[k], &shared[k])
                            .units((0..fleet.replicas).map(|r| {
                                let policy = VanillaPolicy::new(exec_time);
                                ReplicaUnit::owned(format!("vanilla-{r}"), policy, &estimate)
                            }))
                    })
                    .collect();
                let together = run_fleets(threads, runs);
                assert_eq!(together.len(), 2);
                for (&k, out) in order.iter().zip(&together) {
                    let own = &alone[k];
                    assert_eq!(out.labels, own.labels, "run {k} at {threads} threads");
                    assert_eq!(out.shard_sizes, own.shard_sizes);
                    assert_eq!(out.per_replica.len(), own.per_replica.len());
                    for (o, a) in out.per_replica.iter().zip(&own.per_replica) {
                        assert_eq!(o.records, a.records, "run {k} at {threads} threads");
                        assert_eq!(o.batch_sizes, a.batch_sizes);
                    }
                }
            }
        }
    }

    #[test]
    fn thread_count_never_changes_the_traced_snapshot() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let n = 160;
        let trace = ArrivalTrace::poisson(n, 120.0, 5);
        let shared = samples(n);
        let run = |threads: usize| {
            let telemetry = Telemetry::recording(TelemetryConfig::default());
            let fleet = ReplicaFleet::new(
                4,
                FleetDispatch::RoundRobin,
                ServingConfig {
                    policy: BatchingPolicy::Immediate,
                    slo: None,
                },
            )
            .with_telemetry(telemetry.clone());
            let out = vanilla_fleet_run(&fleet, &trace, &shared, threads);
            (out, telemetry.snapshot().expect("recording"))
        };
        let (out1, snap1) = run(1);
        for threads in [2, 8] {
            let (outn, snapn) = run(threads);
            assert_eq!(out1.pooled_samples_ms(), outn.pooled_samples_ms());
            assert_eq!(
                snap1.events, snapn.events,
                "trace diverged at {threads} threads"
            );
            assert_eq!(snap1.series, snapn.series);
            assert_eq!(snap1.counters, snapn.counters);
            assert_eq!(snap1.histograms, snapn.histograms);
        }
    }

    #[test]
    #[should_panic(expected = "one unit per replica")]
    fn fleet_run_rejects_a_unit_count_mismatch() {
        let n = 20;
        let trace = ArrivalTrace::fixed_rate(n, 10.0);
        let shared = samples(n);
        let fleet = ReplicaFleet::new(
            2,
            FleetDispatch::RoundRobin,
            ServingConfig {
                policy: BatchingPolicy::Immediate,
                slo: None,
            },
        );
        let shards = shard_arrivals(&trace, fleet.replicas, fleet.dispatch, exec_time(1));
        let mut policy = VanillaPolicy::new(exec_time);
        let estimate = exec_time;
        let _ = fleet
            .serve(&shards, &shared)
            .unit(ReplicaUnit::new("only-one", &mut policy, &estimate))
            .run();
    }

    use crate::generative::VanillaTokenPolicy;

    struct UniformTokens;
    impl TokenSemantics for UniformTokens {
        fn token(&self, request_id: u64, token_index: u32) -> SampleSemantics {
            SampleSemantics::new(request_id * 10_000 + token_index as u64, 0.4)
        }
    }

    fn gen_requests(n: usize, tokens_each: u32, rate: f64) -> Vec<Request> {
        let trace = ArrivalTrace::poisson(n, rate, 3);
        trace
            .times()
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                Request::generative(
                    i as u64,
                    at,
                    SampleSemantics::new(i as u64, 0.4),
                    tokens_each,
                )
            })
            .collect()
    }

    fn decode_time(b: u32) -> SimDuration {
        SimDuration::from_micros(10_000 + 1_500 * b as u64)
    }

    /// Run a vanilla generative fleet over the given requests with the given
    /// thread count.
    fn vanilla_generative_run(
        fleet: &ReplicaFleet<ContinuousBatchingConfig>,
        requests: &[Request],
        threads: usize,
    ) -> FleetOutcome<GenerativeOutcome> {
        let shards = shard_requests(requests, fleet.replicas, fleet.dispatch, decode_time(1));
        let mut policies: Vec<_> = (0..fleet.replicas)
            .map(|_| VanillaTokenPolicy::new(decode_time))
            .collect();
        let estimate = decode_time;
        let units: Vec<ReplicaUnit<'_>> = policies
            .iter_mut()
            .enumerate()
            .map(|(r, p)| ReplicaUnit::new(format!("vanilla-{r}"), p, &estimate))
            .collect();
        fleet
            .serve(&shards, &UniformTokens)
            .units(units)
            .threads(threads)
            .run()
    }

    #[test]
    fn request_shards_partition_the_stream_for_both_dispatchers() {
        let requests = gen_requests(100, 20, 10.0);
        for dispatch in [FleetDispatch::RoundRobin, FleetDispatch::LeastLoaded] {
            for n in [1usize, 2, 4, 8] {
                let shards = shard_requests(&requests, n, dispatch, decode_time(1));
                assert_eq!(shards.len(), n);
                let total: usize = shards.iter().map(|s| s.requests.len()).sum();
                assert_eq!(total, requests.len(), "{dispatch} x{n} loses/duplicates");
                let mut seen: Vec<usize> = shards.iter().flat_map(|s| s.indices.clone()).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..requests.len()).collect::<Vec<_>>());
                for shard in &shards {
                    for (&idx, request) in shard.indices.iter().zip(&shard.requests) {
                        assert_eq!(request.arrival, requests[idx].arrival);
                        assert_eq!(request.id, requests[idx].id);
                    }
                }
            }
        }
    }

    #[test]
    fn least_loaded_weights_requests_by_output_length() {
        // One long sequence, then two short ones back to back: the backlog
        // model charges output_tokens × per-token time, so the long one's
        // replica stays the loaded one and both short ones go to the other.
        // Charging every request the same service (or none) would send the
        // second short one back to the long one's replica.
        let mut requests = gen_requests(3, 10, 1_000.0);
        requests[0].output_tokens = 1_000;
        let shards = shard_requests(&requests, 2, FleetDispatch::LeastLoaded, decode_time(1));
        let replica_of = |id: u64| {
            shards
                .iter()
                .position(|s| s.requests.iter().any(|r| r.id == id))
                .expect("dispatched")
        };
        for short in [1, 2] {
            assert_ne!(
                replica_of(0),
                replica_of(short),
                "short sequence {short} queued behind the long one"
            );
        }
    }

    #[test]
    fn generative_fleet_serves_every_token_and_aggregates() {
        let requests = gen_requests(24, 15, 20.0);
        let fleet = ReplicaFleet::new(
            4,
            FleetDispatch::LeastLoaded,
            ContinuousBatchingConfig {
                max_batch_size: 8,
                tbt_slo: None,
            },
        );
        let out = vanilla_generative_run(&fleet, &requests, 1);
        assert_eq!(out.total_units(), 24 * 15);
        let completed: usize = out.per_replica.iter().map(|o| o.completed_requests).sum();
        assert_eq!(completed, 24);
        assert_eq!(out.shard_sizes.iter().sum::<usize>(), 24);
        assert!(out.min_shard() > 0);
        let summary = out.summary("vanilla");
        assert!(summary.accuracy >= 1.0 - 1e-12);
        assert_eq!(summary.exit_rate, 0.0);
        assert!(summary.throughput > 0.0);
        assert_eq!(summary.latency_ms.count, 24 * 15);
        // Replicas decode in parallel: the fleet makespan is the slowest
        // replica's, not the sum.
        let slowest = out.per_replica.iter().map(|o| o.makespan).max().unwrap();
        assert_eq!(out.makespan(), slowest);
        // Deterministic: same stream, same shards, same pooled outcome — and
        // the thread count does not enter the outcome at all.
        for threads in [1, 2, 8] {
            let again = vanilla_generative_run(&fleet, &requests, threads);
            assert_eq!(out.shard_sizes, again.shard_sizes);
            assert_eq!(
                out.pooled_samples_ms(),
                again.pooled_samples_ms(),
                "diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn generative_fleet_scales_token_bandwidth_on_a_saturated_stream() {
        // Arrivals far above one replica's decode capacity keep its continuous
        // batch pinned at the cap while sequences queue; four replicas decode
        // four thinner batches in parallel, so fleet token throughput must
        // scale near-linearly and the pooled steady-state TPT must drop
        // (smaller decode batches step faster).
        let requests = gen_requests(48, 30, 1_000.0);
        let run = |replicas: usize| {
            let fleet = ReplicaFleet::new(
                replicas,
                FleetDispatch::LeastLoaded,
                ContinuousBatchingConfig {
                    max_batch_size: 16,
                    tbt_slo: None,
                },
            );
            vanilla_generative_run(&fleet, &requests, 1)
        };
        let single = run(1);
        let quad = run(4);
        let single_tps = single.summary("vanilla").throughput;
        let quad_tps = quad.summary("vanilla").throughput;
        assert!(
            quad_tps > 2.5 * single_tps,
            "4-replica fleet bandwidth {quad_tps} tok/s should far exceed saturated single-replica {single_tps}"
        );
        let single_p50 = Percentiles::from_samples(&single.pooled_samples_ms()).p50;
        let quad_p50 = Percentiles::from_samples(&quad.pooled_samples_ms()).p50;
        assert!(
            quad_p50 < single_p50,
            "4-replica median TPT {quad_p50} ms should beat single-replica {single_p50} ms"
        );
    }

    #[test]
    fn traced_fleet_tags_every_replica_and_dispatch() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let n = 120;
        let trace = ArrivalTrace::fixed_rate(n, 100.0);
        let shared = samples(n);
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        let fleet = ReplicaFleet::new(
            3,
            FleetDispatch::RoundRobin,
            ServingConfig {
                policy: BatchingPolicy::Immediate,
                slo: None,
            },
        )
        .with_telemetry(telemetry.clone());
        let out = vanilla_fleet_run(&fleet, &trace, &shared, 2);
        assert_eq!(out.total_units(), n);
        let snap = telemetry.snapshot().expect("recording");
        // One dispatch event per arrival, and the per-event replica tag agrees
        // with the round-robin assignment.
        assert_eq!(snap.count_kind("dispatch"), n);
        for event in snap
            .events
            .iter()
            .filter(|e| e.kind.kind_name() == "dispatch")
        {
            if let apparate_telemetry::EventKind::Dispatch {
                request_id,
                replica,
            } = event.kind
            {
                assert_eq!(replica, (request_id % 3) as u32);
                assert_eq!(event.replica, replica);
            }
        }
        // Every replica contributed a queue-depth series and batch events.
        let queue_replicas: Vec<u32> = snap
            .series_named("queue_depth")
            .iter()
            .map(|s| s.replica)
            .collect();
        for r in 0..3u32 {
            assert!(
                queue_replicas.contains(&r),
                "no queue series for replica {r}"
            );
        }
        assert_eq!(snap.counter_total("batches") as usize, {
            let batches: usize = out.per_replica.iter().map(|o| o.batch_sizes.len()).sum();
            batches
        });
    }

    #[test]
    fn dispatch_events_interleave_in_sim_time_order() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        // Dispatch events are emitted inside the run now, so each one must
        // sit at its arrival's position in the time-sorted trace rather than
        // all batches trailing every dispatch.
        let n = 90;
        let trace = ArrivalTrace::fixed_rate(n, 60.0);
        let shared = samples(n);
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        let fleet = ReplicaFleet::new(
            3,
            FleetDispatch::RoundRobin,
            ServingConfig {
                policy: BatchingPolicy::Immediate,
                slo: None,
            },
        )
        .with_telemetry(telemetry.clone());
        let _ = vanilla_fleet_run(&fleet, &trace, &shared, 1);
        let snap = telemetry.snapshot().expect("recording");
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.kind_name()).collect();
        let last_dispatch = kinds.iter().rposition(|&k| k == "dispatch").unwrap();
        let first_batch = kinds.iter().position(|&k| k == "batch-formed").unwrap();
        assert!(
            first_batch < last_dispatch,
            "batch events must interleave with dispatches, not trail them all"
        );
    }

    #[test]
    fn traced_generative_fleet_pools_tbt_violations() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let requests = gen_requests(24, 15, 20.0);
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        // A deliberately strict TBT SLO: batched decode steps exceed it.
        let fleet = ReplicaFleet::new(
            2,
            FleetDispatch::LeastLoaded,
            ContinuousBatchingConfig {
                max_batch_size: 8,
                tbt_slo: Some(SimDuration::from_millis(12)),
            },
        )
        .with_telemetry(telemetry.clone());
        let out = vanilla_generative_run(&fleet, &requests, 2);
        assert_eq!(out.total_units(), 24 * 15);
        // The summary row's pooled rate reflects the per-token SLO outcomes.
        let violated: usize = out
            .per_replica
            .iter()
            .map(|o| o.tokens.iter().filter(|t| t.slo_violated).count())
            .sum();
        let rate = out.summary("apparate").slo_violation_rate;
        assert!(rate > 0.0, "strict TBT SLO must be violated under batching");
        assert_eq!(rate, violated as f64 / out.total_units() as f64);
        let snap = telemetry.snapshot().expect("recording");
        assert_eq!(snap.count_kind("dispatch"), 24);
        assert_eq!(snap.counter_total("slo_violations") as usize, violated);
    }

    #[test]
    fn four_replicas_drain_an_overloaded_stream_faster_than_one() {
        // 100 rps against ~83 rps single-replica batch-1 capacity: one replica
        // queues without bound, four replicas are comfortably provisioned, so
        // the pooled median latency must drop sharply.
        let n = 300;
        let trace = ArrivalTrace::fixed_rate(n, 100.0);
        let shared = samples(n);
        let config = ServingConfig {
            policy: BatchingPolicy::Immediate,
            slo: None,
        };
        let run = |replicas: usize| {
            let fleet = ReplicaFleet::new(replicas, FleetDispatch::LeastLoaded, config.clone());
            let out = vanilla_fleet_run(&fleet, &trace, &shared, 1);
            Percentiles::from_samples(&out.pooled_samples_ms()).p50
        };
        let single = run(1);
        let quad = run(4);
        assert!(
            quad < single / 2.0,
            "4-replica p50 {quad} ms should be far below single-replica {single} ms"
        );
    }
}
