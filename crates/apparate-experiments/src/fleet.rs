//! Fleet-level comparison runs: one scenario served by N replicas.
//!
//! `apparate-serving::fleet` provides the platform half of scale-out
//! (sharding, per-replica simulation, outcome pooling); this module supplies
//! the experiment half: for one [`Scenario`] — a classification stream or a
//! generative request stream — it builds a fleet of N identical replicas —
//! **each with its own GPU-half/controller-half pair over its own charged
//! [`FeedbackLink`](apparate_exec::FeedbackLink) pair** — and runs
//! the vanilla, static-EE and Apparate fleets over the *same* shared stream
//! and the same shards, every replica of the three one item of one work
//! queue ([`run_fleets`]), so the resulting [`ComparisonTable`] is a
//! fleet-level analogue of the paper's per-replica win tables. Per-replica
//! coordination charges are summed into one fleet [`OverheadRow`]. Note the
//! §4.5 bill's shape under sharding: uplink messages track *batches*, so the
//! fleet-wide count stays roughly constant as N grows (the same stream, cut
//! into N thinner profiling streams), while downlink updates can *drop* with
//! N — each controller sees only its shard, so tuning windows fill N× more
//! slowly and short shards may never trigger a retune after warm-start.
//!
//! On the decode path whole sequences are dispatched per replica (decode
//! state cannot migrate), each Apparate replica runs its own warm-started
//! token controller — full Algorithm 2 loop, ramp-set adjustment included —
//! and the tables read in TPT (time-per-token) instead of response latency.

use apparate_baselines::{batch_time_fn, vanilla_policy, RampDeployment, StaticExitPolicy};
use apparate_core::ApparateConfig;
use apparate_exec::OverheadReport;
use apparate_serving::{
    run_fleets, stream_arrivals, AdmissionConfig, FleetDispatch, FleetOutcomeView, IngestStats,
    ReplicaFleet, ReplicaPolicy, ReplicaUnit,
};
use apparate_sim::{Percentiles, SimDuration};
use apparate_telemetry::Telemetry;

use crate::controller::{warm_start_thresholds, ApparatePolicy};
use crate::report::{ComparisonTable, OverheadRow};
use crate::scenario::{
    apparate_estimate, fixture, scenario_config, ClassificationScenario, Scenario, STATIC_THRESHOLD,
};

/// Result of serving one scenario with a fleet of N replicas.
pub struct FleetRun {
    /// Base scenario name (without the fleet suffix).
    pub scenario: String,
    /// Fleet size.
    pub replicas: usize,
    /// Dispatch policy of the front end.
    pub dispatch: FleetDispatch,
    /// Fleet-level win table: vanilla | static-ee | apparate over the pooled
    /// records, wins against the vanilla *fleet* of the same size.
    pub table: ComparisonTable,
    /// §4.5 coordination charges summed across the N Apparate controllers.
    pub overhead: OverheadRow,
    /// Requests dispatched to each replica (identical across the three
    /// policy families — sharding depends only on arrivals and dispatch).
    pub shard_sizes: Vec<usize>,
}

impl FleetRun {
    /// The Apparate fleet's win row.
    pub fn apparate(&self) -> &crate::report::PolicyRow {
        self.table.row("apparate").expect("apparate fleet row")
    }
}

/// The replicas' coordination charges, summed per direction.
fn fleet_overhead(policies: &[ApparatePolicy]) -> OverheadReport {
    let mut total = OverheadReport::default();
    for report in policies.iter().map(ApparatePolicy::overhead_report) {
        for (sum, part) in [
            (&mut total.uplink, report.uplink),
            (&mut total.downlink, report.downlink),
        ] {
            sum.messages += part.messages;
            sum.bytes += part.bytes;
            sum.total_latency += part.total_latency;
        }
    }
    total
}

/// The front end's per-request service estimate: the batch-1 vanilla
/// execution time of the deployed model (what a production front end knows
/// about it). On the decode path it is per token, and a request's projected
/// service is this times its output length.
fn service_estimate(dep_budget: &RampDeployment) -> SimDuration {
    SimDuration::from_micros_f64(dep_budget.plan.vanilla_total_us(1))
}

/// Run the vanilla, static-EE and Apparate fleets of `replicas` replicas over
/// a scenario's shared stream. Every replica runs the scenario's serving
/// loop; each Apparate replica is warm-started on the scenario's
/// calibration samples and coordinates over its own link, running the full
/// controller loop, ramp-set adjustment included. The stream is sharded
/// once: sharding depends only on arrivals and dispatch, so the three
/// families serve the same shards. Their replicas share one work queue of up
/// to `threads` workers (`1` ⇒ the sequential path), Apparate's first, as
/// they take longest; the merged outcome is identical for any thread count.
///
/// `telemetry` is attached to the Apparate fleet's run: every replica's
/// dispatch and serving events land in that replica's buffer (derived via
/// [`Telemetry::for_replica`]), and each replica's controller and links are
/// traced. The vanilla and static-EE fleets stay untraced.
pub fn run_fleet<S: Scenario>(
    scenario: &S,
    replicas: usize,
    dispatch: FleetDispatch,
    telemetry: &Telemetry,
    threads: usize,
) -> FleetRun {
    let config = scenario_config();
    let (_, dep_budget) = fixture(scenario, &config);
    let estimate = service_estimate(&dep_budget);
    let shards = scenario.shards(&scenario.stream(), replicas, dispatch, estimate);
    let fleet = ReplicaFleet::new(replicas, dispatch, scenario.replica_loop().clone());
    // Only the Apparate fleet is traced: the sink goes on a clone of the
    // (config-only) fleet handle, so the baseline families stay untraced.
    let traced = fleet.clone().with_telemetry(telemetry.clone());
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = &dep_budget.plan;

    let warm = warm_start_thresholds(
        budget_plan,
        &config,
        scenario.reference_batch(),
        &scenario.calibration(),
    );
    // The Apparate policies stay borrowed: their link charges are read
    // after the run.
    let mut apparate = apparate_replicas(
        replicas,
        &dep_budget,
        config,
        scenario.reference_batch(),
        &warm,
        telemetry,
    );
    let apparate_estimate = apparate_estimate(budget_plan, &config);
    let static_ee = (0..replicas)
        .map(|_| StaticExitPolicy::uniform(budget_plan.clone(), STATIC_THRESHOLD, "static-ee"));
    let static_estimate = batch_time_fn(budget_plan);
    let vanilla = (0..replicas).map(|_| vanilla_policy(&vanilla_plan));
    let vanilla_estimate = batch_time_fn(&vanilla_plan);
    let shared = scenario.shared();
    let outcomes = run_fleets(
        threads,
        vec![
            traced.serve(&shards, shared).units(
                apparate
                    .iter_mut()
                    .enumerate()
                    .map(|(r, p)| ReplicaUnit::new(format!("apparate-{r}"), p, &apparate_estimate)),
            ),
            fleet.serve(&shards, shared).units(owned_units(
                "static-ee",
                static_ee,
                &static_estimate,
            )),
            fleet
                .serve(&shards, shared)
                .units(owned_units("vanilla", vanilla, &vanilla_estimate)),
        ],
    );
    let Ok([apparate_out, static_out, vanilla_out]) = <[_; 3]>::try_from(outcomes) else {
        unreachable!("the work queue returns one outcome per fleet");
    };

    let name = scenario.name();
    FleetRun {
        scenario: name.to_string(),
        replicas,
        dispatch,
        table: ComparisonTable::new(
            format!("{name} ×{replicas} ({dispatch})"),
            S::METRIC,
            vec![
                vanilla_out.summary("vanilla"),
                static_out.summary("static-ee"),
                apparate_out.summary("apparate"),
            ],
        ),
        overhead: OverheadRow {
            scenario: format!("{name} ×{replicas}"),
            requests: scenario.units(),
            report: fleet_overhead(&apparate),
        },
        shard_sizes: apparate_out.shard_sizes,
    }
}

/// [`run_fleet`] over a classification scenario, untraced.
pub fn run_classification_fleet_threaded(
    scenario: &ClassificationScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    threads: usize,
) -> FleetRun {
    run_fleet(
        scenario,
        replicas,
        dispatch,
        &Telemetry::disabled(),
        threads,
    )
}

/// One unit per policy, named `{family}-{replica}`, over the family's
/// batch-time `estimate`. Each unit owns its policy, so the queue frees a
/// replica's policy as soon as that replica finishes.
fn owned_units<'a, P: ReplicaPolicy + Send + 'a>(
    family: &'a str,
    policies: impl IntoIterator<Item = P> + 'a,
    estimate: &'a (dyn Fn(u32) -> SimDuration + Sync),
) -> impl Iterator<Item = ReplicaUnit<'a>> + 'a {
    policies
        .into_iter()
        .enumerate()
        .map(move |(r, p)| ReplicaUnit::owned(format!("{family}-{r}"), p, estimate))
}

/// One Apparate controller per replica, each loaded with the same `warm`
/// start (every replica warm-starts on the same inputs, so the caller tunes
/// it once) and traced under its replica tag.
fn apparate_replicas(
    replicas: usize,
    dep_budget: &RampDeployment,
    config: ApparateConfig,
    reference_batch: u32,
    warm: &Option<Vec<f64>>,
    telemetry: &Telemetry,
) -> Vec<ApparatePolicy> {
    (0..replicas)
        .map(|r| {
            let mut policy =
                ApparatePolicy::new(dep_budget.clone(), config, reference_batch, warm.clone());
            // Controller events carry this replica's tag and land in its
            // per-replica buffer, so parallel replicas never contend.
            policy.set_telemetry(telemetry.for_replica(r as u32));
            policy
        })
        .collect()
}

/// Result of one overload run: the same scenario served by the Apparate fleet
/// with and without SLO-driven admission control at the front end.
pub struct AdmissionFleetRun {
    /// Scenario name (carries the overload factor, e.g. `load×4`).
    pub scenario: String,
    /// Fleet size.
    pub replicas: usize,
    /// Dispatch policy of the front end.
    pub dispatch: FleetDispatch,
    /// Win table: vanilla | apparate | apparate+admission. The admission
    /// row's latencies and SLO verdicts are **honest**: measured from each
    /// request's *original* arrival (pacing delay included), with shed
    /// requests counting against attainment, never hidden.
    pub table: ComparisonTable,
    /// Front-end counters from the admission-controlled ingest
    /// ([`stream_arrivals`]).
    pub ingest: IngestStats,
    /// Hysteresis oscillations in the admission decision log (pinned at zero
    /// by `tests/admission.rs`).
    pub oscillations: usize,
    /// SLO attainment of the Apparate fleet *without* admission control:
    /// on-time requests over offered requests.
    pub attainment_without: f64,
    /// SLO attainment *with* admission control: on-time requests (measured
    /// from original arrival) over offered requests — shed requests count as
    /// misses.
    pub attainment_with: f64,
    /// Requests dispatched to each replica under admission control.
    pub shard_sizes: Vec<usize>,
}

impl AdmissionFleetRun {
    /// Attainment improvement from admission control, in percentage points.
    pub fn attainment_delta_points(&self) -> f64 {
        (self.attainment_with - self.attainment_without) * 100.0
    }
}

/// Serve one classification scenario — typically an overloaded one, see
/// [`crate::scenario::diurnal_scenario`] and
/// [`ClassificationScenario::with_arrival_scale`] — with the Apparate fleet
/// twice: once over plain replay shards (every arrival dispatched, queues
/// unbounded) and once behind the streaming admission front end
/// ([`stream_arrivals`] with an [`AdmissionConfig`] derived from the
/// scenario's SLO). The vanilla fleet over the replay shards anchors the win
/// table. The three fleets' replicas share one work queue of up to
/// `threads` workers, and the output is identical for any thread count.
///
/// Accounting is honest: admission-run latencies are measured from each
/// request's *original* arrival time (so pacing delay is charged, not
/// hidden), and attainment is on-time requests over *offered* requests, so
/// every shed request counts as a miss. The headline claim this supports:
/// under multi-× overload, shedding the requests the SLO model predicts
/// cannot be served on time keeps the survivors' queueing delay bounded and
/// raises fleet-wide attainment over the admit-everything fleet.
pub fn run_admission_fleet(
    scenario: &ClassificationScenario,
    replicas: usize,
    dispatch: FleetDispatch,
    threads: usize,
) -> AdmissionFleetRun {
    let slo = scenario
        .serving
        .slo
        .expect("admission control needs a response SLO");
    let config = scenario_config();
    let (_, dep_budget) = fixture(scenario, &config);
    let trace = scenario.stream();
    let service_estimate = service_estimate(&dep_budget);
    let fleet = ReplicaFleet::new(replicas, dispatch, scenario.serving.clone());
    let disabled = Telemetry::disabled();

    // Pass 1 serves plain replay shards: every arrival dispatched, queues
    // unbounded.
    let replay_shards = scenario.shards(&trace, replicas, dispatch, service_estimate);
    // Pass 2 serves the shards the admission front end dispatches. Queue
    // bound: the number of batch-1 service slots that fit in one SLO — a
    // request admitted behind a full queue is exactly the request the model
    // predicts cannot finish inside its deadline, so a sustained overload
    // sheds instead of building backlog that defeats the SLO for everyone.
    let service_us = service_estimate.as_micros().max(1);
    let queue_bound = ((slo.as_micros() / service_us) as usize).max(1);
    let admission = AdmissionConfig::for_slo(slo, queue_bound);
    let streamed = stream_arrivals(
        &trace,
        replicas,
        dispatch,
        service_estimate,
        Some(admission),
        &disabled,
    );

    // The admit-everything Apparate fleet, the admitted one and the vanilla
    // fleet anchoring the table's wins (over the replay shards) share one
    // work queue, longest first, and both Apparate fleets load the same warm
    // start. Nothing reads a policy after the run, so every unit owns its
    // policy and the queue frees each as its replica finishes.
    let warm = warm_start_thresholds(
        &dep_budget.plan,
        &config,
        scenario.reference_batch,
        &scenario.calibration(),
    );
    let apparate_policies = || {
        apparate_replicas(
            replicas,
            &dep_budget,
            config,
            scenario.reference_batch,
            &warm,
            &disabled,
        )
    };
    let apparate_estimate = apparate_estimate(&dep_budget.plan, &config);
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let vanilla = (0..replicas).map(|_| vanilla_policy(&vanilla_plan));
    let vanilla_estimate = batch_time_fn(&vanilla_plan);
    let samples = scenario.shared();
    let outcomes = run_fleets(
        threads,
        vec![
            fleet.serve(&replay_shards, samples).units(owned_units(
                "apparate",
                apparate_policies(),
                &apparate_estimate,
            )),
            fleet.serve(&streamed.shards, samples).units(owned_units(
                "apparate",
                apparate_policies(),
                &apparate_estimate,
            )),
            fleet.serve(&replay_shards, samples).units(owned_units(
                "vanilla",
                vanilla,
                &vanilla_estimate,
            )),
        ],
    );
    let Ok([replay_out, admitted_out, vanilla_out]) = <[_; 3]>::try_from(outcomes) else {
        unreachable!("the work queue returns one outcome per fleet");
    };
    let vanilla_summary = vanilla_out.summary("vanilla");
    let apparate_summary = replay_out.summary("apparate");
    // Replay dispatches every offered arrival, so attainment is just the
    // on-time fraction (records judge SLO against true arrival times).
    let attainment_without = 1.0 - apparate_summary.slo_violation_rate;

    // Honest admission-row accounting: a record's id is its index within its
    // shard, whose `indices` point back at the offered stream — so recover
    // the original arrival and judge latency and the SLO against it.
    let mut adjusted_ms: Vec<f64> = Vec::new();
    let mut on_time = 0usize;
    let mut served = 0usize;
    for (replica, outcome) in admitted_out.per_replica.iter().enumerate() {
        let shard = &streamed.shards[replica];
        for record in &outcome.records {
            let original = trace.times()[shard.indices[record.id as usize]];
            adjusted_ms.push(record.released.saturating_since(original).as_millis_f64());
            served += 1;
            if record.released <= original + slo {
                on_time += 1;
            }
        }
    }
    let mut admission_summary = admitted_out.summary("apparate+admission");
    admission_summary.latency_ms = Percentiles::from_samples(&adjusted_ms);
    admission_summary.slo_violation_rate = if served == 0 {
        0.0
    } else {
        (served - on_time) as f64 / served as f64
    };
    let offered = streamed.stats.offered.max(1);
    let attainment_with = on_time as f64 / offered as f64;

    AdmissionFleetRun {
        scenario: scenario.name.clone(),
        replicas,
        dispatch,
        table: ComparisonTable::new(
            format!("{} ×{replicas} ({dispatch}) admission", scenario.name),
            "latency",
            vec![vanilla_summary, apparate_summary, admission_summary],
        ),
        ingest: streamed.stats,
        oscillations: streamed.oscillations(),
        attainment_without,
        attainment_with,
        shard_sizes: admitted_out.shard_sizes,
    }
}

/// Render the overload summary across admission runs: one row per
/// [`AdmissionFleetRun`], showing the front-end counters and the attainment
/// of the Apparate fleet with and without admission control. Deterministic,
/// like every other table in [`crate::report`].
pub fn render_admission_summary(runs: &[AdmissionFleetRun]) -> String {
    let mut out = crate::report::title_rule("overload admission summary");
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>7} {:>6} {:>7} {:>4} {:>8} {:>8} {:>7}\n",
        "scenario",
        "offered",
        "shed",
        "shed%",
        "max_q",
        "nudges",
        "osc",
        "att w/o",
        "att w/",
        "Δ pts",
    ));
    for run in runs {
        out.push_str(&format!(
            "{:<24} {:>8} {:>8} {:>6.1}% {:>6} {:>7} {:>4} {:>7.1}% {:>7.1}% {:>+7.1}\n",
            format!("{} ×{}", run.scenario, run.replicas),
            run.ingest.offered,
            run.ingest.shed,
            run.ingest.shed_rate() * 100.0,
            run.ingest.max_depth,
            run.ingest.nudges,
            run.oscillations,
            run.attainment_without * 100.0,
            run.attainment_with * 100.0,
            run.attainment_delta_points(),
        ));
    }
    out
}

/// Render the scale-out summary across fleet sizes: one row per [`FleetRun`],
/// showing the Apparate fleet's pooled latency, its wins against the vanilla
/// fleet of the same size, and the summed coordination bill. Deterministic,
/// like every other table in [`crate::report`].
pub fn render_fleet_summary(runs: &[FleetRun]) -> String {
    let title = match runs.first() {
        Some(run) => format!("fleet scale-out ({}, {})", run.scenario, run.dispatch),
        None => "fleet scale-out".to_string(),
    };
    let mut out = crate::report::title_rule(&title);
    out.push_str(&format!(
        "{:>8} {:>13} {:>9} {:>9} {:>8} {:>8} {:>7} {:>8} {:>8} {:>8}\n",
        "replicas",
        "shard min/max",
        "p50 ms",
        "p95 ms",
        "win@p50",
        "win@p95",
        "acc",
        "up msgs",
        "dn msgs",
        "ms/msg",
    ));
    for run in runs {
        let row = run.apparate();
        let min = run.shard_sizes.iter().copied().min().unwrap_or(0);
        let max = run.shard_sizes.iter().copied().max().unwrap_or(0);
        let report = &run.overhead.report;
        let ms_per_msg = if report.total_messages() == 0 {
            0.0
        } else {
            report.total_latency().as_millis_f64() / report.total_messages() as f64
        };
        out.push_str(&format!(
            "{:>8} {:>13} {:>9.2} {:>9.2} {:>7.1}% {:>7.1}% {:>7.3} {:>8} {:>8} {:>8.3}\n",
            run.replicas,
            format!("{min}/{max}"),
            row.summary.latency_ms.p50,
            row.summary.latency_ms.p95,
            row.wins.p50,
            row.wins.p95,
            row.summary.accuracy,
            report.uplink.messages,
            report.downlink.messages,
            ms_per_msg,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{cv_scenario, generative_calibration, generative_scenario};

    fn assert_same_bits(replica: &[f64], single: &[f64]) {
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(replica), bits(single));
    }

    #[test]
    fn fleet_replicas_carry_the_single_policy_warm_start() {
        let scenario = cv_scenario(42, 1_200);
        let config = scenario_config();
        let (_, dep_budget) = fixture(&scenario, &config);
        let validation = scenario.workload.bootstrap_split().validation;
        let single = ApparatePolicy::warm_started(
            dep_budget.clone(),
            config,
            scenario.reference_batch,
            validation,
        );
        assert_eq!(single.stats().tuning_rounds, 1, "the warm start must tune");
        let warm = warm_start_thresholds(
            &dep_budget.plan,
            &config,
            scenario.reference_batch,
            validation,
        );
        let replicas = apparate_replicas(
            3,
            &dep_budget,
            config,
            scenario.reference_batch,
            &warm,
            &Telemetry::disabled(),
        );
        assert_eq!(replicas.len(), 3);
        for replica in &replicas {
            assert_same_bits(replica.thresholds(), single.thresholds());
            assert_eq!(replica.stats(), single.stats());
        }
    }

    #[test]
    fn token_fleet_replicas_carry_the_single_policy_warm_start() {
        let scenario = generative_scenario(42, 24);
        let config = scenario_config();
        let (_, dep_budget) = fixture(&scenario, &config);
        let calibration = generative_calibration(&scenario.workload);
        let single = ApparatePolicy::warm_started(
            dep_budget.clone(),
            config,
            scenario.reference_batch,
            &calibration,
        );
        assert_eq!(single.stats().tuning_rounds, 1, "the warm start must tune");
        let warm = warm_start_thresholds(
            &dep_budget.plan,
            &config,
            scenario.reference_batch,
            &calibration,
        );
        let replicas = apparate_replicas(
            3,
            &dep_budget,
            config,
            scenario.reference_batch,
            &warm,
            &Telemetry::disabled(),
        );
        assert_eq!(replicas.len(), 3);
        for replica in &replicas {
            assert_same_bits(replica.thresholds(), single.thresholds());
            assert_eq!(replica.stats(), single.stats());
        }
    }
}
