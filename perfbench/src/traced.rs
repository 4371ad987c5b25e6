//! Traced passes: each workload's pass rebuilt from the same public calls
//! its entry point makes, with every call into a layer wrapped in a span.
//!
//! The rebuild mirrors `run_scenarios` (via the classification and
//! generative comparison runners), `run_classification_fleet_threaded` and
//! `run_admission_fleet` call for call, including the work they repeat (the
//! fleet runners derive the scenario fixtures twice per fleet size). Its
//! rendered tables must match the untraced entry point's byte for byte; a
//! change to a runner that the rebuild does not follow shows up as a failed
//! check, not as a silently different measurement.

use apparate_baselines::{
    batch_time_fn, deploy_all_sites, deploy_budget_sites, offline_tuned_thresholds, vanilla_policy,
    OracleExitPolicy, OracleTokenPolicy, RampDeployment, StaticExitPolicy, StaticTokenPolicy,
};
use apparate_core::{ApparateConfig, GreedyParams, RampArchitecture};
use apparate_exec::{OverheadReport, SampleSemantics, SemanticsModel};
use apparate_experiments::{
    cv_scenario, diurnal_scenario, generative_calibration, generative_requests,
    generative_scenario, scenario_config, AdmissionFleetRun, ApparatePolicy, ApparateTokenPolicy,
    ClassificationScenario, ComparisonTable, ControllerStats, FleetRun, OverheadRow, ReproSizes,
    TraceKind, WorkloadTokens, STATIC_THRESHOLD,
};
use apparate_model::LayerId;
use apparate_serving::{
    latency_cdf, shard_arrivals, stream_arrivals, tpt_cdf, AdmissionConfig, ArrivalTrace,
    FleetDispatch, FleetOutcome, FleetOutcomeView, GenerativeOutcome, GenerativeSimulator,
    LatencySummary, ReplicaFleet, ReplicaUnit, ServingOutcome, ServingSimulator, TraceShard,
    VanillaTokenPolicy,
};
use apparate_sim::{DeterministicRng, Percentiles, SimDuration};
use apparate_telemetry::Telemetry;

use crate::trace::{span, timed_estimator, Layer, Timed};
use crate::workloads::{
    fleet_output, scenario_output, PassOutput, Workload, ADMISSION_REPLICAS, ADMISSION_SCALE,
    FLEET_ARRIVAL_SCALE, FLEET_FRAMES, FLEET_SIZES,
};

const DISPATCH: FleetDispatch = FleetDispatch::LeastLoaded;

/// Exact work counts of one traced pass, read from the simulated outcomes
/// and the controllers. Identical on every pass of a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Summed adaptation counters of every Apparate controller.
    pub controller: ControllerCounts,
    /// Summed link charges of every Apparate controller.
    pub link: LinkCounts,
    /// Classification batches launched.
    pub batches: u64,
    /// Requests in those batches.
    pub batched_requests: u64,
    /// Queue wait (`batch_start − arrival`) of every classification
    /// request, sim ms.
    pub queue_waits_ms: Vec<f64>,
    /// Decode steps run.
    pub gen_steps: u64,
    /// Sequences in those steps.
    pub gen_slots: u64,
    /// Front-end counters of the admission stream.
    pub ingest: IngestCounts,
}

/// [`ControllerStats`] summed over controllers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerCounts {
    pub tuning_rounds: u64,
    pub adjustment_rounds: u64,
    pub ramp_changes: u64,
    pub updates_sent: u64,
    pub records_ingested: u64,
    pub records_dropped: u64,
}

/// [`OverheadReport`] summed over controllers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounts {
    pub up_msgs: u64,
    pub up_bytes: u64,
    pub down_msgs: u64,
    pub down_bytes: u64,
    /// Summed delivery latency of every message, sim µs.
    pub latency_us: u64,
}

/// Counters of the admission front end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounts {
    pub offered: u64,
    pub shed: u64,
    pub max_depth: u64,
    pub nudges: u64,
}

impl Counts {
    fn controller(&mut self, stats: ControllerStats, report: &OverheadReport) {
        let c = &mut self.controller;
        c.tuning_rounds += stats.tuning_rounds as u64;
        c.adjustment_rounds += stats.adjustment_rounds as u64;
        c.ramp_changes += stats.ramp_changes as u64;
        c.updates_sent += stats.updates_sent as u64;
        c.records_ingested += stats.records_ingested as u64;
        c.records_dropped += stats.records_dropped as u64;
        let l = &mut self.link;
        l.up_msgs += report.uplink.messages;
        l.up_bytes += report.uplink.bytes;
        l.down_msgs += report.downlink.messages;
        l.down_bytes += report.downlink.bytes;
        l.latency_us += report.total_latency().as_micros();
    }

    fn serving(&mut self, out: &ServingOutcome) {
        self.batches += out.batch_sizes.len() as u64;
        self.batched_requests += out.batch_sizes.iter().map(|&b| b as u64).sum::<u64>();
        self.queue_waits_ms.extend(
            out.records
                .iter()
                .map(|r| r.batch_start.saturating_since(r.arrival).as_millis_f64()),
        );
    }

    fn generative(&mut self, out: &GenerativeOutcome) {
        self.gen_steps += out.batch_sizes.len() as u64;
        self.gen_slots += out.batch_sizes.iter().map(|&b| b as u64).sum::<u64>();
    }
}

/// One traced pass of `workload`; fleet replicas run on `threads` workers.
/// Call inside [`crate::trace::record`] to collect its spans.
pub fn traced_pass(workload: Workload, seed: u64, threads: usize) -> (PassOutput, Counts) {
    let mut counts = Counts::default();
    let output = match workload {
        Workload::CvSteady => {
            let table = cv_table(seed, &mut counts);
            span(Layer::Report, || scenario_output(&table))
        }
        Workload::GenDecode => {
            let table = generative_table(seed, &mut counts);
            span(Layer::Report, || scenario_output(&table))
        }
        Workload::FleetOverload => {
            let scenario = span(Layer::Workload, || {
                cv_scenario(seed, FLEET_FRAMES).with_arrival_scale(FLEET_ARRIVAL_SCALE)
            });
            let runs: Vec<FleetRun> = FLEET_SIZES
                .iter()
                .map(|&replicas| fleet_run(&scenario, replicas, threads, &mut counts))
                .collect();
            let diurnal = span(Layer::Workload, || {
                diurnal_scenario(seed, FLEET_FRAMES).with_arrival_scale(ADMISSION_SCALE)
            });
            let admission = admission_run(&diurnal, ADMISSION_REPLICAS, threads, &mut counts);
            span(Layer::Report, || fleet_output(&runs, &admission))
        }
    };
    (output, counts)
}

/// The scenario fixtures the classification runners derive from the seed:
/// semantics model, arrival trace over the serving split, budgeted ramps.
fn classification_fixture(
    scenario: &ClassificationScenario,
    config: &ApparateConfig,
) -> (SemanticsModel, ArrivalTrace, RampDeployment) {
    let semantics = semantics_model(
        scenario.seed,
        scenario.model.descriptor.overparameterization,
    );
    let split = scenario.workload.bootstrap_split();
    let n = split.serving.len();
    let trace = span(Layer::Traces, || match scenario.trace {
        TraceKind::FixedRate(hz) => ArrivalTrace::fixed_rate(n, hz),
        TraceKind::MafLike(hz) => ArrivalTrace::maf_like(
            n,
            hz,
            DeterministicRng::new(scenario.seed).child(0x7A).seed(),
        ),
    });
    let deployment = span(Layer::Prep, || {
        deploy_budget_sites(
            &scenario.model,
            &semantics,
            config,
            RampArchitecture::Lightweight,
            split.train.len(),
        )
    });
    (semantics, trace, deployment)
}

fn semantics_model(seed: u64, overparameterization: f64) -> SemanticsModel {
    span(Layer::Prep, || {
        SemanticsModel::new(
            DeterministicRng::new(seed).child(0x5E).seed(),
            overparameterization,
        )
    })
}

fn greedy_params(config: &ApparateConfig) -> GreedyParams {
    GreedyParams {
        accuracy_loss_budget: config.accuracy_constraint,
        initial_step: config.initial_step,
        smallest_step: config.smallest_step,
        max_threshold: 1.0,
    }
}

/// Apparate's estimator contract: vanilla time padded by the ramp budget.
fn budget_estimate(
    vanilla_plan: &apparate_exec::ExecutionPlan,
    config: ApparateConfig,
) -> impl Fn(u32) -> SimDuration + Sync + '_ {
    timed_estimator(move |b: u32| {
        SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(b) * (1.0 + config.ramp_budget))
    })
}

/// The six-policy CV table (`run_scenarios(.., ScenarioSelect::Cv)`).
fn cv_table(seed: u64, counts: &mut Counts) -> ComparisonTable {
    let config = scenario_config();
    let scenario = span(Layer::Workload, || {
        cv_scenario(seed, ReproSizes::full().cv_frames)
    });
    let split = span(Layer::Workload, || scenario.workload.bootstrap_split());
    let serving_samples = split.serving;
    let (semantics, trace, dep_budget) = classification_fixture(&scenario, &config);
    let sim = ServingSimulator::new(scenario.serving.clone());
    let dep_all = span(Layer::Prep, || {
        deploy_all_sites(
            &scenario.model,
            &semantics,
            RampArchitecture::Lightweight,
            split.train.len(),
        )
    });
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = dep_budget.plan.clone();
    let all_plan = dep_all.plan.clone();

    let mut summaries = Vec::new();
    let mut serve = |name: &str,
                     policy: &mut dyn apparate_serving::ExitPolicy,
                     plan: &apparate_exec::ExecutionPlan,
                     counts: &mut Counts| {
        let estimate = timed_estimator(batch_time_fn(plan));
        let out = span(Layer::Platform, || {
            sim.run(&trace, serving_samples, policy, &estimate)
        });
        counts.serving(&out);
        summaries.push(span(Layer::Metrics, || {
            LatencySummary::from_outcome(name, &out)
        }));
        out
    };

    let vanilla_out = serve(
        "vanilla",
        &mut Timed::new(Layer::Exec, vanilla_policy(&vanilla_plan)),
        &vanilla_plan,
        counts,
    );
    span(Layer::Metrics, || latency_cdf(&vanilla_out));
    serve(
        "static-ee",
        &mut Timed::new(
            Layer::Exec,
            StaticExitPolicy::uniform(budget_plan.clone(), STATIC_THRESHOLD, "static-ee"),
        ),
        &budget_plan,
        counts,
    );
    serve(
        "uniform-ee",
        &mut Timed::new(
            Layer::Exec,
            StaticExitPolicy::uniform(all_plan.clone(), STATIC_THRESHOLD, "uniform-ee"),
        ),
        &all_plan,
        counts,
    );
    let tuned = span(Layer::OfflineTune, || {
        offline_tuned_thresholds(
            &budget_plan,
            split.validation,
            greedy_params(&config),
            scenario.reference_batch,
        )
    });
    serve(
        "oneshot-tuned",
        &mut Timed::new(
            Layer::Exec,
            StaticExitPolicy::new(budget_plan.clone(), tuned.thresholds, "oneshot-tuned"),
        ),
        &budget_plan,
        counts,
    );

    let mut policy = Timed::new(
        Layer::Controller,
        span(Layer::WarmStart, || {
            ApparatePolicy::warm_started(
                dep_budget.clone(),
                config,
                scenario.reference_batch,
                split.validation,
            )
        }),
    );
    let estimate = budget_estimate(&vanilla_plan, config);
    let uplink = policy.inner.feedback_sender();
    let apparate_sim = ServingSimulator::new(scenario.serving.clone());
    let apparate_out = span(Layer::Platform, || {
        apparate_sim.run_with_feedback(
            &trace,
            serving_samples,
            &mut policy,
            &estimate,
            Some(&uplink),
        )
    });
    counts.serving(&apparate_out);
    counts.controller(policy.inner.stats(), &policy.inner.overhead_report());
    summaries.push(span(Layer::Metrics, || {
        LatencySummary::from_outcome("apparate", &apparate_out)
    }));
    span(Layer::Metrics, || latency_cdf(&apparate_out));

    let sites: Vec<LayerId> = dep_budget.all_sites.iter().map(|s| s.site).collect();
    let mut oracle = Timed::new(
        Layer::Exec,
        OracleExitPolicy::new(vanilla_plan.clone(), sites, dep_budget.capacity, "oracle"),
    );
    let estimate = timed_estimator(batch_time_fn(&vanilla_plan));
    let out = span(Layer::Platform, || {
        sim.run(&trace, serving_samples, &mut oracle, &estimate)
    });
    counts.serving(&out);
    summaries.push(span(Layer::Metrics, || {
        LatencySummary::from_outcome("oracle", &out)
    }));
    span(Layer::Report, || {
        ComparisonTable::new(scenario.name.clone(), "latency", summaries)
    })
}

/// The six-policy generative table (`run_scenarios(.., Generative)`).
fn generative_table(seed: u64, counts: &mut Counts) -> ComparisonTable {
    let config = scenario_config();
    let scenario = span(Layer::Workload, || {
        generative_scenario(seed, ReproSizes::full().gen_requests)
    });
    let requests = span(Layer::Traces, || generative_requests(&scenario));
    let tokens = WorkloadTokens(&scenario.workload);
    let sim = GenerativeSimulator::new(scenario.batching);
    let semantics = semantics_model(
        scenario.seed,
        scenario.model.descriptor.overparameterization,
    );
    let dep_budget = span(Layer::Prep, || {
        deploy_budget_sites(
            &scenario.model,
            &semantics,
            &config,
            RampArchitecture::Lightweight,
            0,
        )
    });
    let dep_all = span(Layer::Prep, || {
        deploy_all_sites(
            &scenario.model,
            &semantics,
            RampArchitecture::Lightweight,
            0,
        )
    });
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = dep_budget.plan.clone();
    let all_plan = dep_all.plan.clone();
    let calibration = span(Layer::Workload, || {
        generative_calibration(&scenario.workload)
    });

    let mut summaries = Vec::new();
    let mut decode =
        |name: &str, policy: &mut dyn apparate_serving::TokenPolicy, counts: &mut Counts| {
            let out = span(Layer::Generative, || sim.run(&requests, &tokens, policy));
            counts.generative(&out);
            summaries.push(span(Layer::Metrics, || {
                LatencySummary::from_generative(name, &out)
            }));
            out
        };

    let vanilla_out = decode(
        "vanilla",
        &mut Timed::new(
            Layer::Exec,
            VanillaTokenPolicy::new(|b| {
                SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(b))
            }),
        ),
        counts,
    );
    span(Layer::Metrics, || tpt_cdf(&vanilla_out));
    decode(
        "static-ee",
        &mut Timed::new(
            Layer::Exec,
            StaticTokenPolicy::uniform(budget_plan.clone(), STATIC_THRESHOLD, "static-ee"),
        ),
        counts,
    );
    decode(
        "uniform-ee",
        &mut Timed::new(
            Layer::Exec,
            StaticTokenPolicy::uniform(all_plan.clone(), STATIC_THRESHOLD, "uniform-ee"),
        ),
        counts,
    );
    let tuned = span(Layer::OfflineTune, || {
        offline_tuned_thresholds(
            &budget_plan,
            &calibration,
            greedy_params(&config),
            scenario.reference_batch,
        )
    });
    decode(
        "oneshot-tuned",
        &mut Timed::new(
            Layer::Exec,
            StaticTokenPolicy::new(budget_plan.clone(), tuned.thresholds, "oneshot-tuned"),
        ),
        counts,
    );

    let mut policy = Timed::new(
        Layer::Controller,
        span(Layer::WarmStart, || {
            ApparateTokenPolicy::warm_started(
                dep_budget.clone(),
                config,
                scenario.reference_batch,
                &calibration,
            )
        }),
    );
    let uplink = policy.inner.feedback_sender();
    let apparate_sim = GenerativeSimulator::new(scenario.batching);
    let apparate_out = span(Layer::Generative, || {
        apparate_sim.run_with_feedback(&requests, &tokens, &mut policy, Some(&uplink))
    });
    counts.generative(&apparate_out);
    counts.controller(policy.inner.stats(), &policy.inner.overhead_report());
    summaries.push(span(Layer::Metrics, || {
        LatencySummary::from_generative("apparate", &apparate_out)
    }));
    span(Layer::Metrics, || tpt_cdf(&apparate_out));

    let sites: Vec<LayerId> = dep_budget.all_sites.iter().map(|s| s.site).collect();
    let mut oracle = Timed::new(
        Layer::Exec,
        OracleTokenPolicy::new(vanilla_plan.clone(), sites, dep_budget.capacity, "oracle"),
    );
    let out = span(Layer::Generative, || {
        sim.run(&requests, &tokens, &mut oracle)
    });
    counts.generative(&out);
    summaries.push(span(Layer::Metrics, || {
        LatencySummary::from_generative("oracle", &out)
    }));
    span(Layer::Report, || {
        ComparisonTable::new(scenario.name.clone(), "tpt", summaries)
    })
}

/// `run_classification_fleet_threaded`: shard the shared trace, then serve
/// the shards with the vanilla, static-EE and Apparate fleets.
fn fleet_run(
    scenario: &ClassificationScenario,
    replicas: usize,
    threads: usize,
    counts: &mut Counts,
) -> FleetRun {
    let config = scenario_config();
    let (_, trace, dep_budget) = classification_fixture(scenario, &config);
    let service_estimate = service_estimate(&dep_budget);
    let shards = span(Layer::Ingest, || {
        shard_arrivals(&trace, replicas, DISPATCH, service_estimate)
    });
    fleet_over_shards(scenario, replicas, config, threads, &shards, counts)
}

/// The front end's per-request estimate: batch-1 vanilla execution time.
fn service_estimate(dep_budget: &RampDeployment) -> SimDuration {
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(1))
}

/// `run_classification_fleet_over_shards`.
fn fleet_over_shards(
    scenario: &ClassificationScenario,
    replicas: usize,
    config: ApparateConfig,
    threads: usize,
    shards: &[TraceShard],
    counts: &mut Counts,
) -> FleetRun {
    let split = scenario.workload.bootstrap_split();
    let serving_samples = split.serving;
    let n: usize = shards.iter().map(|s| s.indices.len()).sum();
    let (_, _, dep_budget) = classification_fixture(scenario, &config);
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = dep_budget.plan.clone();
    let fleet = ReplicaFleet::new(replicas, DISPATCH, scenario.serving.clone());

    let mut summaries: Vec<LatencySummary> = Vec::new();
    {
        let mut policies: Vec<_> = (0..replicas)
            .map(|_| Timed::new(Layer::Exec, vanilla_policy(&vanilla_plan)))
            .collect();
        let estimate = timed_estimator(batch_time_fn(&vanilla_plan));
        let out = span(Layer::Fleet, || {
            fleet
                .serve(shards, serving_samples)
                .units(
                    policies
                        .iter_mut()
                        .enumerate()
                        .map(|(r, p)| ReplicaUnit::new(format!("vanilla-{r}"), p, &estimate)),
                )
                .threads(threads)
                .run()
        });
        fleet_serving(counts, &out);
        summaries.push(span(Layer::Metrics, || out.summary("vanilla")));
    }
    {
        let mut policies: Vec<_> = (0..replicas)
            .map(|_| {
                Timed::new(
                    Layer::Exec,
                    StaticExitPolicy::uniform(budget_plan.clone(), STATIC_THRESHOLD, "static-ee"),
                )
            })
            .collect();
        let estimate = timed_estimator(batch_time_fn(&budget_plan));
        let out = span(Layer::Fleet, || {
            fleet
                .serve(shards, serving_samples)
                .units(
                    policies
                        .iter_mut()
                        .enumerate()
                        .map(|(r, p)| ReplicaUnit::new(format!("static-ee-{r}"), p, &estimate)),
                )
                .threads(threads)
                .run()
        });
        fleet_serving(counts, &out);
        summaries.push(span(Layer::Metrics, || out.summary("static-ee")));
    }
    let (apparate_out, overhead) = apparate_fleet(
        &fleet,
        shards,
        serving_samples,
        split.validation,
        &dep_budget,
        config,
        scenario.reference_batch,
        threads,
        counts,
    );
    summaries.push(span(Layer::Metrics, || apparate_out.summary("apparate")));

    FleetRun {
        scenario: scenario.name.clone(),
        replicas,
        dispatch: DISPATCH,
        table: span(Layer::Report, || {
            ComparisonTable::new(
                format!("{} ×{replicas} ({DISPATCH})", scenario.name),
                "latency",
                summaries,
            )
        }),
        overhead: OverheadRow {
            scenario: format!("{} ×{replicas}", scenario.name),
            requests: n as u64,
            report: overhead,
        },
        shard_sizes: apparate_out.shard_sizes,
    }
}

fn fleet_serving(counts: &mut Counts, out: &FleetOutcome<ServingOutcome>) {
    for replica in &out.per_replica {
        counts.serving(replica);
    }
}

/// One warm-started Apparate controller per replica, each over its own link;
/// returns the fleet outcome and the summed link charges.
#[allow(clippy::too_many_arguments)]
fn apparate_fleet(
    fleet: &ReplicaFleet,
    shards: &[TraceShard],
    serving_samples: &[SampleSemantics],
    validation: &[SampleSemantics],
    dep_budget: &RampDeployment,
    config: ApparateConfig,
    reference_batch: u32,
    threads: usize,
    counts: &mut Counts,
) -> (FleetOutcome<ServingOutcome>, OverheadReport) {
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let mut policies: Vec<Timed<ApparatePolicy>> = (0..fleet.replicas)
        .map(|_| {
            Timed::new(
                Layer::Controller,
                span(Layer::WarmStart, || {
                    ApparatePolicy::warm_started(
                        dep_budget.clone(),
                        config,
                        reference_batch,
                        validation,
                    )
                }),
            )
        })
        .collect();
    let estimate = budget_estimate(&vanilla_plan, config);
    let out = span(Layer::Fleet, || {
        fleet
            .serve(shards, serving_samples)
            .units(policies.iter_mut().enumerate().map(|(r, p)| {
                let feedback = p.inner.feedback_sender();
                ReplicaUnit::new(format!("apparate-{r}"), p, &estimate).with_feedback(feedback)
            }))
            .threads(threads)
            .run()
    });
    fleet_serving(counts, &out);
    let mut overhead = OverheadReport::default();
    for policy in &policies {
        let report = policy.inner.overhead_report();
        counts.controller(policy.inner.stats(), &report);
        for (total, part) in [
            (&mut overhead.uplink, &report.uplink),
            (&mut overhead.downlink, &report.downlink),
        ] {
            total.messages += part.messages;
            total.bytes += part.bytes;
            total.total_latency += part.total_latency;
        }
    }
    (out, overhead)
}

/// `run_admission_fleet`: the Apparate fleet over replay shards, then behind
/// the SLO-driven admission front end, judged from original arrivals.
fn admission_run(
    scenario: &ClassificationScenario,
    replicas: usize,
    threads: usize,
    counts: &mut Counts,
) -> AdmissionFleetRun {
    let config = scenario_config();
    let slo = scenario
        .serving
        .slo
        .expect("admission control needs a response SLO");
    let (_, trace, dep_budget) = classification_fixture(scenario, &config);
    let service_estimate = service_estimate(&dep_budget);
    let replay_shards = span(Layer::Ingest, || {
        shard_arrivals(&trace, replicas, DISPATCH, service_estimate)
    });
    let replay = fleet_over_shards(scenario, replicas, config, threads, &replay_shards, counts);
    let row = |policy: &str| {
        replay
            .table
            .row(policy)
            .expect("replay table row")
            .summary
            .clone()
    };
    let vanilla_summary = row("vanilla");
    let apparate_summary = row("apparate");
    let attainment_without = 1.0 - apparate_summary.slo_violation_rate;

    let service_us = service_estimate.as_micros().max(1);
    let queue_bound = ((slo.as_micros() / service_us) as usize).max(1);
    let admission = AdmissionConfig::for_slo(slo, queue_bound);
    let streamed = span(Layer::Ingest, || {
        stream_arrivals(
            &trace,
            replicas,
            DISPATCH,
            service_estimate,
            Some(admission),
            &Telemetry::disabled(),
        )
    });
    let split = scenario.workload.bootstrap_split();
    let fleet = ReplicaFleet::new(replicas, DISPATCH, scenario.serving.clone());
    let (admitted_out, _) = apparate_fleet(
        &fleet,
        &streamed.shards,
        split.serving,
        split.validation,
        &dep_budget,
        config,
        scenario.reference_batch,
        threads,
        counts,
    );

    let (admission_summary, attainment_with) = span(Layer::Metrics, || {
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
        let mut summary = admitted_out.summary("apparate+admission");
        summary.latency_ms = Percentiles::from_samples(&adjusted_ms);
        summary.slo_violation_rate = if served == 0 {
            0.0
        } else {
            (served - on_time) as f64 / served as f64
        };
        let offered = streamed.stats.offered.max(1);
        (summary, on_time as f64 / offered as f64)
    });
    let oscillations = streamed.oscillations();
    let stats = streamed.stats;
    counts.ingest = IngestCounts {
        offered: stats.offered as u64,
        shed: stats.shed as u64,
        max_depth: stats.max_depth as u64,
        nudges: stats.nudges as u64,
    };

    AdmissionFleetRun {
        scenario: scenario.name.clone(),
        replicas,
        dispatch: DISPATCH,
        table: span(Layer::Report, || {
            ComparisonTable::new(
                format!("{} ×{replicas} ({DISPATCH}) admission", scenario.name),
                "latency",
                vec![vanilla_summary, apparate_summary, admission_summary],
            )
        }),
        ingest: stats,
        oscillations,
        attainment_without,
        attainment_with,
        shard_sizes: admitted_out.shard_sizes,
    }
}
