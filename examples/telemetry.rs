//! Telemetry: watching one Apparate run from the inside.
//!
//! Every other walkthrough reads the *ends* of a run — win tables, CDFs, the
//! coordination bill. This one records the *middle*: the NLP scenario (BERT
//! under MAF-like bursty arrivals, so the queue actually breathes) runs
//! once with a recording [`Telemetry`] sink attached to the serving platform,
//! the controller halves and both link directions, and the example then reads
//! the captured trace back — the first and last events, the per-kind counts,
//! a queue-depth sparkline — and finally replays the `ramp-set-changed`
//! events to prove the trace reconciles exactly with the controller's own
//! `active_sites()` state. Run with:
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! The same trace is available from the repro harness without writing any
//! code: `repro --quick --trace-out trace.jsonl --metrics-out metrics.jsonl`
//! (and `--chrome-out` for a chrome://tracing / Perfetto view).

use apparate::baselines::deploy_budget_sites;
use apparate::control::RampArchitecture;
use apparate::exec::SemanticsModel;
use apparate::experiments::{nlp_scenario, scenario_config, ApparatePolicy, TraceKind};
use apparate::serving::{ArrivalTrace, LatencySummary, ServingSimulator};
use apparate::sim::{DeterministicRng, SimDuration};
use apparate::telemetry::{EventKind, Telemetry, TelemetryConfig};
use std::collections::BTreeSet;

/// Render one gauge series as a unicode sparkline, resampled to `width`
/// columns (max value per column, so load spikes survive the resampling).
fn sparkline(points: &[(u64, f64)], width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if points.is_empty() {
        return String::new();
    }
    let t0 = points.first().expect("non-empty").0;
    let t1 = points.last().expect("non-empty").0.max(t0 + 1);
    let mut columns = vec![f64::NEG_INFINITY; width];
    for &(at, value) in points {
        let col = ((at - t0) as usize * (width - 1)) / (t1 - t0) as usize;
        columns[col] = columns[col].max(value);
    }
    let peak = columns.iter().cloned().fold(1.0_f64, f64::max);
    columns
        .iter()
        .map(|&v| {
            if v.is_finite() {
                LEVELS[((v / peak) * 7.0).round() as usize]
            } else {
                ' '
            }
        })
        .collect()
}

fn main() {
    let seed = 42;
    let requests = 2_000;
    // The MAF-like 2–4x bursts transiently overload the GPU, so the queue
    // depth series below has a shape worth plotting.
    let scenario = nlp_scenario(seed, requests);
    let config = scenario_config();
    println!("apparate telemetry — traced NLP run, seed {seed}, {requests} requests\n");

    // -- The fixture, derived exactly as the repro harness derives it -------
    // (same child streams, so arrivals and semantics draws match repro's).
    let semantics = SemanticsModel::new(
        DeterministicRng::new(seed).child(0x5E).seed(),
        scenario.model.descriptor.overparameterization,
    );
    let split = scenario.workload.bootstrap_split();
    let trace = match scenario.trace {
        TraceKind::FixedRate(hz) => ArrivalTrace::fixed_rate(split.serving.len(), hz),
        TraceKind::MafLike(hz) => ArrivalTrace::maf_like(
            split.serving.len(),
            hz,
            DeterministicRng::new(seed).child(0x7A).seed(),
        ),
    };
    let deployment = deploy_budget_sites(
        &scenario.model,
        &semantics,
        &config,
        RampArchitecture::Lightweight,
        split.train.len(),
    );
    let vanilla_plan = deployment.plan.with_ramps(Vec::new());

    // -- Attach the recording sink ------------------------------------------
    // One handle, cloned into the platform, the controller and both link
    // directions; all clones share one recorder. `Telemetry::disabled()` in
    // the same positions is the zero-cost no-op the untraced repro runs use.
    let telemetry = Telemetry::recording(TelemetryConfig::default());
    let mut policy = ApparatePolicy::warm_started(
        deployment.clone(),
        config,
        scenario.reference_batch,
        split.validation,
    );
    policy.set_telemetry(telemetry.clone());
    let initial_sites: Vec<usize> = policy.active_sites().to_vec();
    let sim = ServingSimulator::new(scenario.serving.clone()).with_telemetry(telemetry.clone());
    let estimate = |b: u32| {
        SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(b) * (1.0 + config.ramp_budget))
    };
    let out = sim.run(&trace, split.serving, &mut policy, &estimate);

    let summary = LatencySummary::from_outcome("apparate", &out);
    println!(
        "served {} requests: p50 {:.2} ms, p99 {:.2} ms, {:.1}% accuracy\n",
        split.serving.len(),
        summary.latency_ms.p50,
        summary.latency_ms.p99,
        summary.accuracy * 100.0,
    );

    // -- Read the trace back ------------------------------------------------
    let snap = telemetry.snapshot().expect("recording handle snapshots");
    println!(
        "captured {} events ({} dropped), {} series, {} counters, {} histograms",
        snap.events.len(),
        snap.events_dropped,
        snap.series.len(),
        snap.counters.len(),
        snap.histograms.len(),
    );
    for kind in [
        "batch-formed",
        "link-message",
        "tuning-round",
        "ramp-set-changed",
        "update-issued",
        "update-delivered",
        "stale-record-dropped",
        "slo-violation",
    ] {
        println!("  {:>22}: {}", kind, snap.count_kind(kind));
    }

    println!("\nfirst three events (as `--trace-out` writes them):");
    for event in snap.events.iter().take(3) {
        println!("  {}", event.to_json_line());
    }
    println!("last three:");
    for event in snap.events.iter().rev().take(3).rev() {
        println!("  {}", event.to_json_line());
    }

    // -- Queue depth over the run -------------------------------------------
    let series = snap.series_named("queue_depth");
    let queue = series.first().expect("platform gauges queue depth");
    let peak = queue.points.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max);
    println!(
        "\nqueue depth over sim time ({} samples, peak {peak:.0}):",
        queue.points.len()
    );
    println!("  [{}]", sparkline(&queue.points, 64));

    // -- Reconcile the trace with the controller ----------------------------
    // Replaying the ramp-set-changed events over the warm-start active set
    // must land exactly on the controller's final `active_sites()` — the
    // trace is the controller's decision history, not an approximation of it.
    let mut replayed: BTreeSet<usize> = initial_sites.iter().copied().collect();
    let mut changes = 0usize;
    for event in &snap.events {
        if let EventKind::RampSetChanged {
            activated,
            deactivated,
            active_count,
        } = &event.kind
        {
            for site in deactivated {
                assert!(
                    replayed.remove(site),
                    "deactivated a ramp that was not active"
                );
            }
            for site in activated {
                assert!(replayed.insert(*site), "activated a ramp twice");
            }
            assert_eq!(
                *active_count,
                replayed.len(),
                "event's active_count must match the replayed set"
            );
            changes += 1;
        }
    }
    let final_sites: BTreeSet<usize> = policy.active_sites().iter().copied().collect();
    assert_eq!(
        replayed, final_sites,
        "replaying ramp-set-changed events must reproduce active_sites()"
    );
    assert_eq!(
        changes,
        policy.stats().ramp_changes,
        "one ramp-set-changed event per counted ramp change"
    );
    println!(
        "\nramp history reconciles: warm start {:?} + {} ramp-set-changed events\n\
         replay to the controller's final active_sites() {:?} — the trace *is*\n\
         the adaptation history ({} tuning rounds, {} updates shipped).",
        initial_sites,
        changes,
        policy.active_sites(),
        policy.stats().tuning_rounds,
        policy.stats().updates_sent,
    );
}
