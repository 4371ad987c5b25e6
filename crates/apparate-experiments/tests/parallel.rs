//! Parallelism determinism suite: the worker-thread count must never leak
//! into any observable output. Same seed + any `threads` value ⇒
//! byte-identical win tables, byte-identical telemetry exports (event trace
//! and metrics JSON-lines), identical coordination bills — for the
//! classification fleet, the generative (decode-loop) fleet, the overload
//! admission run and the three six-policy comparison tables.
//!
//! This is the acceptance contract of the `--threads` knob: parallel fleet
//! replicas and parallel policy runs buy wall-clock time only.

use apparate_experiments::{
    cv_scenario, diurnal_scenario, generative_scenario, render_admission_summary,
    run_admission_fleet, run_classification_fleet_threaded, run_fleet, run_scenarios_traced_config,
    scenario_config, OverheadTable, ReproSizes, ScenarioSelect,
};
use apparate_serving::FleetDispatch;
use apparate_telemetry::{
    render_metrics_json_lines, render_trace_json_lines, Telemetry, TelemetryConfig,
};

/// Render everything observable about one traced classification fleet run at
/// the given thread count: the win table plus both JSON-lines exports.
fn classification_artifacts(threads: usize) -> (String, String, String) {
    let telemetry = Telemetry::recording(TelemetryConfig::default());
    let run = run_fleet(
        &cv_scenario(42, 1_500),
        4,
        FleetDispatch::LeastLoaded,
        &telemetry,
        threads,
    );
    let snapshot = telemetry.snapshot().expect("recording sink");
    (
        run.table.render(),
        render_trace_json_lines(&snapshot),
        render_metrics_json_lines(&snapshot),
    )
}

/// Same, for the generative fleet (TPT tables, decode-loop telemetry).
fn generative_artifacts(threads: usize) -> (String, String, String) {
    let telemetry = Telemetry::recording(TelemetryConfig::default());
    let run = run_fleet(
        &generative_scenario(42, 48),
        4,
        FleetDispatch::LeastLoaded,
        &telemetry,
        threads,
    );
    let snapshot = telemetry.snapshot().expect("recording sink");
    (
        run.table.render(),
        render_trace_json_lines(&snapshot),
        render_metrics_json_lines(&snapshot),
    )
}

/// Same, for the CV, NLP and generative comparison tables (six policy runs
/// each, Apparate traced) plus the §4.5 overhead table, as `repro` prints
/// them.
fn comparison_artifacts(threads: usize) -> (String, String, String) {
    let telemetry = Telemetry::recording(TelemetryConfig::default());
    let runs = run_scenarios_traced_config(
        42,
        ReproSizes::bench(),
        ScenarioSelect::All,
        &telemetry,
        scenario_config(),
        threads,
    );
    assert_eq!(runs.len(), 3, "CV, NLP and generative tables");
    let mut tables: String = runs.iter().map(|run| run.table.render()).collect();
    tables
        .push_str(&OverheadTable::new(runs.into_iter().map(|run| run.overhead).collect()).render());
    let snapshot = telemetry.snapshot().expect("recording sink");
    (
        tables,
        render_trace_json_lines(&snapshot),
        render_metrics_json_lines(&snapshot),
    )
}

#[test]
fn comparison_artifacts_are_byte_identical_across_thread_counts() {
    let (tables1, trace1, metrics1) = comparison_artifacts(1);
    assert!(!trace1.is_empty(), "the traced runs must record events");
    for threads in [2, 8] {
        let (tables, trace, metrics) = comparison_artifacts(threads);
        assert_eq!(
            tables1, tables,
            "comparison tables diverged from sequential at {threads} threads"
        );
        assert_eq!(
            trace1, trace,
            "event-trace export diverged from sequential at {threads} threads"
        );
        assert_eq!(
            metrics1, metrics,
            "metrics export diverged from sequential at {threads} threads"
        );
    }
}

#[test]
fn classification_artifacts_are_byte_identical_across_thread_counts() {
    let (table1, trace1, metrics1) = classification_artifacts(1);
    assert!(!trace1.is_empty(), "the traced run must record events");
    for threads in [2, 8] {
        let (table, trace, metrics) = classification_artifacts(threads);
        assert_eq!(
            table1, table,
            "win table diverged from sequential at {threads} threads"
        );
        assert_eq!(
            trace1, trace,
            "event-trace export diverged from sequential at {threads} threads"
        );
        assert_eq!(
            metrics1, metrics,
            "metrics export diverged from sequential at {threads} threads"
        );
    }
}

#[test]
fn generative_artifacts_are_byte_identical_across_thread_counts() {
    let (table1, trace1, metrics1) = generative_artifacts(1);
    assert!(!trace1.is_empty(), "the traced run must record events");
    for threads in [2, 8] {
        let (table, trace, metrics) = generative_artifacts(threads);
        assert_eq!(
            table1, table,
            "win table diverged from sequential at {threads} threads"
        );
        assert_eq!(
            trace1, trace,
            "event-trace export diverged from sequential at {threads} threads"
        );
        assert_eq!(
            metrics1, metrics,
            "metrics export diverged from sequential at {threads} threads"
        );
    }
}

#[test]
fn admission_artifacts_are_identical_across_thread_counts() {
    // The replay Apparate fleet, the admitted Apparate fleet and the vanilla
    // fleet share one work queue, so each must still get its own shards'
    // outcome whatever the worker count.
    let run = |threads: usize| {
        let scenario = diurnal_scenario(42, 1_500).with_arrival_scale(4.0);
        let run = run_admission_fleet(&scenario, 2, FleetDispatch::LeastLoaded, threads);
        let summary = render_admission_summary(std::slice::from_ref(&run));
        (run.table.render(), summary, run.ingest)
    };
    let (table1, summary1, ingest1) = run(1);
    assert!(ingest1.shed > 0, "a 4× overload must shed");
    for threads in [2, 8] {
        let (table, summary, ingest) = run(threads);
        assert_eq!(
            table1, table,
            "admission table diverged from sequential at {threads} threads"
        );
        assert_eq!(
            summary1, summary,
            "admission summary diverged from sequential at {threads} threads"
        );
        assert_eq!(
            ingest1, ingest,
            "ingest counters diverged at {threads} threads"
        );
    }
}

#[test]
fn traced_run_diff_matches_untraced_replay() {
    // Turning telemetry on must not perturb the simulation: a traced run and
    // an untraced run of the same scenario render the same table.
    let scenario = cv_scenario(42, 1_500);
    let telemetry = Telemetry::recording(TelemetryConfig::default());
    let traced = run_fleet(&scenario, 4, FleetDispatch::LeastLoaded, &telemetry, 2)
        .table
        .render();
    let snapshot = telemetry.snapshot().expect("recording sink");
    assert!(!render_trace_json_lines(&snapshot).is_empty());
    let untraced = run_classification_fleet_threaded(&scenario, 4, FleetDispatch::LeastLoaded, 8)
        .table
        .render();
    assert_eq!(traced, untraced);
}

#[test]
fn coordination_bill_is_thread_count_invariant() {
    // The §4.5 overhead bill sums per-replica link charges; a thread-count
    // dependence here would mean controllers observed different profiling
    // streams under parallel execution.
    let run = |threads: usize| {
        run_fleet(
            &cv_scenario(42, 1_500),
            4,
            FleetDispatch::LeastLoaded,
            &Telemetry::disabled(),
            threads,
        )
    };
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(sequential.shard_sizes, parallel.shard_sizes);
    assert_eq!(
        sequential.overhead.report.uplink.messages,
        parallel.overhead.report.uplink.messages
    );
    assert_eq!(
        sequential.overhead.report.uplink.bytes,
        parallel.overhead.report.uplink.bytes
    );
    assert_eq!(
        sequential.overhead.report.downlink.messages,
        parallel.overhead.report.downlink.messages
    );
    assert_eq!(
        sequential.overhead.report.total_latency(),
        parallel.overhead.report.total_latency()
    );
}
