//! `repro` — the end-to-end comparison harness.
//!
//! Runs Apparate head-to-head against the baseline family (vanilla,
//! static-ee, uniform-ee, oneshot-tuned, oracle) over the CV, NLP and
//! generative scenarios and prints paper-style latency/accuracy/throughput win
//! tables. Output is deterministic: the same `--seed` always produces the
//! same tables.
//!
//! The actual scenario running lives in
//! [`apparate_experiments::run_scenarios`], so other harnesses (the `e2e`
//! bench suite in particular) can reuse it; this binary only parses arguments
//! and renders the tables.
//!
//! ```text
//! repro [--seed N] [--quick] [--scenario cv|nlp|generative|all] [--sweep]
//!       [--threads N] [--full-retune]
//!       [--trace-out PATH] [--metrics-out PATH] [--chrome-out PATH]
//! ```
//!
//! `--sweep` switches to the scale-out/sensitivity mode: fleet-level win
//! tables for 1/2/4/8 replicas over the shared CV trace *and* the shared
//! generative request stream (least-loaded dispatch), the overload admission
//! tables (the bursty diurnal stream at 2/4/8× capacity, with and without
//! the SLO-driven admission front end), then the SLO (Figure 17) and
//! accuracy-constraint (Figure 19) sensitivity grids.
//! `--threads N` bounds the worker threads of each work queue: a fleet
//! section's replicas (every policy family's on one queue), each comparison
//! table's six policy runs, and the Figure 17/19 grid cells (default:
//! available parallelism; `1` forces the sequential path). Scenarios and
//! sections still run one after another. The thread count only changes
//! wall-clock time — tables and telemetry exports are byte-identical for
//! every value.
//!
//! The `--*-out` flags enable telemetry: the Apparate runs (baselines stay
//! untraced) record the structured event trace and the sampled metrics
//! registry, written after the tables as JSON-lines (`--trace-out`,
//! `--metrics-out`) and/or a chrome://tracing array (`--chrome-out`). Without
//! them the sink is the zero-cost no-op and the tables are byte-identical to
//! an untraced build. An unwritable path is a hard error (exit 1) — partial
//! observability must not look like success.
//!
//! `--full-retune` runs every controller tuning round through the full greedy
//! re-tune (the incremental tuner's correctness oracle) instead of the
//! incremental delta tuner. The two are exactly equivalent, so the tables must
//! be byte-identical with and without the flag — CI's `tuning-equivalence`
//! step diffs them. Scenario mode only (`--sweep` pins its own config).

use apparate_experiments::{
    render_admission_summary, render_fleet_summary, run_admission_fleet, run_fleet,
    run_scenarios_traced_config, scenario_config, sensitivity_sweeps, OverheadTable, ReproSizes,
    ScenarioSelect, SensitivityGrid,
};
use apparate_serving::{available_threads, FleetDispatch};
use apparate_telemetry::{
    render_chrome_trace, render_metrics_json_lines, render_trace_json_lines, Telemetry,
    TelemetryConfig,
};

/// One-line usage synopsis, printed by `--help` and after every argument
/// error (exit code 2).
const USAGE: &str = "usage: repro [--seed N] [--quick] [--scenario cv|nlp|generative|all] \
     [--sweep] [--threads N] [--full-retune] [--trace-out PATH] [--metrics-out PATH] \
     [--chrome-out PATH]";

#[derive(Debug, PartialEq)]
struct Args {
    seed: u64,
    quick: bool,
    scenario: Option<ScenarioSelect>,
    sweep: bool,
    threads: Option<usize>,
    full_retune: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    chrome_out: Option<String>,
}

impl Args {
    /// True when any export flag was given, i.e. the run should record.
    fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.chrome_out.is_some()
    }

    /// The worker-thread count of fleet replicas, of each table's policy
    /// runs and of the sensitivity grid cells: `--threads N` when given,
    /// else the machine's available parallelism. Never printed — output
    /// must not depend on it.
    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(available_threads)
    }
}

/// Parse command-line arguments (exclusive of the binary name). Pure so the
/// rejection paths are unit-testable; `main` turns `Err` into usage + exit 2.
fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        quick: false,
        scenario: None,
        sweep: false,
        threads: None,
        full_retune: false,
        trace_out: None,
        metrics_out: None,
        chrome_out: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let value = it.next().ok_or("--seed requires a value")?;
                args.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed: {value}"))?;
            }
            "--quick" => args.quick = true,
            "--sweep" => args.sweep = true,
            "--full-retune" => args.full_retune = true,
            "--threads" => {
                let value = it.next().ok_or("--threads requires a value")?;
                let threads: usize = value
                    .parse()
                    .map_err(|_| format!("invalid thread count: {value}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                args.threads = Some(threads);
            }
            "--scenario" => {
                let value = it.next().ok_or("--scenario requires a value")?;
                args.scenario = Some(value.parse()?);
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().ok_or("--trace-out requires a path")?);
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out requires a path")?);
            }
            "--chrome-out" => {
                args.chrome_out = Some(it.next().ok_or("--chrome-out requires a path")?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.sweep && args.scenario.is_some() {
        return Err(
            "--sweep runs its own scenario grid (CV + generative fleets, CV/NLP sensitivity) \
             and cannot be combined with --scenario"
                .to_string(),
        );
    }
    if args.sweep && args.full_retune {
        return Err(
            "--full-retune selects the tuning oracle for the scenario tables and cannot be \
             combined with --sweep (the sweep grid pins its own controller configuration)"
                .to_string(),
        );
    }
    Ok(args)
}

/// Print to stdout, exiting quietly when the consumer has gone away
/// (`repro | head` must not panic on the broken pipe).
fn emit(text: &str) {
    use std::io::Write;
    if let Err(error) = std::io::stdout().write_all(text.as_bytes()) {
        if error.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed writing to stdout: {error}");
    }
}

/// Write one telemetry export file, or die with exit 1: a run that was asked
/// for a trace and silently lost it would read as "nothing noteworthy
/// happened", which is the one lie an observability tool must not tell.
fn write_export(path: &str, contents: &str, what: &str) {
    if let Err(error) = std::fs::write(path, contents) {
        eprintln!("repro: cannot write {what} to {path}: {error}");
        std::process::exit(1);
    }
}

/// Snapshot the recorder and write every requested export, then print an
/// explicit accounting line (captured *and* dropped counts — bounded buffers
/// never truncate silently).
fn export_telemetry(args: &Args, telemetry: &Telemetry) {
    let Some(snapshot) = telemetry.snapshot() else {
        return;
    };
    if let Some(path) = &args.trace_out {
        write_export(path, &render_trace_json_lines(&snapshot), "event trace");
    }
    if let Some(path) = &args.metrics_out {
        write_export(path, &render_metrics_json_lines(&snapshot), "metrics");
    }
    if let Some(path) = &args.chrome_out {
        write_export(path, &render_chrome_trace(&snapshot), "chrome trace");
    }
    let points: usize = snapshot.series.iter().map(|s| s.points.len()).sum();
    emit(&format!(
        "telemetry: {} events captured ({} dropped), {} series / {} points ({} dropped), \
         {} counters, {} histograms\n",
        snapshot.events.len(),
        snapshot.events_dropped,
        snapshot.series.len(),
        points,
        snapshot.series_points_dropped(),
        snapshot.counters.len(),
        snapshot.histograms.len(),
    ));
    for (path, what) in [
        (&args.trace_out, "trace"),
        (&args.metrics_out, "metrics"),
        (&args.chrome_out, "chrome trace"),
    ] {
        if let Some(path) = path {
            emit(&format!("telemetry: {what} written to {path}\n"));
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("repro: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let sizes = if args.quick {
        ReproSizes::quick()
    } else {
        ReproSizes::full()
    };
    let telemetry = if args.wants_telemetry() {
        Telemetry::recording(TelemetryConfig::default())
    } else {
        Telemetry::disabled()
    };
    if args.sweep {
        run_sweep(args.seed, args.quick, sizes, &telemetry, args.threads());
        export_telemetry(&args, &telemetry);
        return;
    }

    emit(&format!(
        "apparate repro  (seed {}, {} mode)\n\
         policies: vanilla | static-ee | uniform-ee | oneshot-tuned | apparate | oracle\n\n",
        args.seed,
        if args.quick { "quick" } else { "full" }
    ));

    let runs = run_scenarios_traced_config(
        args.seed,
        sizes,
        args.scenario.unwrap_or(ScenarioSelect::All),
        &telemetry,
        scenario_config().with_full_retune(args.full_retune),
        args.threads(),
    );
    let mut overhead_rows = Vec::new();
    for run in runs {
        emit(&format!("{}\n", run.table.render()));
        overhead_rows.push(run.overhead);
    }
    emit(&format!("{}\n", OverheadTable::new(overhead_rows).render()));

    emit(
        "wins are % latency reduction vs. vanilla at the same percentile (higher is better);\n\
         oracle is the zero-overhead hindsight optimal (lower bound), not a realisable policy;\n\
         the overhead table charges the GPU->controller profiling stream (up) and the\n\
         controller->GPU threshold/ramp updates (down) against the PCIe link model (~0.5 ms/msg).\n",
    );
    export_telemetry(&args, &telemetry);
}

/// The `--sweep` mode: fleet scale-out tables (1/2/4/8 replicas over the
/// shared CV trace and the shared generative request stream, least-loaded
/// dispatch, one controller per replica), then the SLO and accuracy-constraint
/// sensitivity grids.
///
/// When recording, only the 8-replica CV fleet's Apparate run is traced: the
/// recorder keys series by `(name, replica)`, so tracing several fleet sizes
/// (or the generative fleet, which reuses replica indices 0..N with its own
/// sim clock) into one snapshot would interleave restarting clocks within a
/// series. One fully-provisioned fleet gives every replica a clean
/// queue-depth/link series.
fn run_sweep(seed: u64, quick: bool, sizes: ReproSizes, telemetry: &Telemetry, threads: usize) {
    // Sensitivity points and fleet runs re-simulate the scenario per grid
    // cell, so they run at (at most) quick scale even in full mode.
    let frames = sizes.cv_frames.min(ReproSizes::quick().cv_frames);
    let nlp_requests = sizes.nlp_requests.min(ReproSizes::quick().nlp_requests);
    let gen_requests = sizes.gen_requests.min(ReproSizes::quick().gen_requests);
    let grid = if quick {
        SensitivityGrid::quick()
    } else {
        SensitivityGrid::paper()
    };
    emit(&format!(
        "apparate repro --sweep  (seed {seed}, {} mode, {frames}-frame CV stream, \
         {gen_requests}-request generative stream)\n\
         fleet: one GPU-half/controller-half pair per replica, each over its own charged link\n\n",
        if quick { "quick" } else { "full" }
    ));

    // The fleet serves the aggregate stream of six 30 fps cameras: heavy
    // enough that one replica queues without bound, light enough that the
    // 8-replica fleet is comfortably provisioned — the regime where the
    // dispatcher and the per-replica controllers both matter.
    let scenario = apparate_experiments::cv_scenario(seed, frames).with_arrival_scale(6.0);
    let untraced = Telemetry::disabled();
    let mut runs = Vec::new();
    for replicas in [1usize, 2, 4, 8] {
        let traced = if replicas == 8 { telemetry } else { &untraced };
        let run = run_fleet(
            &scenario,
            replicas,
            FleetDispatch::LeastLoaded,
            traced,
            threads,
        );
        emit(&format!("{}\n", run.table.render()));
        runs.push(run);
    }
    emit(&format!("{}\n", render_fleet_summary(&runs)));

    // The generative fleet serves eight tenants' aggregate summarisation
    // stream: one replica's continuous batch pins at its cap (median TPT
    // collapses toward the full-batch step time while sequences queue), two
    // replicas are still transiently overloaded, and ≥4 replicas decode
    // comfortably thin batches — whole sequences dispatched, every replica's
    // token controller running the full Algorithm 2 loop over its own link.
    let generative =
        apparate_experiments::generative_scenario(seed, gen_requests).with_arrival_scale(8.0);
    let mut gen_runs = Vec::new();
    for replicas in [1usize, 2, 4, 8] {
        let run = run_fleet(
            &generative,
            replicas,
            FleetDispatch::LeastLoaded,
            &untraced,
            threads,
        );
        emit(&format!("{}\n", run.table.render()));
        gen_runs.push(run);
    }
    emit(&format!("{}\n", render_fleet_summary(&gen_runs)));

    // Overload sections: the bursty diurnal stream pushed 2–8× past fleet
    // capacity, served by the Apparate fleet with and without the SLO-driven
    // admission front end (bounded queues + rate-slew pacing + shedding).
    // Accounting is honest: admission latencies are judged from original
    // arrivals and shed requests count against attainment.
    let mut admission_runs = Vec::new();
    for scale in [2.0, 4.0, 8.0] {
        let diurnal =
            apparate_experiments::diurnal_scenario(seed, frames).with_arrival_scale(scale);
        let run = run_admission_fleet(&diurnal, 2, FleetDispatch::LeastLoaded, threads);
        emit(&format!("{}\n", run.table.render()));
        admission_runs.push(run);
    }
    emit(&format!("{}\n", render_admission_summary(&admission_runs)));

    for table in sensitivity_sweeps(seed, frames, nlp_requests, &grid, threads) {
        emit(&format!("{}\n", table.render()));
    }
    emit(
        "fleet wins compare each Apparate fleet against the vanilla fleet of the same size\n\
         over the pooled per-replica records (response latency for CV, time-per-token for\n\
         the generative stream); sensitivity rows duel apparate against vanilla with one\n\
         knob moved and everything else (seed, arrivals, semantics draws) held fixed.\n",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_parse_empty_argv() {
        let args = parse(&[]).expect("defaults");
        assert_eq!(args.seed, 42);
        assert!(!args.quick);
        assert!(!args.sweep);
        assert_eq!(args.scenario, None);
    }

    #[test]
    fn flags_and_values_parse() {
        let args = parse(&["--quick", "--seed", "7", "--scenario", "nlp"]).expect("valid argv");
        assert_eq!(args.seed, 7);
        assert!(args.quick);
        assert_eq!(args.scenario, Some(ScenarioSelect::Nlp));
        let args = parse(&["--sweep"]).expect("valid argv");
        assert!(args.sweep);
    }

    #[test]
    fn sweep_rejects_scenario_with_an_explanation() {
        // The regression this guards: `repro --sweep --scenario cv` used to
        // die with a bare error; the parser must return a message explaining
        // the conflict (main appends the usage line and exits 2).
        let error = parse(&["--sweep", "--scenario", "cv"]).expect_err("conflicting argv");
        assert!(
            error.contains("--sweep") && error.contains("--scenario"),
            "error must name the conflicting flags: {error}"
        );
        // Order must not matter.
        assert!(parse(&["--scenario", "cv", "--sweep"]).is_err());
    }

    #[test]
    fn full_retune_parses_and_conflicts_with_sweep() {
        let args = parse(&[]).expect("defaults");
        assert!(!args.full_retune, "incremental tuning is the default");
        let args = parse(&["--quick", "--full-retune"]).expect("valid argv");
        assert!(args.full_retune);
        // Composes with an explicit scenario selection.
        assert!(parse(&["--full-retune", "--scenario", "cv"]).is_ok());
        // The sweep grid pins its own controller configuration.
        let error = parse(&["--sweep", "--full-retune"]).expect_err("conflicting argv");
        assert!(
            error.contains("--full-retune") && error.contains("--sweep"),
            "error must name the conflicting flags: {error}"
        );
        assert!(parse(&["--full-retune", "--sweep"]).is_err());
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "not-a-number"]).is_err());
        assert!(parse(&["--scenario"]).is_err());
        assert!(parse(&["--scenario", "no-such-scenario"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn threads_flag_parses_and_defaults_to_available_parallelism() {
        let args = parse(&[]).expect("defaults");
        assert_eq!(args.threads, None);
        assert!(args.threads() >= 1, "default must be a usable thread count");

        let args = parse(&["--threads", "4"]).expect("valid argv");
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.threads(), 4);

        // Composes with both modes.
        assert!(parse(&["--sweep", "--threads", "1"]).is_ok());
        assert!(parse(&["--quick", "--threads", "8"]).is_ok());
    }

    #[test]
    fn threads_flag_rejects_zero_and_garbage() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
    }

    #[test]
    fn telemetry_flags_parse_and_toggle_recording() {
        let args = parse(&[]).expect("defaults");
        assert!(!args.wants_telemetry(), "telemetry is opt-in");

        let args = parse(&["--trace-out", "/tmp/trace.jsonl"]).expect("valid argv");
        assert_eq!(args.trace_out.as_deref(), Some("/tmp/trace.jsonl"));
        assert!(args.wants_telemetry());

        let args = parse(&[
            "--quick",
            "--metrics-out",
            "m.jsonl",
            "--chrome-out",
            "c.json",
        ])
        .expect("valid argv");
        assert_eq!(args.metrics_out.as_deref(), Some("m.jsonl"));
        assert_eq!(args.chrome_out.as_deref(), Some("c.json"));
        assert!(args.wants_telemetry());

        // Export flags compose with sweep mode.
        assert!(parse(&["--sweep", "--trace-out", "t.jsonl"]).is_ok());
    }

    #[test]
    fn telemetry_flags_require_paths() {
        for flag in ["--trace-out", "--metrics-out", "--chrome-out"] {
            let error = parse(&[flag]).expect_err("missing path");
            assert!(error.contains(flag), "error must name the flag: {error}");
        }
    }
}
