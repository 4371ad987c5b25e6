//! The three workloads, each run as one pass through the program's public
//! entry points, and the checks every pass's output must pass.
//!
//! A pass returns its rendered tables (compared byte for byte across passes),
//! the simulated request counts the failure accounting rests on, and the
//! `sim_*` metrics read from the Apparate row. Everything a pass returns is a
//! function of the seed; only how long it took is not.

use apparate_experiments::{
    cv_scenario, diurnal_scenario, render_admission_summary, render_fleet_summary,
    run_admission_fleet, run_classification_fleet_threaded, run_scenarios, AdmissionFleetRun,
    ComparisonTable, FleetRun, PolicyRow, ReproSizes, ScenarioSelect,
};
use apparate_serving::FleetDispatch;

/// Fleet replicas run on this many worker threads in every fleet pass. Fixed,
/// never the machine's parallelism, so the work per pass is the same on every
/// machine the benchmark runs on.
pub const FLEET_THREADS: usize = 2;

/// Fleet sizes of the scale-out sections (`repro --sweep`).
pub const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Frames in the fleet workload's CV streams (`repro --sweep` caps its fleet
/// streams at the quick size).
pub const FLEET_FRAMES: usize = 3_000;

/// Aggregate load of the scale-out stream: six 30 fps cameras.
pub const FLEET_ARRIVAL_SCALE: f64 = 6.0;

/// Overload factor of the admission section whose row the `sim_*` metrics
/// of `fleet-overload` read.
pub const ADMISSION_SCALE: f64 = 4.0;

/// Replicas behind the admission front end.
pub const ADMISSION_REPLICAS: usize = 2;

/// Apparate's accuracy floor in every table: the 1 % budget of the paper.
const ACCURACY_FLOOR: f64 = 0.99;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six-policy CV table of `repro` at full size.
    CvSteady,
    /// The CV fleet and overload-admission sections of `repro --sweep`.
    FleetOverload,
    /// The six-policy generative (time-per-token) table of `repro`.
    GenDecode,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cv-steady" => Some(Workload::CvSteady),
            "fleet-overload" => Some(Workload::FleetOverload),
            "gen-decode" => Some(Workload::GenDecode),
            _ => None,
        }
    }

    /// Worker threads the workload's passes keep busy.
    pub fn threads(self) -> usize {
        match self {
            Workload::FleetOverload => FLEET_THREADS,
            Workload::CvSteady | Workload::GenDecode => 1,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CvSteady => "cv-steady",
            Workload::FleetOverload => "fleet-overload",
            Workload::GenDecode => "gen-decode",
        }
    }
}

/// The simulated system's delivery, read from the Apparate row (zero when
/// the row is missing, which fails the pass's checks).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimMetrics {
    /// Median response latency (time per token on `gen-decode`), sim ms.
    pub p50_ms: f64,
    /// 99th-percentile response latency (or time per token), sim ms.
    pub p99_ms: f64,
    /// Samples behind the two percentiles.
    pub samples: usize,
    /// Median win over vanilla, %.
    pub p50_win_pct: f64,
    /// Agreement with the original model.
    pub accuracy: f64,
    /// On-time requests (tokens) over offered ones; shed requests miss.
    pub slo_attainment: f64,
    /// Served requests (tokens) per simulated second.
    pub throughput_per_s: f64,
}

/// Everything one pass produced.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// The rendered tables, in the order the entry point's caller prints them.
    pub text: String,
    /// Simulated requests offered to every policy of the pass (tokens on
    /// `gen-decode`): the sample counts of every table row, with the
    /// admission row counted at its offered, not its served, volume.
    pub offered: u64,
    /// Offered requests the admission front end shed.
    pub shed: u64,
    /// The Apparate row's metrics.
    pub sim: SimMetrics,
    /// Failed checks, empty when the output is correct.
    pub problems: Vec<String>,
}

/// Run one pass of `workload` through the public entry points; fleet
/// replicas run on `threads` workers.
pub fn run_pass(workload: Workload, seed: u64, threads: usize) -> PassOutput {
    match workload {
        Workload::CvSteady => scenario_pass(seed, ScenarioSelect::Cv),
        Workload::GenDecode => scenario_pass(seed, ScenarioSelect::Generative),
        Workload::FleetOverload => {
            let scenario = cv_scenario(seed, FLEET_FRAMES).with_arrival_scale(FLEET_ARRIVAL_SCALE);
            let runs: Vec<FleetRun> = FLEET_SIZES
                .iter()
                .map(|&replicas| {
                    run_classification_fleet_threaded(
                        &scenario,
                        replicas,
                        FleetDispatch::LeastLoaded,
                        threads,
                    )
                })
                .collect();
            let diurnal = diurnal_scenario(seed, FLEET_FRAMES).with_arrival_scale(ADMISSION_SCALE);
            let admission = run_admission_fleet(
                &diurnal,
                ADMISSION_REPLICAS,
                FleetDispatch::LeastLoaded,
                threads,
            );
            fleet_output(&runs, &admission)
        }
    }
}

fn scenario_pass(seed: u64, select: ScenarioSelect) -> PassOutput {
    let tables = run_scenarios(seed, ReproSizes::full(), select);
    assert_eq!(tables.len(), 1, "one scenario selected, one table");
    scenario_output(&tables[0])
}

/// Output of a six-policy scenario pass (`cv-steady`, `gen-decode`).
pub fn scenario_output(table: &ComparisonTable) -> PassOutput {
    let mut problems = Vec::new();
    check_accuracy(table, &mut problems);
    let mut sim = SimMetrics::default();
    let p50 = |policy: &str| table.row(policy).map(|r| r.summary.latency_ms.p50);
    match (p50("oracle"), table.row("apparate"), p50("vanilla")) {
        (Some(oracle), Some(apparate), Some(vanilla)) => {
            if let Some(lower) = table
                .rows
                .iter()
                .find(|r| r.summary.latency_ms.p50 < oracle)
            {
                problems.push(format!(
                    "{}: {} p50 {:.3} is below the oracle's {:.3}",
                    table.scenario, lower.summary.policy, lower.summary.latency_ms.p50, oracle
                ));
            }
            let apparate_p50 = apparate.summary.latency_ms.p50;
            if apparate_p50 >= vanilla {
                problems.push(format!(
                    "{}: apparate p50 {apparate_p50:.3} is not below vanilla's {vanilla:.3}",
                    table.scenario
                ));
            }
            sim = row_metrics(apparate, 1.0 - apparate.summary.slo_violation_rate);
        }
        _ => problems.push(format!("{}: a policy row is missing", table.scenario)),
    }
    let offered = table
        .rows
        .iter()
        .map(|r| r.summary.latency_ms.count)
        .sum::<usize>() as u64;
    PassOutput {
        text: table.render(),
        offered,
        shed: 0,
        sim,
        problems,
    }
}

/// Output of a `fleet-overload` pass: the scale-out tables and summary, then
/// the admission table and summary, as `repro --sweep` prints them.
pub fn fleet_output(runs: &[FleetRun], admission: &AdmissionFleetRun) -> PassOutput {
    let mut problems = Vec::new();
    let mut text = String::new();
    let mut offered = 0u64;
    for run in runs {
        check_accuracy(&run.table, &mut problems);
        offered += run
            .table
            .rows
            .iter()
            .map(|r| r.summary.latency_ms.count as u64)
            .sum::<u64>();
        text.push_str(&run.table.render());
    }
    text.push_str(&render_fleet_summary(runs));
    text.push_str(&admission.table.render());
    text.push_str(&render_admission_summary(std::slice::from_ref(admission)));

    check_accuracy(&admission.table, &mut problems);
    if admission.attainment_with < admission.attainment_without {
        problems.push(format!(
            "{}: attainment with admission {:.4} fell below {:.4} without",
            admission.table.scenario, admission.attainment_with, admission.attainment_without
        ));
    }
    let ingest = &admission.ingest;
    let mut sim = None;
    for r in &admission.table.rows {
        if r.summary.policy == "apparate+admission" {
            let served = r.summary.latency_ms.count;
            if served + ingest.shed != ingest.offered {
                problems.push(format!(
                    "{}: {served} served + {} shed != {} offered",
                    admission.table.scenario, ingest.shed, ingest.offered
                ));
            }
            offered += ingest.offered as u64;
            sim = Some(row_metrics(r, admission.attainment_with));
        } else {
            offered += r.summary.latency_ms.count as u64;
        }
    }
    if sim.is_none() {
        problems.push(format!(
            "{}: apparate+admission row missing",
            admission.table.scenario
        ));
    }
    PassOutput {
        text,
        offered,
        shed: ingest.shed as u64,
        sim: sim.unwrap_or_default(),
        problems,
    }
}

fn row_metrics(r: &PolicyRow, slo_attainment: f64) -> SimMetrics {
    SimMetrics {
        p50_ms: r.summary.latency_ms.p50,
        p99_ms: r.summary.latency_ms.p99,
        samples: r.summary.latency_ms.count,
        p50_win_pct: r.wins.p50,
        accuracy: r.summary.accuracy,
        slo_attainment,
        throughput_per_s: r.summary.throughput,
    }
}

/// Every Apparate-family row must hold the 1 % accuracy budget.
fn check_accuracy(table: &ComparisonTable, problems: &mut Vec<String>) {
    let mut seen = false;
    for r in &table.rows {
        if r.summary.policy.starts_with("apparate") {
            seen = true;
            if r.summary.accuracy < ACCURACY_FLOOR {
                problems.push(format!(
                    "{}: {} accuracy {:.4} below {ACCURACY_FLOOR}",
                    table.scenario, r.summary.policy, r.summary.accuracy
                ));
            }
        }
    }
    if !seen {
        problems.push(format!("{}: no apparate row", table.scenario));
    }
}
