//! Generative LLM serving: the paper's token-level policy as a narrated
//! walkthrough, with a live threshold-adaptation trace.
//!
//! Llama2-7B summarises CNN/DailyMail-style articles under continuous
//! batching near GPU saturation (§4.3). Early exits happen *per token*: a
//! ramp that is confident about the next token releases it immediately while
//! the remaining layers keep decoding in parallel (§3.4), so the metric is
//! the time-per-token (TPT) distribution. The walkthrough wires the token
//! controller up explicitly — decode-step profiling records streaming over
//! the charged GPU → controller uplink, threshold updates riding back on the
//! downlink — and prints what the controller actually did over time, then
//! the paper-style TPT comparison. Run with:
//!
//! ```text
//! cargo run --release --example generative_llm
//! ```
//!
//! For the full three-scenario comparison (CV + NLP + generative) use the
//! repro binary: `cargo run --release -p apparate-experiments --bin repro`.

use apparate::baselines::deploy_budget_sites;
use apparate::control::RampArchitecture;
use apparate::exec::SemanticsModel;
use apparate::experiments::{
    generative_calibration, generative_requests, generative_scenario, run_table, scenario_config,
    ApparateTokenPolicy, OverheadTable, WorkloadTokens,
};
use apparate::serving::{GenerativeSimulator, StepOutcome, TokenPolicy, TokenSlot};
use apparate::sim::{DeterministicRng, SimTime};

/// One row of the adaptation trace.
struct TraceRow {
    step: usize,
    at: SimTime,
    thresholds: Vec<f64>,
    deployed_ramps: usize,
    ingested: usize,
    tuning_rounds: usize,
    ramp_changes: usize,
}

/// Wraps the token controller and snapshots its GPU-side configuration after
/// every decode step, recording a row whenever it changes (i.e. whenever a
/// downlink update has landed) — thresholds *and* the active ramp set, now
/// that the token controller runs the full Algorithm 2 loop.
struct TracingPolicy {
    inner: ApparateTokenPolicy,
    step: usize,
    rows: Vec<TraceRow>,
    last: (usize, Vec<f64>),
}

impl TracingPolicy {
    /// Keep a row whenever a landed downlink update changed the GPU-side
    /// ramp set or thresholds, plus a heartbeat row every 512 steps (re-tunes
    /// that land identical thresholds are otherwise invisible).
    fn record(&mut self, at: SimTime) {
        let current = (
            self.inner.deployed_ramps(),
            self.inner.thresholds().to_vec(),
        );
        let heartbeat = self
            .rows
            .last()
            .map(|row| self.step - row.step >= 512)
            .unwrap_or(true);
        if heartbeat || current != self.last {
            let stats = self.inner.stats();
            self.rows.push(TraceRow {
                step: self.step,
                at,
                deployed_ramps: current.0,
                thresholds: current.1.clone(),
                ingested: stats.records_ingested,
                tuning_rounds: stats.tuning_rounds,
                ramp_changes: stats.ramp_changes,
            });
            self.last = current;
        }
    }
}

impl TokenPolicy for TracingPolicy {
    fn process_step(&mut self, slots: &[TokenSlot], step_start: SimTime) -> StepOutcome {
        let out = self.inner.process_step(slots, step_start);
        self.step += 1;
        self.record(step_start);
        out
    }

    fn name(&self) -> &str {
        "apparate"
    }
}

fn main() {
    let seed = 42;
    let requests = 60;
    let scenario = generative_scenario(seed, requests);
    println!("apparate generative LLM — summarisation scenario, seed {seed}, {requests} requests");
    let d = &scenario.model.descriptor;
    println!(
        "model: {} ({:.0}M params) · task: {} · arrivals: Poisson {:.1} rps",
        d.name,
        d.params_millions,
        scenario.workload.task.dataset_name(),
        scenario.arrival_rate,
    );
    println!(
        "serving: continuous batching (max {} sequences per decode step), §3.4 parallel\n\
         decoding — exited tokens release early while the full pass continues\n",
        scenario.batching.max_batch_size,
    );

    // -- Wire the token controller up explicitly ---------------------------
    let config = scenario_config();
    let semantics = SemanticsModel::new(
        DeterministicRng::new(seed).child(0x5E).seed(),
        d.overparameterization,
    );
    // Generative ramps reuse the decoder head, so no bootstrap training set
    // is needed (§3.1); calibration tokens come from the first 10 % of
    // sequences decoded in hindsight.
    let deployment = deploy_budget_sites(
        &scenario.model,
        &semantics,
        &config,
        RampArchitecture::Lightweight,
        0,
    );
    let calibration = generative_calibration(&scenario.workload);
    println!(
        "deployment: {} ramps within the 2% budget, thresholds warm-started on {} calibration tokens",
        deployment.plan.num_ramps(),
        calibration.len(),
    );

    let reqs = generative_requests(&scenario);
    let inner = ApparateTokenPolicy::warm_started(
        deployment,
        config,
        scenario.reference_batch,
        &calibration,
    );
    let mut policy = TracingPolicy {
        inner,
        step: 0,
        rows: Vec::new(),
        last: (0, Vec::new()),
    };
    let sim = GenerativeSimulator::new(scenario.batching);
    let tokens = WorkloadTokens(&scenario.workload);
    let out = sim.run(&reqs, &tokens, &mut policy);

    // -- The adaptation trace ----------------------------------------------
    println!(
        "\nadaptation trace (a row per changed GPU-side configuration — ramp set or\n\
         thresholds — heartbeat every 512 decode steps):"
    );
    println!(
        "{:>6} {:>10} {:>8} {:>6} {:>7} {:>6}  GPU-side thresholds per ramp",
        "step", "t (s)", "records", "tunes", "adjust", "ramps"
    );
    for row in &policy.rows {
        let thresholds = row
            .thresholds
            .iter()
            .map(|t| format!("{t:.2}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:>6} {:>10.2} {:>8} {:>6} {:>7} {:>6}  [{}]",
            row.step,
            row.at.as_secs_f64(),
            row.ingested,
            row.tuning_rounds,
            row.ramp_changes,
            row.deployed_ramps,
            thresholds,
        );
    }
    let stats = policy.inner.stats();
    println!(
        "\nthe controller ingested {} decode-step profiling records off the uplink, ran\n\
         {} threshold-tuning rounds and {} Algorithm 2 adjustment rounds ({} of which\n\
         changed the active ramp set — activating/deactivating decoder-depth ramps by\n\
         hindsight savings vs. overhead, dropping {} stale-epoch records), and shipped\n\
         {} updates down to the GPU — each taking effect only after its downlink\n\
         delivery. {} of {} tokens exit early.",
        stats.records_ingested,
        stats.tuning_rounds,
        stats.adjustment_rounds,
        stats.ramp_changes,
        stats.records_dropped,
        stats.updates_sent,
        out.tokens.iter().filter(|t| t.exit_ramp.is_some()).count(),
        out.tokens.len(),
    );
    assert!(
        stats.ramp_changes >= 1,
        "the generative walkthrough must show at least one runtime ramp-set change"
    );

    // -- The paper-style comparison ----------------------------------------
    let run = run_table(&scenario);
    println!();
    print!("{}", run.table.render());
    let vanilla = run.table.row("vanilla").expect("vanilla row");
    let apparate = run.table.row("apparate").expect("apparate row");
    println!(
        "\nApparate's median TPT of {:.2} ms/token against vanilla's {:.2} ms/token is a\n\
         {:.1}% win (Figure 15) at {:.1}% token-level agreement; p10/p90 TPT: apparate\n\
         {:.2}/{:.2} ms vs vanilla {:.2}/{:.2} ms.",
        apparate.summary.latency_ms.p50,
        vanilla.summary.latency_ms.p50,
        apparate.wins.p50,
        apparate.summary.accuracy * 100.0,
        run.cdfs.apparate.value_at(0.10),
        run.cdfs.apparate.value_at(0.90),
        run.cdfs.vanilla.value_at(0.10),
        run.cdfs.vanilla.value_at(0.90),
    );
    let overhead = OverheadTable::new(vec![run.overhead]);
    println!();
    print!("{}", overhead.render());
    println!(
        "at token granularity the profiling stream is much denser than in classification\n\
         (one record per decode step), but each record is small — the bill stays at\n\
         ~{:.2} ms per message, off the decode path.",
        overhead.mean_latency_ms(),
    );
}
