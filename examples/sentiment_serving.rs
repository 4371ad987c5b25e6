//! Sentiment serving: the paper's NLP scenario as a narrated walkthrough.
//!
//! BERT-base classifies a stream of Amazon-style product reviews arriving in
//! MAF-like bursts. The stream has *block structure* — per-category and
//! per-user difficulty regimes — but weak request-to-request continuity,
//! which is what makes NLP adaptation harder than video (§4.2). Apparate runs
//! against the full baseline family under identical arrivals, with the GPU →
//! controller profiling stream and the controller → GPU threshold updates
//! both charged against the PCIe link model of §4.5. Run with:
//!
//! ```text
//! cargo run --release --example sentiment_serving
//! ```
//!
//! For the full three-scenario comparison (CV + NLP + generative) use the
//! repro binary: `cargo run --release -p apparate-experiments --bin repro`.

use apparate::experiments::{nlp_scenario, run_table, OverheadTable};

fn main() {
    let seed = 42;
    let requests = 3_000;
    println!("apparate sentiment serving — NLP scenario, seed {seed}, {requests} reviews");
    println!("model: BERT-base · workload: amazon-reviews · arrivals: MAF-like bursts\n");

    let run = run_table(&nlp_scenario(seed, requests));
    print!("{}", run.table.render());

    let vanilla = run.table.row("vanilla").expect("vanilla row");
    let static_ee = run.table.row("static-ee").expect("static-ee row");
    let apparate = run.table.row("apparate").expect("apparate row");
    let oracle = run.table.row("oracle").expect("oracle row");

    println!(
        "\nApparate released the median review in {:.2} ms against {:.2} ms for vanilla\n\
         serving — a {:.1}% median win inside the paper's 40–90% NLP band (Figure 13) —\n\
         while holding {:.1}% agreement with the full model (constraint: ≥99%).",
        apparate.summary.latency_ms.p50,
        vanilla.summary.latency_ms.p50,
        apparate.wins.p50,
        apparate.summary.accuracy * 100.0,
    );
    println!(
        "The fixed-threshold deployment (static-ee) manages {:.1}%: without threshold\n\
         re-tuning it cannot follow the per-category difficulty regimes, and the\n\
         hindsight oracle bounds what any policy could reach at {:.1}%.",
        static_ee.wins.p50, oracle.wins.p50,
    );

    // The §4.5 coordination bill: every adaptation decision above was made on
    // profiling records that crossed the GPU → controller link (up), and every
    // threshold change crossed back (down), each charged ~0.4 ms PCIe latency
    // plus per-KiB transfer time.
    let overhead = OverheadTable::new(vec![run.overhead]);
    println!();
    print!("{}", overhead.render());
    let row = &overhead.rows[0];
    println!(
        "\nThe controller paid {:.3} ms per message ({} uplink profiles, {} downlink\n\
         updates) — {:.1} ms of simulated coordination latency in total, none of it\n\
         on the serving path: the GPU streams profiles without blocking, and stale\n\
         thresholds simply stay in force until the next update lands.",
        overhead.mean_latency_ms(),
        row.report.uplink.messages,
        row.report.downlink.messages,
        row.report.total_latency().as_millis_f64(),
    );
}
