//! Quickstart: the smallest end-to-end Apparate comparison.
//!
//! Builds the CV scenario (ResNet-50 over a synthetic night-time video
//! stream), runs Apparate against the full baseline family on a fixed seed,
//! and prints the paper-style win table. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! For the full three-scenario comparison (CV + NLP + generative) use the
//! repro binary: `cargo run --release -p apparate-experiments --bin repro`.

use apparate::experiments::{cv_scenario, run_table};

fn main() {
    let seed = 42;
    let frames = 2_500;
    println!("apparate quickstart — CV scenario, seed {seed}, {frames} frames\n");

    let table = run_table(&cv_scenario(seed, frames)).table;
    print!("{}", table.render());

    let vanilla = table.row("vanilla").expect("vanilla row");
    let apparate = table.row("apparate").expect("apparate row");
    println!(
        "\napparate served the median request in {:.2} ms vs {:.2} ms vanilla \
         (a {:.1}% win) at {:.1}% accuracy.",
        apparate.summary.latency_ms.p50,
        vanilla.summary.latency_ms.p50,
        apparate.wins.p50,
        apparate.summary.accuracy * 100.0,
    );
}
