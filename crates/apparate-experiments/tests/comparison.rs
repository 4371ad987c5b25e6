//! End-to-end acceptance tests for the comparison subsystem: the claims the
//! repro harness makes must hold on fixed seeds.

use apparate_experiments::{
    cv_scenario, generative_scenario, nlp_scenario, run_table, ComparisonTable,
};

/// Quick but non-trivial CV scenario: 2 500 frames → 2 250 served requests
/// after the bootstrap split.
fn cv_table() -> ComparisonTable {
    run_table(&cv_scenario(42, 2_500)).table
}

#[test]
fn apparate_beats_static_threshold_on_cv_median_latency_at_equal_accuracy() {
    let table = cv_table();
    let apparate = table.row("apparate").expect("apparate row");
    let static_ee = table.row("static-ee").expect("static-ee row");
    // Equal accuracy: both policies hold (close to) the original model's
    // accuracy — within a couple of points of the 1 % constraint.
    assert!(
        apparate.summary.accuracy >= 0.97,
        "apparate accuracy {} violates the constraint",
        apparate.summary.accuracy
    );
    assert!(
        static_ee.summary.accuracy >= 0.97,
        "static-ee accuracy {} violates the constraint",
        static_ee.summary.accuracy
    );
    // The adaptive controller must beat the fixed-threshold deployment on
    // median latency.
    assert!(
        apparate.summary.latency_ms.p50 < static_ee.summary.latency_ms.p50,
        "apparate p50 {} should beat static-ee p50 {}",
        apparate.summary.latency_ms.p50,
        static_ee.summary.latency_ms.p50
    );
    // And both must win against vanilla at the median.
    assert!(apparate.wins.p50 > 0.0);
    assert!(static_ee.wins.p50 > 0.0);
}

#[test]
fn oracle_lower_bounds_every_policy_on_cv() {
    let table = cv_table();
    let oracle = table.row("oracle").expect("oracle row");
    assert!(
        (oracle.summary.accuracy - 1.0).abs() < 1e-12,
        "the hindsight oracle never releases a wrong result"
    );
    for row in &table.rows {
        assert!(
            oracle.summary.latency_ms.p50 <= row.summary.latency_ms.p50 + 1e-9,
            "oracle p50 {} must lower-bound {} ({})",
            oracle.summary.latency_ms.p50,
            row.summary.latency_ms.p50,
            row.summary.policy
        );
        assert!(
            oracle.summary.latency_ms.mean <= row.summary.latency_ms.mean + 1e-9,
            "oracle mean must lower-bound {} ({})",
            row.summary.latency_ms.mean,
            row.summary.policy
        );
    }
}

#[test]
fn cv_tables_are_deterministic_per_seed() {
    let a = cv_table().render();
    let b = cv_table().render();
    assert_eq!(a, b, "same seed must render byte-identical tables");
    let other = run_table(&cv_scenario(7, 2_500)).table.render();
    assert_ne!(a, other, "a different seed should change the numbers");
}

#[test]
fn nlp_median_win_lands_in_papers_band() {
    // Regression for the NLP win gap (ROADMAP): with the calibrated semantics
    // (agreement noise vs. temperature) and Amazon difficulty scale, the
    // adaptive controller's median latency win on BERT-base must land in the
    // paper's 40–90 % band (Figure 13) — not collapse onto deep-ramp exits.
    let run = run_table(&nlp_scenario(42, 3_000));
    let apparate = run.table.row("apparate").expect("apparate row");
    assert!(
        apparate.summary.accuracy >= 0.97,
        "NLP accuracy {} violates the constraint",
        apparate.summary.accuracy
    );
    assert!(
        (40.0..=90.0).contains(&apparate.wins.p50),
        "NLP median win {}% outside the paper's 40–90% band",
        apparate.wins.p50
    );
    // The win is earned with the coordination path charged: profiling records
    // flowed over the uplink and updates over the downlink at §4.5 cost.
    assert!(run.overhead.report.uplink.messages > 0);
    assert!(run.overhead.report.downlink.messages > 0);
    let mean_ms = run.overhead.report.mean_latency().as_millis_f64();
    assert!(
        (0.3..=0.7).contains(&mean_ms),
        "mean per-message link latency {mean_ms} ms outside the §4.5 envelope"
    );
}

#[test]
fn controller_in_the_loop_is_deterministic_with_charged_link() {
    // Same seed ⇒ identical win tables *and* identical coordination charges,
    // with the nonzero default LinkCost delaying every feedback/update
    // delivery. Nondeterministic channel draining or time-dependent tuning
    // would show up here.
    let run = || run_table(&cv_scenario(42, 2_500));
    let a = run();
    let b = run();
    assert_eq!(
        a.table.render(),
        b.table.render(),
        "win tables must be byte-identical per seed"
    );
    assert_eq!(
        a.overhead.report.uplink.messages,
        b.overhead.report.uplink.messages
    );
    assert_eq!(
        a.overhead.report.uplink.bytes,
        b.overhead.report.uplink.bytes
    );
    assert_eq!(
        a.overhead.report.downlink.messages,
        b.overhead.report.downlink.messages
    );
    assert_eq!(
        a.overhead.report.downlink.bytes,
        b.overhead.report.downlink.bytes
    );
    assert_eq!(
        a.overhead.report.total_latency(),
        b.overhead.report.total_latency()
    );
    assert!(a.overhead.report.uplink.messages > 0, "link was exercised");
}

#[test]
fn generative_comparison_holds_and_is_deterministic() {
    let build = || run_table(&generative_scenario(42, 40)).table;
    let table = build();
    assert_eq!(table.rows.len(), 6, "six policies are compared");
    let apparate = table.row("apparate").expect("apparate row");
    let static_ee = table.row("static-ee").expect("static-ee row");
    let oracle = table.row("oracle").expect("oracle row");
    assert!(
        apparate.summary.accuracy >= 0.97,
        "token accuracy {} violates the constraint",
        apparate.summary.accuracy
    );
    assert!(
        apparate.summary.latency_ms.p50 < static_ee.summary.latency_ms.p50,
        "adaptive token exits ({}) should beat the static ramp ({}) on median TPT",
        apparate.summary.latency_ms.p50,
        static_ee.summary.latency_ms.p50
    );
    for row in &table.rows {
        assert!(
            oracle.summary.latency_ms.p50 <= row.summary.latency_ms.p50 + 1e-9,
            "token oracle must lower-bound {} on median TPT",
            row.summary.policy
        );
    }
    assert_eq!(table.render(), build().render(), "deterministic per seed");
}
