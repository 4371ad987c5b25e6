//! Acceptance tests for multi-replica scale-out: fleet runs must be
//! deterministic, dispatch must respect its invariants, and scale-out must
//! actually relieve an overloaded shared stream — for both the
//! classification fleet and the generative (decode-loop) fleet.

use apparate_experiments::{
    cv_scenario, generative_scenario, nlp_scenario, run_fleet, run_table, ComparisonTable,
    FleetRun, Scenario,
};
use apparate_serving::{available_threads, FleetDispatch};
use apparate_telemetry::Telemetry;

fn fleet(replicas: usize) -> FleetRun {
    run_fleet(
        &cv_scenario(42, 2_000),
        replicas,
        FleetDispatch::LeastLoaded,
        &Telemetry::disabled(),
        available_threads(),
    )
}

#[test]
fn same_seed_produces_identical_fleet_tables() {
    let a = fleet(4);
    let b = fleet(4);
    assert_eq!(
        a.table.render(),
        b.table.render(),
        "fleet tables must be byte-identical per seed"
    );
    assert_eq!(a.shard_sizes, b.shard_sizes);
    // The N controllers' summed coordination charges are part of the
    // deterministic result too.
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
        a.overhead.report.total_latency(),
        b.overhead.report.total_latency()
    );
    let other = fleet_seeded(7, 4);
    assert_ne!(
        a.table.render(),
        other.table.render(),
        "a different seed should change the numbers"
    );
}

fn fleet_seeded(seed: u64, replicas: usize) -> FleetRun {
    run_fleet(
        &cv_scenario(seed, 2_000),
        replicas,
        FleetDispatch::LeastLoaded,
        &Telemetry::disabled(),
        available_threads(),
    )
}

#[test]
fn dispatch_invariants_hold_at_every_fleet_size() {
    // 2 000 frames → 1 800 served requests after the bootstrap split.
    for replicas in [1usize, 2, 4, 8] {
        for dispatch in [FleetDispatch::RoundRobin, FleetDispatch::LeastLoaded] {
            let run = run_fleet(
                &cv_scenario(42, 2_000),
                replicas,
                dispatch,
                &Telemetry::disabled(),
                available_threads(),
            );
            assert_eq!(run.shard_sizes.len(), replicas);
            assert_eq!(
                run.shard_sizes.iter().sum::<usize>(),
                1_800,
                "{dispatch} x{replicas}: shards must partition the shared trace"
            );
            let fair = 1_800 / replicas;
            let min = run.shard_sizes.iter().copied().min().unwrap();
            assert!(
                min >= fair / 4,
                "{dispatch} x{replicas}: a replica was starved ({min} of fair {fair})"
            );
        }
    }
}

#[test]
fn provisioned_fleet_keeps_the_single_replica_win_and_accuracy() {
    let run = fleet(4);
    let apparate = run.apparate();
    assert!(
        apparate.summary.accuracy >= 0.97,
        "fleet accuracy {} violates the constraint",
        apparate.summary.accuracy
    );
    assert!(
        apparate.wins.p50 > 0.0,
        "a provisioned apparate fleet must still win the median vs the vanilla fleet"
    );
    // Four controllers, each over its own charged link: the fleet pays for
    // every replica's profiling stream.
    assert!(run.overhead.report.uplink.messages >= 4);
}

fn generative_fleet(seed: u64, replicas: usize) -> FleetRun {
    // Eight tenants' aggregate summarisation stream (the `repro --sweep`
    // regime): a single replica's continuous batch pins at its cap.
    run_fleet(
        &generative_scenario(seed, 60).with_arrival_scale(8.0),
        replicas,
        FleetDispatch::LeastLoaded,
        &Telemetry::disabled(),
        available_threads(),
    )
}

#[test]
fn same_seed_produces_identical_generative_fleet_tables() {
    let a = generative_fleet(42, 4);
    let b = generative_fleet(42, 4);
    assert_eq!(
        a.table.render(),
        b.table.render(),
        "generative fleet tables must be byte-identical per seed"
    );
    assert_eq!(a.shard_sizes, b.shard_sizes);
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
        a.overhead.report.total_latency(),
        b.overhead.report.total_latency()
    );
    let other = generative_fleet(7, 4);
    assert_ne!(
        a.table.render(),
        other.table.render(),
        "a different seed should change the numbers"
    );
}

#[test]
fn generative_dispatch_invariants_hold_at_every_fleet_size() {
    for replicas in [1usize, 2, 4, 8] {
        for dispatch in [FleetDispatch::RoundRobin, FleetDispatch::LeastLoaded] {
            let run = run_fleet(
                &generative_scenario(42, 60).with_arrival_scale(8.0),
                replicas,
                dispatch,
                &Telemetry::disabled(),
                available_threads(),
            );
            assert_eq!(run.shard_sizes.len(), replicas);
            assert_eq!(
                run.shard_sizes.iter().sum::<usize>(),
                60,
                "{dispatch} x{replicas}: shards must partition the shared request stream"
            );
            let fair = 60 / replicas;
            let min = run.shard_sizes.iter().copied().min().unwrap();
            assert!(
                min >= fair / 4,
                "{dispatch} x{replicas}: a replica was starved ({min} of fair {fair})"
            );
        }
    }
}

#[test]
fn generative_scale_out_restores_the_tpt_win() {
    // One replica saturates on the aggregate stream: its continuous batch
    // pins at the cap, so the median TPT collapses toward the full-batch
    // step time. Four replicas decode comfortably thin batches, restoring
    // the single-replica-regime win, and the fleet's token bandwidth must
    // scale well past one replica's saturation point.
    let single = generative_fleet(42, 1);
    let quad = generative_fleet(42, 4);
    let single_row = single.apparate();
    let quad_row = quad.apparate();
    assert!(
        quad_row.summary.latency_ms.p50 < single_row.summary.latency_ms.p50 / 5.0,
        "4-replica median TPT {} ms should be far below saturated single-replica {} ms",
        quad_row.summary.latency_ms.p50,
        single_row.summary.latency_ms.p50
    );
    assert!(
        quad_row.summary.throughput > 1.5 * single_row.summary.throughput,
        "fleet token bandwidth {} tok/s should far exceed saturated single-replica {}",
        quad_row.summary.throughput,
        single_row.summary.throughput
    );
    assert!(
        quad_row.summary.accuracy >= 0.97,
        "fleet token agreement {} violates the constraint",
        quad_row.summary.accuracy
    );
    assert!(
        quad_row.wins.p50 > single_row.wins.p50,
        "the provisioned fleet's win ({}%) must beat the saturated replica's ({}%)",
        quad_row.wins.p50,
        single_row.wins.p50
    );
    // Four token controllers, each over its own charged link: the fleet pays
    // for every replica's decode-step profiling stream.
    assert!(quad.overhead.report.uplink.messages >= 4);
}

#[test]
fn scale_out_relieves_an_overloaded_shared_stream() {
    // Six cameras' aggregate stream: one replica queues without bound, four
    // replicas are comfortably provisioned, so the Apparate fleet's pooled
    // median latency must collapse by orders of magnitude.
    let scenario = || cv_scenario(42, 2_000).with_arrival_scale(6.0);
    let single = run_fleet(
        &scenario(),
        1,
        FleetDispatch::LeastLoaded,
        &Telemetry::disabled(),
        available_threads(),
    );
    let quad = run_fleet(
        &scenario(),
        4,
        FleetDispatch::LeastLoaded,
        &Telemetry::disabled(),
        available_threads(),
    );
    let single_p50 = single.apparate().summary.latency_ms.p50;
    let quad_p50 = quad.apparate().summary.latency_ms.p50;
    assert!(
        quad_p50 < single_p50 / 10.0,
        "4-replica p50 {quad_p50} ms should be far below overloaded single-replica {single_p50} ms"
    );
    // And the provisioned fleet's throughput must scale past the single
    // replica's saturation point.
    assert!(
        quad.apparate().summary.throughput > 2.0 * single.apparate().summary.throughput,
        "fleet throughput {} should far exceed saturated single-replica {}",
        quad.apparate().summary.throughput,
        single.apparate().summary.throughput
    );
}

/// Serve `scenario` with a one-replica fleet and with the comparison table,
/// and require the rows both run to match exactly. The fleet replica and the
/// table run are separate serve paths (a replica serves a shard through its
/// fleet's loop); with one replica the shard is the whole stream, so every
/// summary, win and link charge must come out the same.
fn assert_one_replica_fleet_matches_the_table<S: Scenario>(scenario: &S) {
    let table = run_table(scenario);
    let fleet = run_fleet(
        scenario,
        1,
        FleetDispatch::LeastLoaded,
        &Telemetry::disabled(),
        1,
    );
    let name = scenario.name();
    for policy in ["vanilla", "static-ee", "apparate"] {
        let row = |table: &ComparisonTable| {
            let row = table.row(policy).expect("every table has the three rows");
            format!("{:?} {:?}", row.summary, row.wins)
        };
        assert_eq!(
            row(&fleet.table),
            row(&table.table),
            "{name}: the one-replica fleet's {policy} row differs from the table's"
        );
    }
    assert_eq!(
        format!("{:?}", fleet.overhead.report),
        format!("{:?}", table.overhead.report),
        "{name}: the one-replica fleet's link charges differ from the table's"
    );
}

#[test]
fn one_replica_fleet_reproduces_the_comparison_table() {
    assert_one_replica_fleet_matches_the_table(&cv_scenario(42, 1_500));
    assert_one_replica_fleet_matches_the_table(&nlp_scenario(42, 1_500));
    assert_one_replica_fleet_matches_the_table(&generative_scenario(42, 48));
}
