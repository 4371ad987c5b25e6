//! Golden-output check: `repro`, `repro --quick` and `repro --sweep --quick`
//! at seed 42, and `repro --quick` and `repro --sweep --quick` at seed 7,
//! must print exactly the committed tables under `tests/golden/`.
//!
//! CI's determinism steps only diff `repro` against itself, so a change that
//! flips one float in the simulation would pass them. This test pins the
//! tables themselves: a speed-up that is not bit-identical fails here on the
//! first diverging line. When a change *means* to move the tables, regenerate
//! the files with
//! `cargo run --release -p apparate-experiments --bin repro -- --quick --seed 42 > crates/apparate-experiments/tests/golden/repro_quick_seed42.txt`
//! (the same with `--sweep` for `repro_sweep_quick_seed42.txt`, without
//! `--quick` for `repro_full_seed42.txt`, and with `--seed 7` for the
//! `_seed7` files), and say why in the change log.

use std::path::Path;
use std::process::Command;

/// Run the repro binary with `args` and return its stdout.
fn repro(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary must run");
    assert!(
        output.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("repro prints UTF-8")
}

/// Compare `actual` with the golden file `name`, naming the first diverging
/// line on failure.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if actual == expected {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a);
    match mismatch {
        Some((line, (e, a))) => panic!(
            "{name}: line {} differs\n  golden: {e}\n  actual: {a}",
            line + 1
        ),
        None => panic!(
            "{name}: outputs differ in length ({} golden lines, {} actual)",
            expected.lines().count(),
            actual.lines().count()
        ),
    }
}

#[test]
fn repro_quick_matches_golden_tables() {
    let out = repro(&["--quick", "--seed", "42"]);
    assert_matches_golden("repro_quick_seed42.txt", &out);
}

#[test]
fn repro_sweep_quick_matches_golden_tables() {
    let out = repro(&["--sweep", "--quick", "--seed", "42"]);
    assert_matches_golden("repro_sweep_quick_seed42.txt", &out);
}

/// A second seed, so the draw-skipping fast paths are pinned on inputs the
/// seed-42 tables do not reach.
#[test]
fn repro_quick_matches_golden_tables_at_seed_7() {
    let out = repro(&["--quick", "--seed", "7"]);
    assert_matches_golden("repro_quick_seed7.txt", &out);
}

#[test]
fn repro_sweep_quick_matches_golden_tables_at_seed_7() {
    let out = repro(&["--sweep", "--quick", "--seed", "7"]);
    assert_matches_golden("repro_sweep_quick_seed7.txt", &out);
}

/// The full-size tables: the CV and generative scenarios here are the ones
/// the benchmark's `cv-steady` and `gen-decode` workloads time, at sizes the
/// quick tables do not reach.
#[test]
fn repro_full_matches_golden_tables() {
    let out = repro(&["--seed", "42"]);
    assert_matches_golden("repro_full_seed42.txt", &out);
}
