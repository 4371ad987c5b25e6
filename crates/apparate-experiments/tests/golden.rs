//! Golden-output check: `repro`, `repro --quick` and `repro --sweep --quick`
//! at seed 42, and `repro --quick` and `repro --sweep --quick` at seed 7,
//! must print exactly the committed tables under `tests/golden/`, as must
//! `repro --full-retune` at seed 42 and `repro --quick --full-retune` at
//! seed 7, and the
//! telemetry exports of `repro --quick --seed 42` and `repro --sweep --quick
//! --seed 42` must keep their committed lengths and digests.
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

/// The tuning oracle: `--full-retune` tunes with the greedy search over the
/// window's materialised records instead of the incremental tuner, which
/// yields the same thresholds, so the tables must not move. At full size and
/// at a second seed, over the rows the controller builds when a tune reads
/// the window.
#[test]
fn repro_full_retune_matches_golden_tables() {
    let out = repro(&["--full-retune", "--seed", "42"]);
    assert_matches_golden("repro_full_seed42.txt", &out);
    let out = repro(&["--quick", "--seed", "7", "--full-retune"]);
    assert_matches_golden("repro_quick_seed7.txt", &out);
}

/// The telemetry exports of `repro --quick --seed 42`: flag, byte length and
/// 64-bit FNV-1a digest. The exports run to megabytes, so the test pins their
/// digests instead of committing the files.
const GOLDEN_EXPORTS: [(&str, usize, u64); 3] = [
    ("--trace-out", 1_662_523, 0xb9dd_8d24_00df_1dfe),
    ("--metrics-out", 2_156_001, 0x6add_1de3_9746_ecf8),
    ("--chrome-out", 1_587_759, 0x9bb4_839c_a106_7adb),
];

/// 64-bit FNV-1a digest of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The same for `repro --sweep --quick --seed 42`: the traced ×8 CV fleet,
/// with every replica's `dispatch`, controller and link events.
const GOLDEN_SWEEP_EXPORTS: [(&str, usize, u64); 3] = [
    ("--trace-out", 732_759, 0xeebc_dcc2_362b_b2c8),
    ("--metrics-out", 938_126, 0x90ee_264f_1690_70c9),
    ("--chrome-out", 674_406, 0x5025_ca25_c8b8_97f7),
];

/// Run `repro` with `repro_args` plus an export flag per `golden` entry, and
/// describe every export whose length or digest differs from its entry.
fn export_mismatches(repro_args: &[&str], golden: &[(&str, usize, u64)]) -> Vec<String> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "golden-exports-{}-{}",
        std::process::id(),
        repro_args.join("")
    ));
    std::fs::create_dir_all(&dir).expect("export directory must be creatable");
    let paths: Vec<String> = golden
        .iter()
        .map(|(flag, ..)| dir.join(&flag[2..]).display().to_string())
        .collect();
    let mut args = repro_args.to_vec();
    for ((flag, ..), path) in golden.iter().zip(&paths) {
        args.extend([*flag, path.as_str()]);
    }
    repro(&args);
    let mut mismatches = Vec::new();
    for ((flag, len, digest), path) in golden.iter().zip(&paths) {
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {flag} export {path}: {e}"));
        let actual = fnv1a64(&bytes);
        if (bytes.len(), actual) != (*len, *digest) {
            mismatches.push(format!(
                "  `repro {}` {flag} export: {} bytes, digest {actual:#018x} \
                 (golden: {len} bytes, {digest:#018x})",
                repro_args.join(" "),
                bytes.len()
            ));
        }
    }
    // Best effort: a leftover directory under the target dir is harmless.
    let _ = std::fs::remove_dir_all(&dir);
    mismatches
}

#[test]
fn repro_quick_telemetry_exports_match_golden_digests() {
    let mut mismatches = export_mismatches(&["--quick", "--seed", "42"], &GOLDEN_EXPORTS);
    mismatches.extend(export_mismatches(
        &["--sweep", "--quick", "--seed", "42"],
        &GOLDEN_SWEEP_EXPORTS,
    ));
    assert!(
        mismatches.is_empty(),
        "telemetry exports differ from the golden digests:\n{}\n\
         When a change means to move them, copy the actual lengths and digests into \
         GOLDEN_EXPORTS or GOLDEN_SWEEP_EXPORTS; this command prints them again:\n  \
         cargo test -p apparate-experiments --test golden telemetry_exports",
        mismatches.join("\n")
    );
}
