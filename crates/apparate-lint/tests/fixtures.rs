//! Positive and negative fixtures for every rule in the registry, run
//! through the same per-file pipeline as the binary (`check_source`).
//!
//! Every fixture lives in a raw string, so the banned patterns are string
//! contents here — invisible to the lint pass that checks this workspace,
//! including this file.

use apparate_lint::{check_source, known_rule_ids, registry};

/// Lint `src` as a regular (non-compat) file of `crate_name`, returning
/// `RULE@line` strings plus the suppressed count.
fn lint_in(crate_name: &str, path: &str, src: &str) -> (Vec<String>, usize) {
    let (diags, suppressed) = check_source(path, crate_name, false, src);
    let rendered = diags
        .iter()
        .map(|d| format!("{}@{}", d.rule, d.line))
        .collect();
    (rendered, suppressed)
}

fn lint(src: &str) -> Vec<String> {
    lint_in("apparate-core", "crates/apparate-core/src/x.rs", src).0
}

#[test]
fn registry_ids_are_unique_and_l001_is_known() {
    let ids: Vec<_> = registry().iter().map(|r| r.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate rule IDs: {ids:?}");
    assert!(known_rule_ids().contains(&"L001"));
}

// ---- D001: wall-clock reads ------------------------------------------------

#[test]
fn d001_flags_instant_now_and_system_time() {
    let diags = lint(r#"fn f() { let t = Instant::now(); }"#);
    assert_eq!(diags, ["D001@1"]);
    let diags = lint(r#"fn f() -> SystemTime { SystemTime::now() }"#);
    assert_eq!(diags, ["D001@1", "D001@1"]);
}

#[test]
fn d001_is_silent_in_bench_and_on_sim_time() {
    let (diags, _) = lint_in(
        "bench",
        "crates/bench/src/x.rs",
        r#"fn f() { let t = Instant::now(); }"#,
    );
    assert!(diags.is_empty(), "{diags:?}");
    assert!(lint(r#"fn f(now: SimTime) { step(now); }"#).is_empty());
}

#[test]
fn d001_allow_with_reason_suppresses() {
    let (diags, suppressed) = lint_in(
        "apparate-core",
        "crates/apparate-core/src/x.rs",
        r#"
// lint:allow(D001, reason = "reported-only metric, never branched on")
let start = Instant::now();
"#,
    );
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 1);
}

// ---- D002: hash collections ------------------------------------------------

#[test]
fn d002_flags_hash_collections_and_suggests_btree() {
    let (diags, _) = check_source(
        "crates/apparate-core/src/x.rs",
        "apparate-core",
        false,
        r#"use std::collections::{HashMap, HashSet};"#,
    );
    assert_eq!(diags.len(), 2);
    assert!(
        diags[0].message.contains("BTreeMap"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[1].message.contains("BTreeSet"),
        "{}",
        diags[1].message
    );
}

#[test]
fn d002_is_silent_on_btree_collections() {
    assert!(lint(r#"use std::collections::{BTreeMap, BTreeSet};"#).is_empty());
}

// ---- D003: ambient nondeterminism ------------------------------------------

#[test]
fn d003_flags_ambient_randomness_and_env() {
    assert_eq!(lint(r#"let mut rng = thread_rng();"#), ["D003@1"]);
    assert_eq!(lint(r#"let rng = SmallRng::from_entropy();"#), ["D003@1"]);
    assert_eq!(lint(r#"let home = std::env::var("HOME");"#), ["D003@1"]);
    assert_eq!(lint(r#"let id = std::thread::current().id();"#), ["D003@1"]);
}

#[test]
fn d003_is_silent_on_seeded_rng_and_plain_vars() {
    assert!(lint(r#"let rng = DeterministicRng::new(seed);"#).is_empty());
    assert!(lint(r#"let var = environment.lookup(key);"#).is_empty());
}

// ---- D004: process-global mutable state -------------------------------------

#[test]
fn d004_flags_static_mut_thread_locals_and_shared_mutable_statics() {
    assert_eq!(lint(r#"static mut COUNT: u64 = 0;"#), ["D004@1"]);
    assert_eq!(
        lint(r#"static WINDOW_IDS: AtomicU64 = AtomicU64::new(1);"#),
        ["D004@1"]
    );
    assert_eq!(
        lint(
            r#"pub(crate) static SEEN: LazyLock<Mutex<Vec<u64>>> = LazyLock::new(Default::default);"#
        ),
        ["D004@1"]
    );
    assert_eq!(
        lint(r#"static SLOTS: [RwLock<u8>; 2] = [RwLock::new(0), RwLock::new(0)];"#),
        ["D004@1"]
    );
    assert_eq!(
        lint(r#"static ROWS: Lazy<Box<[(u8, RefCell<u8>)]>> = Lazy::new(build);"#),
        ["D004@1"]
    );
    // The macro and its cell-typed static are each a finding.
    assert_eq!(
        lint(r#"thread_local! { static LAST: Cell<u64> = Cell::new(0); }"#),
        ["D004@1", "D004@1"]
    );
}

#[test]
fn d004_is_silent_on_immutable_statics_and_local_cells() {
    assert!(lint(
        r#"static RAMP_NOISE_FACTORS: LazyLock<Box<[[f64; 2]]>> = LazyLock::new(|| table());"#
    )
    .is_empty());
    assert!(lint(r#"static NAMES: &[&str] = &["Mutex", "Cell"]; const MAX: u64 = 3;"#).is_empty());
    // A lock named only in the initialiser is not the static's type.
    assert!(lint(r#"static N: usize = size_of::<Mutex<u8>>();"#).is_empty());
    assert!(lint(r#"fn f(name: &'static str) { let seen = Cell::new(0); }"#).is_empty());
    assert!(lint(r#"fn f(x: &Mutex<u8>) -> impl Fn() + 'static { move || {} }"#).is_empty());
}

#[test]
fn d004_is_silent_in_the_benchmark_package() {
    let (diags, _) = lint_in(
        "perfbench",
        "perfbench/src/trace.rs",
        r#"thread_local! { static LOG: RefCell<Log> = RefCell::new(Log::default()); }"#,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn d004_allow_with_reason_suppresses() {
    let (diags, suppressed) = lint_in(
        "apparate-core",
        "crates/apparate-core/src/x.rs",
        r#"
// lint:allow(D004, reason = "a process-wide counter no output reads")
static CALLS: AtomicUsize = AtomicUsize::new(0);
"#,
    );
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 1);
}

// ---- C001: lock guard across spawn ------------------------------------------

#[test]
fn c001_flags_guard_held_across_spawn() {
    let diags = lint(
        r#"
fn f(stats: &Mutex<Stats>) {
    let guard = stats.lock().unwrap();
    std::thread::spawn(move || {});
}
"#,
    );
    assert_eq!(diags, ["C001@4"]);
}

#[test]
fn c001_respects_drop_and_block_scoping() {
    let dropped = r#"
fn f(stats: &Mutex<Stats>) {
    let guard = stats.lock().unwrap();
    drop(guard);
    std::thread::spawn(move || {});
}
"#;
    assert!(lint(dropped).is_empty());
    let scoped = r#"
fn f(stats: &Mutex<Stats>) {
    { let guard = stats.lock().unwrap(); use_it(&guard); }
    thread::scope(|s| {});
}
"#;
    assert!(lint(scoped).is_empty());
}

#[test]
fn c001_ignores_transient_lock_in_expression() {
    // No binding: the temporary guard dies at the end of the statement.
    let src = r#"
fn f(stats: &Mutex<Stats>) {
    let n = stats.lock().unwrap().len();
    std::thread::spawn(move || {});
}
"#;
    assert!(lint(src).is_empty(), "{:?}", lint(src));
}

// ---- C002: telemetry replica handles ----------------------------------------

#[test]
fn c002_flags_set_replica_but_not_for_replica() {
    assert_eq!(lint(r#"fn f(t: &mut T) { t.set_replica(3); }"#), ["C002@1"]);
    assert!(lint(r#"fn f(t: &T) { let h = t.for_replica(3); }"#).is_empty());
}

// ---- C003: forbid(unsafe_code) ----------------------------------------------

#[test]
fn c003_requires_forbid_unsafe_in_crate_roots() {
    let (diags, _) = lint_in(
        "apparate-core",
        "crates/apparate-core/src/lib.rs",
        r#"pub mod x;"#,
    );
    assert_eq!(diags, ["C003@1"]);
    let (diags, _) = lint_in(
        "apparate-core",
        "crates/apparate-core/src/lib.rs",
        r#"#![forbid(unsafe_code)]
pub mod x;"#,
    );
    assert!(diags.is_empty(), "{diags:?}");
    // Non-root files are not required to carry the attribute.
    assert!(lint(r#"pub mod x;"#).is_empty());
}

// ---- W001: GPU config mutations at delivery sites ---------------------------

#[test]
fn w001_flags_gpu_mutation_without_poll() {
    let diags = lint(
        r#"
impl SimulatedGpu {
    fn decide(&mut self, outcome: Outcome) {
        self.thresholds = outcome.thresholds;
    }
}
"#,
    );
    assert_eq!(diags, ["W001@4"]);
    let diags = lint(
        r#"
fn warm(core: &mut Core) {
    core.gpu.plan = plan;
    core.gpu.config_epoch += 1;
}
"#,
    );
    assert_eq!(diags, ["W001@3", "W001@4"]);
}

#[test]
fn w001_is_silent_when_the_fn_polls_a_delivery() {
    let src = r#"
impl SimulatedGpu {
    fn sync(&mut self, now: SimTime) {
        for update in self.rx.poll(now) {
            self.thresholds = update.thresholds;
            self.config_epoch += 1;
        }
    }
}
"#;
    assert!(lint(src).is_empty(), "{:?}", lint(src));
}

#[test]
fn w001_is_silent_outside_gpu_impls_and_gpu_fields() {
    // A controller mutating *its own* thresholds is the decision path, not
    // the GPU half; only Gpu impls and `.gpu.` field writes are fenced.
    let src = r#"
impl Controller {
    fn retune(&mut self) {
        self.thresholds = self.tuner.best();
    }
}
"#;
    assert!(lint(src).is_empty(), "{:?}", lint(src));
}

#[test]
fn w001_is_silent_when_a_gpu_half_is_built_with_its_configuration() {
    // A warm start loaded when the GPU half is built is a struct field, not
    // an assignment; a later write onto the built half is still fenced.
    let diags = lint(
        r#"
fn deploy(plan: Plan, warm: Vec<f64>) -> Policy {
    let mut policy = Policy {
        gpu: GpuHalf {
            plan,
            thresholds: warm.clone(),
            config_epoch: 0,
        },
    };
    policy.gpu.thresholds = warm;
    policy
}
"#,
    );
    assert_eq!(diags, ["W001@10"]);
}

#[test]
fn w001_allow_covers_offline_initialisation() {
    let (diags, suppressed) = lint_in(
        "apparate-experiments",
        "crates/apparate-experiments/src/x.rs",
        r#"
fn warm_start(core: &mut Core) {
    // lint:allow(W001, reason = "offline warm start, before serving begins")
    core.gpu.thresholds = initial;
}
"#,
    );
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(suppressed, 1);
}

// ---- L001: the escape hatch itself ------------------------------------------

#[test]
fn l001_reports_reasonless_allows_and_cannot_be_allowed() {
    let (diags, _) = lint_in(
        "apparate-core",
        "crates/apparate-core/src/x.rs",
        r#"
// lint:allow(D001)
let t = Instant::now();
"#,
    );
    // The malformed escape is reported AND the violation it failed to cover.
    assert_eq!(diags, ["L001@2", "D001@3"]);

    let (diags, suppressed) = lint_in(
        "apparate-core",
        "crates/apparate-core/src/x.rs",
        r#"
// lint:allow(L001, reason = "quiet the linter")
// lint:allow(D001)
let t = Instant::now();
"#,
    );
    assert!(diags.iter().any(|d| d.starts_with("L001@")), "{diags:?}");
    assert_eq!(suppressed, 0, "L001 must not be suppressible");
}

// ---- compat exemption --------------------------------------------------------

#[test]
fn compat_crates_are_exempt() {
    let (diags, _) = check_source(
        "crates/compat/rand/src/lib.rs",
        "compat/rand",
        true,
        r#"pub fn thread_rng() -> ThreadRng { ThreadRng::new(Instant::now()) }
static mut STATE: u64 = 0;"#,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- output ordering ---------------------------------------------------------

#[test]
fn diagnostics_are_sorted_by_position() {
    let (diags, _) = lint_in(
        "apparate-core",
        "crates/apparate-core/src/x.rs",
        r#"
let b = SystemTime::now();
let a = Instant::now();
use std::collections::HashMap;
"#,
    );
    assert_eq!(diags, ["D001@2", "D001@3", "D002@4"]);
}
