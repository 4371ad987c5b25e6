//! The rule registry: repo-specific determinism, concurrency and
//! wire-protocol invariants as token-level checks.
//!
//! Every rule is a heuristic over the flat token stream — deliberately so.
//! The invariants these rules pin ("byte-identical tables for any thread
//! count", "sim-time drives every decision", "GPU config changes only at
//! delivery sites") are properties a reviewer can check locally in the
//! source, which is exactly what a token window can see too. False positives
//! are expected to be rare and are handled with `lint:allow(RULE, reason)`
//! escapes that force the justification into the source.
//!
//! | ID   | guards                                                          |
//! |------|-----------------------------------------------------------------|
//! | D001 | no wall-clock (`Instant::now`/`SystemTime`) outside `bench`      |
//! | D002 | no `HashMap`/`HashSet` in table/export-producing crates          |
//! | D003 | no ambient randomness or env-dependent values                    |
//! | D004 | no process-global mutable state outside perfbench                |
//! | C001 | no lock guard held across a `spawn`/`scope` call                 |
//! | C002 | telemetry replicas via `for_replica`, never `set_replica`        |
//! | C003 | `#![forbid(unsafe_code)]` in every non-compat crate root         |
//! | W001 | GPU-half config mutations only at `poll()`-delivery sites        |
//! | L001 | `lint:allow` escapes must be well-formed and carry a reason      |

use crate::diag::Diagnostic;
use crate::lexer::Token;

/// Everything a rule can see about one file.
pub struct FileCtx<'a> {
    /// Repo-relative path, forward slashes.
    pub path: &'a str,
    /// Owning crate (`apparate-core`, `bench`, `compat/serde`, or
    /// `apparate` for the root facade and its examples).
    pub crate_name: &'a str,
    /// True for the offline registry stand-ins under `crates/compat/`, which
    /// mirror upstream crate internals and are exempt from most rules.
    pub is_compat: bool,
    /// The file's code tokens (comments stripped).
    pub tokens: &'a [Token],
}

impl FileCtx<'_> {
    fn diag(&self, rule: &'static str, at: &Token, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: self.path.to_string(),
            line: at.line,
            col: at.col,
            message,
        }
    }

    fn id(&self, i: usize, name: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_ident(name))
    }

    fn punct(&self, i: usize, p: &str) -> bool {
        self.tokens.get(i).is_some_and(|t| t.is_punct(p))
    }

    fn assign_op(&self, i: usize) -> bool {
        self.punct(i, "=") || self.punct(i, "+=")
    }
}

/// One registered rule.
pub struct Rule {
    /// Stable ID (`D001`, …).
    pub id: &'static str,
    /// One-line description for `--list-rules` and the README.
    pub summary: &'static str,
    /// Whether the rule runs on this file at all (crate scoping).
    pub applies: fn(&FileCtx<'_>) -> bool,
    /// The check itself.
    pub check: fn(&FileCtx<'_>, &mut Vec<Diagnostic>),
}

/// The full registry, in report order. `L001` (malformed `lint:allow`) is
/// emitted by the driver, not listed here, but is a valid ID.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "D001",
            summary: "no wall-clock reads (Instant::now/SystemTime) outside crates/bench; \
                      sim-time must drive every decision",
            applies: |ctx| !ctx.is_compat && ctx.crate_name != "bench",
            check: check_d001,
        },
        Rule {
            id: "D002",
            summary: "no HashMap/HashSet in table/export-producing crates; iteration order \
                      leaks into output — use BTreeMap/BTreeSet or a sorted collect",
            applies: |ctx| !ctx.is_compat,
            check: check_d002,
        },
        Rule {
            id: "D003",
            summary: "no ambient randomness or env-dependent values (thread_rng, from_entropy, \
                      env::var, thread::current().id())",
            applies: |ctx| !ctx.is_compat,
            check: check_d003,
        },
        Rule {
            id: "D004",
            summary: "no process-global mutable state: static mut, thread_local!, or a static \
                      whose type names an Atomic*, Mutex, RwLock, Cell or RefCell",
            applies: |ctx| !ctx.is_compat && ctx.crate_name != "perfbench",
            check: check_d004,
        },
        Rule {
            id: "C001",
            summary: "no lock guard held across a spawn/scope call in the same block",
            applies: |ctx| !ctx.is_compat,
            check: check_c001,
        },
        Rule {
            id: "C002",
            summary: "telemetry replica handles are derived with for_replica; shared-mutable \
                      set_replica-style access is banned",
            applies: |ctx| !ctx.is_compat,
            check: check_c002,
        },
        Rule {
            id: "C003",
            summary: "#![forbid(unsafe_code)] must be present in every non-compat crate root",
            applies: |ctx| !ctx.is_compat && ctx.path.ends_with("src/lib.rs"),
            check: check_c003,
        },
        Rule {
            id: "W001",
            summary: "GPU-half ThresholdUpdate/ramp-set state may only change in functions \
                      that poll() a delivery — config epochs advance at delivery, not decision",
            applies: |ctx| !ctx.is_compat,
            check: check_w001,
        },
    ]
}

/// Every valid rule ID, for `lint:allow` validation.
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = registry().iter().map(|r| r.id).collect();
    ids.push("L001");
    ids
}

/// D001: `Instant::now(…)` or any `SystemTime` mention. The §4.5 repro runs
/// entirely on sim-time; a wall-clock read in a decision path breaks
/// thread-count invariance and run-to-run determinism.
fn check_d001(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.tokens.len() {
        if ctx.id(i, "Instant") && ctx.punct(i + 1, "::") && ctx.id(i + 2, "now") {
            out.push(
                ctx.diag(
                    "D001",
                    &ctx.tokens[i],
                    "wall-clock read (`Instant::now`): decisions must be driven by sim-time; \
                 if this is a reported-only metric, annotate with \
                 `lint:allow(D001, reason = \"…\")`"
                        .to_string(),
                ),
            );
        }
        if ctx.id(i, "SystemTime") {
            out.push(ctx.diag(
                "D001",
                &ctx.tokens[i],
                "wall-clock type (`SystemTime`) outside crates/bench".to_string(),
            ));
        }
    }
}

/// D002: `HashMap`/`HashSet`. Iteration order is randomized per process, so
/// anything that flows into tables, traces or exports breaks byte-identical
/// output. `BTreeMap`/`BTreeSet` (or collect-then-sort) is the workspace
/// idiom.
fn check_d002(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, token) in ctx.tokens.iter().enumerate() {
        for name in ["HashMap", "HashSet"] {
            if ctx.id(i, name) {
                out.push(ctx.diag(
                    "D002",
                    token,
                    format!(
                        "`{name}` iteration order is nondeterministic and this crate feeds \
                         tables/exports; use `BTree{}` or a sorted collect, or prove the \
                         order non-observable with `lint:allow(D002, reason = \"…\")`",
                        &name[4..]
                    ),
                ));
            }
        }
    }
}

/// D003: ambient nondeterminism — OS-seeded RNGs, thread identity, and
/// environment reads. Seeds come from config, never from the environment.
fn check_d003(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.tokens.len() {
        for name in ["thread_rng", "from_entropy"] {
            if ctx.id(i, name) {
                out.push(ctx.diag(
                    "D003",
                    &ctx.tokens[i],
                    format!("OS-seeded randomness (`{name}`): seeds must come from config"),
                ));
            }
        }
        if ctx.id(i, "env")
            && ctx.punct(i + 1, "::")
            && (ctx.id(i + 2, "var") || ctx.id(i + 2, "var_os"))
        {
            out.push(
                ctx.diag(
                    "D003",
                    &ctx.tokens[i],
                    "environment read (`env::var`): runs must not depend on ambient state; \
                 plumb configuration through explicit flags, or annotate with \
                 `lint:allow(D003, reason = \"…\")`"
                        .to_string(),
                ),
            );
        }
        if ctx.id(i, "thread")
            && ctx.punct(i + 1, "::")
            && ctx.id(i + 2, "current")
            && ctx.punct(i + 3, "(")
            && ctx.punct(i + 4, ")")
            && ctx.punct(i + 5, ".")
            && ctx.id(i + 6, "id")
        {
            out.push(ctx.diag(
                "D003",
                &ctx.tokens[i],
                "thread identity (`thread::current().id()`) is scheduling-dependent".to_string(),
            ));
        }
    }
}

/// D004: process-global mutable state — `static mut`, `thread_local!`, and
/// any `static` whose type names an atomic, a lock or a cell. Such state is
/// shared by every run in the process, so what one run reads can depend on
/// what runs before or beside it did; state lives in the value that owns
/// it. An immutable `static` (a `LazyLock` table) is fine. The benchmark
/// package is exempt: its per-thread span log observes the program from
/// outside, through public entry points it cannot thread a handle through.
fn check_d004(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    let shared_mutable = |token: &&Token| {
        token.kind == crate::lexer::TokenKind::Ident
            && (token.text.starts_with("Atomic")
                || ["Mutex", "RwLock", "Cell", "RefCell"].contains(&token.text.as_str()))
    };
    for i in 0..t.len() {
        let found = if ctx.id(i, "thread_local") && ctx.punct(i + 1, "!") {
            Some("`thread_local!`".to_string())
        } else if ctx.id(i, "static") && ctx.id(i + 1, "mut") {
            Some("`static mut`".to_string())
        } else if ctx.id(i, "static") && ctx.punct(i + 2, ":") {
            // The item's type: every token up to its `=`.
            let mut ty = t[i + 3..].iter().take_while(|token| !token.is_punct("="));
            ty.find(shared_mutable)
                .map(|cell| format!("`static {}` of a `{}` type", t[i + 1].text, cell.text))
        } else {
            None
        };
        if let Some(found) = found {
            out.push(ctx.diag(
                "D004",
                &t[i],
                format!(
                    "process-global mutable state ({found}): every run in the process shares \
                     it; keep the state in the value that owns it"
                ),
            ));
        }
    }
}

/// A lock guard that is still live in some enclosing block.
struct LiveGuard {
    name: String,
    line: u32,
}

/// A `let` statement being scanned: where it started (delimiter depth) and
/// the token index of the first `.lock(` in its initializer, if any.
struct LetFrame {
    name: Option<String>,
    depth: i32,
    lock_at: Option<usize>,
}

/// C001: a `let guard = …lock()…;` binding that is still live (not dropped,
/// block not closed) when a `.spawn(`/`::scope(` call appears. Holding a
/// registry or stats lock while spawning workers is how the parallel fleet
/// path deadlocks or serializes; guards must be scoped out first.
fn check_c001(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    let mut depth: i32 = 0; // combined ( ) { } [ ] nesting
    let mut scopes: Vec<Vec<LiveGuard>> = vec![Vec::new()];
    let mut lets: Vec<LetFrame> = Vec::new();
    for i in 0..t.len() {
        let token = &t[i];
        if token.is_punct("{") {
            depth += 1;
            scopes.push(Vec::new());
        } else if token.is_punct("(") || token.is_punct("[") {
            depth += 1;
        } else if token.is_punct("}") {
            depth -= 1;
            scopes.pop();
            if scopes.is_empty() {
                scopes.push(Vec::new()); // unbalanced input; stay sane
            }
            while lets.last().is_some_and(|f| f.depth > depth) {
                lets.pop();
            }
        } else if token.is_punct(")") || token.is_punct("]") {
            depth -= 1;
            while lets.last().is_some_and(|f| f.depth > depth) {
                lets.pop();
            }
        } else if token.is_ident("let") {
            // The bound name: first identifier after `let`, skipping `mut`.
            let mut j = i + 1;
            while ctx.id(j, "mut") || ctx.id(j, "ref") {
                j += 1;
            }
            let name = t
                .get(j)
                .and_then(|n| (n.kind == crate::lexer::TokenKind::Ident).then(|| n.text.clone()));
            lets.push(LetFrame {
                name,
                depth,
                lock_at: None,
            });
        } else if token.is_punct(";") {
            if lets.last().is_some_and(|f| f.depth == depth) {
                let frame = lets.pop().expect("frame checked above");
                if frame.lock_at.is_some_and(|at| binds_guard(ctx, at, i)) {
                    if let (Some(name), Some(scope)) = (frame.name, scopes.last_mut()) {
                        scope.push(LiveGuard {
                            name,
                            line: token.line,
                        });
                    }
                }
            }
        } else if token.is_punct(".") && ctx.id(i + 1, "lock") && ctx.punct(i + 2, "(") {
            if let Some(frame) = lets.last_mut() {
                frame.lock_at.get_or_insert(i);
            }
        } else if ctx.id(i, "drop") && ctx.punct(i + 1, "(") {
            if let Some(dropped) = t.get(i + 2) {
                for scope in &mut scopes {
                    scope.retain(|g| g.name != dropped.text);
                }
            }
        }
        let spawn_like = (ctx.id(i, "spawn") || ctx.id(i, "scope"))
            && ctx.punct(i + 1, "(")
            && i > 0
            && (ctx.punct(i - 1, ".") || ctx.punct(i - 1, "::"));
        if spawn_like {
            for guard in scopes.iter().flatten() {
                out.push(ctx.diag(
                    "C001",
                    token,
                    format!(
                        "lock guard `{}` (bound at line {}) is still held across this \
                         `{}` call; drop or scope the guard out before spawning",
                        guard.name, guard.line, token.text
                    ),
                ));
            }
        }
    }
}

/// C002: `set_replica`. Replica attribution must flow through derived
/// `for_replica` handles writing disjoint per-replica buffers; a mutable
/// replica field on a shared handle races under the parallel fleet and was
/// deleted in PR 7 — this rule keeps it deleted.
fn check_c002(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, token) in ctx.tokens.iter().enumerate() {
        if ctx.id(i, "set_replica") {
            out.push(
                ctx.diag(
                    "C002",
                    token,
                    "`set_replica`-style shared-mutable replica attribution: derive a handle \
                 with `Telemetry::for_replica` instead"
                        .to_string(),
                ),
            );
        }
    }
}

/// C003: the crate root must carry `#![forbid(unsafe_code)]`.
fn check_c003(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let t = ctx.tokens;
    let present = (0..t.len()).any(|i| {
        ctx.punct(i, "#")
            && ctx.punct(i + 1, "!")
            && ctx.punct(i + 2, "[")
            && ctx.id(i + 3, "forbid")
            && ctx.punct(i + 4, "(")
            && ctx.id(i + 5, "unsafe_code")
            && ctx.punct(i + 6, ")")
            && ctx.punct(i + 7, "]")
    });
    if !present {
        out.push(Diagnostic {
            rule: "C003",
            file: ctx.path.to_string(),
            line: 1,
            col: 1,
            message: format!(
                "crate `{}` is missing `#![forbid(unsafe_code)]` in its root",
                ctx.crate_name
            ),
        });
    }
}

/// W001: mutations of GPU-half configuration state (`thresholds`, `plan`,
/// `config_epoch`) must happen in a function that polls a delivery
/// (`….poll(now)` lexically precedes the mutation). Two windows:
/// assignments to those fields inside `impl …Gpu…` blocks, and
/// `….gpu.<field> = …` writes from anywhere. This is the source-level fence
/// for the §4.5 epoch gating: the GPU's config may only advance when an
/// update is *delivered*, never at decision time.
fn check_w001(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    const FIELDS: [&str; 3] = ["thresholds", "plan", "config_epoch"];
    let t = ctx.tokens;
    let mut brace_depth: i32 = 0;
    // (impl type name, depth of its body), innermost last.
    let mut impls: Vec<(String, i32)> = Vec::new();
    // (has_poll, depth of fn body), innermost last.
    let mut fns: Vec<(bool, i32)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut pending_fn = false;
    for i in 0..t.len() {
        let token = &t[i];
        if token.is_ident("impl") && item_position(t, i) {
            // Item-position `impl Type { … }` only — `impl Trait` in type
            // position (arguments, return types) opens no block.
            pending_impl = Some(impl_type_name(ctx, i));
        } else if token.is_ident("fn")
            && t.get(i + 1)
                .is_some_and(|n| n.kind == crate::lexer::TokenKind::Ident)
        {
            // A named fn item/method; `fn(u32) -> u32` pointer types have no
            // name and open no body.
            pending_fn = true;
        } else if token.is_punct(";") {
            pending_fn = false; // trait method declaration without a body
        } else if token.is_punct("{") {
            brace_depth += 1;
            if let Some(name) = pending_impl.take() {
                impls.push((name, brace_depth));
            } else if pending_fn {
                fns.push((false, brace_depth));
                pending_fn = false;
            }
        } else if token.is_punct("}") {
            if impls.last().is_some_and(|(_, d)| *d == brace_depth) {
                impls.pop();
            }
            if fns.last().is_some_and(|(_, d)| *d == brace_depth) {
                fns.pop();
            }
            brace_depth -= 1;
        } else if token.is_punct(".") && ctx.id(i + 1, "poll") && ctx.punct(i + 2, "(") {
            if let Some((has_poll, _)) = fns.last_mut() {
                *has_poll = true;
            }
        }
        let in_gpu_impl = impls.last().is_some_and(|(name, _)| name.contains("Gpu"));
        let field_write = |field: &str| -> Option<&Token> {
            if in_gpu_impl
                && ctx.id(i, "self")
                && ctx.punct(i + 1, ".")
                && ctx.id(i + 2, field)
                && ctx.assign_op(i + 3)
            {
                return Some(&t[i + 2]);
            }
            if ctx.punct(i, ".")
                && ctx.id(i + 1, "gpu")
                && ctx.punct(i + 2, ".")
                && ctx.id(i + 3, field)
                && ctx.assign_op(i + 4)
            {
                return Some(&t[i + 3]);
            }
            None
        };
        for field in FIELDS {
            if let Some(at) = field_write(field) {
                let delivered = fns.last().is_some_and(|(has_poll, _)| *has_poll);
                if !delivered {
                    out.push(ctx.diag(
                        "W001",
                        at,
                        format!(
                            "GPU-half config state `{field}` mutated outside a \
                             `poll()`-delivery site; ThresholdUpdate state may only change \
                             when a delivery is polled (offline initialisation needs \
                             `lint:allow(W001, reason = \"…\")`)"
                        ),
                    ));
                }
            }
        }
    }
}

/// Whether a `let` whose initializer calls `.lock(` at token `lock_at`
/// actually *binds* the guard: only `unwrap`/`expect` may be chained after
/// the lock before the statement's `;` at `semi`. Any other method call
/// (`.lock().unwrap().len()`) consumes the guard as a temporary, which dies
/// at the end of the statement — the binding holds no lock.
fn binds_guard(ctx: &FileCtx<'_>, lock_at: usize, semi: usize) -> bool {
    for k in lock_at + 1..semi {
        if ctx.tokens[k].is_punct(".")
            && ctx
                .tokens
                .get(k + 1)
                .is_some_and(|t| t.kind == crate::lexer::TokenKind::Ident)
            && ctx.punct(k + 2, "(")
            && !ctx.id(k + 1, "lock")
            && !ctx.id(k + 1, "unwrap")
            && !ctx.id(k + 1, "expect")
        {
            return false;
        }
    }
    true
}

/// Whether the token at `i` sits at item position: start of file, or after
/// a block/item boundary (`}`, `;`, `{`, or the `]` closing an attribute).
fn item_position(t: &[Token], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| t.get(p)) {
        None => true,
        Some(prev) => {
            prev.is_punct("}") || prev.is_punct(";") || prev.is_punct("{") || prev.is_punct("]")
        }
    }
}

/// The self type of an `impl` header starting at token `i`: the identifier
/// after `for` when present (`impl Trait for Type`), else the first
/// identifier after `impl` (generic params skipped).
fn impl_type_name(ctx: &FileCtx<'_>, i: usize) -> String {
    let t = ctx.tokens;
    let mut j = i + 1;
    let mut angle: i32 = 0;
    let mut first: Option<&str> = None;
    while let Some(token) = t.get(j) {
        if token.is_punct("{") || token.is_ident("where") {
            break;
        }
        if token.is_punct("<") {
            angle += 1;
        } else if token.is_punct(">") || token.is_punct(">>") {
            angle -= if token.is_punct(">>") { 2 } else { 1 };
        } else if token.is_ident("for") && angle == 0 {
            // The real self type follows; restart the capture.
            first = None;
        } else if angle == 0
            && token.kind == crate::lexer::TokenKind::Ident
            && first.is_none()
            && !token.is_ident("dyn")
            && !token.is_ident("impl")
        {
            first = Some(&token.text);
        }
        j += 1;
    }
    first.unwrap_or_default().to_string()
}
