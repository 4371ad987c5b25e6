//! Accuracy-aware threshold tuning (§3.2, Algorithm 1).
//!
//! Because every input runs to the end of the model, the controller can
//! evaluate *any* candidate threshold configuration purely from recorded
//! observations: for each recorded request, find the earliest active ramp
//! whose entropy falls below its candidate threshold, check whether that
//! ramp's prediction agreed with the original model, and add up the latency
//! that exiting there would have saved. No extra inference is needed.
//!
//! The search itself is the paper's greedy hill climb: thresholds start at 0,
//! each round raises the single threshold that buys the most additional
//! latency savings per unit of additional accuracy loss, with
//! multiplicative-increase / multiplicative-decrease step sizing. Its round
//! loop is written once, generic over how a candidate configuration is
//! scored. [`greedy_tune`] scores each candidate by a full pass of a
//! [`ThresholdEvaluator`] over per-request records, and is the reference.
//! [`TuningWindow::tune`] scores it as a delta over the window's bucketed
//! columns, which the window keeps as its own cache; the two return the
//! same outcome bit for bit. A full grid search is also provided for the
//! Figure 10 comparison.

use crate::monitor::{hist_bucket, RequestFeedback, TuningWindow, HIST_BUCKETS};
use serde::{Deserialize, Serialize};

/// Evaluation of one threshold configuration over a window of records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigEvaluation {
    /// Fraction of requests whose released result matches the original model.
    pub accuracy: f64,
    /// Mean latency saved per request, in µs (0 for non-exiting requests).
    pub mean_savings_us: f64,
    /// Fraction of requests that exit at some ramp.
    pub exit_rate: f64,
}

/// The all-zero configuration's evaluation of any window: nothing exits, so
/// every request counts correct. [`ThresholdEvaluator::evaluate`] returns
/// it bit for bit (`len / len` is exactly 1).
const NOTHING_EXITS: ConfigEvaluation = ConfigEvaluation {
    accuracy: 1.0,
    mean_savings_us: 0.0,
    exit_rate: 0.0,
};

/// Evaluator over a recorded window.
pub struct ThresholdEvaluator<'a> {
    records: &'a [RequestFeedback],
    /// Latency saved when a request exits at ramp `i` instead of running to the
    /// end (µs), including the ramp overheads it still pays.
    savings_us: &'a [f64],
}

impl<'a> ThresholdEvaluator<'a> {
    /// Create an evaluator. `savings_us[i]` must correspond to ramp `i` of the
    /// recorded observations.
    pub fn new(records: &'a [RequestFeedback], savings_us: &'a [f64]) -> Self {
        ThresholdEvaluator {
            records,
            savings_us,
        }
    }

    /// Number of ramps being tuned.
    pub fn num_ramps(&self) -> usize {
        self.savings_us.len()
    }

    /// Evaluate a threshold configuration.
    pub fn evaluate(&self, thresholds: &[f64]) -> ConfigEvaluation {
        debug_assert_eq!(thresholds.len(), self.savings_us.len());
        if self.records.is_empty() {
            return NOTHING_EXITS;
        }
        let mut correct = 0usize;
        let mut exit_counts = vec![0u64; self.savings_us.len()];
        let mut exits = 0usize;
        for record in self.records {
            let exit = record
                .observations
                .iter()
                .zip(thresholds.iter())
                .position(|(obs, &thr)| thr > 0.0 && obs.entropy <= thr);
            match exit {
                Some(idx) => {
                    exits += 1;
                    if record.observations[idx].agrees {
                        correct += 1;
                    }
                    exit_counts[idx] += 1;
                }
                None => correct += 1,
            }
        }
        let n = self.records.len() as f64;
        ConfigEvaluation {
            accuracy: correct as f64 / n,
            mean_savings_us: mean_savings_from_counts(&exit_counts, self.savings_us, n),
            exit_rate: exits as f64 / n,
        }
    }
}

/// Fold per-ramp exit counts into a mean-savings figure. Summing in ramp
/// index order (not record order) makes the result independent of how the
/// window was traversed, so [`TuningWindow::tune`] reproduces the full
/// evaluator bit for bit.
pub(crate) fn mean_savings_from_counts(exit_counts: &[u64], savings_us: &[f64], n: f64) -> f64 {
    let mut savings = 0.0f64;
    for (count, per_exit) in exit_counts.iter().zip(savings_us.iter()) {
        if *count > 0 {
            savings += *count as f64 * per_exit;
        }
    }
    savings / n
}

/// Result of a tuning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// The selected thresholds.
    pub thresholds: Vec<f64>,
    /// Evaluation of the selected configuration on the tuning window.
    pub evaluation: ConfigEvaluation,
    /// Number of configuration evaluations performed.
    pub evaluations: usize,
}

/// Parameters of the greedy search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GreedyParams {
    /// Maximum tolerated accuracy loss (e.g. 0.01).
    pub accuracy_loss_budget: f64,
    /// Initial per-ramp step size (0.1).
    pub initial_step: f64,
    /// Smallest step size (0.01).
    pub smallest_step: f64,
    /// Upper bound on any tuned threshold (1.0 = unconstrained). A cap below
    /// 1.0 guards against window censoring: when the recent window contains no
    /// hard inputs at a deep ramp, an unconstrained search saturates that
    /// ramp's threshold ("exit everything that reaches it") with zero
    /// in-window errors but unbounded exposure to workload drift.
    pub max_threshold: f64,
}

impl Default for GreedyParams {
    fn default() -> Self {
        GreedyParams {
            accuracy_loss_budget: 0.01,
            initial_step: 0.1,
            smallest_step: 0.01,
            max_threshold: 1.0,
        }
    }
}

/// Algorithm 1: greedy hill-climbing threshold tuning, each candidate scored
/// by a full pass of `evaluator`. The reference [`TuningWindow::tune`] is
/// checked against.
pub fn greedy_tune(evaluator: &ThresholdEvaluator<'_>, params: GreedyParams) -> TuningOutcome {
    climb(evaluator.num_ramps(), params, evaluator)
}

/// How [`climb`] scores a candidate: the configuration committed so far with
/// one ramp's threshold raised.
trait Scorer {
    /// Score `thresholds`, the committed configuration with `ramp` raised
    /// from `from`; `None` when it scores as the committed one.
    fn score(&mut self, thresholds: &[f64], ramp: usize, from: f64) -> Option<ConfigEvaluation>;

    /// Commit the round's winner, scored like a candidate.
    fn commit(&mut self, _thresholds: &[f64], _ramp: usize, _from: f64) {}
}

impl Scorer for &ThresholdEvaluator<'_> {
    fn score(&mut self, thresholds: &[f64], _: usize, _: f64) -> Option<ConfigEvaluation> {
        Some(self.evaluate(thresholds))
    }
}

/// Algorithm 1's round loop over `num_ramps` thresholds that start at 0 (the
/// first evaluation). Each round scores raising every unsaturated ramp by its
/// step, up to the cap. Among the candidates that keep accuracy within the
/// budget it commits the one that buys the most savings per unit of accuracy
/// loss and doubles that ramp's step; a round with none halves the steps of
/// the ramps that overstepped. The search stops once every threshold is
/// saturated, or when a round commits nothing and either every step is at
/// its smallest or no ramp overstepped.
fn climb(num_ramps: usize, params: GreedyParams, mut scorer: impl Scorer) -> TuningOutcome {
    let mut thresholds = vec![0.0f64; num_ramps];
    let mut steps = vec![params.initial_step; num_ramps];
    let mut current = NOTHING_EXITS;
    let mut evaluations = 1usize;
    let accuracy_floor = 1.0 - params.accuracy_loss_budget;
    let threshold_cap = params.max_threshold.clamp(0.0, 1.0);
    let mut overstepped: Vec<usize> = Vec::new();
    // Safety bound far above anything the algorithm needs; prevents a
    // pathological window from spinning forever.
    for _ in 0..10_000 {
        let mut best: Option<(usize, f64, ConfigEvaluation)> = None;
        overstepped.clear();
        let mut any_candidate = false;
        for ramp in 0..num_ramps {
            let from = thresholds[ramp];
            let proposed = (from + steps[ramp]).min(threshold_cap);
            if proposed <= from {
                continue; // already saturated at the cap
            }
            any_candidate = true;
            thresholds[ramp] = proposed;
            let eval = scorer.score(&thresholds, ramp, from).unwrap_or(current);
            thresholds[ramp] = from;
            evaluations += 1;
            if eval.accuracy + 1e-12 < accuracy_floor {
                overstepped.push(ramp);
                continue;
            }
            let extra_savings = eval.mean_savings_us - current.mean_savings_us;
            let extra_loss = (current.accuracy - eval.accuracy).max(1e-6);
            let score = extra_savings / extra_loss;
            if best.is_none_or(|(_, best_score, _)| score > best_score) {
                best = Some((ramp, score, eval));
            }
        }
        if !any_candidate {
            break; // every threshold is saturated
        }
        match best {
            Some((ramp, _, eval)) => {
                let from = thresholds[ramp];
                thresholds[ramp] = (from + steps[ramp]).min(threshold_cap);
                scorer.commit(&thresholds, ramp, from);
                steps[ramp] *= 2.0; // multiplicative increase on a promising path
                current = eval;
            }
            None => {
                if steps.iter().all(|&s| s <= params.smallest_step) {
                    break;
                }
                for &ramp in &overstepped {
                    steps[ramp] /= 2.0; // multiplicative decrease to hone the boundary
                }
                if overstepped.is_empty() {
                    break;
                }
            }
        }
    }
    TuningOutcome {
        thresholds,
        evaluation: current,
        evaluations,
    }
}

/// Marks a slot that no ramp exits under the committed thresholds.
const NO_EXIT: u32 = u32::MAX;

/// One ramp's `(entropy, physical slot)` entries, grouped by the window's
/// entropy histogram bucket, with no order inside a bucket. The entropies
/// sit next to their slots so scans read the column contiguously.
#[derive(Debug, Clone)]
struct Column {
    entries: Vec<(f64, u32)>,
    /// Bucket `b` holds `entries[starts[b]..starts[b + 1]]`.
    starts: [u32; HIST_BUCKETS + 1],
    /// Bucket `b`'s live entries are `entries[starts[b]..live_end[b]]`; the
    /// rest of the bucket is dead for this tune: their slots exit at or
    /// before this ramp, and stay so while thresholds only rise.
    live_end: [u32; HIST_BUCKETS],
}

impl Default for Column {
    fn default() -> Column {
        Column {
            entries: Vec::new(),
            starts: [0; HIST_BUCKETS + 1],
            live_end: [0; HIST_BUCKETS],
        }
    }
}

/// The most recent tune, for whole-outcome reuse when nothing changed.
#[derive(Debug, Clone)]
struct CachedTune {
    params: GreedyParams,
    savings_us: Vec<f64>,
    outcome: TuningOutcome,
}

/// A [`TuningWindow`]'s column cache: the columns [`TuningWindow::tune`]
/// scans to score each candidate as a *delta* against the committed
/// configuration instead of a full pass over the window, and the state of
/// those scans.
///
/// The trick: the greedy search only ever proposes raising a single ramp `r`
/// from threshold `t` to `p`. The only requests whose outcome can change are
/// those with `entropy_r ∈ (t, p]` that do not already exit at an earlier
/// ramp. Each ramp's column groups its slots by the window's 64-bucket
/// entropy histogram, so those entries lie in the buckets from `t`'s to
/// `p`'s. One scan serves both a candidate and the winner's commit: it walks
/// those buckets, moves the slots in range, and swaps each *dead* entry (its
/// slot already exits at or before `r`) past its bucket's live end, so a
/// tune visits a dead entry at most once. The cache keeps integer exit
/// counts per ramp and per-slot exit assignments for the configuration
/// committed so far, applies a candidate's delta to a scratch copy, and
/// folds savings with the same ramp-index-order sum as
/// [`ThresholdEvaluator::evaluate`]; a scan that moves no slot returns the
/// committed evaluation. So every candidate evaluation is **bit-identical**
/// to the full evaluator's, and [`climb`] walks the exact trajectory it
/// walks for [`greedy_tune`] (including counting the same number of
/// `evaluations`). Equivalence is asserted against the full-retune oracle in
/// this module's tests and by the `tuning-equivalence` CI gate.
///
/// Incrementality across tunes: the window marks the cache stale on every
/// push and clear. A stale cache lays its columns out again by counting sort
/// over the window's histograms, reusing their allocations; a fresh one
/// revives the entries the previous tune retired, or returns the previous
/// outcome outright when the savings and parameters are unchanged (a re-tune
/// triggered by an accuracy blip with no new records).
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnCache {
    /// One column per ramp of the widest layout so far; a layout uses the
    /// first `num_ramps`.
    columns: Vec<Column>,
    /// The columns lay out the window's current slots, and `last` is a tune
    /// of them.
    fresh: bool,
    /// Per-slot exit ramp under the committed thresholds, or [`NO_EXIT`].
    current_exit: Vec<u32>,
    /// Per-ramp exit counts under the committed thresholds.
    exit_counts: Vec<u64>,
    /// Correct releases and exits under the committed thresholds.
    correct: i64,
    exits: i64,
    /// Candidate scratch: `exit_counts` plus the candidate's delta.
    scratch_counts: Vec<u64>,
    /// Column entries the scans have visited over all the window's tunes,
    /// dead ones included.
    pub(crate) slots_visited: u64,
    last: Option<CachedTune>,
}

impl ColumnCache {
    /// The window changed: lay the columns out again at the next tune.
    pub(crate) fn mark_stale(&mut self) {
        self.fresh = false;
    }

    /// Lay out the first `num_ramps` columns for `window` when stale, else
    /// mark every entry live again.
    fn lay_out(&mut self, window: &TuningWindow) {
        let n = window.num_ramps();
        if self.columns.len() < n {
            self.columns.resize_with(n, Column::default);
        }
        let columns = &mut self.columns[..n];
        if self.fresh {
            for col in columns {
                col.live_end.copy_from_slice(&col.starts[1..]);
            }
            return;
        }
        for (r, col) in columns.iter_mut().enumerate() {
            let mut start = 0u32;
            for (b, &count) in window.histogram(r).iter().enumerate() {
                col.starts[b] = start;
                col.live_end[b] = start;
                start += count;
            }
            col.starts[HIST_BUCKETS] = start;
            debug_assert_eq!(start as usize, window.len());
            col.entries.resize(window.len(), (0.0, 0));
        }
        // Counting sort, slot-major: each bucket's live end is its fill
        // cursor and ends at the bucket's end.
        for s in 0..window.len() {
            for (r, col) in columns.iter_mut().enumerate() {
                let e = window.entropy(s, r);
                let end = &mut col.live_end[hist_bucket(e)];
                col.entries[*end as usize] = (e, s as u32);
                *end += 1;
            }
        }
        self.fresh = true;
    }

    /// Scan ramp `r`'s column for raising its threshold from `t` to `p`: the
    /// slots with `entropy ∈ (t, p]`, or `[0, p]` when `t == 0` (a zero
    /// threshold means the ramp was inactive), that exit after `r` or not at
    /// all move their exit to `r`. Retires every dead entry it meets. A
    /// candidate scan adds the moves to `scratch_counts` over a copy of the
    /// committed counts; a commit applies them to the committed state.
    /// Returns the change in correct releases and in exits, or `None` when
    /// no slot moves.
    fn scan(
        &mut self,
        window: &TuningWindow,
        r: usize,
        t: f64,
        p: f64,
        commit: bool,
    ) -> Option<(i64, i64)> {
        let ColumnCache {
            columns,
            current_exit,
            exit_counts,
            scratch_counts,
            slots_visited,
            correct,
            exits,
            ..
        } = self;
        let counts = if commit {
            exit_counts
        } else {
            scratch_counts.clear();
            scratch_counts.extend_from_slice(exit_counts);
            scratch_counts
        };
        let col = &mut columns[r];
        let ramp = r as u32;
        let mut moved = false;
        let (mut d_correct, mut d_exits) = (0i64, 0i64);
        for b in hist_bucket(t)..=hist_bucket(p) {
            let mut i = col.starts[b] as usize;
            let mut live_end = col.live_end[b] as usize;
            // Each step advances `i` or retires an entry: one visit each.
            *slots_visited += (live_end - i) as u64;
            while i < live_end {
                let (e, s) = col.entries[i];
                let s = s as usize;
                let j = current_exit[s];
                let moves = j > ramp && e <= p && (t < e || t == 0.0);
                if moves {
                    moved = true;
                    counts[r] += 1;
                    d_correct += window.agrees(s, r) as i64;
                    if j == NO_EXIT {
                        // Ran to completion (counted correct by definition).
                        d_exits += 1;
                        d_correct -= 1;
                    } else {
                        counts[j as usize] -= 1;
                        d_correct -= window.agrees(s, j as usize) as i64;
                    }
                    if commit {
                        current_exit[s] = ramp;
                    }
                }
                if j <= ramp || (moves && commit) {
                    live_end -= 1;
                    col.entries.swap(i, live_end);
                } else {
                    i += 1;
                }
            }
            col.live_end[b] = live_end as u32;
        }
        if commit {
            *correct += d_correct;
            *exits += d_exits;
        }
        moved.then_some((d_correct, d_exits))
    }

    /// [`TuningWindow::tune`] over `window`, the window this cache belongs
    /// to.
    pub(crate) fn tune(
        &mut self,
        window: &TuningWindow,
        savings_us: &[f64],
        params: GreedyParams,
    ) -> TuningOutcome {
        if let Some(last) = self.last.as_ref().filter(|_| self.fresh) {
            if last.params == params && last.savings_us == savings_us {
                return last.outcome.clone();
            }
        }
        let n = window.num_ramps();
        debug_assert_eq!(savings_us.len(), n);
        self.lay_out(window);
        // Committed state for the all-zero starting configuration: nothing
        // exits, every request counts correct.
        self.current_exit.clear();
        self.current_exit.resize(window.len(), NO_EXIT);
        self.exit_counts.clear();
        self.exit_counts.resize(n, 0);
        (self.correct, self.exits) = (window.len() as i64, 0);
        let scorer = ColumnScorer {
            cache: self,
            window,
            savings_us,
        };
        let outcome = climb(n, params, scorer);
        self.last = Some(CachedTune {
            params,
            savings_us: savings_us.to_vec(),
            outcome: outcome.clone(),
        });
        outcome
    }
}

/// [`climb`]'s scorer over a window's columns.
struct ColumnScorer<'a> {
    cache: &'a mut ColumnCache,
    window: &'a TuningWindow,
    savings_us: &'a [f64],
}

impl Scorer for ColumnScorer<'_> {
    fn score(&mut self, thresholds: &[f64], ramp: usize, from: f64) -> Option<ConfigEvaluation> {
        let cache = &mut *self.cache;
        let (d_correct, d_exits) = cache.scan(self.window, ramp, from, thresholds[ramp], false)?;
        let requests = self.window.len() as f64;
        Some(ConfigEvaluation {
            accuracy: (cache.correct + d_correct) as f64 / requests,
            mean_savings_us: mean_savings_from_counts(
                &cache.scratch_counts,
                self.savings_us,
                requests,
            ),
            exit_rate: (cache.exits + d_exits) as f64 / requests,
        })
    }

    fn commit(&mut self, thresholds: &[f64], ramp: usize, from: f64) {
        self.cache
            .scan(self.window, ramp, from, thresholds[ramp], true);
    }
}

/// Exhaustive grid search over thresholds in `{0, step, 2·step, …, 1}` per
/// ramp; the Figure 10 baseline. Cost is `O((1/step + 1)^R)` evaluations.
pub fn grid_tune(
    evaluator: &ThresholdEvaluator<'_>,
    accuracy_loss_budget: f64,
    step: f64,
) -> TuningOutcome {
    let n = evaluator.num_ramps();
    let levels: Vec<f64> = {
        let mut v = Vec::new();
        let mut t = 0.0f64;
        while t < 1.0 + 1e-9 {
            v.push(t.min(1.0));
            t += step;
        }
        v
    };
    let accuracy_floor = 1.0 - accuracy_loss_budget;
    let mut best_thresholds = vec![0.0f64; n];
    let mut best_eval = evaluator.evaluate(&best_thresholds);
    let mut evaluations = 1usize;
    let mut indices = vec![0usize; n];
    loop {
        // Advance the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == n {
                let outcome = TuningOutcome {
                    thresholds: best_thresholds,
                    evaluation: best_eval,
                    evaluations,
                };
                return outcome;
            }
            indices[pos] += 1;
            if indices[pos] < levels.len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
        let candidate: Vec<f64> = indices.iter().map(|&i| levels[i]).collect();
        let eval = evaluator.evaluate(&candidate);
        evaluations += 1;
        if eval.accuracy + 1e-12 >= accuracy_floor
            && eval.mean_savings_us > best_eval.mean_savings_us
        {
            best_eval = eval;
            best_thresholds = candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apparate_exec::RampObservation;
    use apparate_sim::DeterministicRng;

    /// Build a synthetic window with two ramps whose entropies fall with
    /// difficulty; ramp 1 is deeper (more accurate, lower entropy).
    fn window(n: usize, seed: u64) -> Vec<RequestFeedback> {
        let rng = DeterministicRng::new(seed);
        (0..n)
            .map(|i| {
                let difficulty = rng.unit_draw(&[i as u64, 1]);
                let noise = rng.normal_draw(&[i as u64, 2]) * 0.05;
                let shallow_margin = 0.55 - difficulty + noise;
                let deep_margin = 0.85 - difficulty + noise;
                let obs = |margin: f64| RampObservation {
                    entropy: (1.0 / (1.0 + (margin / 0.1).exp())).clamp(0.0, 1.0),
                    agrees: margin > 0.0,
                };
                RequestFeedback {
                    observations: vec![obs(shallow_margin), obs(deep_margin)],
                    exited: None,
                    correct: true,
                    batch_size: 1,
                }
            })
            .collect()
    }

    const SAVINGS: [f64; 2] = [10_000.0, 4_000.0];

    #[test]
    fn zero_thresholds_never_exit() {
        let records = window(200, 1);
        let eval = ThresholdEvaluator::new(&records, &SAVINGS).evaluate(&[0.0, 0.0]);
        assert_eq!(eval.exit_rate, 0.0);
        assert_eq!(eval.accuracy, 1.0);
        assert_eq!(eval.mean_savings_us, 0.0);
    }

    #[test]
    fn evaluation_is_monotone_in_thresholds() {
        let records = window(400, 2);
        let evaluator = ThresholdEvaluator::new(&records, &SAVINGS);
        let mut last_exit = 0.0;
        let mut last_acc = 1.0;
        for thr in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let eval = evaluator.evaluate(&[thr, thr]);
            assert!(eval.exit_rate >= last_exit - 1e-9);
            assert!(eval.accuracy <= last_acc + 1e-9);
            last_exit = eval.exit_rate;
            last_acc = eval.accuracy;
        }
    }

    #[test]
    fn greedy_respects_accuracy_budget() {
        let records = window(500, 3);
        let evaluator = ThresholdEvaluator::new(&records, &SAVINGS);
        let outcome = greedy_tune(&evaluator, GreedyParams::default());
        assert!(outcome.evaluation.accuracy >= 0.99 - 1e-9);
        assert!(
            outcome.evaluation.mean_savings_us > 0.0,
            "greedy should find some savings"
        );
        assert!(outcome.thresholds.iter().all(|&t| (0.0..=1.0).contains(&t)));
    }

    #[test]
    fn greedy_matches_grid_closely_but_much_cheaper() {
        let records = window(300, 4);
        let evaluator = ThresholdEvaluator::new(&records, &SAVINGS);
        let greedy = greedy_tune(&evaluator, GreedyParams::default());
        let grid = grid_tune(&evaluator, 0.01, 0.1);
        assert!(grid.evaluation.accuracy >= 0.99 - 1e-9);
        // §3.2: greedy is within 0–3.8 % of the optimal latency savings.
        assert!(
            greedy.evaluation.mean_savings_us >= grid.evaluation.mean_savings_us * 0.9,
            "greedy {} vs grid {}",
            greedy.evaluation.mean_savings_us,
            grid.evaluation.mean_savings_us
        );
        assert!(
            greedy.evaluations * 2 < grid.evaluations,
            "greedy {} evals vs grid {}",
            greedy.evaluations,
            grid.evaluations
        );
    }

    #[test]
    fn tighter_budget_gives_fewer_savings() {
        let records = window(400, 5);
        let evaluator = ThresholdEvaluator::new(&records, &SAVINGS);
        let loose = greedy_tune(
            &evaluator,
            GreedyParams {
                accuracy_loss_budget: 0.05,
                ..Default::default()
            },
        );
        let tight = greedy_tune(
            &evaluator,
            GreedyParams {
                accuracy_loss_budget: 0.005,
                ..Default::default()
            },
        );
        assert!(loose.evaluation.mean_savings_us >= tight.evaluation.mean_savings_us);
        assert!(tight.evaluation.accuracy >= 0.995 - 1e-9);
    }

    #[test]
    fn empty_window_is_benign() {
        let records: Vec<RequestFeedback> = Vec::new();
        let evaluator = ThresholdEvaluator::new(&records, &SAVINGS);
        let outcome = greedy_tune(&evaluator, GreedyParams::default());
        assert_eq!(outcome.evaluation.accuracy, 1.0);
        assert_eq!(outcome.evaluation.mean_savings_us, 0.0);
    }

    #[test]
    fn grid_search_explores_the_full_lattice() {
        let records = window(50, 6);
        let evaluator = ThresholdEvaluator::new(&records, &SAVINGS);
        let grid = grid_tune(&evaluator, 0.01, 0.25);
        // 5 levels per ramp (0, .25, .5, .75, 1.0) over 2 ramps = 25 configs.
        assert_eq!(grid.evaluations, 25);
    }

    /// Like [`window`] but with `k` ramps at staggered depths.
    fn window_k(n: usize, seed: u64, k: usize) -> Vec<RequestFeedback> {
        let rng = DeterministicRng::new(seed);
        (0..n)
            .map(|i| {
                let difficulty = rng.unit_draw(&[i as u64, 1]);
                let noise = rng.normal_draw(&[i as u64, 2]) * 0.05;
                RequestFeedback {
                    observations: (0..k)
                        .map(|r| {
                            let margin = 0.45 + 0.12 * r as f64 - difficulty + noise;
                            RampObservation {
                                entropy: (1.0 / (1.0 + (margin / 0.1).exp())).clamp(0.0, 1.0),
                                agrees: margin > 0.0,
                            }
                        })
                        .collect(),
                    exited: None,
                    correct: true,
                    batch_size: 1,
                }
            })
            .collect()
    }

    /// Load records into a `num_ramps`-wide columnar window (capacity =
    /// record count).
    fn window_of(records: &[RequestFeedback], num_ramps: usize) -> TuningWindow {
        let mut w = TuningWindow::new(num_ramps, records.len().max(1));
        for r in records {
            w.push(&r.observations, r.exited, r.correct, r.batch_size);
        }
        w
    }

    /// `w`'s tune must reproduce the full-retune oracle over its records
    /// *exactly*: same thresholds, same (bit-identical) evaluation, same
    /// evaluation count.
    fn assert_tunes_like_oracle(
        w: &mut TuningWindow,
        savings: &[f64],
        params: GreedyParams,
    ) -> TuningOutcome {
        let fast = w.tune(savings, params);
        let oracle = greedy_tune(&ThresholdEvaluator::new(&w.records(), savings), params);
        assert_eq!(fast.thresholds, oracle.thresholds);
        assert_eq!(fast.evaluation, oracle.evaluation);
        assert_eq!(fast.evaluations, oracle.evaluations);
        fast
    }

    fn assert_matches_oracle(records: &[RequestFeedback], savings: &[f64], params: GreedyParams) {
        assert_tunes_like_oracle(&mut window_of(records, savings.len()), savings, params);
    }

    #[test]
    fn incremental_matches_oracle_on_every_fixture() {
        for seed in [1, 2, 3, 4, 5, 7, 11] {
            for n in [1, 17, 200, 500] {
                for budget in [0.005, 0.01, 0.05] {
                    for cap in [0.2, 0.35, 1.0] {
                        let params = GreedyParams {
                            accuracy_loss_budget: budget,
                            max_threshold: cap,
                            ..Default::default()
                        };
                        let records = window(n, seed);
                        assert_matches_oracle(&records, &SAVINGS, params);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oracle_with_many_ramps() {
        let savings = [20_000.0, 14_000.0, 9_000.0, 5_000.0, 2_000.0];
        for seed in [3, 8, 21] {
            let records = window_k(400, seed, savings.len());
            assert_matches_oracle(&records, &savings, GreedyParams::default());
        }
    }

    #[test]
    fn incremental_matches_oracle_when_entropies_tie() {
        // Entropies rounded to twentieths put many slots on one value, some
        // exactly on a candidate threshold, so a column's order among equal
        // entropies and its `<=` range boundary both come into play.
        for seed in [2, 5, 9] {
            let mut records = window(300, seed);
            for obs in records.iter_mut().flat_map(|r| &mut r.observations) {
                obs.entropy = (obs.entropy * 20.0).round() / 20.0;
            }
            for budget in [0.01, 0.05, 0.2] {
                let params = GreedyParams {
                    accuracy_loss_budget: budget,
                    ..Default::default()
                };
                assert_matches_oracle(&records, &SAVINGS, params);
            }
        }
    }

    #[test]
    fn incremental_matches_oracle_at_bucket_edges() {
        // Entropies at 0.0, at 1.0, on every histogram bucket edge k/64 and
        // one ulp either side of it; thresholds start at steps of 1/64 that
        // halve below it, so candidate ranges start and end on bucket edges
        // and fit inside one bucket. Each window re-tunes under new
        // parameters, so its cached columns must revive every entry the
        // previous tune retired.
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut levels = vec![0.0, below(1.0), 1.0];
        for k in 1..64 {
            let edge = k as f64 / 64.0;
            levels.extend([below(edge), edge, above(edge)]);
        }
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let eval_bits =
            |e: &ConfigEvaluation| [e.accuracy, e.mean_savings_us, e.exit_rate].map(f64::to_bits);
        let savings = [9_000.0, 6_000.0, 2_500.0];
        let mut split_buckets = 0;
        for seed in [1, 4, 9, 16] {
            let rng = DeterministicRng::new(seed);
            let records: Vec<RequestFeedback> = (0..240u64)
                .map(|i| {
                    // Deeper ramps see lower entropies; most of the mass sits
                    // low, where the search walks.
                    let base = rng.unit_draw(&[i, 0]).powi(2);
                    RequestFeedback {
                        observations: (0..savings.len() as u64)
                            .map(|r| {
                                let at = (base - 0.1 * r as f64).max(0.0) * levels.len() as f64;
                                let jitter = rng.stream(&[i, r + 1]).below(4) as usize;
                                let entropy = levels[(at as usize + jitter).min(levels.len() - 1)];
                                RampObservation {
                                    entropy,
                                    agrees: rng.unit_draw(&[i, r, 7]) > entropy * 0.6,
                                }
                            })
                            .collect(),
                        exited: None,
                        correct: true,
                        batch_size: 1,
                    }
                })
                .collect();
            let mut w = window_of(&records, savings.len());
            for (budget, initial_step) in [(0.02, 1.0 / 64.0), (0.08, 1.0 / 64.0), (0.04, 0.125)] {
                let params = GreedyParams {
                    accuracy_loss_budget: budget,
                    initial_step,
                    smallest_step: 1.0 / 1024.0,
                    max_threshold: 1.0,
                };
                let fast = w.tune(&savings, params);
                let oracle = greedy_tune(&ThresholdEvaluator::new(&records, &savings), params);
                assert_eq!(bits(&fast.thresholds), bits(&oracle.thresholds));
                assert_eq!(eval_bits(&fast.evaluation), eval_bits(&oracle.evaluation));
                assert_eq!(fast.evaluations, oracle.evaluations);
                split_buckets += fast
                    .thresholds
                    .iter()
                    .filter(|&&t| (t * 64.0).fract() != 0.0)
                    .count();
            }
        }
        assert!(split_buckets > 0, "some threshold must end inside a bucket");
    }

    #[test]
    fn incremental_matches_oracle_on_empty_window() {
        assert_matches_oracle(&[], &SAVINGS, GreedyParams::default());
    }

    #[test]
    fn incremental_tuner_caches_unchanged_windows() {
        let records = window(300, 9);
        let mut w = window_of(&records, SAVINGS.len());
        let first = w.tune(&SAVINGS, GreedyParams::default());
        let visited = w.slots_visited();
        let again = w.tune(&SAVINGS, GreedyParams::default());
        assert_eq!(
            w.slots_visited(),
            visited,
            "an unchanged window scans nothing"
        );
        assert_eq!(first.thresholds, again.thresholds);
        assert_eq!(first.evaluation, again.evaluation);
        assert_eq!(first.evaluations, again.evaluations);
        // Changing the parameters must bypass the cache and still match the
        // oracle.
        let tight = GreedyParams {
            accuracy_loss_budget: 0.002,
            ..Default::default()
        };
        assert_tunes_like_oracle(&mut w, &SAVINGS, tight);
        assert!(w.slots_visited() > visited);
    }

    #[test]
    fn incremental_tuner_tracks_a_sliding_window() {
        // One ring: keep pushing past capacity and re-tune after each
        // eviction burst — every tune must match a fresh oracle over the
        // ring's current contents.
        let stream = window(600, 13);
        let mut w = TuningWindow::new(2, 128);
        for (i, r) in stream.iter().enumerate() {
            w.push(&r.observations, r.exited, r.correct, r.batch_size);
            if i % 150 == 149 {
                assert_tunes_like_oracle(&mut w, &SAVINGS, GreedyParams::default());
            }
        }
    }

    #[test]
    fn incremental_tuner_survives_ramp_set_changes() {
        // A ramp-set change clears the window for a new ramp count; neither
        // the cleared window's tune nor the refilled one's may read columns
        // of the old layout.
        let savings4 = [12_000.0, 8_000.0, 5_000.0, 2_500.0];
        let mut w = window_of(&window_k(200, 5, 4), savings4.len());
        assert_tunes_like_oracle(&mut w, &savings4, GreedyParams::default());
        w.clear_for_ramps(SAVINGS.len());
        assert_tunes_like_oracle(&mut w, &SAVINGS, GreedyParams::default());
        for r in &window(200, 5) {
            w.push(&r.observations, r.exited, r.correct, r.batch_size);
        }
        assert_tunes_like_oracle(&mut w, &SAVINGS, GreedyParams::default());
    }

    #[test]
    fn a_cloned_window_tunes_like_its_source_and_apart_from_it() {
        // A clone carries its source's cached tune; from then on each window
        // owns its cache, so a push to either leaves the other's valid.
        let stream = window(300, 17);
        let params = GreedyParams::default();
        let push = |w: &mut TuningWindow, rows: &[RequestFeedback]| {
            for r in rows {
                w.push(&r.observations, r.exited, r.correct, r.batch_size);
            }
        };
        let mut source = window_of(&stream[..200], SAVINGS.len());
        let first = assert_tunes_like_oracle(&mut source, &SAVINGS, params);
        let mut clone = source.clone();
        let visited = clone.slots_visited();
        assert_eq!(clone.tune(&SAVINGS, params).thresholds, first.thresholds);
        assert_eq!(clone.slots_visited(), visited, "the clone's tune is cached");
        push(&mut clone, &stream[200..250]);
        let visited = source.slots_visited();
        assert_eq!(source.tune(&SAVINGS, params).thresholds, first.thresholds);
        assert_eq!(source.slots_visited(), visited, "a push to the clone");
        assert_tunes_like_oracle(&mut clone, &SAVINGS, params);
        push(&mut source, &stream[250..]);
        let visited = clone.slots_visited();
        clone.tune(&SAVINGS, params);
        assert_eq!(clone.slots_visited(), visited, "a push to the source");
        assert_tunes_like_oracle(&mut source, &SAVINGS, params);
    }

    #[test]
    fn greedy_prefers_the_more_valuable_ramp() {
        // Savings strongly favour ramp 0; with both ramps equally accurate the
        // search should raise ramp 0's threshold at least as far as ramp 1's.
        let records = window(400, 7);
        let evaluator = ThresholdEvaluator::new(&records, &SAVINGS);
        let outcome = greedy_tune(
            &evaluator,
            GreedyParams {
                accuracy_loss_budget: 0.02,
                ..Default::default()
            },
        );
        assert!(outcome.thresholds[0] >= outcome.thresholds[1] * 0.5);
    }
}
