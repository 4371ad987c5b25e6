//! Runtime monitoring: the feedback Apparate gets "for free" because every
//! input still runs to the end of the model.
//!
//! For every request and every active ramp the controller records the ramp's
//! highest-confidence result and error score — *irrespective of upstream
//! exiting decisions* (§3.2). The monitor maintains:
//!
//! * a short accuracy window (16 samples) whose violation triggers threshold
//!   tuning,
//! * a longer tuning window of full per-ramp observations used to evaluate
//!   counterfactual threshold configurations without extra inference,
//! * per-ramp exit counters since the last ramp-adjustment round, used for
//!   utility scores and candidate exit-rate bounds (§3.3).
//!
//! The tuning window is columnar ([`TuningWindow`]): observations live in
//! flat per-ramp-strided arrays with per-ramp entropy histograms maintained
//! as rows enter. [`TuningWindow::tune`] runs Algorithm 1 over it; the
//! window keeps the columns that tune scans as a cache of its own, buckets
//! each ramp's column by the histogram instead of sorting it, and marks the
//! cache stale whenever a row enters or the window clears.
//!
//! Delivered [`ProfileRecord`]s are ingested with [`Monitor::record_batch`]:
//! the accuracy window and exit counters take each request at once, while
//! its semantics wait in a queue capped at the tuning window's capacity
//! (an older request would be evicted unread). A request's row is built only
//! when a tune reads the window through [`Monitor::tuning_window`], which
//! drains the queue into the window in arrival order first, so every tune
//! reads what building each row on arrival would have left there.

use crate::threshold::{ColumnCache, GreedyParams, TuningOutcome};
use apparate_exec::{ProfileRecord, RampObservation, SampleSemantics};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Feedback recorded for one request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestFeedback {
    /// Observation at every *active* ramp, in ramp order.
    pub observations: Vec<RampObservation>,
    /// The ramp index the deployed configuration exited this request at.
    pub exited: Option<usize>,
    /// Whether the released result matched the original model.
    pub correct: bool,
    /// Batch size the request was served with.
    pub batch_size: u32,
}

/// Buckets per ramp in the [`TuningWindow`]'s entropy histograms.
pub(crate) const HIST_BUCKETS: usize = 64;

/// The histogram bucket of `entropy`: `b` holds `[b/64, (b+1)/64)`, the last
/// bucket also 1.0. Monotone, so `t < e ≤ p` puts `e` in the buckets
/// `hist_bucket(t)..=hist_bucket(p)`.
#[inline]
pub(crate) fn hist_bucket(entropy: f64) -> usize {
    // Entropies are clamped to [0, 1] upstream; the min guards 1.0 exactly.
    ((entropy.max(0.0) * HIST_BUCKETS as f64) as usize).min(HIST_BUCKETS - 1)
}

/// The bounded tuning window in columnar form: a ring of request slots whose
/// per-ramp entropies/agreements live in flat stride-`num_ramps` arrays,
/// with per-ramp entropy histograms kept in sync on every push/evict.
///
/// The histograms give [`TuningWindow::tune`] each ramp's bucket sizes, so
/// it lays out a ramp's column by counting sort. The columns are the
/// window's own cache, so a tune over an unchanged window rebuilds nothing,
/// and a clone carries its source's cache and then goes its own way.
#[derive(Debug, Clone)]
pub struct TuningWindow {
    num_ramps: usize,
    capacity: usize,
    /// Slot-major entropies: slot `s`, ramp `r` at `s * num_ramps + r`.
    entropies: Vec<f64>,
    /// Slot-major agreement flags, same layout as `entropies`.
    agrees: Vec<bool>,
    /// Per-slot deployed exit decision.
    exited: Vec<Option<usize>>,
    /// Per-slot released-result correctness.
    correct: Vec<bool>,
    /// Per-slot serving batch size.
    batch_size: Vec<u32>,
    /// Physical index of the oldest slot (0 until the ring first wraps).
    head: usize,
    len: usize,
    /// Per-ramp entropy histograms: ramp `r` bucket `b` at
    /// `r * HIST_BUCKETS + b`.
    hist: Vec<u32>,
    /// The columns [`TuningWindow::tune`] scans, stale after every push and
    /// clear.
    columns: ColumnCache,
}

impl TuningWindow {
    /// Create an empty window for `num_ramps` ramps holding up to `capacity`
    /// requests.
    pub fn new(num_ramps: usize, capacity: usize) -> TuningWindow {
        assert!(capacity > 0);
        TuningWindow {
            num_ramps,
            capacity,
            entropies: vec![0.0; capacity * num_ramps],
            agrees: vec![false; capacity * num_ramps],
            exited: vec![None; capacity],
            correct: vec![false; capacity],
            batch_size: vec![0; capacity],
            head: 0,
            len: 0,
            hist: vec![0; num_ramps * HIST_BUCKETS],
            columns: ColumnCache::default(),
        }
    }

    /// Number of requests currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no requests are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of requests held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ramps per request.
    pub fn num_ramps(&self) -> usize {
        self.num_ramps
    }

    /// Algorithm 1 over the held requests: the same [`TuningOutcome`]
    /// (thresholds, evaluation, evaluation count) as
    /// [`greedy_tune`](crate::greedy_tune) over [`TuningWindow::records`],
    /// bit for bit, with each candidate scored by a scan of the window's
    /// bucketed columns. `savings_us[r]` is the latency an exit at ramp `r`
    /// saves. A tune of an unchanged window with the same savings and
    /// parameters returns the previous outcome.
    pub fn tune(&mut self, savings_us: &[f64], params: GreedyParams) -> TuningOutcome {
        // The columns read the slots they index, so they leave the window
        // for the tune.
        let mut columns = std::mem::take(&mut self.columns);
        let outcome = columns.tune(self, savings_us, params);
        self.columns = columns;
        outcome
    }

    /// Column entries this window's tunes have scanned, dead entries
    /// included: the tunes' deterministic work count.
    pub fn slots_visited(&self) -> u64 {
        self.columns.slots_visited
    }

    /// Entropy observed at `ramp` for the request in physical slot `slot`.
    ///
    /// Physical slots `0..len()` are always valid; the ring only moves its
    /// head once full, at which point every slot is occupied. Slot order is
    /// *not* arrival order — evaluation over the window is order-independent.
    #[inline]
    pub fn entropy(&self, slot: usize, ramp: usize) -> f64 {
        self.entropies[slot * self.num_ramps + ramp]
    }

    /// Whether `ramp`'s prediction agreed with the original model for the
    /// request in physical slot `slot`.
    #[inline]
    pub fn agrees(&self, slot: usize, ramp: usize) -> bool {
        self.agrees[slot * self.num_ramps + ramp]
    }

    /// Ramp `ramp`'s entropy histogram over the held requests: 64 buckets,
    /// bucket `b` counting entropies in `[b/64, (b+1)/64)` and the last one
    /// also 1.0.
    pub fn histogram(&self, ramp: usize) -> &[u32] {
        &self.hist[ramp * HIST_BUCKETS..(ramp + 1) * HIST_BUCKETS]
    }

    /// Append one request's observations, evicting the oldest once full.
    pub fn push(
        &mut self,
        observations: &[RampObservation],
        exited: Option<usize>,
        correct: bool,
        batch_size: u32,
    ) {
        debug_assert_eq!(observations.len(), self.num_ramps);
        let slot = if self.len == self.capacity {
            let evicted = self.head;
            // Retire the evicted slot's entropies from the histograms before
            // overwriting them.
            for r in 0..self.num_ramps {
                let bucket = hist_bucket(self.entropies[evicted * self.num_ramps + r]);
                self.hist[r * HIST_BUCKETS + bucket] -= 1;
            }
            self.head = (self.head + 1) % self.capacity;
            evicted
        } else {
            // Invariant: the head stays at 0 until the ring first fills, so
            // physical slots 0..len are exactly the occupied ones.
            let slot = (self.head + self.len) % self.capacity;
            self.len += 1;
            slot
        };
        let base = slot * self.num_ramps;
        for (r, obs) in observations.iter().enumerate() {
            self.entropies[base + r] = obs.entropy;
            self.agrees[base + r] = obs.agrees;
            self.hist[r * HIST_BUCKETS + hist_bucket(obs.entropy)] += 1;
        }
        self.exited[slot] = exited;
        self.correct[slot] = correct;
        self.batch_size[slot] = batch_size;
        self.columns.mark_stale();
    }

    /// Clear the window for a new ramp set of `num_ramps` ramps.
    pub fn clear_for_ramps(&mut self, num_ramps: usize) {
        self.num_ramps = num_ramps;
        self.entropies = vec![0.0; self.capacity * num_ramps];
        self.agrees = vec![false; self.capacity * num_ramps];
        self.exited.fill(None);
        self.correct.fill(false);
        self.batch_size.fill(0);
        self.head = 0;
        self.len = 0;
        self.hist = vec![0; num_ramps * HIST_BUCKETS];
        self.columns.mark_stale();
    }

    /// Materialise the window as per-request records, oldest first (the
    /// full-retune oracle path and offline consumers).
    pub fn records(&self) -> Vec<RequestFeedback> {
        (0..self.len)
            .map(|i| {
                let slot = (self.head + i) % self.capacity;
                let base = slot * self.num_ramps;
                RequestFeedback {
                    observations: (0..self.num_ramps)
                        .map(|r| RampObservation {
                            entropy: self.entropies[base + r],
                            agrees: self.agrees[base + r],
                        })
                        .collect(),
                    exited: self.exited[slot],
                    correct: self.correct[slot],
                    batch_size: self.batch_size[slot],
                }
            })
            .collect()
    }
}

/// A delivered request whose row is not yet in the tuning window.
#[derive(Debug, Clone, Copy)]
struct PendingRow {
    sample: SampleSemantics,
    exited: Option<usize>,
    correct: bool,
    batch_size: u32,
}

/// The controller's monitoring state.
#[derive(Debug, Clone)]
pub struct Monitor {
    num_ramps: usize,
    accuracy_capacity: usize,
    accuracy_window: VecDeque<bool>,
    /// Correct results in `accuracy_window`, kept as results enter and
    /// leave it.
    accuracy_correct: usize,
    tuning_window: TuningWindow,
    /// Requests delivered since the window was last read, oldest first; at
    /// most the window's capacity.
    pending: VecDeque<PendingRow>,
    ramp_exits: Vec<u64>,
    requests_since_adjust: u64,
    total_requests: u64,
}

impl Monitor {
    /// Create a monitor for `num_ramps` active ramps.
    pub fn new(num_ramps: usize, accuracy_capacity: usize, tuning_capacity: usize) -> Monitor {
        assert!(accuracy_capacity > 0 && tuning_capacity > 0);
        Monitor {
            num_ramps,
            accuracy_capacity,
            accuracy_window: VecDeque::with_capacity(accuracy_capacity),
            accuracy_correct: 0,
            tuning_window: TuningWindow::new(num_ramps, tuning_capacity),
            pending: VecDeque::new(),
            ramp_exits: vec![0; num_ramps],
            requests_since_adjust: 0,
            total_requests: 0,
        }
    }

    /// Number of ramps currently monitored.
    pub fn num_ramps(&self) -> usize {
        self.num_ramps
    }

    /// Shared bookkeeping for one request: everything except the tuning
    /// window's observation columns.
    #[inline]
    fn note_request(&mut self, exited: Option<usize>, correct: bool) {
        if self.accuracy_window.len() == self.accuracy_capacity {
            let evicted = self.accuracy_window.pop_front();
            self.accuracy_correct -= usize::from(evicted == Some(true));
        }
        self.accuracy_window.push_back(correct);
        self.accuracy_correct += usize::from(correct);
        if let Some(idx) = exited {
            if idx < self.num_ramps {
                self.ramp_exits[idx] += 1;
            }
        }
        self.requests_since_adjust += 1;
        self.total_requests += 1;
    }

    /// Record feedback for one request, row included: the eager reference
    /// [`Monitor::record_batch`]'s lazy rows are tested against. Only a
    /// monitor with no delivered request pending takes one, so rows always
    /// enter the window in arrival order.
    #[cfg(test)]
    pub(crate) fn record(&mut self, feedback: RequestFeedback) {
        debug_assert_eq!(feedback.observations.len(), self.num_ramps);
        assert!(
            self.pending.is_empty(),
            "an eager row must not enter the window ahead of pending rows"
        );
        self.note_request(feedback.exited, feedback.correct);
        self.tuning_window.push(
            &feedback.observations,
            feedback.exited,
            feedback.correct,
            feedback.batch_size,
        );
    }

    /// Ingest one delivered [`ProfileRecord`] wholesale: every request
    /// counts towards the accuracy window and exit counters at once, and
    /// queues for the tuning window until [`Monitor::tuning_window`] builds
    /// its row. A request the window would evict before then leaves the
    /// queue unbuilt.
    pub fn record_batch(&mut self, record: &ProfileRecord) {
        debug_assert_eq!(record.num_ramps, self.num_ramps);
        debug_assert_eq!(record.samples.len(), record.releases.len());
        for (sample, release) in record.samples.iter().zip(&record.releases) {
            self.note_request(release.exit, release.correct);
            if self.pending.len() == self.tuning_window.capacity() {
                // Its row would be evicted before any tune could read it.
                self.pending.pop_front();
            }
            self.pending.push_back(PendingRow {
                sample: *sample,
                exited: release.exit,
                correct: release.correct,
                batch_size: record.releases.len() as u32,
            });
        }
    }

    /// Accuracy over the short trigger window (1.0 when empty): the
    /// window's running count of correct results over its length.
    pub fn windowed_accuracy(&self) -> f64 {
        if self.accuracy_window.is_empty() {
            return 1.0;
        }
        self.accuracy_correct as f64 / self.accuracy_window.len() as f64
    }

    /// True once the trigger window has filled at least once.
    pub fn accuracy_window_full(&self) -> bool {
        self.accuracy_window.len() == self.accuracy_capacity
    }

    /// The columnar tuning window (the tuners' input), after the rows of
    /// every pending request enter it in arrival order: `observe` appends one
    /// request's row, an observation at each monitored ramp, to the buffer
    /// it is given.
    pub fn tuning_window(
        &mut self,
        mut observe: impl FnMut(&SampleSemantics, &mut Vec<RampObservation>),
    ) -> &mut TuningWindow {
        let mut row = Vec::with_capacity(self.num_ramps);
        for pending in self.pending.drain(..) {
            row.clear();
            observe(&pending.sample, &mut row);
            self.tuning_window
                .push(&row, pending.exited, pending.correct, pending.batch_size);
        }
        &mut self.tuning_window
    }

    /// Number of requests in the tuning window, pending rows included.
    pub fn tuning_window_len(&self) -> usize {
        (self.tuning_window.len() + self.pending.len()).min(self.tuning_window.capacity())
    }

    /// Per-ramp exit rates since the last ramp adjustment.
    pub fn exit_rates(&self) -> Vec<f64> {
        if self.requests_since_adjust == 0 {
            return vec![0.0; self.num_ramps];
        }
        self.ramp_exits
            .iter()
            .map(|&e| e as f64 / self.requests_since_adjust as f64)
            .collect()
    }

    /// Raw per-ramp exit counts since the last ramp adjustment.
    pub fn exit_counts(&self) -> &[u64] {
        &self.ramp_exits
    }

    /// Requests observed since the last ramp adjustment.
    pub fn requests_since_adjust(&self) -> u64 {
        self.requests_since_adjust
    }

    /// Start a new ramp-adjustment window: zero the per-ramp exit counts and
    /// the request count. The accuracy trigger window and the tuning window
    /// keep their contents.
    pub fn restart_adjust_window(&mut self) {
        self.ramp_exits.fill(0);
        self.requests_since_adjust = 0;
    }

    /// Total requests observed.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Reset ramp-aligned state after the active ramp set changed; previous
    /// observations no longer line up with the new ramp indices.
    pub fn reset_for_new_ramps(&mut self, num_ramps: usize) {
        self.num_ramps = num_ramps;
        self.ramp_exits = vec![0; num_ramps];
        self.requests_since_adjust = 0;
        self.tuning_window.clear_for_ramps(num_ramps);
        self.pending.clear();
        // The accuracy trigger window deliberately survives: accuracy is a
        // property of released results, not of any particular ramp set.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::{greedy_tune, ConfigEvaluation, ThresholdEvaluator};
    use apparate_exec::RequestRelease;
    use apparate_sim::DeterministicRng;

    /// The row builder of a monitor fed only through [`Monitor::record`].
    fn no_rows(_: &SampleSemantics, _: &mut Vec<RampObservation>) {
        unreachable!("a monitor fed row by row has no pending rows")
    }

    fn feedback(entropies: &[f64], exited: Option<usize>, correct: bool) -> RequestFeedback {
        RequestFeedback {
            observations: entropies
                .iter()
                .map(|&e| RampObservation {
                    entropy: e,
                    agrees: correct,
                })
                .collect(),
            exited,
            correct,
            batch_size: 4,
        }
    }

    #[test]
    fn accuracy_window_tracks_recent_results() {
        let mut m = Monitor::new(2, 4, 16);
        assert_eq!(m.windowed_accuracy(), 1.0);
        for _ in 0..4 {
            m.record(feedback(&[0.1, 0.1], Some(0), true));
        }
        assert!(m.accuracy_window_full());
        assert_eq!(m.windowed_accuracy(), 1.0);
        for _ in 0..2 {
            m.record(feedback(&[0.1, 0.1], Some(0), false));
        }
        assert!((m.windowed_accuracy() - 0.5).abs() < 1e-9);
        // The window slides: four more correct results push the errors out.
        for _ in 0..4 {
            m.record(feedback(&[0.1, 0.1], None, true));
        }
        assert_eq!(m.windowed_accuracy(), 1.0);
    }

    #[test]
    fn trigger_count_matches_a_recount_under_seeded_ingest() {
        let mut draws = DeterministicRng::new(5).stream(&[0]);
        let mut m = Monitor::new(3, 16, 32);
        let (mut evictions, mut resets, mut restarts, mut seed) = (0, 0, 0, 0u64);
        for _ in 0..400 {
            match draws.below(10) {
                0 => {
                    m.reset_for_new_ramps(1 + draws.below(4) as usize);
                    resets += 1;
                }
                1 => {
                    m.restart_adjust_window();
                    restarts += 1;
                }
                _ => {
                    let batch = 1 + draws.below(8) as usize;
                    let rows: Vec<RequestFeedback> = (0..batch)
                        .map(|_| {
                            let correct = draws.chance(0.7);
                            feedback(&vec![0.5; m.num_ramps()], None, correct)
                        })
                        .collect();
                    evictions += (m.accuracy_window.len() + batch).saturating_sub(16);
                    m.record_batch(&profile_record(&rows, seed));
                    seed += batch as u64;
                }
            }
            let recount = m.accuracy_window.iter().filter(|&&c| c).count();
            assert_eq!(m.accuracy_correct, recount);
            let want = if m.accuracy_window.is_empty() {
                1.0
            } else {
                recount as f64 / m.accuracy_window.len() as f64
            };
            assert_eq!(m.windowed_accuracy().to_bits(), want.to_bits());
        }
        assert!(evictions > 100 && resets > 10 && restarts > 10);
    }

    #[test]
    fn exit_rates_count_per_ramp() {
        let mut m = Monitor::new(3, 16, 64);
        for i in 0..10 {
            let exited = match i % 3 {
                0 => Some(0),
                1 => Some(2),
                _ => None,
            };
            m.record(feedback(&[0.5, 0.5, 0.5], exited, true));
        }
        let rates = m.exit_rates();
        assert!((rates[0] - 0.4).abs() < 1e-9);
        assert_eq!(rates[1], 0.0);
        assert!((rates[2] - 0.3).abs() < 1e-9);
        assert_eq!(m.requests_since_adjust(), 10);
        assert_eq!(m.exit_counts(), &[4, 0, 3]);
    }

    #[test]
    fn tuning_window_is_bounded() {
        let mut m = Monitor::new(1, 16, 8);
        for i in 0..20 {
            m.record(feedback(&[i as f64 / 20.0], None, true));
        }
        assert_eq!(m.tuning_window_len(), 8);
        let records = m.tuning_window(no_rows).records();
        // The oldest retained record is request 12 (entropy 0.6).
        assert!((records[0].observations[0].entropy - 0.6).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_ramp_state_but_keeps_accuracy() {
        let mut m = Monitor::new(2, 4, 8);
        for _ in 0..4 {
            m.record(feedback(&[0.1, 0.1], Some(1), false));
        }
        assert!(m.windowed_accuracy() < 1.0);
        m.reset_for_new_ramps(3);
        assert_eq!(m.num_ramps(), 3);
        assert_eq!(m.exit_counts(), &[0, 0, 0]);
        assert_eq!(m.requests_since_adjust(), 0);
        assert_eq!(m.tuning_window_len(), 0);
        // Accuracy history survives, so a violation can still trigger tuning
        // right after an adjustment.
        assert!(m.windowed_accuracy() < 1.0);
        assert_eq!(m.total_requests(), 4);
    }

    #[test]
    fn restart_adjust_window_zeroes_the_counts_and_keeps_both_windows() {
        let mut m = Monitor::new(2, 4, 8);
        for i in 0..6 {
            m.record(feedback(&[0.1, 0.6], Some(i % 2), i != 0));
        }
        let records = format!("{:?}", m.tuning_window(no_rows).records());
        let accuracy = m.windowed_accuracy();
        m.restart_adjust_window();
        assert_eq!(m.exit_counts(), &[0, 0]);
        assert_eq!(m.requests_since_adjust(), 0);
        assert_eq!(m.exit_rates(), vec![0.0, 0.0]);
        assert_eq!(m.windowed_accuracy(), accuracy);
        assert!(m.accuracy_window_full());
        assert_eq!(m.tuning_window_len(), 6);
        assert_eq!(format!("{:?}", m.tuning_window(no_rows).records()), records);
        assert_eq!(m.total_requests(), 6);
        // The next request counts from zero.
        m.record(feedback(&[0.1, 0.6], Some(1), true));
        assert_eq!(m.exit_counts(), &[0, 1]);
        assert_eq!(m.requests_since_adjust(), 1);
    }

    #[test]
    fn empty_exit_rates_are_zero() {
        let m = Monitor::new(2, 16, 64);
        assert_eq!(m.exit_rates(), vec![0.0, 0.0]);
    }

    /// Build a ProfileRecord carrying the given per-request feedback; request
    /// `i`'s sample seed is `first_seed + i`.
    fn profile_record(rows: &[RequestFeedback], first_seed: u64) -> ProfileRecord {
        let num_ramps = rows.first().map(|r| r.observations.len()).unwrap_or(0);
        ProfileRecord {
            num_ramps,
            samples: (first_seed..)
                .take(rows.len())
                .map(|seed| SampleSemantics::new(seed, 0.5))
                .collect(),
            releases: rows
                .iter()
                .enumerate()
                .map(|(i, r)| RequestRelease {
                    id: i as u64,
                    exit: r.exited,
                    correct: r.correct,
                })
                .collect(),
            config_epoch: 0,
            ramp_epoch: 0,
        }
    }

    #[test]
    fn record_batch_matches_per_request_ingest() {
        // Rows 0..12 and 12..20 arrive as two records, so each row carries
        // its record's batch size.
        let rows: Vec<RequestFeedback> = (0..20)
            .map(|i| RequestFeedback {
                batch_size: if i < 12 { 12 } else { 8 },
                ..feedback(
                    &[i as f64 / 20.0, 1.0 - i as f64 / 20.0],
                    if i % 3 == 0 { Some(i % 2) } else { None },
                    i % 5 != 0,
                )
            })
            .collect();
        let mut one_by_one = Monitor::new(2, 4, 8);
        for row in &rows {
            one_by_one.record(row.clone());
        }
        let mut batched = Monitor::new(2, 4, 8);
        batched.record_batch(&profile_record(&rows[..12], 0));
        batched.record_batch(&profile_record(&rows[12..], 12));
        assert_eq!(batched.windowed_accuracy(), one_by_one.windowed_accuracy());
        assert_eq!(batched.exit_counts(), one_by_one.exit_counts());
        assert_eq!(batched.total_requests(), one_by_one.total_requests());
        let b = one_by_one.tuning_window(no_rows).records();
        let mut built = 0;
        let window = batched.tuning_window(|sample, row| {
            built += 1;
            row.extend_from_slice(&rows[sample.seed as usize].observations);
        });
        let a = window.records();
        // Only the rows the 8-slot window keeps are built.
        assert_eq!(built, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.exited, y.exited);
            assert_eq!(x.correct, y.correct);
            assert_eq!(x.batch_size, y.batch_size);
            for (ox, oy) in x.observations.iter().zip(y.observations.iter()) {
                assert_eq!(ox.entropy, oy.entropy);
                assert_eq!(ox.agrees, oy.agrees);
            }
        }
    }

    /// Ramp `r`'s observation of sample `seed` in a seeded row table:
    /// entropies spread over (0, 1], agreement likelier at low entropy, so
    /// tunes open some ramps and stop at others.
    fn table_row(
        table: &DeterministicRng,
        seed: u64,
        num_ramps: usize,
        row: &mut Vec<RampObservation>,
    ) {
        row.extend((0..num_ramps as u64).map(|r| {
            let entropy = table.unit_draw(&[seed, r, 0]);
            RampObservation {
                entropy,
                agrees: table.unit_draw(&[seed, r, 1]) > 0.3 * entropy,
            }
        }));
    }

    /// Compare two tuning outcomes bit for bit, every field.
    fn assert_same_outcome(a: &TuningOutcome, b: &TuningOutcome) {
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.thresholds), bits(&b.thresholds));
        let eval_bits =
            |e: &ConfigEvaluation| [e.accuracy, e.mean_savings_us, e.exit_rate].map(f64::to_bits);
        assert_eq!(eval_bits(&a.evaluation), eval_bits(&b.evaluation));
        assert_eq!(a.evaluations, b.evaluations);
    }

    /// Tune an eagerly fed monitor's window and a lazily fed one's, and the
    /// greedy oracle over the lazy window's records: every answer, both
    /// windows' records, lengths and scan counts must agree. Returns the rows
    /// `lazy` built, the column entries its tune scanned and the number of
    /// ramps the tune opened.
    fn tune_both(
        eager: &mut Monitor,
        lazy: &mut Monitor,
        table: &DeterministicRng,
    ) -> (usize, u64, usize) {
        assert_eq!(lazy.tuning_window_len(), eager.tuning_window_len());
        let num_ramps = lazy.num_ramps();
        let savings: Vec<f64> = (0..num_ramps).map(|r| 90.0 - 12.0 * r as f64).collect();
        let params = GreedyParams {
            accuracy_loss_budget: 0.05,
            ..GreedyParams::default()
        };
        let mut built = 0;
        let window = lazy.tuning_window(|sample, row| {
            built += 1;
            table_row(table, sample.seed, num_ramps, row);
        });
        let visited = window.slots_visited();
        let lazy_tune = window.tune(&savings, params);
        let (records, scanned) = (window.records(), window.slots_visited() - visited);
        let window = eager.tuning_window(no_rows);
        let visited = window.slots_visited();
        let eager_tune = window.tune(&savings, params);
        assert_eq!(window.slots_visited() - visited, scanned);
        assert_eq!(format!("{records:?}"), format!("{:?}", window.records()));
        assert_eq!(lazy.tuning_window_len(), eager.tuning_window_len());
        assert_eq!(lazy.tuning_window_len(), records.len());
        assert_same_outcome(&lazy_tune, &eager_tune);
        let oracle = greedy_tune(&ThresholdEvaluator::new(&records, &savings), params);
        assert_same_outcome(&lazy_tune, &oracle);
        let opened = lazy_tune.thresholds.iter().filter(|&&t| t > 0.0).count();
        (built, scanned, opened)
    }

    #[test]
    fn pending_rows_tune_like_eager_rows() {
        // Checks before the window fills, after more rows than it holds
        // arrived since the last read, right after a ramp-set reset with rows
        // pending, and again with no new rows (the whole-outcome cache).
        let mut covered = [0usize; 4];
        let mut opened = 0;
        for case in 0..24u64 {
            let table = DeterministicRng::new(case);
            let mut draws = table.stream(&[u64::MAX]);
            let mut num_ramps = 1 + (case % 6) as usize;
            let capacity = 8 + draws.below(57) as usize;
            // Rare reads let the queue wrap; frequent ones read a filling window.
            let read_odds = 1 + case % 4;
            let mut eager = Monitor::new(num_ramps, 16, capacity);
            let mut lazy = Monitor::new(num_ramps, 16, capacity);
            let mut seed = 0u64;
            let mut delivered = 0;
            for _ in 0..80 {
                let batch = 1 + draws.below(12) as u32;
                let mut samples = Vec::new();
                let mut releases = Vec::new();
                for _ in 0..batch {
                    let mut observations = Vec::new();
                    table_row(&table, seed, num_ramps, &mut observations);
                    let exit = observations.iter().position(|o| o.entropy < 0.2);
                    let correct = exit.is_none_or(|r| observations[r].agrees);
                    eager.record(RequestFeedback {
                        observations,
                        exited: exit,
                        correct,
                        batch_size: batch,
                    });
                    samples.push(SampleSemantics::new(seed, 0.5));
                    releases.push(RequestRelease {
                        id: seed,
                        exit,
                        correct,
                    });
                    seed += 1;
                }
                lazy.record_batch(&ProfileRecord {
                    num_ramps,
                    samples,
                    releases,
                    config_epoch: 0,
                    ramp_epoch: 0,
                });
                delivered += batch as usize;
                match draws.below(12) {
                    0 => {
                        num_ramps = 1 + draws.below(6) as usize;
                        eager.reset_for_new_ramps(num_ramps);
                        lazy.reset_for_new_ramps(num_ramps);
                        delivered = 0;
                        covered[2] += 1;
                    }
                    k if k < read_odds => {}
                    _ => continue,
                }
                let full = lazy.tuning_window_len() == capacity;
                covered[0] += usize::from(!full);
                covered[1] += usize::from(delivered > capacity);
                let (built, _, open) = tune_both(&mut eager, &mut lazy, &table);
                assert_eq!(built, delivered.min(capacity), "one row per kept request");
                delivered = 0;
                opened += open;
                if draws.chance(0.5) {
                    let again = tune_both(&mut eager, &mut lazy, &table);
                    assert_eq!(again, (0, 0, open), "no new row, no scan");
                    covered[3] += 1;
                }
            }
        }
        assert!(
            covered.iter().all(|&n| n >= 20),
            "every case covered: {covered:?}"
        );
        assert!(opened > 0, "some tune must open a ramp");
    }

    #[test]
    fn window_histograms_track_pushes_and_evictions() {
        let mut w = TuningWindow::new(1, 4);
        for i in 0..4 {
            w.push(
                &[RampObservation {
                    entropy: 0.1 + 0.2 * i as f64,
                    agrees: true,
                }],
                None,
                true,
                1,
            );
        }
        // Mass at 0.1, 0.3, 0.5, 0.7; nothing from 0.8 up.
        let held = |w: &TuningWindow, lo: f64, hi: f64| -> u32 {
            w.histogram(0)[hist_bucket(lo)..=hist_bucket(hi)]
                .iter()
                .sum()
        };
        assert_eq!(w.histogram(0).len(), HIST_BUCKETS);
        assert_eq!(held(&w, 0.0, 1.0), 4);
        assert_eq!(held(&w, 0.8, 1.0), 0);
        for e in [0.1, 0.3, 0.5, 0.7] {
            assert_eq!(w.histogram(0)[hist_bucket(e)], 1, "entropy {e}");
        }
        // Evict 0.1 (oldest) by pushing 0.9: low range empties, high fills.
        w.push(
            &[RampObservation {
                entropy: 0.9,
                agrees: true,
            }],
            None,
            true,
            1,
        );
        assert_eq!(held(&w, 0.0, 0.05), 0);
        assert_eq!(w.histogram(0)[hist_bucket(0.1)], 0);
        assert_eq!(held(&w, 0.8, 1.0), 1);
        assert_eq!(held(&w, 0.0, 1.0), 4);
        assert_eq!(w.len(), 4);
        // The materialised view drops the evicted record.
        let records = w.records();
        assert!((records[0].observations[0].entropy - 0.3).abs() < 1e-12);
        assert!((records[3].observations[0].entropy - 0.9).abs() < 1e-12);
    }

    #[test]
    fn pushes_and_clears_keep_every_ramp_histogram() {
        let mut w = TuningWindow::new(2, 4);
        w.push(
            &[
                RampObservation {
                    entropy: 0.2,
                    agrees: true,
                },
                RampObservation {
                    entropy: 0.4,
                    agrees: false,
                },
            ],
            Some(0),
            true,
            2,
        );
        // One push enters every ramp's histogram.
        assert_eq!(w.histogram(0)[hist_bucket(0.2)], 1);
        assert_eq!(w.histogram(1)[hist_bucket(0.4)], 1);
        w.clear_for_ramps(3);
        assert_eq!(w.num_ramps(), 3);
        assert_eq!(w.len(), 0);
        assert!((0..3).all(|r| w.histogram(r).iter().all(|&c| c == 0)));
    }
}
