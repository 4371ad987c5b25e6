//! Synthetic generative workloads: text summarisation (CNN/DailyMail-like)
//! and question answering (SQuAD-like).
//!
//! Each request produces an output sequence; each *token* of that sequence is
//! a semantic sample for the ramp model. Two properties matter (§4.3):
//!
//! * auto-regressive generation has strong *within-sequence continuity*
//!   (shared state across tokens), so token difficulty is highly correlated
//!   inside a sequence — this is why Apparate tracks the optimal more closely
//!   here than for NLP classification;
//! * output lengths vary a lot (and are unpredictable), which is why
//!   generative serving uses continuous batching rather than SLOs.

use apparate_exec::SampleSemantics;
use apparate_sim::DeterministicRng;
use serde::{Deserialize, Serialize};

/// The generative task being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GenerativeTask {
    /// CNN/DailyMail-style abstractive summarisation: longer outputs.
    Summarization,
    /// SQuAD-style extractive question answering: short outputs.
    QuestionAnswering,
}

impl GenerativeTask {
    /// Canonical dataset name used in reports.
    pub fn dataset_name(self) -> &'static str {
        match self {
            GenerativeTask::Summarization => "cnn-dailymail",
            GenerativeTask::QuestionAnswering => "squad",
        }
    }
}

/// Configuration of a generative workload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GenerativeConfig {
    /// The task.
    pub task: GenerativeTask,
    /// Number of requests.
    pub requests: usize,
    /// Mean difficulty of the token stream (lower = more skippable tokens).
    pub mean_difficulty: f64,
    /// Within-sequence AR(1) coefficient for token difficulty.
    pub continuity: f64,
}

impl GenerativeConfig {
    /// Defaults for a task.
    pub fn for_task(task: GenerativeTask, requests: usize) -> GenerativeConfig {
        match task {
            GenerativeTask::Summarization => GenerativeConfig {
                task,
                requests,
                mean_difficulty: 0.30,
                continuity: 0.85,
            },
            GenerativeTask::QuestionAnswering => GenerativeConfig {
                task,
                requests,
                mean_difficulty: 0.35,
                continuity: 0.80,
            },
        }
    }
}

/// One generative request: its output length and sequence-level mean
/// difficulty, from which the workload derives each token's difficulty
/// once, when it is generated.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SequenceSpec {
    /// Request id (index in the workload).
    pub request_id: u64,
    /// Number of output tokens.
    pub output_tokens: u32,
    /// Sequence-level mean difficulty.
    pub sequence_mean: f64,
}

/// Lags of the AR(1) token-difficulty window: 8 captures > 99 % of the mass
/// for continuity <= 0.9.
const AR_WINDOW: usize = 8;

/// Standard deviation of a token's difficulty innovation.
const INNOVATION_SCALE: f64 = 0.12;

/// A generative workload: a set of sequences plus every token's difficulty,
/// drawn once from a deterministic per-token model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerativeWorkload {
    /// The dataset this mimics.
    pub task: GenerativeTask,
    sequences: Vec<SequenceSpec>,
    /// Every token's difficulty, sequence after sequence.
    difficulties: Vec<f64>,
    /// Where each sequence's tokens start in `difficulties`, plus the end of
    /// the last one (one entry more than `sequences`).
    token_starts: Vec<usize>,
    seed: u64,
}

impl GenerativeWorkload {
    /// Build a workload.
    pub fn generate(config: GenerativeConfig, seed: u64) -> GenerativeWorkload {
        let rng = DeterministicRng::new(seed).child(0x6E6E_7A7A);
        let mut stream = rng.stream(&[config.task as u64]);
        let sequences: Vec<SequenceSpec> = (0..config.requests)
            .map(|i| {
                let output_tokens = match config.task {
                    GenerativeTask::Summarization => {
                        stream.normal_with(60.0, 18.0).clamp(16.0, 128.0) as u32
                    }
                    GenerativeTask::QuestionAnswering => {
                        stream.normal_with(18.0, 8.0).clamp(3.0, 48.0) as u32
                    }
                };
                let sequence_mean =
                    (config.mean_difficulty + stream.normal_with(0.0, 0.12)).clamp(0.02, 0.95);
                SequenceSpec {
                    request_id: i as u64,
                    output_tokens,
                    sequence_mean,
                }
            })
            .collect();
        // Token difficulty follows a stationary AR(1) around the sequence
        // mean, approximated by the last AR_WINDOW innovations with
        // geometrically decaying weights. Each innovation is drawn once per
        // token and read by up to AR_WINDOW tokens.
        let mut weights = [0.0; AR_WINDOW];
        let mut weight = (1.0 - config.continuity * config.continuity).sqrt();
        for w in &mut weights {
            *w = weight;
            weight *= config.continuity;
        }
        let total: usize = sequences.iter().map(|s| s.output_tokens as usize).sum();
        let mut difficulties = Vec::with_capacity(total);
        let mut token_starts = Vec::with_capacity(sequences.len() + 1);
        let mut innovations = Vec::new();
        for spec in &sequences {
            token_starts.push(difficulties.len());
            let keys = DeterministicRng::new(seed)
                .child(0x70CE4 + spec.request_id)
                .keyed(&[]);
            innovations.clear();
            innovations.extend(
                (0..spec.output_tokens).map(|t| keys.then(t as u64).normal() * INNOVATION_SCALE),
            );
            difficulties.extend((0..innovations.len()).map(|t| {
                // Newest innovation first: the sum keeps the order the
                // tables are pinned to.
                let deviation = weights
                    .iter()
                    .zip(innovations[..=t].iter().rev())
                    .fold(0.0, |deviation, (w, x)| deviation + w * x);
                (spec.sequence_mean + deviation).clamp(0.0, 1.0)
            }));
        }
        token_starts.push(difficulties.len());
        GenerativeWorkload {
            task: config.task,
            sequences,
            difficulties,
            token_starts,
            seed,
        }
    }

    /// The sequences, in request order.
    pub fn sequences(&self) -> &[SequenceSpec] {
        &self.sequences
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True if the workload has no requests.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Total number of tokens across all sequences.
    pub fn total_tokens(&self) -> u64 {
        self.difficulties.len() as u64
    }

    /// Deterministic semantics of token `token_index` of request `request_id`:
    /// the token's tabled difficulty and a closed-form seed, the same
    /// however often and in whatever order tokens are queried.
    ///
    /// # Panics
    ///
    /// If the request does not exist or has no token `token_index`.
    pub fn token_semantics(&self, request_id: u64, token_index: u32) -> SampleSemantics {
        let r = request_id as usize;
        let tokens = &self.difficulties[self.token_starts[r]..self.token_starts[r + 1]];
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(request_id << 20)
            .wrapping_add(token_index as u64);
        SampleSemantics::new(seed, tokens[token_index as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(task: GenerativeTask) -> GenerativeWorkload {
        GenerativeWorkload::generate(GenerativeConfig::for_task(task, 200), 13)
    }

    /// `token_semantics` as it was before the token table: the token's
    /// difficulty re-derived in closed form, its eight innovations drawn
    /// afresh on every call.
    fn reference_token_semantics(
        w: &GenerativeWorkload,
        continuity: f64,
        request_id: u64,
        token_index: u32,
    ) -> SampleSemantics {
        let spec = &w.sequences()[request_id as usize];
        let rng = DeterministicRng::new(w.seed).child(0x70CE4 + request_id);
        let mut deviation = 0.0f64;
        let mut weight = (1.0 - continuity * continuity).sqrt();
        for lag in 0..8u32 {
            if lag > token_index {
                break;
            }
            let innovation = rng.normal_draw(&[(token_index - lag) as u64]) * 0.12;
            deviation += weight * innovation;
            weight *= continuity;
        }
        let difficulty = (spec.sequence_mean + deviation).clamp(0.0, 1.0);
        let seed = w
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(request_id << 20)
            .wrapping_add(token_index as u64);
        SampleSemantics::new(seed, difficulty)
    }

    #[test]
    fn token_table_matches_the_closed_form_derivation_bit_for_bit() {
        for task in [
            GenerativeTask::Summarization,
            GenerativeTask::QuestionAnswering,
        ] {
            let config = GenerativeConfig::for_task(task, 60);
            for seed in [42, 7] {
                let w = GenerativeWorkload::generate(config, seed);
                for spec in w.sequences() {
                    for t in 0..spec.output_tokens {
                        let want =
                            reference_token_semantics(&w, config.continuity, spec.request_id, t);
                        let got = w.token_semantics(spec.request_id, t);
                        assert_eq!(got.difficulty.to_bits(), want.difficulty.to_bits());
                        assert_eq!(got.seed, want.seed);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn tokens_past_a_sequence_end_are_rejected() {
        let w = workload(GenerativeTask::QuestionAnswering);
        let spec = w.sequences()[0];
        w.token_semantics(spec.request_id, spec.output_tokens);
    }

    #[test]
    fn summarization_outputs_are_longer_than_qa() {
        let summ = workload(GenerativeTask::Summarization);
        let qa = workload(GenerativeTask::QuestionAnswering);
        let mean_len = |w: &GenerativeWorkload| {
            w.sequences()
                .iter()
                .map(|s| s.output_tokens as f64)
                .sum::<f64>()
                / w.len() as f64
        };
        assert!(mean_len(&summ) > 2.0 * mean_len(&qa));
        assert_eq!(summ.task.dataset_name(), "cnn-dailymail");
        assert_eq!(qa.task.dataset_name(), "squad");
    }

    #[test]
    fn token_semantics_are_deterministic_and_bounded() {
        let w = workload(GenerativeTask::Summarization);
        let a = w.token_semantics(5, 10);
        let b = w.token_semantics(5, 10);
        assert_eq!(a.difficulty.to_bits(), b.difficulty.to_bits());
        assert_eq!(a.seed, b.seed);
        for r in 0..10u64 {
            for t in 0..20u32 {
                let s = w.token_semantics(r, t);
                assert!((0.0..=1.0).contains(&s.difficulty));
            }
        }
    }

    #[test]
    fn tokens_within_a_sequence_are_correlated() {
        let w = workload(GenerativeTask::Summarization);
        // Compare within-sequence variance to across-sequence variance of
        // difficulty: continuity should make within much smaller.
        let mut within = Vec::new();
        let mut means = Vec::new();
        for spec in w.sequences().iter().take(50) {
            let ds: Vec<f64> = (0..spec.output_tokens)
                .map(|t| w.token_semantics(spec.request_id, t).difficulty)
                .collect();
            let mean = ds.iter().sum::<f64>() / ds.len() as f64;
            let var = ds.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / ds.len() as f64;
            within.push(var);
            means.push(mean);
        }
        let mean_within = within.iter().sum::<f64>() / within.len() as f64;
        let grand = means.iter().sum::<f64>() / means.len() as f64;
        let across = means.iter().map(|m| (m - grand).powi(2)).sum::<f64>() / means.len() as f64;
        assert!(
            mean_within < across,
            "within-sequence variance {mean_within} should be below across-sequence {across}"
        );
    }

    #[test]
    fn unique_seeds_per_token() {
        let w = workload(GenerativeTask::QuestionAnswering);
        let a = w.token_semantics(1, 2).seed;
        let b = w.token_semantics(1, 3).seed;
        let c = w.token_semantics(2, 2).seed;
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn total_tokens_adds_up() {
        let w = workload(GenerativeTask::QuestionAnswering);
        let sum: u64 = w.sequences().iter().map(|s| s.output_tokens as u64).sum();
        assert_eq!(w.total_tokens(), sum);
        assert!(!w.is_empty());
    }
}
