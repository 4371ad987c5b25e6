//! The ramp-semantics model: what a trained exit ramp *would observe* for a
//! given input at a given model depth.
//!
//! The real system trains small ramps and reads their softmax entropy; the
//! reproduction replaces that with a calibrated stochastic model. What matters
//! for Apparate's algorithms is not the absolute numbers but the structural
//! properties the paper's design relies on:
//!
//! 1. **Threshold monotonicity** (§3.2): for a fixed ramp, raising the exit
//!    threshold admits a superset of inputs, so latency savings rise and
//!    accuracy falls monotonically. We guarantee this by deriving exit
//!    decisions from a single per-(input, ramp) entropy value.
//! 2. **Depth monotonicity** (§3.3): under the same threshold, a deeper ramp
//!    exits (weakly) more inputs than a shallower one, because it sees more of
//!    the original model's computation. We guarantee this by making the
//!    latent margin increase with depth while holding the per-input noise
//!    fixed across depths.
//! 3. **Determinism / order independence**: the observation for (input, ramp
//!    site) is a pure function of the workload seed, so oracles, counterfactual
//!    threshold evaluations and candidate-ramp estimates all see exactly what
//!    the live system saw. This uses keyed draws
//!    ([`DeterministicRng::keyed`]): an input's share of the keys is drawn
//!    once ([`SemanticsModel::input`]) and extended per ramp
//!    ([`SemanticsModel::observe_with`]). A comparison that reads no value
//!    (the first-exit scan's entropy against its threshold, and agreement)
//!    bounds each noise before drawing it: first by the worst case, as no
//!    draw exceeds [`NORMAL_BOUND`] standard deviations, then by the
//!    draw's own bracket ([`NormalUnits::bounds`], from its two unit draws
//!    without `ln`, `sqrt` or `cos`). The noise is drawn only when both
//!    straddle the comparison. Rounding is monotone, so every answer is the
//!    exact draw's, and every value a caller keeps is drawn exactly.
//!
//! # The first-exit scan
//!
//! [`ExecutionPlan::first_exit`](crate::ExecutionPlan::first_exit) releases
//! a result at the first ramp whose entropy is at or below its threshold,
//! and reads no entropy. Each site it visits decides in this order, and
//! stops at the first step that settles it ([`ScanStep`]):
//!
//! 1. **Worst-case floor.** The entropy's floor, at the top of the margin
//!    perturbation's bracket and the worst-case entropy noise, is above the
//!    threshold: no exit, and the entropy noise is never drawn.
//! 2. **Own-noise floor.** The same floor at the entropy noise's own bracket
//!    is above the threshold: no exit.
//! 3. **Own-noise ceiling.** The entropy's ceiling, at the bottom of the
//!    margin bracket and the top of the entropy noise's bracket, is at or
//!    below the threshold: the site exits, and agreement is decided from
//!    the margin bracket as [`SemanticsModel::agrees_with`] decides it.
//! 4. **Exact draw.** Both noises are drawn (Box–Muller) and the entropy is
//!    compared exactly.
//!
//! Only the last step pays `ln`, `sqrt` and `cos`, and no step before it
//! pays an `exp`. The clean entropy is 1/(1 + x) with x = exp(margin/T),
//! falling as the margin rises. The floor and the ceiling take x as a
//! product of three factors: exp(power/T), cached per plan ramp;
//! exp((input noise − difficulty)/T), once per scanned input; and
//! exp(RAMP_NOISE·n/T) at an end n of the margin perturbation's bracket,
//! tabulated per [`NormalUnits::bracket_index`]. The product is within
//! about 1e-15 (relative) of the `exp` of the sum the exact step computes,
//! far inside the `EXP_GUARD` slack each bound carries, and floating-point
//! rounding is monotone. So the floor is never above, and the ceiling never
//! below, the entropy the exact step would compute, and every site decides
//! as the exact draw does.
//!
//! # Rows
//!
//! A tuning-window or calibration-window row
//! ([`ExecutionPlan::observe_into`](crate::ExecutionPlan::observe_into))
//! keeps every ramp's entropy, so every cell is drawn exactly: each pays
//! two Box–Muller draws and one `exp`. The row is built `ROW_CHUNK` (16)
//! ramps at a time, in stack arrays, and each chunk runs in four phases,
//! each a loop over cells that do not depend on one another:
//!
//! 1. every cell's key chain, base margin and unit draws (the margin
//!    perturbation's and the entropy noise's);
//! 2. every margin: the margin perturbation's Box–Muller draw;
//! 3. every entropy: the `exp`, the entropy noise's Box–Muller draw and the
//!    clamp;
//! 4. every agreement, bracketed as above.
//!
//! So the `ln`, `cos` and `exp` calls of different cells overlap instead of
//! waiting on one another. Each cell keeps [`SemanticsModel::observe_with`]'s
//! expressions and operand order, which stays as the per-cell reference:
//! only the order in which the cells' steps run changes, and every row is
//! bit for bit the per-cell one.
//!
//! Calibration knob: the model descriptor's `overparameterization` value. High
//! values (CV models) mean most inputs are predictable very early; lower
//! values (BERT/GPT2 sentiment) push exits towards the middle of the model,
//! which is what produces the paper's CV-vs-NLP win gap.

use apparate_sim::{bracket_at, DeterministicRng, KeyChain, NormalUnits, BRACKETS, NORMAL_BOUND};
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// Semantic description of one input (or one generated token), produced by
/// the workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleSemantics {
    /// Stable identifier used to key deterministic draws.
    pub seed: u64,
    /// Intrinsic difficulty in `[0, 1]`: the fraction of the model's
    /// predictive power needed to classify/generate this input the same way
    /// the full model does. Easy inputs (small values) can exit early.
    pub difficulty: f64,
}

impl SampleSemantics {
    /// Construct, clamping difficulty into `[0, 1]`.
    pub fn new(seed: u64, difficulty: f64) -> Self {
        SampleSemantics {
            seed,
            difficulty: difficulty.clamp(0.0, 1.0),
        }
    }
}

/// What a ramp reports for one input: the paper streams exactly this pair from
/// the GPU to the controller ("simply a top-predicted result with an error
/// score", §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RampObservation {
    /// Prediction-uncertainty score in `[0, 1]`; an input exits iff
    /// `entropy <= threshold`. Threshold 0 therefore disables exiting.
    pub entropy: f64,
    /// Whether the ramp's top prediction matches the original model's output.
    /// This is the accuracy ground truth Apparate gets for free because inputs
    /// always run to completion.
    pub agrees: bool,
}

/// Standard deviation of the per-input margin noise, identical at every
/// depth.
const INPUT_NOISE: f64 = 0.03;
/// Standard deviation of the per-(input, ramp) margin perturbation; small,
/// it only breaks ties between nearby ramps.
const RAMP_NOISE: f64 = 0.015;
/// Standard deviation of the observation noise on the entropy signal.
const ENTROPY_NOISE: f64 = 0.04;
/// Standard deviation of the noise on the agreement margin.
///
/// Calibrated against the paper's NLP median wins (40–90 %, Figure 13): the
/// agreement margin must be tighter than the entropy signal's temperature,
/// otherwise boundary exits at shallow ramps flip agreement so often that
/// threshold tuning systematically over-prices them and exits collapse onto
/// the deepest ramps (no latency win). Ramp imperfection is already modelled
/// by `capacity` and the per-ramp margin perturbation, so this noise only
/// captures readout disagreement at near-zero margin.
const AGREEMENT_NOISE: f64 = 0.02;
/// Temperature of the margin → entropy mapping.
const TEMPERATURE: f64 = 0.08;

/// Slack on each bound of the entropy, for the last-bit errors of `exp`
/// and of the product of factors that stands in for it: the entropy at an
/// end of a margin bracket may round a hair past the entropy at a margin
/// inside it.
const EXP_GUARD: f64 = 1e-9;

/// exp(RAMP_NOISE · n / TEMPERATURE) at the low and the high end `n` of
/// every bracket [`NormalUnits::bounds`] returns, by
/// [`NormalUnits::bracket_index`]: the margin perturbation's factor of x
/// (see the module doc) at either end of a site's margin bracket, without
/// an `exp` per site. Built once, [`BRACKETS`] × 16 bytes (about 68 KB).
static RAMP_NOISE_FACTORS: LazyLock<Box<[[f64; 2]]>> = LazyLock::new(|| {
    let factor = |n: f64| (n * RAMP_NOISE / TEMPERATURE).exp();
    (0..BRACKETS)
        .map(|index| {
            let (lo, hi) = bracket_at(index);
            [factor(lo), factor(hi)]
        })
        .collect()
});

/// exp(power / TEMPERATURE): a ramp's factor of x in a first-exit scan,
/// cached per plan ramp.
pub(crate) fn power_factor(power: f64) -> f64 {
    (power / TEMPERATURE).exp()
}

/// Entropy before observation noise: logistic in the negative margin, i.e.
/// confident (low entropy) when power comfortably exceeds difficulty.
#[inline]
fn clean_entropy(margin: f64) -> f64 {
    1.0 / (1.0 + (margin / TEMPERATURE).exp())
}

/// The observed entropy: `clean` plus the entropy noise `noise` (a standard
/// normal), clamped into `[0, 1]`. Monotone in both arguments.
#[inline]
fn entropy(clean: f64, noise: f64) -> f64 {
    (clean + noise * ENTROPY_NOISE).clamp(0.0, 1.0)
}

/// Whether `x + n · scale > 0` for every `x` in `[x_lo, x_hi]` and every `n`
/// in `[n_lo, n_hi]` (`Some(true)`), for none of them (`Some(false)`), or
/// `None` if the brackets straddle zero. Floating-point rounding is
/// monotone, so the answer holds for every value in the brackets.
#[inline]
fn sum_is_positive((x_lo, x_hi): (f64, f64), (n_lo, n_hi): (f64, f64), scale: f64) -> Option<bool> {
    if x_lo + n_lo * scale > 0.0 {
        Some(true)
    } else if x_hi + n_hi * scale <= 0.0 {
        Some(false)
    } else {
        None
    }
}

/// The bracket every standard-normal draw lies in.
const ANY_NORMAL: (f64, f64) = (-NORMAL_BOUND, NORMAL_BOUND);

/// Ramps per chunk of a phased row (see
/// [`ExecutionPlan::observe_into`](crate::ExecutionPlan::observe_into)):
/// one chunk's draws live in stack arrays of this length.
pub(crate) const ROW_CHUNK: usize = 16;

/// Which step of a first-exit scan settled one site, in the order the scan
/// tries them (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStep {
    /// The entropy floor under the worst-case entropy noise is above the
    /// threshold: no exit.
    WorstFloor,
    /// The entropy floor under the entropy noise's own bracket is above the
    /// threshold: no exit.
    OwnFloor,
    /// The entropy ceiling is at or below the threshold: the site exits.
    Ceiling,
    /// The brackets straddle the threshold: both noises are drawn.
    Exact,
}

/// How many scan sites each [`ScanStep`] settled, as
/// [`ExecutionPlan::first_exit_counting`](crate::ExecutionPlan::first_exit_counting)
/// counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSteps {
    /// Sites settled by [`ScanStep::WorstFloor`].
    pub worst_floor: u64,
    /// Sites settled by [`ScanStep::OwnFloor`].
    pub own_floor: u64,
    /// Sites settled by [`ScanStep::Ceiling`].
    pub ceiling: u64,
    /// Sites settled by [`ScanStep::Exact`].
    pub exact: u64,
}

impl ScanSteps {
    /// Count one site settled by `step`.
    pub fn record(&mut self, step: ScanStep) {
        *match step {
            ScanStep::WorstFloor => &mut self.worst_floor,
            ScanStep::OwnFloor => &mut self.own_floor,
            ScanStep::Ceiling => &mut self.ceiling,
            ScanStep::Exact => &mut self.exact,
        } += 1;
    }

    /// Every site counted.
    pub fn sites(&self) -> u64 {
        self.worst_floor + self.own_floor + self.ceiling + self.exact
    }
}

/// The per-input part of a sample's ramp observations, shared by every ramp:
/// the sample's key chain, its difficulty and its depth-independent noise.
/// Built by [`SemanticsModel::input`].
#[derive(Debug, Clone, Copy)]
pub struct InputDraws {
    /// Key chain after the sample's seed; each ramp extends it by its key.
    chain: KeyChain,
    difficulty: f64,
    /// Per-input margin noise, identical at every depth.
    input_noise: f64,
}

impl InputDraws {
    /// exp((input noise − difficulty) / TEMPERATURE): the input's factor of
    /// x at every site of a first-exit scan, computed once per scanned input.
    #[inline]
    pub(crate) fn exp_factor(&self) -> f64 {
        ((self.input_noise - self.difficulty) / TEMPERATURE).exp()
    }
}

/// One (input, ramp) pair's key chain, the part of its latent margin that
/// needs no draw of its own, and the unit draws of its margin perturbation.
/// The entropy and agreement noises extend the chain. A caller that only
/// compares reads a noise's bounds first and draws the noise itself only
/// when they straddle the comparison.
#[derive(Clone, Copy)]
struct RampDraws {
    chain: KeyChain,
    /// Ramp power minus input difficulty plus the input noise.
    base: f64,
    /// The stable per-(input, ramp) margin perturbation.
    ramp_noise: NormalUnits,
}

impl RampDraws {
    #[inline]
    fn new(input: &InputDraws, ramp_key: u64, power: f64) -> RampDraws {
        let chain = input.chain.then(ramp_key);
        RampDraws {
            chain,
            base: power - input.difficulty + input.input_noise,
            ramp_noise: chain.then(2).normal_units(),
        }
    }

    /// The latent margin between ramp power and input difficulty at the
    /// perturbation `noise` (a standard normal), monotone in `noise`. The
    /// sum keeps this order: floating-point addition is not associative, and
    /// every table is pinned to these exact bits.
    #[inline]
    fn margin_at(self, noise: f64) -> f64 {
        self.base + noise * RAMP_NOISE
    }

    /// The latent margin.
    #[inline]
    fn margin(self) -> f64 {
        self.margin_at(self.ramp_noise.normal())
    }

    /// Positive margin plus agreement noise means the ramp's best guess
    /// matches the full model, with a little slack for ramp imperfection.
    /// The margin lies in `bracket`, and `margin` computes it; each is read
    /// only if the bounds before it leave the answer open.
    #[inline]
    fn agrees(self, bracket: (f64, f64), margin: impl FnOnce() -> f64) -> bool {
        // No draw exceeds NORMAL_BOUND: a margin beyond it needs no noise.
        if let Some(agrees) = sum_is_positive(bracket, ANY_NORMAL, AGREEMENT_NOISE) {
            return agrees;
        }
        let noise = self.chain.then(4).normal_units();
        sum_is_positive(bracket, noise.bounds(), AGREEMENT_NOISE)
            .unwrap_or_else(|| margin() + noise.normal() * AGREEMENT_NOISE > 0.0)
    }

    /// [`RampDraws::agrees`] with the margin bracketed by the margin
    /// perturbation's bounds, drawn only if they leave the answer open.
    #[inline]
    fn agrees_in_bracket(self) -> bool {
        let (lo, hi) = self.ramp_noise.bounds();
        self.agrees((self.margin_at(lo), self.margin_at(hi)), || self.margin())
    }
}

/// Calibrated semantics model for one served model.
#[derive(Debug, Clone)]
pub struct SemanticsModel {
    rng: DeterministicRng,
    overparameterization: f64,
}

impl SemanticsModel {
    /// Build a semantics model for a served model.
    ///
    /// `overparameterization` comes from the model descriptor; `seed` should
    /// be derived from the experiment seed so runs are reproducible.
    pub fn new(seed: u64, overparameterization: f64) -> SemanticsModel {
        SemanticsModel {
            rng: DeterministicRng::new(seed).child(0x5EED_5EED),
            overparameterization: overparameterization.clamp(0.0, 1.0),
        }
    }

    /// The predictive power available to a ramp placed after a fraction
    /// `depth_fraction ∈ [0, 1]` of the model's blocks, scaled by the ramp's
    /// `capacity ∈ [0, 1]` (how well its architecture + training approximate
    /// an ideal readout of those intermediates).
    ///
    /// At depth 1.0 with capacity 1.0 the power is 1.0 (the ramp *is* the
    /// model head); at depth 0 it is `overparameterization`-dependent but
    /// non-zero — overparameterised models already encode easy inputs early.
    pub fn ramp_power(&self, depth_fraction: f64, capacity: f64) -> f64 {
        let p = depth_fraction.clamp(0.0, 1.0);
        let c = capacity.clamp(0.0, 1.0);
        // Early power grows with overparameterisation; the exponent keeps the
        // curve concave so power accrues quickly at first for high overparam.
        let floor = 0.55 * self.overparameterization;
        let exponent = 1.6 - self.overparameterization;
        let power = floor + (1.0 - floor) * p.powf(exponent.max(0.2));
        (power * c).clamp(0.0, 1.0)
    }

    /// The per-input part of every ramp observation of `sample`: its key
    /// chain, its difficulty and its depth-independent input noise. Draw it
    /// once per input and pass it to [`SemanticsModel::observe_with`] for
    /// each ramp.
    #[inline]
    pub fn input(&self, sample: &SampleSemantics) -> InputDraws {
        let chain = self.rng.keyed(&[sample.seed]);
        InputDraws {
            chain,
            difficulty: sample.difficulty,
            // The per-input noise must be identical across depths so that
            // margin is monotone in depth for each individual input.
            input_noise: chain.then(1).normal() * INPUT_NOISE,
        }
    }

    /// Observe what the ramp at `ramp_key` (a stable site identifier, e.g.
    /// the layer id) with predictive power `power` (see
    /// [`SemanticsModel::ramp_power`]) reports for the input `input` was
    /// drawn from. Bit-identical to [`SemanticsModel::observe`] with the
    /// depth and capacity `power` was computed from.
    #[inline]
    pub fn observe_with(&self, input: &InputDraws, ramp_key: u64, power: f64) -> RampObservation {
        let ramp = RampDraws::new(input, ramp_key, power);
        let margin = ramp.margin();
        RampObservation {
            entropy: entropy(clean_entropy(margin), ramp.chain.then(3).normal()),
            agrees: ramp.agrees((margin, margin), || margin),
        }
    }

    /// [`SemanticsModel::observe_with`] at each `(ramp key, power)` of
    /// `ramps`, at most [`ROW_CHUNK`] of them (more panic), appended to
    /// `out` in order: one chunk of a row, built in the phases the module
    /// doc's *Rows* section gives, bit for bit the per-cell observations.
    pub(crate) fn observe_chunk(
        &self,
        input: &InputDraws,
        ramps: impl IntoIterator<Item = (u64, f64)>,
        out: &mut Vec<RampObservation>,
    ) {
        let mut ramps = ramps.into_iter();
        let Some((key, power)) = ramps.next() else {
            return;
        };
        // The first cell's draws fill the arrays; only the first `n` slots
        // are read.
        let first = RampDraws::new(input, key, power);
        let mut draws = [first; ROW_CHUNK];
        let mut noises = [first.chain.then(3).normal_units(); ROW_CHUNK];
        let mut n = 1;
        for (key, power) in ramps {
            let ramp = RampDraws::new(input, key, power);
            draws[n] = ramp;
            noises[n] = ramp.chain.then(3).normal_units();
            n += 1;
        }
        let draws = &draws[..n];
        let mut margins = [0.0; ROW_CHUNK];
        for (margin, ramp) in margins.iter_mut().zip(draws) {
            *margin = ramp.margin();
        }
        let mut entropies = [0.0; ROW_CHUNK];
        for ((e, &margin), noise) in entropies.iter_mut().zip(&margins).zip(&noises[..n]) {
            *e = entropy(clean_entropy(margin), noise.normal());
        }
        out.extend(draws.iter().zip(&margins).zip(&entropies).map(
            |((ramp, &margin), &entropy)| RampObservation {
                entropy,
                agrees: ramp.agrees((margin, margin), || margin),
            },
        ));
    }

    /// Whether the input `input` was drawn from exits at the ramp at
    /// `ramp_key` under `threshold`, as the entropy of
    /// [`SemanticsModel::observe_with`] decides it, and if so whether the
    /// ramp agrees with the full model; with the step that settled it. The
    /// ramp's power comes with its [`power_factor`], and `input_factor` is
    /// the input's [`InputDraws::exp_factor`]. The steps run in the order
    /// the module doc gives, and only the last draws a noise.
    #[inline]
    pub(crate) fn exit_at(
        &self,
        input: &InputDraws,
        input_factor: f64,
        ramp_key: u64,
        (power, power_factor): (f64, f64),
        threshold: f64,
    ) -> (ScanStep, Option<bool>) {
        let ramp = RampDraws::new(input, ramp_key, power);
        let [lo_factor, hi_factor] = RAMP_NOISE_FACTORS[ramp.ramp_noise.bracket_index()];
        let scale = power_factor * input_factor;
        // The entropy falls as the margin rises, and the clamp keeps the
        // floor at or below 1, so a threshold of 1 - EXP_GUARD or more always
        // gets past both floors.
        let clean_floor = 1.0 / (1.0 + scale * hi_factor);
        let floor = |noise_lo| entropy(clean_floor, noise_lo) - EXP_GUARD;
        // No draw is below -NORMAL_BOUND: this floor needs no entropy noise.
        if floor(ANY_NORMAL.0) > threshold {
            return (ScanStep::WorstFloor, None);
        }
        let noise = ramp.chain.then(3).normal_units();
        let (noise_lo, noise_hi) = noise.bounds();
        if floor(noise_lo) > threshold {
            return (ScanStep::OwnFloor, None);
        }
        let clean_ceiling = 1.0 / (1.0 + scale * lo_factor);
        if entropy(clean_ceiling, noise_hi) + EXP_GUARD <= threshold {
            return (ScanStep::Ceiling, Some(ramp.agrees_in_bracket()));
        }
        let margin = ramp.margin();
        let exits = entropy(clean_entropy(margin), noise.normal()) <= threshold;
        (
            ScanStep::Exact,
            exits.then(|| ramp.agrees((margin, margin), || margin)),
        )
    }

    /// Whether the ramp at `ramp_key` with predictive power `power` agrees
    /// with the full model for `input`: the `agrees` of
    /// [`SemanticsModel::observe_with`], without the entropy. The margin
    /// perturbation is drawn only when its bounds leave the answer open.
    #[inline]
    pub fn agrees_with(&self, input: &InputDraws, ramp_key: u64, power: f64) -> bool {
        RampDraws::new(input, ramp_key, power).agrees_in_bracket()
    }

    /// Observe what the ramp at `ramp_key` (a stable site identifier, e.g. the
    /// layer id) with depth `depth_fraction` and `capacity` reports for
    /// `sample`.
    pub fn observe(
        &self,
        sample: &SampleSemantics,
        ramp_key: u64,
        depth_fraction: f64,
        capacity: f64,
    ) -> RampObservation {
        self.observe_with(
            &self.input(sample),
            ramp_key,
            self.ramp_power(depth_fraction, capacity),
        )
    }

    /// The final model's own "observation": by definition it agrees with
    /// itself and has minimal entropy. Exposed so policies can treat the model
    /// head as the last implicit exit.
    pub fn final_observation(&self) -> RampObservation {
        RampObservation {
            entropy: 0.0,
            agrees: true,
        }
    }

    /// The overparameterisation this model was built with.
    pub fn overparameterization(&self) -> f64 {
        self.overparameterization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(overparam: f64) -> SemanticsModel {
        SemanticsModel::new(1234, overparam)
    }

    fn samples(n: u64, difficulty: impl Fn(u64) -> f64) -> Vec<SampleSemantics> {
        (0..n)
            .map(|i| SampleSemantics::new(i, difficulty(i)))
            .collect()
    }

    /// `observe` as it was before the per-input split and the split draws:
    /// every draw re-keyed from the full key list, the margin re-derived and
    /// all three ramp noises drawn per observation.
    fn reference_observe(
        m: &SemanticsModel,
        sample: &SampleSemantics,
        ramp_key: u64,
        depth_fraction: f64,
        capacity: f64,
    ) -> RampObservation {
        let power = m.ramp_power(depth_fraction, capacity);
        let input_noise = m.rng.normal_draw(&[sample.seed, 1]) * 0.03;
        let ramp_noise = m.rng.normal_draw(&[sample.seed, ramp_key, 2]) * 0.015;
        let margin = power - sample.difficulty + input_noise + ramp_noise;
        let noise_e = m.rng.normal_draw(&[sample.seed, ramp_key, 3]) * 0.04;
        let entropy = (1.0 / (1.0 + (margin / 0.08).exp()) + noise_e).clamp(0.0, 1.0);
        let noise_a = m.rng.normal_draw(&[sample.seed, ramp_key, 4]) * 0.02;
        RampObservation {
            entropy,
            agrees: margin + noise_a > 0.0,
        }
    }

    /// Ramp sites as (key, depth, capacity).
    const SITES: [(u64, f64, f64); 4] = [
        (0, 0.0, 1.0),
        (17, 0.3, 0.97),
        (90, 0.8, 0.9),
        (u64::MAX, 1.0, 0.5),
    ];

    #[test]
    fn shared_input_draws_match_the_reference_observation_bit_for_bit() {
        for overparam in [0.9, 0.6] {
            let m = model(overparam);
            for i in 0..200u64 {
                let s = SampleSemantics::new(i.wrapping_mul(0x9E37_79B9), (i as f64 * 0.377) % 1.0);
                let input = m.input(&s);
                for (key, depth, capacity) in SITES {
                    let want = reference_observe(&m, &s, key, depth, capacity);
                    let fast = m.observe_with(&input, key, m.ramp_power(depth, capacity));
                    let wrapped = m.observe(&s, key, depth, capacity);
                    for got in [fast, wrapped] {
                        assert_eq!(got.entropy.to_bits(), want.entropy.to_bits());
                        assert_eq!(got.agrees, want.agrees);
                    }
                }
            }
        }
    }

    /// Samples at `site` whose `edge`, a sum that moves one for one with the
    /// margin, sits at `target`: the difficulty is shifted by the distance
    /// between the two.
    fn samples_at_edge(
        m: &SemanticsModel,
        (key, depth, capacity): (u64, f64, f64),
        edge: impl Fn(RampDraws) -> f64,
        target: f64,
    ) -> Vec<SampleSemantics> {
        (0..100u64)
            .filter_map(|i| {
                let s = SampleSemantics::new(i.wrapping_mul(0x2545_F491) ^ key, 0.5);
                let ramp = RampDraws::new(&m.input(&s), key, m.ramp_power(depth, capacity));
                let difficulty = s.difficulty + edge(ramp) - target;
                (0.0..=1.0)
                    .contains(&difficulty)
                    .then(|| SampleSemantics::new(s.seed, difficulty))
            })
            .collect()
    }

    /// Which bracket decides `x + n · scale > 0` for `x` in `xs`: 0 for the
    /// worst-case noise, 1 for the noise's own bounds, 2 for neither.
    fn deciding_bracket(xs: (f64, f64), noise: NormalUnits, scale: f64) -> usize {
        if sum_is_positive(xs, ANY_NORMAL, scale).is_some() {
            0
        } else if sum_is_positive(xs, noise.bounds(), scale).is_some() {
            1
        } else {
            2
        }
    }

    /// The unit draws of `r`'s agreement noise.
    fn agreement(r: RampDraws) -> NormalUnits {
        r.chain.then(4).normal_units()
    }

    /// The margin at both ends of `r`'s perturbation bracket.
    fn bracket(r: RampDraws) -> (f64, f64) {
        let (lo, hi) = r.ramp_noise.bounds();
        (r.margin_at(lo), r.margin_at(hi))
    }

    /// The exact margin of `r`, as a bracket.
    fn exact(r: RampDraws) -> (f64, f64) {
        (r.margin(), r.margin())
    }

    /// The agreement sum at the low ends of a margin and a noise bracket.
    fn lo_sum((x, _): (f64, f64), (n, _): (f64, f64)) -> f64 {
        x + n * AGREEMENT_NOISE
    }

    /// The agreement sum at the high ends of a margin and a noise bracket.
    fn hi_sum((_, x): (f64, f64), (_, n): (f64, f64)) -> f64 {
        x + n * AGREEMENT_NOISE
    }

    /// Every edge at which an agreement decision changes path or answer,
    /// at the exact margin and at the margin's bracket, and margins of 0 and
    /// ±0.5, where the clamp holds many entropies at 0 or 1.
    const AGREEMENT_EDGES: [fn(RampDraws) -> f64; 11] = [
        |r| r.margin(),
        |r| r.margin() - 0.5,
        |r| r.margin() + 0.5,
        |r| lo_sum(exact(r), ANY_NORMAL),
        |r| hi_sum(exact(r), ANY_NORMAL),
        |r| lo_sum(exact(r), agreement(r).bounds()),
        |r| hi_sum(exact(r), agreement(r).bounds()),
        |r| lo_sum(bracket(r), ANY_NORMAL),
        |r| hi_sum(bracket(r), ANY_NORMAL),
        |r| lo_sum(bracket(r), agreement(r).bounds()),
        |r| hi_sum(bracket(r), agreement(r).bounds()),
    ];

    #[test]
    fn split_draws_match_the_reference_observation_bit_for_bit() {
        let m = model(0.7);
        // How often each agreement decision is settled by the worst-case
        // bound, by the draw's own bounds, or by the draw: at the exact
        // margin, and at the margin's bracket.
        let mut paths = [[0usize; 3]; 2];
        for site in SITES {
            let (key, depth, capacity) = site;
            let power = m.ramp_power(depth, capacity);
            for edge in AGREEMENT_EDGES {
                for offset in [-1e-3, -1e-12, 0.0, 1e-12, 1e-3] {
                    for s in samples_at_edge(&m, site, edge, offset) {
                        let want = reference_observe(&m, &s, key, depth, capacity);
                        let input = m.input(&s);
                        let ramp = RampDraws::new(&input, key, power);
                        let noise = agreement(ramp);
                        paths[0][deciding_bracket(exact(ramp), noise, AGREEMENT_NOISE)] += 1;
                        paths[1][deciding_bracket(bracket(ramp), noise, AGREEMENT_NOISE)] += 1;
                        assert_eq!(m.agrees_with(&input, key, power), want.agrees);
                        let got = m.observe_with(&input, key, power);
                        assert_eq!(got.entropy.to_bits(), want.entropy.to_bits());
                        assert_eq!(got.agrees, want.agrees);
                    }
                }
            }
        }
        assert!(
            paths.iter().flatten().all(|&n| n >= 100),
            "every decision path must be exercised: {paths:?}"
        );
    }

    #[test]
    fn scan_steps_match_the_reference_exit_at_every_planted_edge() {
        let m = model(0.7);
        // How many sites each step settled, in ScanStep order.
        let mut steps = [0usize; 4];
        // How often an exit's agreement is settled by the worst-case bound,
        // by the noise's own bounds, or by the draw: at an exact-draw exit
        // (the exact margin) and at a ceiling exit (the margin's bracket).
        let mut exit_agreement = [[0usize; 3]; 2];
        // Samples whose margin sits at the end of its bracket that the
        // floors read (the top) or the ceiling reads (the bottom), at 0 and
        // where the clamp holds entropies at 0 or 1; and every sample the
        // agreement test plants, so that the exact draw's agreement and the
        // ceiling's bracket agreement both run on each of their edges.
        let bracket_ends: [fn(RampDraws) -> f64; 6] = [
            |r| bracket(r).1,
            |r| bracket(r).1 - 0.5,
            |r| bracket(r).1 + 0.5,
            |r| bracket(r).0,
            |r| bracket(r).0 - 0.5,
            |r| bracket(r).0 + 0.5,
        ];
        for site in SITES {
            let (key, depth, capacity) = site;
            let power = m.ramp_power(depth, capacity);
            let factors = (power, power_factor(power));
            for edge in bracket_ends.into_iter().chain(AGREEMENT_EDGES) {
                for offset in [-1e-3, -1e-12, 0.0, 1e-12, 1e-3] {
                    for s in samples_at_edge(&m, site, edge, offset) {
                        let want = reference_observe(&m, &s, key, depth, capacity);
                        let input = m.input(&s);
                        let ramp = RampDraws::new(&input, key, power);
                        // The bounds, from the tables, as the module doc
                        // states them.
                        let [lo_factor, hi_factor] =
                            RAMP_NOISE_FACTORS[ramp.ramp_noise.bracket_index()];
                        let scale = factors.1 * input.exp_factor();
                        let (noise_lo, noise_hi) = ramp.chain.then(3).normal_units().bounds();
                        let clean_floor = 1.0 / (1.0 + scale * hi_factor);
                        let worst = entropy(clean_floor, ANY_NORMAL.0) - EXP_GUARD;
                        let own = entropy(clean_floor, noise_lo) - EXP_GUARD;
                        let ceiling =
                            entropy(1.0 / (1.0 + scale * lo_factor), noise_hi) + EXP_GUARD;
                        assert!(
                            worst <= own && own < want.entropy && want.entropy < ceiling,
                            "bounds {worst} <= {own} < {} < {ceiling}",
                            want.entropy
                        );
                        // Thresholds on both floors, on the ceiling and on
                        // the entropy itself, a hair to either side, and
                        // where the clamp lets an entropy of 1 exit.
                        for edge in [worst, own, ceiling, want.entropy, 1.0 - EXP_GUARD, 1.0] {
                            for threshold in [edge - 1e-12, edge, edge + 1e-12] {
                                let (step, exit) =
                                    m.exit_at(&input, input.exp_factor(), key, factors, threshold);
                                let expected = if worst > threshold {
                                    ScanStep::WorstFloor
                                } else if own > threshold {
                                    ScanStep::OwnFloor
                                } else if ceiling <= threshold {
                                    ScanStep::Ceiling
                                } else {
                                    ScanStep::Exact
                                };
                                assert_eq!(step, expected, "threshold {threshold}");
                                assert_eq!(exit.is_some(), want.entropy <= threshold);
                                if let Some(agrees) = exit {
                                    assert_eq!(agrees, want.agrees);
                                    let (row, margins) = match step {
                                        ScanStep::Exact => (0, exact(ramp)),
                                        _ => (1, bracket(ramp)),
                                    };
                                    let noise = agreement(ramp);
                                    exit_agreement[row]
                                        [deciding_bracket(margins, noise, AGREEMENT_NOISE)] += 1;
                                }
                                steps[step as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            steps.iter().all(|&n| n >= 100),
            "every step of the scan must be exercised: {steps:?}"
        );
        assert!(
            exit_agreement.iter().flatten().all(|&n| n >= 100),
            "every agreement path of an exit must be exercised: {exit_agreement:?}"
        );
    }

    #[test]
    fn ramp_noise_factors_bound_the_factor_over_each_bracket() {
        let factor = |n: f64| (n * RAMP_NOISE / TEMPERATURE).exp();
        assert_eq!(RAMP_NOISE_FACTORS.len(), BRACKETS);
        for (index, &[lo_factor, hi_factor]) in RAMP_NOISE_FACTORS.iter().enumerate() {
            let (lo, hi) = bracket_at(index);
            for k in 0..=8 {
                let n = lo + (hi - lo) * k as f64 / 8.0;
                let f = factor(n.clamp(lo, hi));
                assert!(
                    lo_factor <= f && f <= hi_factor,
                    "bracket {index} [{lo}, {hi}]: factor {f} at {n} outside [{lo_factor}, {hi_factor}]"
                );
            }
        }
        // And at the draws themselves.
        let root = DeterministicRng::new(42).child(0x5EED_5EED);
        for i in 0..200_000u64 {
            let units = root.keyed(&[i, 2]).normal_units();
            let [lo_factor, hi_factor] = RAMP_NOISE_FACTORS[units.bracket_index()];
            let f = factor(units.normal());
            assert!(lo_factor <= f && f <= hi_factor, "{units:?}: factor {f}");
        }
    }

    #[test]
    fn observations_are_deterministic() {
        let m = model(0.8);
        let s = SampleSemantics::new(7, 0.4);
        let a = m.observe(&s, 42, 0.5, 0.95);
        let b = m.observe(&s, 42, 0.5, 0.95);
        assert_eq!(a.entropy.to_bits(), b.entropy.to_bits());
        assert_eq!(a.agrees, b.agrees);
    }

    #[test]
    fn ramp_power_monotone_in_depth_and_capacity() {
        let m = model(0.7);
        let mut last = 0.0;
        for i in 0..=10 {
            let p = m.ramp_power(i as f64 / 10.0, 1.0);
            assert!(p >= last, "power must be monotone in depth");
            last = p;
        }
        assert!(m.ramp_power(0.5, 0.5) < m.ramp_power(0.5, 1.0));
        assert!((m.ramp_power(1.0, 1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_ramps_exit_more_inputs_at_same_threshold() {
        let m = model(0.65);
        let ss = samples(2000, |i| (i as f64 * 0.61803) % 1.0);
        let threshold = 0.35;
        let exit_rate = |depth: f64| {
            ss.iter()
                .filter(|s| m.observe(s, (depth * 100.0) as u64, depth, 0.97).entropy <= threshold)
                .count() as f64
                / ss.len() as f64
        };
        let shallow = exit_rate(0.25);
        let mid = exit_rate(0.5);
        let deep = exit_rate(0.85);
        assert!(shallow <= mid + 0.02, "shallow {shallow} vs mid {mid}");
        assert!(mid <= deep + 0.02, "mid {mid} vs deep {deep}");
        assert!(deep > shallow, "depth must matter");
    }

    #[test]
    fn higher_threshold_exits_more_and_is_less_accurate() {
        let m = model(0.7);
        let ss = samples(3000, |i| (i as f64 * 0.37) % 1.0);
        let depth = 0.4;
        let eval = |threshold: f64| {
            let mut exits = 0usize;
            let mut correct_exits = 0usize;
            for s in &ss {
                let obs = m.observe(s, 40, depth, 0.97);
                if obs.entropy <= threshold {
                    exits += 1;
                    if obs.agrees {
                        correct_exits += 1;
                    }
                }
            }
            let acc_of_exits = if exits == 0 {
                1.0
            } else {
                correct_exits as f64 / exits as f64
            };
            (exits, acc_of_exits)
        };
        let (e_low, a_low) = eval(0.2);
        let (e_mid, a_mid) = eval(0.5);
        let (e_high, a_high) = eval(0.9);
        assert!(
            e_low <= e_mid && e_mid <= e_high,
            "exit counts must be monotone"
        );
        assert!(
            a_low >= a_mid - 0.02 && a_mid >= a_high - 0.02,
            "exit accuracy should fall"
        );
        assert!(e_high > e_low);
        assert!(a_low > a_high);
    }

    #[test]
    fn threshold_zero_never_exits() {
        let m = model(0.9);
        let ss = samples(500, |i| (i as f64 * 0.13) % 1.0);
        for s in &ss {
            let obs = m.observe(s, 10, 0.9, 1.0);
            assert!(
                obs.entropy > 0.0 || obs.agrees,
                "entropy is almost surely positive"
            );
        }
    }

    #[test]
    fn cv_like_models_exit_much_earlier_than_nlp_like() {
        let cv = model(0.90);
        let nlp = model(0.60);
        let ss = samples(2000, |i| (i as f64 * 0.777) % 1.0);
        let early_agreement = |m: &SemanticsModel| {
            ss.iter()
                .filter(|s| m.observe(s, 20, 0.2, 0.97).agrees)
                .count() as f64
                / ss.len() as f64
        };
        let cv_rate = early_agreement(&cv);
        let nlp_rate = early_agreement(&nlp);
        assert!(
            cv_rate > nlp_rate + 0.15,
            "CV early agreement {cv_rate} should clearly exceed NLP {nlp_rate}"
        );
    }

    #[test]
    fn difficulty_is_clamped() {
        let s = SampleSemantics::new(0, 2.5);
        assert_eq!(s.difficulty, 1.0);
        let s = SampleSemantics::new(0, -1.0);
        assert_eq!(s.difficulty, 0.0);
    }

    #[test]
    fn final_observation_is_perfect() {
        let m = model(0.5);
        let f = m.final_observation();
        assert!(f.agrees);
        assert_eq!(f.entropy, 0.0);
    }

    #[test]
    fn entropy_correlates_with_disagreement() {
        // Across many inputs, the average entropy of disagreeing observations
        // must exceed that of agreeing ones — this is what makes a threshold a
        // useful accuracy knob at all.
        let m = model(0.7);
        let ss = samples(4000, |i| (i as f64 * 0.317) % 1.0);
        let mut agree_e = (0.0, 0usize);
        let mut disagree_e = (0.0, 0usize);
        for s in &ss {
            let obs = m.observe(s, 33, 0.45, 0.97);
            if obs.agrees {
                agree_e = (agree_e.0 + obs.entropy, agree_e.1 + 1);
            } else {
                disagree_e = (disagree_e.0 + obs.entropy, disagree_e.1 + 1);
            }
        }
        let mean_agree = agree_e.0 / agree_e.1.max(1) as f64;
        let mean_disagree = disagree_e.0 / disagree_e.1.max(1) as f64;
        assert!(disagree_e.1 > 0, "some disagreements expected");
        assert!(
            mean_disagree > mean_agree + 0.1,
            "disagreeing entropy {mean_disagree} vs agreeing {mean_agree}"
        );
    }
}
