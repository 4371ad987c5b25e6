//! Deterministic, splittable random-number streams.
//!
//! The ramp-semantics model (in `apparate-exec`) needs a crucial property: the
//! entropy/agreement draw for *(request r, ramp position p)* must be the same
//! no matter which ramps happen to be active, how often the pair is evaluated,
//! or in which order requests are replayed. Otherwise the offline-optimal
//! oracle, the candidate-ramp utility estimates (Figure 11) and the threshold
//! tuner's counterfactual evaluations would all observe different "model
//! behaviour" than the live system did.
//!
//! We achieve this with hash-derived streams: a [`DeterministicRng`] carries a
//! 64-bit seed, and [`DeterministicRng::stream`] derives an independent
//! ChaCha8-based [`RngStream`] from `(seed, key...)` via the SplitMix64 finaliser.
//! Two streams derived from the same keys are bit-identical. Single keyed
//! draws go through a [`KeyChain`], so a caller that draws many times under
//! a shared key prefix (one input's draws at every ramp) hashes the prefix
//! once and extends it per draw.

use rand::distributions::Open01;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SplitMix64 finaliser; an excellent 64-bit mixer used to derive stream keys.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A root deterministic RNG from which independent named streams are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicRng {
    seed: u64,
}

impl DeterministicRng {
    /// Create a root RNG with the given seed.
    pub fn new(seed: u64) -> Self {
        DeterministicRng { seed }
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive a child root, useful to give each subsystem its own namespace.
    pub fn child(&self, key: u64) -> DeterministicRng {
        DeterministicRng {
            seed: splitmix64(self.seed ^ splitmix64(key)),
        }
    }

    /// Start a [`KeyChain`] from `keys`: the key state every draw keyed by
    /// `keys` (or by any extension of them) starts from.
    ///
    /// Callers that draw many times under a shared key prefix derive the
    /// prefix's chain once and extend it with [`KeyChain::then`], instead of
    /// re-hashing the prefix for every draw.
    #[inline]
    pub fn keyed(&self, keys: &[u64]) -> KeyChain {
        keys.iter().fold(
            KeyChain {
                state: splitmix64(self.seed),
                len: 0,
            },
            |chain, &k| chain.then(k),
        )
    }

    /// Derive an independent stream keyed by up to three integers
    /// (e.g. request id, ramp position, draw kind).
    pub fn stream(&self, keys: &[u64]) -> RngStream {
        RngStream::from_state(self.keyed(keys).state)
    }

    /// A single deterministic uniform draw in `(0, 1)` for the given keys.
    ///
    /// This is the workhorse of the semantics model: cheap, reproducible and
    /// order-independent.
    pub fn unit_draw(&self, keys: &[u64]) -> f64 {
        self.keyed(keys).unit()
    }

    /// A deterministic standard-normal draw for the given keys
    /// (Box–Muller over two decorrelated unit draws).
    pub fn normal_draw(&self, keys: &[u64]) -> f64 {
        self.keyed(keys).normal()
    }
}

/// Extra key that decorrelates the second unit draw of [`KeyChain::normal`]
/// from the first.
const NORMAL_SECOND_KEY: u64 = 0xA5A5_5A5A_0F0F_F0F0;

/// Bound on the magnitude of every [`KeyChain::normal`] draw.
///
/// A unit draw is never below 2⁻⁵⁴, so the Box–Muller radius never exceeds
/// √(−2 ln 2⁻⁵⁴) = √(108 ln 2) ≈ 8.652161, and the cosine never exceeds 1.
/// The constant is rounded up in its sixth decimal: that guard band keeps a
/// last-bit rounding in `ln`, `sqrt` or `cos` from ever crossing it, so a
/// caller may decide a comparison without drawing whenever the draw, at
/// this magnitude, could not change the outcome.
pub const NORMAL_BOUND: f64 = 8.652_17;

/// The hashed state of a key sequence, extendable one key at a time and
/// allocation-free.
///
/// `rng.keyed(&[a, b]).then(c)` is the same state as `rng.keyed(&[a, b, c])`:
/// each key is mixed in together with its position in the sequence, so a
/// chain shared by many draws gives exactly the draws the full key lists
/// would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyChain {
    state: u64,
    /// Number of keys mixed in so far (the position of the next key).
    len: u64,
}

impl KeyChain {
    /// The chain extended by one more key.
    #[inline]
    pub fn then(self, key: u64) -> KeyChain {
        KeyChain {
            state: splitmix64(self.state ^ splitmix64(key.wrapping_add(self.len + 1))),
            len: self.len + 1,
        }
    }

    /// The uniform draw in `(0, 1)` for this key sequence.
    #[inline]
    pub fn unit(self) -> f64 {
        // Map the top 53 bits onto (0, 1); add half an ulp so we never return 0.
        let mantissa = self.state >> 11;
        (mantissa as f64 + 0.5) / ((1u64 << 53) as f64)
    }

    /// The standard-normal draw for this key sequence (Box–Muller over this
    /// chain's unit draw and that of the chain extended by a fixed key).
    #[inline]
    pub fn normal(self) -> f64 {
        let u1 = self.unit();
        let u2 = self.then(NORMAL_SECOND_KEY).unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// A sequential random stream (ChaCha8) derived from a [`DeterministicRng`].
#[derive(Debug, Clone)]
pub struct RngStream {
    inner: ChaCha8Rng,
}

impl RngStream {
    fn from_state(state: u64) -> Self {
        let mut seed = [0u8; 32];
        let mut s = state;
        for chunk in seed.chunks_mut(8) {
            s = splitmix64(s);
            chunk.copy_from_slice(&s.to_le_bytes());
        }
        RngStream {
            inner: ChaCha8Rng::from_seed(seed),
        }
    }

    /// Uniform draw in `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.sample(Open01)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below() requires a positive bound");
        self.inner.gen_range(0..n)
    }

    /// Standard normal draw.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Exponential draw with the given rate (events per unit time).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential() requires a positive rate");
        -self.unit().ln() / rate
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Sample an index according to the (unnormalised, non-negative) weights.
    /// Returns 0 if all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 || weights.is_empty() {
            return 0;
        }
        let mut target = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w.max(0.0);
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key derivation `unit_draw` used before [`KeyChain`] existed: the
    /// whole key list re-hashed from the seed on every call.
    fn reference_unit_draw(seed: u64, keys: &[u64]) -> f64 {
        let mut state = splitmix64(seed);
        for (i, k) in keys.iter().enumerate() {
            state = splitmix64(state ^ splitmix64(k.wrapping_add(i as u64 + 1)));
        }
        let mantissa = state >> 11;
        (mantissa as f64 + 0.5) / ((1u64 << 53) as f64)
    }

    /// The `Vec`-building `normal_draw` used before [`KeyChain`] existed.
    fn reference_normal_draw(seed: u64, keys: &[u64]) -> f64 {
        let u1 = reference_unit_draw(seed, keys);
        let mut keys2: Vec<u64> = keys.to_vec();
        keys2.push(0xA5A5_5A5A_0F0F_F0F0);
        let u2 = reference_unit_draw(seed, &keys2);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn key_chains_match_the_reference_derivation_bit_for_bit() {
        let keys = [
            0u64,
            1,
            u64::MAX,
            0xA5A5_5A5A_0F0F_F0F0,
            0x1234_5678_9ABC_DEF0,
            7,
        ];
        for seed in [0u64, 42, u64::MAX] {
            let root = DeterministicRng::new(seed).child(0x5EED_5EED);
            for len in 0..=4 {
                for offset in 0..2 {
                    let ks = &keys[offset..offset + len];
                    let want_u = reference_unit_draw(root.seed(), ks);
                    let want_n = reference_normal_draw(root.seed(), ks);
                    assert_eq!(root.unit_draw(ks).to_bits(), want_u.to_bits());
                    assert_eq!(root.normal_draw(ks).to_bits(), want_n.to_bits());
                    let chain = root.keyed(ks);
                    assert_eq!(chain.unit().to_bits(), want_u.to_bits());
                    assert_eq!(chain.normal().to_bits(), want_n.to_bits());
                    // Extending a shared prefix one key at a time lands on
                    // the same state as keying the whole list at once.
                    let stepped = ks.iter().fold(root.keyed(&[]), |chain, &k| chain.then(k));
                    assert_eq!(stepped, chain);
                    if len > 0 {
                        let split = root.keyed(&ks[..len - 1]).then(ks[len - 1]);
                        assert_eq!(split.normal().to_bits(), want_n.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn normal_bound_covers_the_smallest_unit_draw() {
        let radius = (-2.0 * 2f64.powi(-54).ln()).sqrt();
        assert!(radius <= NORMAL_BOUND && NORMAL_BOUND - radius < 1e-5);
        assert!((radius - (108.0 * 2f64.ln()).sqrt()).abs() < 1e-12);
        // An all-zero state is the smallest unit draw a chain can make.
        let floor = KeyChain { state: 0, len: 0 };
        assert_eq!(floor.unit(), 2f64.powi(-54));
        assert!(floor.normal().abs() <= NORMAL_BOUND);
    }

    #[test]
    fn streams_are_reproducible() {
        let root = DeterministicRng::new(42);
        let mut a = root.stream(&[1, 2, 3]);
        let mut b = root.stream(&[1, 2, 3]);
        for _ in 0..32 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_keys_give_different_streams() {
        let root = DeterministicRng::new(42);
        let mut a = root.stream(&[1]);
        let mut b = root.stream(&[2]);
        let same = (0..16)
            .filter(|_| a.unit().to_bits() == b.unit().to_bits())
            .count();
        assert!(same < 4, "streams with different keys should diverge");
    }

    #[test]
    fn unit_draw_is_order_independent_and_in_range() {
        let root = DeterministicRng::new(7);
        let x1 = root.unit_draw(&[10, 20]);
        let _ = root.unit_draw(&[99, 1]);
        let x2 = root.unit_draw(&[10, 20]);
        assert_eq!(x1.to_bits(), x2.to_bits());
        assert!(x1 > 0.0 && x1 < 1.0);
    }

    #[test]
    fn unit_draw_is_roughly_uniform() {
        let root = DeterministicRng::new(123);
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| root.unit_draw(&[i])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn normal_draw_has_reasonable_moments() {
        let root = DeterministicRng::new(5);
        let n = 20_000u64;
        let draws: Vec<f64> = (0..n).map(|i| root.normal_draw(&[i])).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn child_rngs_are_decoupled() {
        let root = DeterministicRng::new(1);
        let a = root.child(10).unit_draw(&[0]);
        let b = root.child(11).unit_draw(&[0]);
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn stream_distributions_behave() {
        let root = DeterministicRng::new(9);
        let mut s = root.stream(&[0]);
        for _ in 0..100 {
            let u = s.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&u));
            let e = s.exponential(0.5);
            assert!(e >= 0.0);
            let i = s.below(7);
            assert!(i < 7);
        }
        let mut hits = 0;
        for _ in 0..1000 {
            if s.chance(0.3) {
                hits += 1;
            }
        }
        assert!((200..400).contains(&hits), "hits {hits}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let root = DeterministicRng::new(11);
        let mut s = root.stream(&[3]);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[s.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 2, "counts {counts:?}");
        // Degenerate case: all-zero weights fall back to index 0.
        assert_eq!(s.weighted_index(&[0.0, 0.0]), 0);
    }
}
