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

    /// A single deterministic uniform draw in `(0, 1]` for the given keys.
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

/// Slack added to both ends of every bracket [`NormalUnits::bounds`] reads:
/// far above the last-bit error of `ln`, `sqrt` and `cos` and of each
/// rounded table entry (about 1e-15 at these magnitudes), far below a bin's
/// width.
const BRACKET_GUARD: f64 = 1e-9;

/// Bins of the radius bracket: a radius draw `u1` falls in bin ⌊64 u1⌋.
const RADIUS_BINS: usize = 64;

/// The radius ladder: `RADII[k]` is √(−2 ln(k/64)), the radius whose
/// threshold exp(−R²/2) is k/64, rounded to the nearest double. A radius
/// draw at or above k/64 therefore gives a radius of at most `RADII[k]`. The
/// top rung is [`NORMAL_BOUND`], as no unit draw is below 2⁻⁵⁴.
#[rustfmt::skip]
const RADII: [f64; RADIUS_BINS + 1] = [
    NORMAL_BOUND, 2.884053773201766, 2.6327688477341593, 2.4739728352152786,
    2.3548200450309493, 2.2580722623182683, 2.1758325368151, 2.1037932095642664,
    2.039333980337618, 1.9807364822325317, 1.926809793604769, 1.8766927348723346,
    1.8297412022314365, 1.7854600112565586, 1.743459637470517, 1.7034276516820206,
    1.6651092223153956, 1.6282934252176147, 1.5928033936826649, 1.5584890786869385,
    1.5252218263621071, 1.4928902475642667, 1.4613970234001135, 1.4306564000000295,
    1.4005921983302108, 1.371136213868973, 1.3422269147489108, 1.313808370619812,
    1.2858293612952443, 1.2582426263429465, 1.2310042255796823, 1.2040729868861983,
    1.1774100225154747, 1.1509782985731674, 1.1247422449108155, 1.0986673945014098,
    1.0727200426053032, 1.046866916771609, 1.0210748490030357, 0.9953104412493877,
    0.9695397147571991, 0.9437277326171613, 0.9178381829890316, 0.8918329077423746,
    0.8656713573191742, 0.8393099470271421, 0.8127012819856714, 0.7857932064476165,
    0.7585276164409321, 0.7308389497680665, 0.7026522296720132, 0.6738804799596826,
    0.6444212361153914, 0.6141517236116008, 0.5829220133009174, 0.5505449993001498,
    0.5167811773362544, 0.4813144824854571, 0.44371178215876245, 0.40335006992425926,
    0.3592729356285307, 0.30986842106404006, 0.25198689773311744, 0.17747313581575758,
    0.0,
];

/// Guarded `[lo, hi]` of the radius in each bin: bin k holds the radius
/// draws in [k/64, (k+1)/64), whose radius falls from `RADII[k]` to
/// `RADII[k + 1]`. A draw of exactly 1 (the largest a chain makes) shares
/// the last bin.
const RADIUS_BRACKETS: [[f64; 2]; RADIUS_BINS + 1] = {
    let mut out = [[0.0; 2]; RADIUS_BINS + 1];
    let mut k = 0;
    while k < RADIUS_BINS {
        out[k] = [
            (RADII[k + 1] - BRACKET_GUARD).max(0.0),
            RADII[k] + BRACKET_GUARD,
        ];
        k += 1;
    }
    out[RADIUS_BINS] = out[RADIUS_BINS - 1];
    out
};

/// Bins of the angle bracket: an angle draw `u2` falls in bin ⌊64 u2⌋.
const ANGLE_BINS: usize = 64;

/// cos(2πj/64) for j = 0..=16, the first quarter turn, rounded to the
/// nearest double. [`cosine`] unfolds the other three quarters.
#[rustfmt::skip]
const QUARTER_COSINES: [f64; ANGLE_BINS / 4 + 1] = [
    1.0, 0.9951847266721969, 0.9807852804032304, 0.9569403357322088,
    0.9238795325112867, 0.881921264348355, 0.8314696123025452, 0.773010453362737,
    std::f64::consts::FRAC_1_SQRT_2, 0.6343932841636455, 0.5555702330196022,
    0.47139673682599764, 0.3826834323650898, 0.2902846772544624, 0.19509032201612828,
    0.0980171403295606, 0.0,
];

/// cos(2πj/64) for j = 0..=64, from [`QUARTER_COSINES`]: the cosine is even
/// about a half turn and odd about a quarter turn.
const fn cosine(j: usize) -> f64 {
    let k = if j > ANGLE_BINS / 2 {
        ANGLE_BINS - j
    } else {
        j
    };
    if k > ANGLE_BINS / 4 {
        -QUARTER_COSINES[ANGLE_BINS / 2 - k]
    } else {
        QUARTER_COSINES[k]
    }
}

/// Guarded `[lo, hi]` of the cosine factor in each bin: bin j holds the
/// angle draws in [j/64, (j+1)/64), over which the cosine falls on the first
/// half turn and rises on the second. A draw of exactly 1 shares the last
/// bin.
const COS_BRACKETS: [[f64; 2]; ANGLE_BINS + 1] = {
    let mut out = [[0.0; 2]; ANGLE_BINS + 1];
    let mut j = 0;
    while j < ANGLE_BINS {
        let (lo, hi) = if j < ANGLE_BINS / 2 {
            (cosine(j + 1), cosine(j))
        } else {
            (cosine(j), cosine(j + 1))
        };
        out[j] = [lo - BRACKET_GUARD, hi + BRACKET_GUARD];
        j += 1;
    }
    out[ANGLE_BINS] = out[ANGLE_BINS - 1];
    out
};

/// The two unit draws behind one keyed standard normal, before Box–Muller.
///
/// [`NormalUnits::normal`] is the draw itself; [`NormalUnits::bounds`]
/// brackets it from table lookups alone. A caller that only compares the
/// draw with a boundary decides from the bracket and pays for `ln`, `sqrt`
/// and `cos` only when the bracket straddles the boundary.
#[derive(Debug, Clone, Copy)]
pub struct NormalUnits {
    /// Radius draw: the Box–Muller radius is √(−2 ln u1).
    u1: f64,
    /// Angle draw: the cosine factor is cos(2π u2).
    u2: f64,
}

impl NormalUnits {
    /// The standard-normal draw (Box–Muller).
    #[inline]
    pub fn normal(self) -> f64 {
        (-2.0 * self.u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * self.u2).cos()
    }

    /// An interval `(lo, hi)` that contains [`NormalUnits::normal`], from
    /// two table lookups and no branch: the radius bracket of `u1`'s bin
    /// times the cosine bracket of `u2`'s bin. Floating-point rounding is
    /// monotone, so a comparison that holds at `lo` (or `hi`) after
    /// monotone arithmetic holds for the draw itself.
    #[inline]
    pub fn bounds(self) -> (f64, f64) {
        let (radius_bin, angle_bin) = self.bins();
        bracket(radius_bin, angle_bin)
    }

    /// The flattened (radius bin, angle bin) index of this draw's bracket,
    /// below [`BRACKETS`]: [`bracket_at`] of it is [`NormalUnits::bounds`].
    /// A caller that needs a monotone function of a bracket's ends
    /// tabulates it once per index instead of evaluating it per draw.
    #[inline]
    pub fn bracket_index(self) -> usize {
        let (radius_bin, angle_bin) = self.bins();
        radius_bin * (ANGLE_BINS + 1) + angle_bin
    }

    /// The radius draw's bin and the angle draw's bin. Unit draws lie in
    /// (0, 1], so each is at most its bin count.
    #[inline]
    fn bins(self) -> (usize, usize) {
        (
            (self.u1 * RADIUS_BINS as f64) as usize,
            (self.u2 * ANGLE_BINS as f64) as usize,
        )
    }
}

/// Number of distinct brackets [`NormalUnits::bounds`] returns, one per
/// (radius bin, angle bin) pair: the range of [`NormalUnits::bracket_index`].
pub const BRACKETS: usize = (RADIUS_BINS + 1) * (ANGLE_BINS + 1);

/// The bracket of every draw whose [`NormalUnits::bracket_index`] is
/// `index` (below [`BRACKETS`]).
pub fn bracket_at(index: usize) -> (f64, f64) {
    bracket(index / (ANGLE_BINS + 1), index % (ANGLE_BINS + 1))
}

/// The radius bracket of `radius_bin` times the cosine bracket of
/// `angle_bin`.
#[inline]
fn bracket(radius_bin: usize, angle_bin: usize) -> (f64, f64) {
    let [r_lo, r_hi] = RADIUS_BRACKETS[radius_bin];
    let [c_lo, c_hi] = COS_BRACKETS[angle_bin];
    // The radius is never negative: each end of the product takes the
    // radius end that pushes it outward.
    (
        (r_lo * c_lo).min(r_hi * c_lo),
        (r_hi * c_hi).max(r_lo * c_hi),
    )
}

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

    /// The uniform draw in `(0, 1]` for this key sequence.
    #[inline]
    pub fn unit(self) -> f64 {
        // Map the top 53 bits onto (0, 1]; add half an ulp so we never return
        // 0. The top mantissa plus half an ulp rounds to 2⁵³, so 1 occurs.
        let mantissa = self.state >> 11;
        (mantissa as f64 + 0.5) / ((1u64 << 53) as f64)
    }

    /// The unit draws behind [`KeyChain::normal`]: this chain's own and that
    /// of the chain extended by a fixed key.
    #[inline]
    pub fn normal_units(self) -> NormalUnits {
        NormalUnits {
            u1: self.unit(),
            u2: self.then(NORMAL_SECOND_KEY).unit(),
        }
    }

    /// The standard-normal draw for this key sequence (Box–Muller over
    /// [`KeyChain::normal_units`]).
    #[inline]
    pub fn normal(self) -> f64 {
        self.normal_units().normal()
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
        NormalUnits { u1, u2 }.normal()
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
                    let units = chain.normal_units();
                    assert_eq!(units.normal().to_bits(), want_n.to_bits());
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
    fn bracket_tables_round_the_exact_edges() {
        for (k, &radius) in RADII.iter().enumerate().take(RADIUS_BINS).skip(1) {
            let exact = (-2.0 * (k as f64 / RADIUS_BINS as f64).ln()).sqrt();
            assert!((radius - exact).abs() <= 1e-15 * exact, "radius {k}");
        }
        for j in 0..=ANGLE_BINS {
            let exact = (2.0 * std::f64::consts::PI * j as f64 / ANGLE_BINS as f64).cos();
            assert!((cosine(j) - exact).abs() <= 1e-15, "cosine {j}");
        }
    }

    /// Asserts that `units`' bounds contain its normal draw, and that its
    /// flattened bracket index reads the same bounds back.
    fn assert_bounds_contain(units: NormalUnits) {
        let (lo, hi) = units.bounds();
        let index = units.bracket_index();
        assert!(index < BRACKETS, "{units:?}: bracket index {index}");
        assert_eq!(bracket_at(index), (lo, hi), "{units:?}: flattened bracket");
        let draw = units.normal();
        assert!(
            lo <= draw && draw <= hi,
            "{units:?}: {draw} not in [{lo}, {hi}]"
        );
    }

    /// `x` and its neighbouring floats.
    fn with_neighbours(x: f64) -> [f64; 3] {
        [x.next_down(), x, x.next_up()]
    }

    #[test]
    fn normal_bounds_contain_the_draw_at_every_bin_edge() {
        let smallest = KeyChain { state: 0, len: 0 }.unit();
        let largest = KeyChain {
            state: u64::MAX,
            len: 0,
        }
        .unit();
        // Half an ulp above the top mantissa rounds up: the largest draw is 1.
        assert_eq!((smallest, largest), (2f64.powi(-54), 1.0));
        // Every radius threshold k/64 (where the radius is RADII[k]) and its
        // neighbours, and every angle bin edge j/64 (0.25, 0.5 and 0.75
        // among them) one ulp to either side.
        let mut radius_draws = vec![smallest, smallest.next_up(), largest.next_down(), largest];
        for k in 1..RADIUS_BINS {
            radius_draws.extend(with_neighbours(k as f64 / RADIUS_BINS as f64));
        }
        let mut angle_draws = vec![smallest, smallest.next_up(), largest.next_down(), largest];
        for j in 1..ANGLE_BINS {
            angle_draws.extend(with_neighbours(j as f64 / ANGLE_BINS as f64));
        }
        for &u1 in &radius_draws {
            for &u2 in &angle_draws {
                assert_bounds_contain(NormalUnits { u1, u2 });
            }
        }
    }

    #[test]
    fn normal_bounds_contain_a_million_keyed_draws() {
        let root = DeterministicRng::new(42).child(0x5EED_5EED);
        let mut width = 0.0;
        let n = 1_000_000u64;
        for i in 0..n {
            let units = root.keyed(&[i, 3]).normal_units();
            assert_bounds_contain(units);
            let (lo, hi) = units.bounds();
            width += hi - lo;
        }
        // The brackets are narrow on average (0.168 standard deviations,
        // 38 % of it from the bin of the 1/64 smallest radius draws).
        let mean_width = width / n as f64;
        assert!(mean_width < 0.2, "mean bracket width {mean_width}");
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
