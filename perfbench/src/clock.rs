//! Wall-clock reads and the reference kernel every timing is rescaled by.
//!
//! The host's speed drifts between and within runs (other tenants on the
//! same hardware). A run's median pass time multiplied by the kernel's
//! nominal time over its median time during the run reads what the pass
//! would have taken on the host at its nominal speed.

use std::hint::black_box;
use std::time::Instant;

/// Median time of the kernel on one and on two threads, on the machine that
/// wrote `BENCHMARK.json` (2 vCPUs, release build). Rescaled times are
/// expressed in that machine's seconds.
const REF_NOMINAL_S: [f64; 2] = [0.0335, 0.0380];

/// The benchmark's only wall-clock read; the program under test never sees
/// it.
pub fn now() -> Instant {
    // lint:allow(D001, reason = "benchmark harness timing: measures the simulator from outside and never feeds a simulated decision")
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    now().saturating_duration_since(start).as_secs_f64()
}

/// The reference kernel, run as one copy per thread a workload's passes
/// keep busy: the single-threaded kernel tracks one core, and a pass that
/// runs on two cores slows with the slower of them.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    threads: usize,
}

impl Kernel {
    /// The kernel on `threads` threads (1 or 2).
    pub fn new(threads: usize) -> Kernel {
        assert!(
            (1..=REF_NOMINAL_S.len()).contains(&threads),
            "the kernel is calibrated for 1 or 2 threads"
        );
        Kernel { threads }
    }

    /// The kernel's nominal time, seconds.
    pub fn nominal_s(self) -> f64 {
        REF_NOMINAL_S[self.threads - 1]
    }

    /// Wall time of one run of the kernel, seconds.
    pub fn time(self) -> f64 {
        let start = now();
        std::thread::scope(|scope| {
            for _ in 1..self.threads {
                scope.spawn(|| black_box(kernel(black_box(KERNEL_ROUNDS))));
            }
            black_box(kernel(black_box(KERNEL_ROUNDS)));
        });
        since(start)
    }

    /// `value` seconds measured while the kernel took `kernel_s`, in nominal
    /// seconds.
    pub fn rescale(self, value: f64, kernel_s: f64) -> f64 {
        value * self.nominal_s() / kernel_s
    }
}

/// Keys per round: small enough that every round's buffer comes from the
/// allocator's heap and stays in cache, as the simulator's working set does.
const KERNEL_KEYS: usize = 1 << 13;

/// Rounds per kernel run, sized to a few tens of milliseconds.
const KERNEL_ROUNDS: usize = 96;

/// Sort, hash and `ln`/`exp` over fixed pseudo-random inputs: the integer,
/// branch, memory and float mix of the simulator, in code that shares
/// nothing with it. Each round allocates its input afresh, as the
/// simulator's passes do.
fn kernel(rounds: usize) -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut acc = 0.0f64;
    for _ in 0..rounds {
        let mut keys: Vec<u64> = (0..KERNEL_KEYS)
            .map(|_| {
                state = splitmix(state);
                state
            })
            .collect();
        for &key in &keys {
            let unit = ((key >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            acc += (0.5 * unit.ln()).exp();
        }
        keys.sort_unstable();
        for key in &keys {
            hash ^= key;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash ^ acc.to_bits()
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
