//! Deterministic pseudo-random number generation.
//!
//! All randomized constructions in the reproduction (random graphs, random
//! constraint matrices, adversarial port labelings, sampled stretch checks)
//! are driven by an explicit seed so that every experiment is reproducible
//! bit-for-bit.  We implement the xoshiro256** generator seeded through
//! SplitMix64, which is the standard, well-tested seeding procedure for the
//! xoshiro family.  No external dependency is needed.

use std::sync::OnceLock;

/// SplitMix64 step, used to expand a 64-bit seed into the xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The linear state transition of xoshiro256** (the part of
/// [`Xoshiro256::next_u64`] that does not compute the output).
#[inline]
fn step(mut s: [u64; 4]) -> [u64; 4] {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    s
}

/// A linear map of the 256-bit state, stored by columns: column `j` is the
/// image of the state with only bit `j` set (bit `j` is bit `j % 64` of word
/// `j / 64`).
type BitMatrix = [[u64; 4]; 256];

/// Applies `m` to the state `v`: the XOR of the columns of `v`'s set bits.
fn apply(m: &BitMatrix, v: [u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (w, &word) in v.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let col = &m[w * 64 + bits.trailing_zeros() as usize];
            for (o, c) in out.iter_mut().zip(col) {
                *o ^= c;
            }
            bits &= bits - 1;
        }
    }
    out
}

/// `T^(2^i)` for the transition `T` of [`step`], built on first use by
/// squaring `T^(2^(i-1))`.  Untouched powers cost no resident memory.
fn jump_power(i: usize) -> &'static BitMatrix {
    static POWERS: [OnceLock<BitMatrix>; 64] = [const { OnceLock::new() }; 64];
    let mut m = POWERS[0].get_or_init(|| {
        let mut t = [[0u64; 4]; 256];
        for (j, col) in t.iter_mut().enumerate() {
            let mut e = [0u64; 4];
            e[j / 64] = 1 << (j % 64);
            *col = step(e);
        }
        t
    });
    for power in &POWERS[1..=i] {
        let half = m;
        m = power.get_or_init(|| {
            let mut sq = [[0u64; 4]; 256];
            for (col, h) in sq.iter_mut().zip(half) {
                *col = apply(half, *h);
            }
            sq
        });
    }
    m
}

/// xoshiro256** pseudo-random generator.
///
/// A small, fast, high-quality generator with a 256-bit state.  It is *not*
/// cryptographically secure, which is irrelevant here: it only drives
/// reproducible experiment workloads.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two different seeds yield independent-looking streams; the same seed
    /// always yields the same stream.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // Avoid the all-zero state (cannot occur from SplitMix64 in practice,
        // but the guard costs nothing).
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        self.s = step(self.s);
        result
    }

    /// Skips `steps` outputs: afterwards the generator is exactly where
    /// `steps` calls of [`Xoshiro256::next_u64`] would have left it.
    ///
    /// The state transition of xoshiro256** is linear over GF(2), so `steps`
    /// transitions are the 256 × 256 bit matrix `T^steps`.  It is applied as
    /// the product of the cached powers `T^(2^i)` for the set bits of `steps`
    /// — at most 64 matrix–vector products, microseconds once the powers
    /// exist (each costs one matrix squaring on first use, per process).
    /// This is what lets a parallel sampler start every chunk at its own
    /// offset of one seed's stream and still draw exactly the serial sample.
    pub fn advance(&mut self, steps: u64) {
        for i in 0..64 {
            if steps >> i & 1 == 1 {
                self.s = apply(jump_power(i), self.s);
            }
        }
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_range bound must be positive");
        let bound = bound as u64;
        loop {
            let x = self.next_u64();
            let m = u128::from(x).wrapping_mul(u128::from(bound));
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as usize;
            }
            // rejection zone
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Returns a uniform integer in the inclusive range `[lo, hi]`.
    pub fn gen_range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range");
        lo + self.gen_range(hi - lo + 1)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.gen_range(i + 1);
            slice.swap(i, j);
        }
    }

    /// Returns a uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Chooses one element of a non-empty slice uniformly at random.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose on empty slice");
        &slice[self.gen_range(slice.len())]
    }

    /// Samples `k` distinct indices from `0..n` uniformly at random
    /// (order is random as well).  Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} items from a universe of {n}");
        // Partial Fisher–Yates: O(n) memory, O(n) time, exactly uniform.
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.gen_range(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Splits off an independent child generator (useful to hand out
    /// per-thread or per-subtask streams deterministically).
    pub fn split(&mut self) -> Xoshiro256 {
        Xoshiro256::new(self.next_u64() ^ 0xA076_1D64_78BD_642F)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds look identical");
    }

    #[test]
    fn gen_range_bounds_respected() {
        let mut rng = Xoshiro256::new(7);
        for bound in [1usize, 2, 3, 10, 1000, 1 << 20] {
            for _ in 0..200 {
                let x = rng.gen_range(bound);
                assert!(x < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = Xoshiro256::new(11);
        let mut seen = [false; 8];
        for _ in 0..2000 {
            seen[rng.gen_range(8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residues never produced");
    }

    #[test]
    fn gen_range_inclusive_hits_endpoints() {
        let mut rng = Xoshiro256::new(13);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let x = rng.gen_range_inclusive(3, 6);
            assert!((3..=6).contains(&x));
            lo_seen |= x == 3;
            hi_seen |= x == 6;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::new(5);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_probability_roughly_respected() {
        let mut rng = Xoshiro256::new(17);
        let trials = 20_000;
        let hits = (0..trials).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / f64::from(trials);
        assert!((frac - 0.25).abs() < 0.02, "empirical frequency {frac}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = Xoshiro256::new(23);
        for n in [0usize, 1, 2, 5, 64, 257] {
            let p = rng.permutation(n);
            assert_eq!(p.len(), n);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = Xoshiro256::new(29);
        let mut v: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        rng.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, expected);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Xoshiro256::new(31);
        let s = rng.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 20, "sampled indices must be distinct");
        assert!(s.iter().all(|&x| x < 50));
    }

    #[test]
    fn sample_indices_full_universe() {
        let mut rng = Xoshiro256::new(37);
        let mut s = rng.sample_indices(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut a = Xoshiro256::new(99);
        let mut b = Xoshiro256::new(99);
        let mut ca = a.split();
        let mut cb = b.split();
        for _ in 0..100 {
            assert_eq!(ca.next_u64(), cb.next_u64());
        }
        // Parent and child should not be producing the same stream.
        let same = (0..64).filter(|_| a.next_u64() == ca.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn advance_equals_repeated_next_u64() {
        for steps in [0u64, 1, 63, 64, 65, 1000, (1 << 20) + 7] {
            let mut jumped = Xoshiro256::new(2024);
            jumped.advance(steps);
            let mut walked = Xoshiro256::new(2024);
            for _ in 0..steps {
                walked.next_u64();
            }
            assert_eq!(jumped.s, walked.s, "advance({steps})");
            assert_eq!(jumped.next_u64(), walked.next_u64());
        }
    }

    #[test]
    fn advance_composes() {
        let mut a = Xoshiro256::new(7);
        a.advance(1 << 40);
        a.advance(12345);
        let mut b = Xoshiro256::new(7);
        b.advance((1 << 40) + 12345);
        assert_eq!(a.s, b.s);
    }

    #[test]
    #[should_panic]
    fn gen_range_zero_panics() {
        let mut rng = Xoshiro256::new(3);
        let _ = rng.gen_range(0);
    }
}
