//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access and no vendored registry,
//! so the workspace carries the tiny slice of the `rand 0.8` API it
//! actually uses: [`rngs::SmallRng`] (xoshiro256++ seeded via SplitMix64,
//! the same generator family upstream `SmallRng` uses on 64-bit targets),
//! the [`Rng`] extension methods `gen`, `gen_range` and `gen_bool`, and the
//! [`SeedableRng::seed_from_u64`] constructor.
//!
//! The streams are deterministic across platforms and releases — the
//! property every campaign, golden reference and checkpoint/resume test
//! in this workspace relies on — but they are **not** bit-compatible with
//! upstream `rand`; nothing in the workspace assumes they are.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next word of the stream.
    fn next_u64(&mut self) -> u64;

    /// The next 32-bit word (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly from an RNG via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision, like upstream's
    /// `Standard` distribution for `f64`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait UniformInt: Copy {
    /// Uniform draw from `[lo, hi)`. `hi > lo` is the caller's contract.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u64).wrapping_sub(lo as u64);
                debug_assert!(span > 0, "gen_range over an empty range");
                // Debiased multiply-shift (Lemire): reject the short tail.
                loop {
                    let x = rng.next_u64();
                    let hi128 = ((x as u128 * span as u128) >> 64) as u64;
                    let lo64 = (x as u128 * span as u128) as u64;
                    if lo64 >= span.wrapping_neg() % span {
                        return lo.wrapping_add(hi128 as $t);
                    }
                }
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

/// Extension methods over any [`RngCore`] — the subset of `rand::Rng`
/// used in this workspace.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform draw from a half-open integer range.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the range is empty.
    fn gen_range<T: UniformInt>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction, matching the `rand::SeedableRng` entry point
/// this workspace uses.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, expanding it with
    /// SplitMix64.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64 step — used to expand seeds into full state.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A small, fast, deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.gen::<u64>()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen::<u64>()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.gen::<u64>()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn gen_range_covers_and_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.gen_range(0u16..7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues drawn: {seen:?}");
    }
}
