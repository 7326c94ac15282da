//! Offline stand-in for the subset of the `rand` 0.8 API used by this
//! workspace (see README.md). Deterministic, dependency-free, and
//! API-compatible at every call site in the repository.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Libraries return data; binaries print (README.md "Static analysis").
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod rngs;

pub use rngs::SmallRng;

/// Low-level source of randomness: a stream of 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits (high word of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A value types can be sampled uniformly "at standard" from an RNG
/// (the shim's analogue of `Standard: Distribution<T>`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
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
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of one word.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform integer in `[0, span)` by rejection sampling (no modulo bias).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = (u64::MAX / span) * span;
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

/// A range usable with [`Rng::gen_range`].
pub trait SampleRange {
    /// The sampled element type.
    type Output;
    /// Draws one element uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

impl SampleRange for core::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty f64 range");
        a + (b - a) * unit_f64(rng)
    }
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty integer range");
                let span = (b - a) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                a + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

int_range_impls!(u64, u32, usize);

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of type `T` (e.g. `rng.gen::<u64>()`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from `range` (e.g. `rng.gen_range(0.0..1.0)`).
    fn gen_range<Rr: SampleRange>(&mut self, range: Rr) -> Rr::Output {
        range.sample_from(self)
    }

    /// Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p = {p} out of [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from seeds, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Expands a 64-bit seed into a full RNG state (SplitMix64, as in
    /// rand 0.8's default `seed_from_u64`).
    fn seed_from_u64(seed: u64) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_range_bounds_respected() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&f));
            let g = rng.gen_range(0.5..=0.5);
            assert_eq!(g, 0.5);
            let i = rng.gen_range(1..(1u64 << 10));
            assert!((1..1024).contains(&i));
            let j = rng.gen_range(3usize..=5);
            assert!((3..=5).contains(&j));
        }
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..40_000).filter(|_| rng.gen_bool(0.25)).count();
        let freq = hits as f64 / 40_000.0;
        assert!((freq - 0.25).abs() < 0.02, "freq = {freq}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn integer_sampling_covers_span() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }
}
