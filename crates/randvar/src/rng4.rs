//! Four `StdRng` streams advanced together in the lanes of AVX2 vectors.
//!
//! The Monte-Carlo engine seeds every realization chunk with its own
//! `StdRng` (xoshiro256++), and all full chunks of a call draw the same
//! number of words in the same pattern. Four of them can therefore draw in
//! lockstep: [`StdRngX4`] keeps the four generators' states as one 256-bit
//! vector per state word, and one vector step of xoshiro256++ yields each
//! generator's next word at once. Lane `l`'s outputs are exactly the
//! `next_u64` sequence of the generator it was built from, so a caller
//! that reads lane `l` where it used to read that generator draws the same
//! samples. [`QuantileTable::fill_row_x4_u53`](crate::QuantileTable::fill_row_x4_u53)
//! is the consumer.

use rand::rngs::StdRng;

/// Four xoshiro256++ streams in lockstep, one per 64-bit lane of an AVX2
/// vector. It exists only on a CPU with AVX2 (see [`StdRngX4::new`]),
/// which is what makes the safe entry points that take it sound.
#[derive(Debug, Clone)]
pub struct StdRngX4 {
    /// `s[i][l]`: state word `i` of lane `l`, so that `s[i]` loads as one
    /// vector.
    s: [[u64; 4]; 4],
}

impl StdRngX4 {
    /// The four generators' streams side by side: lane `l` continues
    /// `rngs[l]` from its current state. `None` on a CPU without AVX2, the
    /// only place the lockstep step runs.
    pub fn new(rngs: &[StdRng; 4]) -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            let states = rngs.each_ref().map(StdRng::state);
            return Some(Self {
                s: std::array::from_fn(|i| states.map(|s| s[i])),
            });
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = rngs;
        None
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use lanes::Lanes;

#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::StdRngX4;
    use std::arch::x86_64::*;

    /// A [`StdRngX4`]'s state in registers: one vector per state word.
    pub(crate) struct Lanes([__m256i; 4]);

    impl Lanes {
        /// Loads the generator's state.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) fn load(rng: &StdRngX4) -> Self {
            // SAFETY: each `rng.s[i]` is four contiguous u64; AVX2 is
            // enabled.
            Self(
                rng.s
                    .map(|w| unsafe { _mm256_loadu_si256(w.as_ptr().cast()) }),
            )
        }

        /// Writes the state back, so the next load continues the streams.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) fn store(self, rng: &mut StdRngX4) {
            for (w, v) in rng.s.iter_mut().zip(self.0) {
                // SAFETY: `w` is four contiguous u64; AVX2 is enabled.
                unsafe { _mm256_storeu_si256(w.as_mut_ptr().cast(), v) };
            }
        }

        /// One xoshiro256++ step in every lane: lane `l` of the result is
        /// the next `next_u64` of lane `l`'s generator. The same operations
        /// as `StdRng::next_u64`, with each rotation spelled as two shifts
        /// and an OR (AVX2 has no 64-bit rotate).
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) fn next(&mut self) -> __m256i {
            let [s0, s1, s2, s3] = &mut self.0;
            let sum = _mm256_add_epi64(*s0, *s3);
            let rot = _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
            let result = _mm256_add_epi64(rot, *s0);
            let t = _mm256_slli_epi64::<17>(*s1);
            *s2 = _mm256_xor_si256(*s2, *s0);
            *s3 = _mm256_xor_si256(*s3, *s1);
            *s1 = _mm256_xor_si256(*s1, *s2);
            *s0 = _mm256_xor_si256(*s0, *s3);
            *s2 = _mm256_xor_si256(*s2, t);
            *s3 = _mm256_or_si256(_mm256_slli_epi64::<45>(*s3), _mm256_srli_epi64::<19>(*s3));
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// Each lane of the lockstep generator against its own `StdRng`, from
    /// seeding on, for 10⁵ steps.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lanes_match_std_rng_streams() {
        #[target_feature(enable = "avx2")]
        fn draw(rng: &mut StdRngX4, steps: usize) -> Vec<[u64; 4]> {
            let mut lanes = Lanes::load(rng);
            let words = (0..steps)
                // SAFETY: an `__m256i` is four u64.
                .map(|_| unsafe { std::mem::transmute::<_, [u64; 4]>(lanes.next()) })
                .collect();
            lanes.store(rng);
            words
        }
        let seeds = [0, 1, 0xC0FFEE, u64::MAX];
        let mut rngs = seeds.map(StdRng::seed_from_u64);
        let Some(mut x4) = StdRngX4::new(&rngs) else {
            println!("skipped: this CPU has no AVX2, so no lockstep generator exists");
            return;
        };
        // Two calls: the second continues from the stored state.
        for steps in [60_000, 40_000] {
            // SAFETY: `StdRngX4::new` returned a generator, so the CPU has
            // AVX2.
            let words = unsafe { draw(&mut x4, steps) };
            for (k, w) in words.iter().enumerate() {
                for (l, rng) in rngs.iter_mut().enumerate() {
                    assert_eq!(w[l], rng.next_u64(), "lane {l}, step {k}");
                }
            }
        }
    }
}
