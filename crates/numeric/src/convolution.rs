//! Linear convolution kernels.
//!
//! The sum of two independent random variables has as PDF the convolution of
//! the operand PDFs. The paper computes these convolutions numerically with
//! an FFT (it mentions the *Overlap-Add* method as a "classic numerical
//! technique" for efficiency; at this workspace's 64–1024-point sizes one
//! zero-padded transform or the direct sum is faster). Two interchangeable
//! kernels live here:
//!
//! * [`convolve_direct`] — O(n·m) schoolbook convolution, the accuracy
//!   reference; its vectorized inner sweep runs over the longer operand
//!   while every output slot keeps one fixed accumulation order (see
//!   [`convolve_direct_into`]);
//! * [`convolve_fft`] — zero-padded FFT convolution, O((n+m)·log(n+m)),
//!   running on the thread-local [`crate::fft::FftPlan`] cache.
//!
//! Both agree to ~1e-10 on the sizes this workspace uses (tested below
//! and in the property suite). [`convolve_auto`] picks between direct and
//! FFT with a cost model fitted to measurements on this hardware (see
//! `direct_is_faster`); the `_into` variants write into caller-owned
//! storage so the evaluator hot path allocates nothing.

use crate::fft::{next_power_of_two, with_plan_scratch, Complex};

/// Full linear convolution, direct O(n·m) evaluation, into caller storage.
///
/// `out` is cleared and resized to `a.len() + b.len() - 1` (left empty if
/// either input is empty).
///
/// Every output slot `out[k]` accumulates its terms `a[i]·b[k−i]` in
/// ascending `i`, whichever operand is longer: the inner multiply-add
/// sweep always runs over the longer operand (so it vectorizes over many
/// lanes), and when that is `b` the outer loop walks `a` forwards, when it
/// is `a` the outer loop walks `b` *backwards* — descending `j = k − i` is
/// ascending `i`. Zero factors are skipped on the outer operand only;
/// adding `±0` never changes a slot that starts at `+0`, so for finite
/// inputs the result is bit-identical in either loop order.
pub fn convolve_direct_into(a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    out.resize(a.len() + b.len() - 1, 0.0);
    // Slice-zip form: no bounds checks in the inner loops, so the compiler
    // vectorizes the multiply-add sweeps across independent output slots.
    if b.len() < a.len() {
        for (j, &y) in b.iter().enumerate().rev() {
            if y == 0.0 {
                continue;
            }
            for (d, &x) in out[j..j + a.len()].iter_mut().zip(a.iter()) {
                *d += x * y;
            }
        }
    } else {
        for (i, &x) in a.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (d, &y) in out[i..i + b.len()].iter_mut().zip(b.iter()) {
                *d += x * y;
            }
        }
    }
}

/// Full linear convolution, direct O(n·m) evaluation.
///
/// Returns a vector of length `a.len() + b.len() - 1` (empty if either input
/// is empty).
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    convolve_direct_into(a, b, &mut out);
    out
}

/// Full linear convolution via one zero-padded FFT, into caller storage.
///
/// Uses the thread-local plan cache, so repeated calls of the same padded
/// size recompute no twiddle factors and allocate nothing.
pub fn convolve_fft_into(a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    let out_len = a.len() + b.len() - 1;
    let size = next_power_of_two(out_len);
    with_plan_scratch(size, |plan, fa, fb| {
        for (slot, &x) in fa.iter_mut().zip(a.iter()) {
            *slot = Complex::new(x, 0.0);
        }
        for (slot, &x) in fb.iter_mut().zip(b.iter()) {
            *slot = Complex::new(x, 0.0);
        }
        plan.fft(fa);
        plan.fft(fb);
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x = *x * *y;
        }
        plan.ifft(fa);
        out.extend(fa.iter().take(out_len).map(|z| z.re));
    });
}

/// Full linear convolution via one zero-padded FFT.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    convolve_fft_into(a, b, &mut out);
    out
}

/// Whether the direct kernel beats the (plan-cached) FFT kernel for operand
/// lengths `n` and `m`.
///
/// Cost model fitted on the reference machine (Xeon @ 2.10 GHz, the
/// `convolution-{64,256,1024}` bench groups): the direct kernel retires a
/// multiply-add in ~0.22 ns out of its `n·m` total, while the plan-cached
/// FFT path (three transforms of the padded size `s`) costs ~`s·log2(s)`
/// butterflies each at ~3 ns effective. Measured break-even sits near
/// `n·m ≈ 16·s·log2(s)`: two 256-point operands are still direct
/// (14.1 µs vs 21.2 µs measured), two 1024-point operands firmly FFT
/// (218 µs vs 94 µs). The old `min(n, m) ≤ 32` rule sent everything above
/// tiny sizes to the FFT, a 2× loss across the evaluator's whole working
/// range.
fn direct_is_faster(n: usize, m: usize) -> bool {
    let s = next_power_of_two(n + m - 1);
    let log2s = s.trailing_zeros() as usize;
    n * m <= 16 * s * log2s
}

/// Picks the best kernel for the given sizes (see `direct_is_faster`) and
/// writes the result into caller storage.
pub fn convolve_auto_into(a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    if a.is_empty() || b.is_empty() {
        out.clear();
        return;
    }
    if direct_is_faster(a.len(), b.len()) {
        convolve_direct_into(a, b, out);
    } else {
        convolve_fft_into(a, b, out);
    }
}

/// Picks the best kernel for the given sizes (see `direct_is_faster`).
pub fn convolve_auto(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    convolve_auto_into(a, b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len(), "length mismatch");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(approx_eq(*x, *y, tol), "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn direct_known_small_case() {
        // (1 + 2x)·(3 + 4x) = 3 + 10x + 8x²
        let out = convolve_direct(&[1.0, 2.0], &[3.0, 4.0]);
        assert_close(&out, &[3.0, 10.0, 8.0], 1e-12);
    }

    #[test]
    fn direct_with_delta_is_identity() {
        let a = [0.5, 1.5, 2.5, 0.25];
        let out = convolve_direct(&a, &[1.0]);
        assert_close(&out, &a, 1e-12);
    }

    #[test]
    fn empty_inputs_yield_empty() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
        let mut out = vec![1.0];
        convolve_auto_into(&[], &[1.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn fft_matches_direct() {
        let a: Vec<f64> = (0..37).map(|i| ((i * 7) % 11) as f64 * 0.25).collect();
        let b: Vec<f64> = (0..53).map(|i| ((i * 3) % 17) as f64 - 5.0).collect();
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        assert_close(&d, &f, 1e-9);
    }

    #[test]
    fn into_variants_match_owned() {
        let a: Vec<f64> = (0..70).map(|i| (i as f64 * 0.11).cos()).collect();
        let b: Vec<f64> = (0..41).map(|i| (i as f64 * 0.07).sin()).collect();
        let mut out = vec![9.0; 3]; // stale content must be discarded
        convolve_direct_into(&a, &b, &mut out);
        assert_eq!(out, convolve_direct(&a, &b));
        convolve_fft_into(&a, &b, &mut out);
        assert_eq!(out, convolve_fft(&a, &b));
        convolve_auto_into(&a, &b, &mut out);
        assert_eq!(out, convolve_auto(&a, &b));
    }

    #[test]
    fn convolution_preserves_total_mass() {
        // ∑(a⊛b) = ∑a · ∑b — the property that keeps PDFs normalized.
        let a = [0.2, 0.3, 0.5];
        let b = [0.25, 0.25, 0.25, 0.25];
        let out = convolve_fft(&a, &b);
        let mass: f64 = out.iter().sum();
        assert!(approx_eq(mass, 1.0, 1e-12));
    }

    #[test]
    fn auto_dispatches_small_and_large() {
        let small = convolve_auto(&[1.0, 1.0], &[1.0, 1.0]);
        assert_close(&small, &[1.0, 2.0, 1.0], 1e-12);
        let a = vec![1.0; 64];
        let b = vec![1.0; 64];
        let big = convolve_auto(&a, &b);
        assert_eq!(big.len(), 127);
        assert!(approx_eq(big[63], 64.0, 1e-9));
    }

    #[test]
    fn crossover_sends_large_sizes_to_fft() {
        // The model must keep the evaluator's working sizes (~129 ⊛ 129,
        // ~129 ⊛ 257) on the direct kernel and large equal sizes on FFT.
        assert!(super::direct_is_faster(129, 129));
        assert!(super::direct_is_faster(129, 257));
        assert!(!super::direct_is_faster(1024, 1024));
    }
}
