//! Linear convolution.
//!
//! The sum of two independent random variables has as PDF the convolution of
//! the operand PDFs. The paper names the FFT (*Overlap-Add*) as the efficient
//! route; here the operands of every sum are resampled to at most a few
//! hundred points, where the O(n·m) direct sum is the only kernel needed.
//! [`convolve_direct`] vectorizes its inner sweep over the longer operand
//! while every output slot keeps one fixed accumulation order (see
//! [`convolve_direct_into`]), which writes into caller-owned storage so the
//! evaluator hot path allocates nothing.

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
///
/// Always inlined, so that a caller compiled for wider vectors (the AVX2
/// copy of `DiscreteRv::sum_into`) compiles this loop for them too.
#[inline(always)]
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
        assert!(convolve_direct(&[1.0], &[]).is_empty());
        let mut out = vec![1.0];
        convolve_direct_into(&[], &[1.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn into_variants_match_owned() {
        let a: Vec<f64> = (0..70).map(|i| (i as f64 * 0.11).cos()).collect();
        let b: Vec<f64> = (0..41).map(|i| (i as f64 * 0.07).sin()).collect();
        let mut out = vec![9.0; 3]; // stale content must be discarded
        convolve_direct_into(&a, &b, &mut out);
        assert_eq!(out, convolve_direct(&a, &b));
    }

    #[test]
    fn convolution_preserves_total_mass() {
        // ∑(a⊛b) = ∑a · ∑b — the property that keeps PDFs normalized.
        let a = [0.2, 0.3, 0.5];
        let b = [0.25, 0.25, 0.25, 0.25];
        let out = convolve_direct(&a, &b);
        let mass: f64 = out.iter().sum();
        assert!(approx_eq(mass, 1.0, 1e-12));
    }
}
