//! x86-64 SSE2 and AVX2 arms of the crate's kernels.
//!
//! Only kernels whose vector arms beat the scalar reference at their
//! production shape have arms here (docs/BENCHMARKS.md, "The SIMD
//! dispatch level"); `chi2_acc4` runs its scalar fold at every level.
//! Every function mirrors its scalar reference in `lib.rs`
//! operation-for-operation: the IEEE basic operations (`+ − × ÷ √`) are
//! correctly rounded, so performing the scalar sequence per lane yields
//! bit-identical results. Order-sensitive reductions (running sums)
//! extract lanes and fold in the scalar order. None of the mirrors use
//! FMA — contraction would change results. The one function that does,
//! `nearest_certified_avx2_fma`, mirrors nothing: it is the filter of
//! `Codebook::nearest`, whose output alone is held to the exact kernel.
//!
//! # Safety
//!
//! SSE2 is part of the x86-64 baseline, so the `*_sse2` functions are
//! callable on any x86-64 CPU; they are `unsafe` only for the raw
//! loads/stores, whose bounds the dispatch wrappers in `lib.rs` assert.
//! The `*_avx2` functions additionally require AVX2, which the
//! dispatchers guarantee by clamping the requested level to runtime
//! detection before selecting them.

use core::arch::x86_64::*;

// ---------------------------------------------------------------------------
// combine_exact4
// ---------------------------------------------------------------------------

/// Scalar per-pair combine shared by the vector tails.
#[inline(always)]
fn combine_pair_scalar(lanes: &[f64], p: f64, dn: f64, w: &[f64; 4], m: &[f64; 4]) -> f64 {
    let mut sq = 0.0f64;
    for i in 0..4 {
        let dv = (lanes[i] * p) / m[i];
        sq += w[i] * dv * dv;
    }
    sq.sqrt() / dn
}

// SAFETY: SSE2 is the x86-64 baseline. Loop bounds keep every access in
// range: `bi + 2 <= nr` with `pen.len() == nr`, and the dispatcher asserts
// `block.len() >= nr*4` and `den.len() >= nr`, covering the
// `get_unchecked(base1 + i)` reads (`base1 + 3 < nr*4`).
pub(crate) unsafe fn combine_exact4_sse2(
    block: &[f64],
    pen: &[f64],
    den: &[f64],
    w: &[f64; 4],
    m: &[f64; 4],
) -> f64 {
    // SAFETY: see the function-level comment above.
    unsafe {
        let nr = pen.len();
        let mut total = 0.0f64;
        let mut bi = 0usize;
        while bi + 2 <= nr {
            let p2 = _mm_loadu_pd(pen.as_ptr().add(bi));
            let d2 = _mm_loadu_pd(den.as_ptr().add(bi));
            let base0 = bi * 4;
            let base1 = bi * 4 + 4;
            let mut sq = _mm_setzero_pd();
            for i in 0..4 {
                let s = _mm_set_pd(
                    *block.get_unchecked(base1 + i),
                    *block.get_unchecked(base0 + i),
                );
                let dv = _mm_div_pd(_mm_mul_pd(s, p2), _mm_set1_pd(m[i]));
                sq = _mm_add_pd(sq, _mm_mul_pd(_mm_mul_pd(_mm_set1_pd(w[i]), dv), dv));
            }
            let t = _mm_div_pd(_mm_sqrt_pd(sq), d2);
            let mut l = [0.0f64; 2];
            _mm_storeu_pd(l.as_mut_ptr(), t);
            total += l[0];
            total += l[1];
            bi += 2;
        }
        while bi < nr {
            total += combine_pair_scalar(&block[bi * 4..bi * 4 + 4], pen[bi], den[bi], w, m);
            bi += 1;
        }
        total
    }
}

// SAFETY: the dispatcher selects this only when AVX2 is runtime-detected.
// Loop bounds keep every access in range: `bi + 4 <= nr` with
// `pen.len() == nr`, and the dispatcher asserts `block.len() >= nr*4` and
// `den.len() >= nr`, covering the four-row transpose loads
// (`bi*4 + 12 + 4 <= nr*4`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn combine_exact4_avx2(
    block: &[f64],
    pen: &[f64],
    den: &[f64],
    w: &[f64; 4],
    m: &[f64; 4],
) -> f64 {
    // SAFETY: see the function-level comment above.
    unsafe {
        let nr = pen.len();
        let w4: [__m256d; 4] = [
            _mm256_set1_pd(w[0]),
            _mm256_set1_pd(w[1]),
            _mm256_set1_pd(w[2]),
            _mm256_set1_pd(w[3]),
        ];
        let m4: [__m256d; 4] = [
            _mm256_set1_pd(m[0]),
            _mm256_set1_pd(m[1]),
            _mm256_set1_pd(m[2]),
            _mm256_set1_pd(m[3]),
        ];
        let mut total = 0.0f64;
        let mut bi = 0usize;
        while bi + 4 <= nr {
            // Four ROI-major pair rows → four signature-major lanes via a
            // 4×4 in-register transpose.
            let r0 = _mm256_loadu_pd(block.as_ptr().add(bi * 4));
            let r1 = _mm256_loadu_pd(block.as_ptr().add(bi * 4 + 4));
            let r2 = _mm256_loadu_pd(block.as_ptr().add(bi * 4 + 8));
            let r3 = _mm256_loadu_pd(block.as_ptr().add(bi * 4 + 12));
            let t0 = _mm256_unpacklo_pd(r0, r1);
            let t1 = _mm256_unpackhi_pd(r0, r1);
            let t2 = _mm256_unpacklo_pd(r2, r3);
            let t3 = _mm256_unpackhi_pd(r2, r3);
            let s: [__m256d; 4] = [
                _mm256_permute2f128_pd::<0x20>(t0, t2),
                _mm256_permute2f128_pd::<0x20>(t1, t3),
                _mm256_permute2f128_pd::<0x31>(t0, t2),
                _mm256_permute2f128_pd::<0x31>(t1, t3),
            ];
            let p4 = _mm256_loadu_pd(pen.as_ptr().add(bi));
            let d4 = _mm256_loadu_pd(den.as_ptr().add(bi));
            let mut sq = _mm256_setzero_pd();
            for i in 0..4 {
                let dv = _mm256_div_pd(_mm256_mul_pd(s[i], p4), m4[i]);
                sq = _mm256_add_pd(sq, _mm256_mul_pd(_mm256_mul_pd(w4[i], dv), dv));
            }
            let t = _mm256_div_pd(_mm256_sqrt_pd(sq), d4);
            let mut l = [0.0f64; 4];
            _mm256_storeu_pd(l.as_mut_ptr(), t);
            // The running sum is order-sensitive: fold lanes in pair order.
            total += l[0];
            total += l[1];
            total += l[2];
            total += l[3];
            bi += 4;
        }
        while bi < nr {
            total += combine_pair_scalar(&block[bi * 4..bi * 4 + 4], pen[bi], den[bi], w, m);
            bi += 1;
        }
        total
    }
}

// ---------------------------------------------------------------------------
// Vision kernels: conv_valid / conv_columns / halved_diff
// ---------------------------------------------------------------------------

// SAFETY: SSE2 is the x86-64 baseline; reads touch `padded[x + i + 1]` at
// most for `x + 2 <= out.len()`, `i < taps.len()`, and the dispatcher
// asserts `padded.len() + 1 >= out.len() + taps.len()`.
pub(crate) unsafe fn conv_valid_sse2(padded: &[f64], taps: &[f64], out: &mut [f64]) {
    unsafe {
        let n = out.len();
        let mut x = 0usize;
        while x + 2 <= n {
            let mut acc = _mm_setzero_pd();
            for (i, &t) in taps.iter().enumerate() {
                let v = _mm_loadu_pd(padded.as_ptr().add(x + i));
                acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(t), v));
            }
            _mm_storeu_pd(out.as_mut_ptr().add(x), acc);
            x += 2;
        }
        while x < n {
            let mut acc = 0.0f64;
            for (i, &t) in taps.iter().enumerate() {
                acc += t * padded[x + i];
            }
            out[x] = acc;
            x += 1;
        }
    }
}

// SAFETY: AVX2 is runtime-detected by the dispatcher; reads touch
// `padded[x + i + 3]` at most for `x + 4 <= out.len()`, `i < taps.len()`,
// and the dispatcher asserts `padded.len() + 1 >= out.len() + taps.len()`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn conv_valid_avx2(padded: &[f64], taps: &[f64], out: &mut [f64]) {
    unsafe {
        let n = out.len();
        let mut x = 0usize;
        while x + 4 <= n {
            let mut acc = _mm256_setzero_pd();
            for (i, &t) in taps.iter().enumerate() {
                let v = _mm256_loadu_pd(padded.as_ptr().add(x + i));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(t), v));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(x), acc);
            x += 4;
        }
        while x < n {
            let mut acc = 0.0f64;
            for (i, &t) in taps.iter().enumerate() {
                acc += t * padded[x + i];
            }
            out[x] = acc;
            x += 1;
        }
    }
}

// SAFETY: SSE2 is the x86-64 baseline. The dispatcher asserts `src` and
// `out` are the same whole rows of `width > 0`; every load reads a row
// `clamped_row(..) < height` at columns below `x + 8 <= width` (or
// `x + 2 <= width`), and every store writes `out` at the same offsets of row
// `y < height`.
pub(crate) unsafe fn conv_columns_sse2(src: &[f64], width: usize, taps: &[f64], out: &mut [f64]) {
    unsafe {
        let (height, radius) = (src.len() / width, taps.len() / 2);
        for y in 0..height {
            let orow = out.as_mut_ptr().add(y * width);
            let mut x = 0usize;
            // Four independent accumulators per step hide the add latency.
            while x + 8 <= width {
                let mut acc = [_mm_setzero_pd(); 4];
                for (i, &t) in taps.iter().enumerate() {
                    let row = src
                        .as_ptr()
                        .add(crate::clamped_row(y, i, radius, height) * width + x);
                    let kv = _mm_set1_pd(t);
                    for (l, a) in acc.iter_mut().enumerate() {
                        *a = _mm_add_pd(*a, _mm_mul_pd(kv, _mm_loadu_pd(row.add(2 * l))));
                    }
                }
                for (l, a) in acc.iter().enumerate() {
                    _mm_storeu_pd(orow.add(x + 2 * l), *a);
                }
                x += 8;
            }
            while x + 2 <= width {
                let mut acc = _mm_setzero_pd();
                for (i, &t) in taps.iter().enumerate() {
                    let row = src
                        .as_ptr()
                        .add(crate::clamped_row(y, i, radius, height) * width + x);
                    acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(t), _mm_loadu_pd(row)));
                }
                _mm_storeu_pd(orow.add(x), acc);
                x += 2;
            }
            while x < width {
                *orow.add(x) = crate::column_chain(src, width, taps, y, x);
                x += 1;
            }
        }
    }
}

// SAFETY: AVX2 is runtime-detected by the dispatcher, which asserts `src`
// and `out` are the same whole rows of `width > 0`; every load reads a row
// `clamped_row(..) < height` at columns below `x + 16 <= width` (or
// `x + 4 <= width`), and every store writes `out` at the same offsets of row
// `y < height`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn conv_columns_avx2(src: &[f64], width: usize, taps: &[f64], out: &mut [f64]) {
    unsafe {
        let (height, radius) = (src.len() / width, taps.len() / 2);
        for y in 0..height {
            let orow = out.as_mut_ptr().add(y * width);
            let mut x = 0usize;
            // Four independent accumulators per step hide the add latency.
            while x + 16 <= width {
                let mut acc = [_mm256_setzero_pd(); 4];
                for (i, &t) in taps.iter().enumerate() {
                    let row = src
                        .as_ptr()
                        .add(crate::clamped_row(y, i, radius, height) * width + x);
                    let kv = _mm256_set1_pd(t);
                    for (l, a) in acc.iter_mut().enumerate() {
                        *a = _mm256_add_pd(*a, _mm256_mul_pd(kv, _mm256_loadu_pd(row.add(4 * l))));
                    }
                }
                for (l, a) in acc.iter().enumerate() {
                    _mm256_storeu_pd(orow.add(x + 4 * l), *a);
                }
                x += 16;
            }
            while x + 4 <= width {
                let mut acc = _mm256_setzero_pd();
                for (i, &t) in taps.iter().enumerate() {
                    let row = src
                        .as_ptr()
                        .add(crate::clamped_row(y, i, radius, height) * width + x);
                    acc =
                        _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(t), _mm256_loadu_pd(row)));
                }
                _mm256_storeu_pd(orow.add(x), acc);
                x += 4;
            }
            while x < width {
                *orow.add(x) = crate::column_chain(src, width, taps, y, x);
                x += 1;
            }
        }
    }
}

// SAFETY: SSE2 is the x86-64 baseline; the loop bound `i + 2 <= out.len()`
// keeps every access in bounds (the dispatcher asserts `plus` and `minus`
// are at least `out.len()` long).
pub(crate) unsafe fn halved_diff_sse2(plus: &[f64], minus: &[f64], out: &mut [f64]) {
    unsafe {
        let n = out.len();
        let two = _mm_set1_pd(2.0);
        let mut i = 0usize;
        while i + 2 <= n {
            let d = _mm_sub_pd(
                _mm_loadu_pd(plus.as_ptr().add(i)),
                _mm_loadu_pd(minus.as_ptr().add(i)),
            );
            _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_div_pd(d, two));
            i += 2;
        }
        while i < n {
            out[i] = (plus[i] - minus[i]) / 2.0;
            i += 1;
        }
    }
}

// SAFETY: AVX2 is runtime-detected by the dispatcher; the loop bound
// `i + 4 <= out.len()` keeps every access in bounds (the dispatcher asserts
// `plus` and `minus` are at least `out.len()` long).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn halved_diff_avx2(plus: &[f64], minus: &[f64], out: &mut [f64]) {
    unsafe {
        let n = out.len();
        let two = _mm256_set1_pd(2.0);
        let mut i = 0usize;
        while i + 4 <= n {
            let d = _mm256_sub_pd(
                _mm256_loadu_pd(plus.as_ptr().add(i)),
                _mm256_loadu_pd(minus.as_ptr().add(i)),
            );
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_div_pd(d, two));
            i += 4;
        }
        while i < n {
            out[i] = (plus[i] - minus[i]) / 2.0;
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// nearest_groups4
// ---------------------------------------------------------------------------

// SAFETY: SSE2 is the x86-64 baseline; reads touch
// `tposed[base + j*4 .. base + j*4 + 4]` for `g < ⌈k/4⌉`, `j < dim`, and the
// dispatcher asserts `tposed.len() >= ⌈k/4⌉ * dim * 4`; `get_unchecked(j)`
// has `j < p.len()`.
pub(crate) unsafe fn nearest_groups4_sse2(p: &[f64], tposed: &[f64], k: usize) -> (usize, f64) {
    unsafe {
        let dim = p.len();
        let ngroups = k.div_ceil(4);
        let mut best = (0usize, f64::INFINITY);
        for g in 0..ngroups {
            let base = g * dim * 4;
            let mut acc01 = _mm_setzero_pd();
            let mut acc23 = _mm_setzero_pd();
            for j in 0..dim {
                let x = _mm_set1_pd(*p.get_unchecked(j));
                let y01 = _mm_loadu_pd(tposed.as_ptr().add(base + j * 4));
                let y23 = _mm_loadu_pd(tposed.as_ptr().add(base + j * 4 + 2));
                let d01 = _mm_sub_pd(x, y01);
                let d23 = _mm_sub_pd(x, y23);
                acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
                acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
            }
            let mut l = [0.0f64; 4];
            _mm_storeu_pd(l.as_mut_ptr(), acc01);
            _mm_storeu_pd(l.as_mut_ptr().add(2), acc23);
            for (lane, &dd) in l.iter().enumerate() {
                let ci = g * 4 + lane;
                if ci < k && dd < best.1 {
                    best = (ci, dd);
                }
            }
        }
        best
    }
}

// SAFETY: AVX2 is runtime-detected by the dispatcher; reads touch
// `tposed[base + j*4 .. base + j*4 + 4]` for `g < ⌈k/4⌉`, `j < dim`, and the
// dispatcher asserts `tposed.len() >= ⌈k/4⌉ * dim * 4`; `get_unchecked(j)`
// has `j < p.len()`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn nearest_groups4_avx2(p: &[f64], tposed: &[f64], k: usize) -> (usize, f64) {
    unsafe {
        let dim = p.len();
        let ngroups = k.div_ceil(4);
        let mut best = (0usize, f64::INFINITY);
        for g in 0..ngroups {
            let base = g * dim * 4;
            let mut acc = _mm256_setzero_pd();
            for j in 0..dim {
                let x = _mm256_set1_pd(*p.get_unchecked(j));
                let y = _mm256_loadu_pd(tposed.as_ptr().add(base + j * 4));
                let d = _mm256_sub_pd(x, y);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            }
            let mut l = [0.0f64; 4];
            _mm256_storeu_pd(l.as_mut_ptr(), acc);
            for (lane, &dd) in l.iter().enumerate() {
                let ci = g * 4 + lane;
                if ci < k && dd < best.1 {
                    best = (ci, dd);
                }
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Codebook::nearest's certified filter (AVX2 + FMA)
// ---------------------------------------------------------------------------

/// `a_c = ‖c‖² − 2·(p·c)` for the 16 words of four consecutive groups,
/// of which the first `G` are read; the rest score `+inf`. Two
/// accumulators per group (even and odd dimensions) give `2·G`
/// independent FMA chains; the order is free because the caller only
/// compares the scores against an error bound.
// SAFETY: callers run with AVX2 and FMA enabled and pass `t` pointing at
// `G` whole groups (`G·p.len()·4` values) and `n2` at `4·G` norms;
// `get_unchecked(j)` has `j < p.len()`.
#[inline(always)]
unsafe fn group_scores<const G: usize>(p: &[f64], t: *const f64, n2: *const f64) -> [__m256d; 4] {
    unsafe {
        let dim = p.len();
        let mut even = [_mm256_setzero_pd(); G];
        let mut odd = [_mm256_setzero_pd(); G];
        let mut j = 0usize;
        while j + 2 <= dim {
            let x0 = _mm256_set1_pd(*p.get_unchecked(j));
            let x1 = _mm256_set1_pd(*p.get_unchecked(j + 1));
            for (g, (e, o)) in even.iter_mut().zip(&mut odd).enumerate() {
                let row = t.add((g * dim + j) * 4);
                *e = _mm256_fmadd_pd(x0, _mm256_loadu_pd(row), *e);
                *o = _mm256_fmadd_pd(x1, _mm256_loadu_pd(row.add(4)), *o);
            }
            j += 2;
        }
        if j < dim {
            let x0 = _mm256_set1_pd(*p.get_unchecked(j));
            for (g, e) in even.iter_mut().enumerate() {
                *e = _mm256_fmadd_pd(x0, _mm256_loadu_pd(t.add((g * dim + j) * 4)), *e);
            }
        }
        let two = _mm256_set1_pd(2.0);
        let mut a = [_mm256_set1_pd(f64::INFINITY); 4];
        for (g, (e, o)) in even.iter().zip(&odd).enumerate() {
            let dot = _mm256_add_pd(*e, *o);
            a[g] = _mm256_fnmadd_pd(two, dot, _mm256_loadu_pd(n2.add(4 * g)));
        }
        a
    }
}

/// Every lane set to the minimum of `v`'s four (no NaN).
// SAFETY: register-only AVX2 arithmetic; callers must run with AVX2 enabled.
#[inline(always)]
unsafe fn mm256_hmin(v: __m256d) -> __m256d {
    unsafe {
        let m = _mm256_min_pd(v, _mm256_permute2f128_pd::<0x01>(v, v));
        _mm256_min_pd(m, _mm256_permute_pd::<0b0101>(m))
    }
}

/// The certificate of `Codebook::nearest`: scores every word, then
/// returns the lowest-scoring one if every other word scores more than
/// `margin` above it, with no NaN and a finite minimum; `None` sends the
/// point to the exact kernel. Two words at the minimum (duplicate words)
/// leave a zero margin, so they never certify. Padded lanes have
/// `‖c‖² = +inf` and so score `+inf`: they are never the minimum, and
/// never closer than `margin` to it.
// SAFETY: the caller runs this only when AVX2 and FMA are runtime-detected,
// with `tposed.len() >= ⌈k/4⌉·p.len()·4` and `norm2.len() >= ⌈k/4⌉·4`
// (`Codebook::new` sizes both); each `group_scores` call covers groups
// `g..g + G <= ⌈k/4⌉`.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn nearest_certified_avx2_fma(
    p: &[f64],
    tposed: &[f64],
    norm2: &[f64],
    k: usize,
    margin: f64,
) -> Option<usize> {
    // SAFETY: see the function-level comment above.
    unsafe {
        let dim = p.len();
        let ngroups = k.div_ceil(4);
        let inf = _mm256_set1_pd(f64::INFINITY);
        let (mut best, mut best_a, mut second) = (0usize, f64::INFINITY, f64::INFINITY);
        // Blocks of up to four groups (16 words), selected branch-free
        // in registers, then merged in word order.
        let mut g = 0usize;
        while g < ngroups {
            let take = (ngroups - g).min(4);
            let t = tposed.as_ptr().add(g * dim * 4);
            let n2 = norm2.as_ptr().add(g * 4);
            let a = match take {
                4 => group_scores::<4>(p, t, n2),
                3 => group_scores::<3>(p, t, n2),
                2 => group_scores::<2>(p, t, n2),
                _ => group_scores::<1>(p, t, n2),
            };
            let unordered = _mm256_or_pd(
                _mm256_cmp_pd::<_CMP_UNORD_Q>(a[0], a[1]),
                _mm256_cmp_pd::<_CMP_UNORD_Q>(a[2], a[3]),
            );
            if _mm256_movemask_pd(unordered) != 0 {
                return None;
            }
            let lo = mm256_hmin(_mm256_min_pd(
                _mm256_min_pd(a[0], a[1]),
                _mm256_min_pd(a[2], a[3]),
            ));
            // Which of the 16 lanes hold the block minimum, and the
            // minimum of the others.
            let mut at_min = 0u32;
            let mut rest = inf;
            for (i, &v) in a.iter().enumerate() {
                let eq = _mm256_cmp_pd::<_CMP_EQ_OQ>(v, lo);
                at_min |= (_mm256_movemask_pd(eq) as u32) << (4 * i);
                rest = _mm256_min_pd(rest, _mm256_blendv_pd(v, inf, eq));
            }
            if !at_min.is_power_of_two() {
                return None;
            }
            let (block_a, block_second) =
                (_mm256_cvtsd_f64(lo), _mm256_cvtsd_f64(mm256_hmin(rest)));
            if block_a < best_a {
                second = best_a.min(block_second);
                best_a = block_a;
                best = g * 4 + at_min.trailing_zeros() as usize;
            } else {
                second = second.min(block_a);
            }
            g += take;
        }
        (best_a.is_finite() && second - best_a > margin).then_some(best)
    }
}
