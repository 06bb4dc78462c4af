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
//! Every arm is a safe `#[target_feature]` function: its indexing is
//! bounds-checked like any safe Rust, and it reaches memory only through
//! the four load/store helpers below, whose fixed-size array arguments
//! carry their lengths. Those helpers are the module's only raw-pointer
//! code. A caller answers for the CPU alone, which rustc cannot check
//! for it: the dispatchers in `lib.rs` select an AVX2 arm only after
//! clamping the requested level to runtime detection, and SSE2 is the
//! x86-64 baseline.

use core::arch::x86_64::*;

/// Loads two lanes.
#[allow(unsafe_code)]
#[inline(always)]
fn ld2(a: &[f64; 2]) -> __m128d {
    // SAFETY: `a` is valid for reading two f64s; SSE2 is the x86-64 baseline.
    unsafe { _mm_loadu_pd(a.as_ptr()) }
}

/// Stores two lanes.
#[allow(unsafe_code)]
#[inline(always)]
fn st2(a: &mut [f64; 2], v: __m128d) {
    // SAFETY: `a` is valid for writing two f64s; SSE2 is the x86-64 baseline.
    unsafe { _mm_storeu_pd(a.as_mut_ptr(), v) }
}

/// Loads four lanes.
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
#[inline]
fn ld4(a: &[f64; 4]) -> __m256d {
    // SAFETY: `a` is valid for reading four f64s; AVX is enabled here.
    unsafe { _mm256_loadu_pd(a.as_ptr()) }
}

/// Stores four lanes.
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
#[inline]
fn st4(a: &mut [f64; 4], v: __m256d) {
    // SAFETY: `a` is valid for writing four f64s; AVX is enabled here.
    unsafe { _mm256_storeu_pd(a.as_mut_ptr(), v) }
}

// ---------------------------------------------------------------------------
// combine_exact4
// ---------------------------------------------------------------------------

#[target_feature(enable = "sse2")]
pub(crate) fn combine_exact4_sse2(
    block: &[f64],
    pen: &[f64],
    den: &[f64],
    w: &[f64; 4],
    m: &[f64; 4],
) -> f64 {
    let nr = pen.len();
    let (rows, den) = (block[..nr * 4].as_chunks::<4>().0, &den[..nr]);
    let row2 = rows.as_chunks::<2>().0;
    let mut total = 0.0f64;
    for ((r, p), d) in row2.iter().zip(pen.as_chunks().0).zip(den.as_chunks().0) {
        let (p2, d2) = (ld2(p), ld2(d));
        let mut sq = _mm_setzero_pd();
        for i in 0..4 {
            let s = _mm_set_pd(r[1][i], r[0][i]);
            let dv = _mm_div_pd(_mm_mul_pd(s, p2), _mm_set1_pd(m[i]));
            sq = _mm_add_pd(sq, _mm_mul_pd(_mm_mul_pd(_mm_set1_pd(w[i]), dv), dv));
        }
        let mut l = [0.0f64; 2];
        st2(&mut l, _mm_div_pd(_mm_sqrt_pd(sq), d2));
        total += l[0];
        total += l[1];
    }
    for bi in row2.len() * 2..nr {
        total += crate::combine_pair(&rows[bi], pen[bi], den[bi], w, m);
    }
    total
}

#[target_feature(enable = "avx2")]
pub(crate) fn combine_exact4_avx2(
    block: &[f64],
    pen: &[f64],
    den: &[f64],
    w: &[f64; 4],
    m: &[f64; 4],
) -> f64 {
    let nr = pen.len();
    let (rows, den) = (block[..nr * 4].as_chunks::<4>().0, &den[..nr]);
    let row4 = rows.as_chunks::<4>().0;
    let w4 = w.map(|v| _mm256_set1_pd(v));
    let m4 = m.map(|v| _mm256_set1_pd(v));
    let mut total = 0.0f64;
    for ((r, p), d) in row4.iter().zip(pen.as_chunks().0).zip(den.as_chunks().0) {
        // Four ROI-major pair rows → four signature-major lanes via a
        // 4×4 in-register transpose.
        let t0 = _mm256_unpacklo_pd(ld4(&r[0]), ld4(&r[1]));
        let t1 = _mm256_unpackhi_pd(ld4(&r[0]), ld4(&r[1]));
        let t2 = _mm256_unpacklo_pd(ld4(&r[2]), ld4(&r[3]));
        let t3 = _mm256_unpackhi_pd(ld4(&r[2]), ld4(&r[3]));
        let s: [__m256d; 4] = [
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ];
        let (p4, d4) = (ld4(p), ld4(d));
        let mut sq = _mm256_setzero_pd();
        for i in 0..4 {
            let dv = _mm256_div_pd(_mm256_mul_pd(s[i], p4), m4[i]);
            sq = _mm256_add_pd(sq, _mm256_mul_pd(_mm256_mul_pd(w4[i], dv), dv));
        }
        let mut l = [0.0f64; 4];
        st4(&mut l, _mm256_div_pd(_mm256_sqrt_pd(sq), d4));
        // The running sum is order-sensitive: fold lanes in pair order.
        total += l[0];
        total += l[1];
        total += l[2];
        total += l[3];
    }
    for bi in row4.len() * 4..nr {
        total += crate::combine_pair(&rows[bi], pen[bi], den[bi], w, m);
    }
    total
}

// ---------------------------------------------------------------------------
// Vision kernels: conv_valid / conv_columns / halved_diff
// ---------------------------------------------------------------------------

#[target_feature(enable = "sse2")]
pub(crate) fn conv_valid_sse2(padded: &[f64], taps: &[f64], out: &mut [f64]) {
    let (heads, tail) = out.as_chunks_mut::<2>();
    for (x, o) in (0..).step_by(2).zip(heads.iter_mut()) {
        let mut acc = _mm_setzero_pd();
        for (&t, v) in taps.iter().zip(padded[x..x + taps.len() + 1].windows(2)) {
            let v = v.try_into().expect("two-lane window");
            acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(t), ld2(v)));
        }
        st2(o, acc);
    }
    let done = heads.len() * 2;
    crate::conv_valid_scalar(&padded[done..], taps, tail);
}

#[target_feature(enable = "avx2")]
pub(crate) fn conv_valid_avx2(padded: &[f64], taps: &[f64], out: &mut [f64]) {
    let (heads, tail) = out.as_chunks_mut::<4>();
    for (x, o) in (0..).step_by(4).zip(heads.iter_mut()) {
        let mut acc = _mm256_setzero_pd();
        for (&t, v) in taps.iter().zip(padded[x..x + taps.len() + 3].windows(4)) {
            let v = v.try_into().expect("four-lane window");
            acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(t), ld4(v)));
        }
        st4(o, acc);
    }
    let done = heads.len() * 4;
    crate::conv_valid_scalar(&padded[done..], taps, tail);
}

/// The source rows the taps read, `width` values each: output row `y`'s
/// taps read `rows[y..y + taps]` in tap order, clamped to the edge rows.
fn tap_rows(src: &[f64], width: usize, taps: usize) -> Vec<&[f64]> {
    let height = src.len() / width;
    let span = if height == 0 { 0 } else { height + taps - 1 };
    (0..span)
        .map(|j| {
            let r = crate::clamped_row(j, 0, taps / 2, height);
            &src[r * width..][..width]
        })
        .collect()
}

#[target_feature(enable = "sse2")]
pub(crate) fn conv_columns_sse2(src: &[f64], width: usize, taps: &[f64], out: &mut [f64]) {
    let rows = tap_rows(src, width, taps.len());
    for (y, orow) in out.chunks_exact_mut(width).enumerate() {
        let rows = &rows[y..y + taps.len()];
        let (heads, tail) = orow.as_chunks_mut::<2>();
        let (eights, twos) = heads.as_chunks_mut::<4>();
        // Four independent accumulators per step hide the add latency.
        for (x, o) in (0..).step_by(8).zip(eights.iter_mut()) {
            let mut acc = [_mm_setzero_pd(); 4];
            for (&t, row) in taps.iter().zip(rows) {
                let kv = _mm_set1_pd(t);
                for (a, v) in acc.iter_mut().zip(row[x..x + 8].as_chunks::<2>().0) {
                    *a = _mm_add_pd(*a, _mm_mul_pd(kv, ld2(v)));
                }
            }
            for (o, a) in o.iter_mut().zip(acc) {
                st2(o, a);
            }
        }
        let x0 = eights.len() * 8;
        for (x, o) in (x0..).step_by(2).zip(twos.iter_mut()) {
            let mut acc = _mm_setzero_pd();
            for (&t, row) in taps.iter().zip(rows) {
                let v = row[x..x + 2].try_into().expect("two lanes");
                acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(t), ld2(v)));
            }
            st2(o, acc);
        }
        let x0 = heads.len() * 2;
        for (x, o) in (x0..).zip(tail) {
            *o = crate::column_chain(src, width, taps, y, x);
        }
    }
}

#[target_feature(enable = "avx2")]
pub(crate) fn conv_columns_avx2(src: &[f64], width: usize, taps: &[f64], out: &mut [f64]) {
    let rows = tap_rows(src, width, taps.len());
    for (y, orow) in out.chunks_exact_mut(width).enumerate() {
        let rows = &rows[y..y + taps.len()];
        let (heads, tail) = orow.as_chunks_mut::<4>();
        let (sixteens, fours) = heads.as_chunks_mut::<4>();
        // Four independent accumulators per step hide the add latency.
        for (x, o) in (0..).step_by(16).zip(sixteens.iter_mut()) {
            let mut acc = [_mm256_setzero_pd(); 4];
            for (&t, row) in taps.iter().zip(rows) {
                let kv = _mm256_set1_pd(t);
                for (a, v) in acc.iter_mut().zip(row[x..x + 16].as_chunks::<4>().0) {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(kv, ld4(v)));
                }
            }
            for (o, a) in o.iter_mut().zip(acc) {
                st4(o, a);
            }
        }
        let x0 = sixteens.len() * 16;
        for (x, o) in (x0..).step_by(4).zip(fours.iter_mut()) {
            let mut acc = _mm256_setzero_pd();
            for (&t, row) in taps.iter().zip(rows) {
                let v = row[x..x + 4].try_into().expect("four lanes");
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(t), ld4(v)));
            }
            st4(o, acc);
        }
        let x0 = heads.len() * 4;
        for (x, o) in (x0..).zip(tail) {
            *o = crate::column_chain(src, width, taps, y, x);
        }
    }
}

#[target_feature(enable = "avx2")]
pub(crate) fn halved_diff_avx2(plus: &[f64], minus: &[f64], out: &mut [f64]) {
    let n = out.len();
    let (plus, minus) = (&plus[..n], &minus[..n]);
    let (heads, tail) = out.as_chunks_mut::<4>();
    let two = _mm256_set1_pd(2.0);
    let lanes = plus.as_chunks::<4>().0.iter().zip(minus.as_chunks::<4>().0);
    for (o, (p, m)) in heads.iter_mut().zip(lanes) {
        st4(o, _mm256_div_pd(_mm256_sub_pd(ld4(p), ld4(m)), two));
    }
    let done = heads.len() * 4;
    for ((o, &p), &m) in tail.iter_mut().zip(&plus[done..]).zip(&minus[done..]) {
        *o = (p - m) / 2.0;
    }
}

// ---------------------------------------------------------------------------
// nearest_groups4
// ---------------------------------------------------------------------------

#[target_feature(enable = "sse2")]
pub(crate) fn nearest_groups4_sse2(p: &[f64], tposed: &[f64], k: usize) -> (usize, f64) {
    let dim = p.len();
    let rows = tposed.as_chunks::<4>().0;
    let mut best = (0usize, f64::INFINITY);
    for g in 0..k.div_ceil(4) {
        let mut acc01 = _mm_setzero_pd();
        let mut acc23 = _mm_setzero_pd();
        for (&x, y) in p.iter().zip(&rows[g * dim..][..dim]) {
            let (x, y) = (_mm_set1_pd(x), y.as_chunks::<2>().0);
            let d01 = _mm_sub_pd(x, ld2(&y[0]));
            let d23 = _mm_sub_pd(x, ld2(&y[1]));
            acc01 = _mm_add_pd(acc01, _mm_mul_pd(d01, d01));
            acc23 = _mm_add_pd(acc23, _mm_mul_pd(d23, d23));
        }
        let mut l = [0.0f64; 4];
        st2(&mut l.as_chunks_mut::<2>().0[0], acc01);
        st2(&mut l.as_chunks_mut::<2>().0[1], acc23);
        crate::fold_group(&mut best, &l, g, k);
    }
    best
}

#[target_feature(enable = "avx2")]
pub(crate) fn nearest_groups4_avx2(p: &[f64], tposed: &[f64], k: usize) -> (usize, f64) {
    let dim = p.len();
    let rows = tposed.as_chunks::<4>().0;
    let mut best = (0usize, f64::INFINITY);
    for g in 0..k.div_ceil(4) {
        let mut acc = _mm256_setzero_pd();
        for (&x, y) in p.iter().zip(&rows[g * dim..][..dim]) {
            let d = _mm256_sub_pd(_mm256_set1_pd(x), ld4(y));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        let mut l = [0.0f64; 4];
        st4(&mut l, acc);
        crate::fold_group(&mut best, &l, g, k);
    }
    best
}

// ---------------------------------------------------------------------------
// Codebook::nearest's certified filter (AVX2 + FMA)
// ---------------------------------------------------------------------------

/// `a_c = ‖c‖² − 2·(p·c)` for the 16 words of four consecutive groups,
/// of which the first `G` are read from `t` (`G` groups of `p.len()`
/// lane rows) and `n2` (their norms); the rest score `+inf`. Two
/// accumulators per group (even and odd dimensions) give `2·G`
/// independent FMA chains; the order is free because the caller only
/// compares the scores against an error bound.
#[target_feature(enable = "avx2,fma")]
#[inline]
fn group_scores<const G: usize>(p: &[f64], t: &[[f64; 4]], n2: &[[f64; 4]]) -> [__m256d; 4] {
    let dim = p.len();
    let mut groups: [&[[f64; 4]]; G] = [&[]; G];
    for (g, rows) in groups.iter_mut().enumerate() {
        *rows = &t[g * dim..][..dim];
    }
    let mut even = [_mm256_setzero_pd(); G];
    let mut odd = [_mm256_setzero_pd(); G];
    let mut j = 0usize;
    while j + 2 <= dim {
        let (x0, x1) = (_mm256_set1_pd(p[j]), _mm256_set1_pd(p[j + 1]));
        for ((e, o), rows) in even.iter_mut().zip(&mut odd).zip(&groups) {
            *e = _mm256_fmadd_pd(x0, ld4(&rows[j]), *e);
            *o = _mm256_fmadd_pd(x1, ld4(&rows[j + 1]), *o);
        }
        j += 2;
    }
    if j < dim {
        let x0 = _mm256_set1_pd(p[j]);
        for (e, rows) in even.iter_mut().zip(&groups) {
            *e = _mm256_fmadd_pd(x0, ld4(&rows[j]), *e);
        }
    }
    let two = _mm256_set1_pd(2.0);
    let mut a = [_mm256_set1_pd(f64::INFINITY); 4];
    for ((a, (e, o)), n) in a.iter_mut().zip(even.iter().zip(&odd)).zip(n2) {
        *a = _mm256_fnmadd_pd(two, _mm256_add_pd(*e, *o), ld4(n));
    }
    a
}

/// Every lane set to the minimum of `v`'s four (no NaN).
#[target_feature(enable = "avx2")]
#[inline]
fn mm256_hmin(v: __m256d) -> __m256d {
    let m = _mm256_min_pd(v, _mm256_permute2f128_pd::<0x01>(v, v));
    _mm256_min_pd(m, _mm256_permute_pd::<0b0101>(m))
}

/// The certificate of `Codebook::nearest`: scores every word, then
/// returns the lowest-scoring one if every other word scores more than
/// `margin` above it, with no NaN and a finite minimum; `None` sends the
/// point to the exact kernel. Two words at the minimum (duplicate words)
/// leave a zero margin, so they never certify. Padded lanes have
/// `‖c‖² = +inf` and so score `+inf`: they are never the minimum, and
/// never closer than `margin` to it.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn nearest_certified_avx2_fma(
    p: &[f64],
    tposed: &[f64],
    norm2: &[f64],
    k: usize,
    margin: f64,
) -> Option<usize> {
    let dim = p.len();
    let ngroups = k.div_ceil(4);
    let (rows, norms) = (tposed.as_chunks::<4>().0, norm2.as_chunks::<4>().0);
    let inf = _mm256_set1_pd(f64::INFINITY);
    let (mut best, mut best_a, mut second) = (0usize, f64::INFINITY, f64::INFINITY);
    // Blocks of up to four groups (16 words), selected branch-free
    // in registers, then merged in word order.
    let mut g = 0usize;
    while g < ngroups {
        let take = (ngroups - g).min(4);
        let (t, n2) = (&rows[g * dim..], &norms[g..g + take]);
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
        let (block_a, block_second) = (_mm256_cvtsd_f64(lo), _mm256_cvtsd_f64(mm256_hmin(rest)));
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
