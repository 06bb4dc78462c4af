//! Runtime-dispatched explicit-SIMD kernels for the ForeCache hot paths.
//!
//! Every kernel in this crate exists in three variants — portable
//! scalar, x86-64 SSE2, and AVX2 — selected at runtime by a
//! [`SimdLevel`] argument. The contract that makes the dispatch safe to
//! use on golden-tested paths is **lane-for-lane bit-identity**: each
//! vector variant performs exactly the floating-point operations of the
//! scalar variant, on the same operands, in the same per-lane order, so
//! all three produce bit-identical results (including NaN/±inf
//! propagation from degenerate inputs). Where an operation's result is
//! order-insensitive by construction (the [`max_num`] reductions), the
//! variants may partition work differently, but the returned value is
//! still bitwise equal.
//!
//! One entry meets the contract at its output instead of per lane:
//! [`Codebook::nearest`] may decide the nearest centroid from dot
//! products (AVX2 with FMA), but only when a stated error bound proves
//! that the exact kernel would return the same index; otherwise it runs
//! the exact kernel. The index it returns is the exact kernel's at
//! every level.
//!
//! # Dispatch rules
//!
//! * [`active_level`] resolves the process-wide default once: the best
//!   level the CPU supports, overridden by `FC_FORCE_SCALAR` (any
//!   non-empty value other than `"0"`) or `FC_SIMD=scalar|sse2|avx2`
//!   (clamped to what the CPU supports).
//! * Callers thread an explicit [`SimdLevel`] through to the kernels
//!   (e.g. `SbRecommender` resolves it at construction), so tests can
//!   pin any level via [`available_levels`].
//! * Every kernel re-clamps its `level` argument to the detected CPU
//!   features, so a stale or hostile level value degrades to a slower
//!   correct path instead of executing unsupported instructions.
//! * On non-x86-64 targets everything runs the scalar variant.
//!
//! # Adding a kernel
//!
//! 1. Write the scalar reference in this file — it *is* the
//!    specification; keep every operation and its order explicit.
//! 2. Mirror it in the private `x86` module with SSE2 (`__m128d`) and AVX2 (`__m256d`)
//!    lanes, preserving per-lane operation order. Reductions that are
//!    order-sensitive (running sums) must extract lanes and fold in the
//!    scalar order.
//! 3. Dispatch through a `match clamp_level(level)` and add a
//!    levels-agree bitwise test (plus a proptest) at the bottom.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// A SIMD dispatch level, ordered from portable to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar reference path (any target).
    Scalar,
    /// x86-64 SSE2 (128-bit lanes; baseline on every x86-64 CPU).
    Sse2,
    /// x86-64 AVX2 (256-bit lanes; runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Lower-case display name (`"scalar"`, `"sse2"`, `"avx2"`) — the
    /// same spelling `FC_SIMD` accepts and the bench JSON records.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The widest level this CPU supports (cached after first probe).
fn detected_max() -> SimdLevel {
    static MAX: OnceLock<SimdLevel> = OnceLock::new();
    *MAX.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                SimdLevel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    })
}

/// Whether the CPU has FMA (cached after first probe). Only the
/// certified nearest-centroid filter uses it; no kernel whose lanes
/// must match the scalar reference does.
fn fma_detected() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Clamps a requested level to what the CPU actually supports. Every
/// kernel applies this to its `level` argument, which is what keeps the
/// public API safe: an unsupported request degrades to the best
/// supported level below it instead of executing illegal instructions.
pub fn clamp_level(level: SimdLevel) -> SimdLevel {
    level.min(detected_max())
}

/// All levels this CPU can run, ascending (always starts with
/// [`SimdLevel::Scalar`]). Test suites iterate this to assert bitwise
/// agreement on every dispatchable path.
// fc-check: allow(unreferenced-pub) -- fixture shared across crates: fc-simd, fc-vision and fc-core's golden_simd iterate it
pub fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= detected_max())
        .collect()
}

/// Resolves the process default from the environment knobs — pure so
/// the precedence rules are unit-testable without mutating the
/// process environment. `force` is `FC_FORCE_SCALAR`, `req` is
/// `FC_SIMD`, `detected` the CPU's widest level.
fn resolve_level(force: Option<&str>, req: Option<&str>, detected: SimdLevel) -> SimdLevel {
    if let Some(f) = force {
        if !f.is_empty() && f != "0" {
            return SimdLevel::Scalar;
        }
    }
    match req {
        Some(r) => {
            let want = match r.to_ascii_lowercase().as_str() {
                "scalar" => SimdLevel::Scalar,
                "sse2" => SimdLevel::Sse2,
                "avx2" => SimdLevel::Avx2,
                // Unknown spellings fall back to auto-detection.
                _ => detected,
            };
            want.min(detected)
        }
        None => detected,
    }
}

/// The process-wide default dispatch level: the widest the CPU
/// supports, unless `FC_FORCE_SCALAR` (any non-empty value other than
/// `"0"`) forces the scalar path or `FC_SIMD=scalar|sse2|avx2` pins a
/// specific level (clamped to detection). Resolved once and cached —
/// set the variables before the first predict path runs.
pub fn active_level() -> SimdLevel {
    static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let force = std::env::var("FC_FORCE_SCALAR").ok();
        let req = std::env::var("FC_SIMD").ok();
        resolve_level(force.as_deref(), req.as_deref(), detected_max())
    })
}

// ---------------------------------------------------------------------------
// Scalar building blocks (the bit-level specification).
// ---------------------------------------------------------------------------

/// IEEE `maxNum`: the larger argument, treating NaN as missing
/// (`max_num(a, NaN) == a`, `max_num(NaN, b) == b`). Fully specified —
/// on a `+0.0`/`−0.0` tie it returns `b` — which is what lets the
/// vector reductions emulate it exactly (`max_pd` + an unordered-`b`
/// blend). Associative and commutative over any multiset of values
/// with at most one distinct NaN payload, so reductions built on it
/// are partition-order insensitive.
#[inline]
pub fn max_num(a: f64, b: f64) -> f64 {
    if b.is_nan() || a > b {
        a
    } else {
        b
    }
}

/// Division-free reciprocal: exponent-trick initial guess (subtracting
/// the bit pattern from a magic constant negates the exponent and
/// roughly inverts the mantissa) refined by three Newton–Raphson steps
/// `y ← y·(2 − x·y)`, each squaring the relative error
/// (~0.09 → 8e-3 → 6e-5 → 4e-9). Multiplies and subtractions only —
/// the point is relieving the divider port. Finite positive normal
/// inputs only (callers guard with `denom > 1e-12`; signatures are
/// finite).
#[inline]
pub fn fast_recip(x: f64) -> f64 {
    let mut y = f64::from_bits(0x7FDE_6238_22FC_16E6u64.wrapping_sub(x.to_bits()));
    y *= 2.0 - x * y;
    y *= 2.0 - x * y;
    y *= 2.0 - x * y;
    y
}

/// One χ² bin folded into a lane accumulator — the per-lane operation
/// all `chi2_acc4` variants perform verbatim: `denom = x + y`,
/// `num = (x − y)²`, accumulate `num/denom` (or
/// `num · fast_recip(denom)` under `RECIP`) when `denom > 1e-12`, else
/// `+0.0` (the rejected-lane division is never evaluated's worth of
/// bits — adding `+0.0` to a non-negative accumulator is exact).
#[inline]
fn chi2_lane<const RECIP: bool>(acc: &mut f64, x: f64, y: f64) {
    let denom = x + y;
    let num = (x - y) * (x - y);
    *acc += if denom > 1e-12 {
        if RECIP {
            num * fast_recip(denom)
        } else {
            num / denom
        }
    } else {
        0.0
    };
}

fn chi2_acc4_scalar<const RECIP: bool>(
    a: &[f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) -> [f64; 4] {
    let mut acc = [0.0f64; 4];
    for (j, &x) in a.iter().enumerate() {
        chi2_lane::<RECIP>(&mut acc[0], x, b0[j]);
        chi2_lane::<RECIP>(&mut acc[1], x, b1[j]);
        chi2_lane::<RECIP>(&mut acc[2], x, b2[j]);
        chi2_lane::<RECIP>(&mut acc[3], x, b3[j]);
    }
    acc
}

fn max_pen_accum4_scalar(block: &[f64], pen: &[f64], mx: &mut [f64; 4]) {
    for (bi, &p) in pen.iter().enumerate() {
        let lanes = &block[bi * 4..bi * 4 + 4];
        for (m, &v) in mx.iter_mut().zip(lanes) {
            *m = max_num(*m, p * v);
        }
    }
}

fn combine_exact4_scalar(
    block: &[f64],
    pen: &[f64],
    den: &[f64],
    w: &[f64; 4],
    m: &[f64; 4],
) -> f64 {
    let mut total = 0.0f64;
    for (bi, lanes) in block.chunks_exact(4).enumerate() {
        let p = pen[bi];
        let mut sq = 0.0f64;
        for i in 0..4 {
            let dv = (lanes[i] * p) / m[i];
            sq += w[i] * dv * dv;
        }
        total += sq.sqrt() / den[bi];
    }
    total
}

fn conv_valid_scalar(padded: &[f64], taps: &[f64], out: &mut [f64]) {
    for (x, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for (i, &t) in taps.iter().enumerate() {
            acc += t * padded[x + i];
        }
        *o = acc;
    }
}

/// Source row of output row `y`'s tap `i`: `clamp(y + i − radius)`.
#[inline(always)]
fn clamped_row(y: usize, i: usize, radius: usize, height: usize) -> usize {
    (y + i).saturating_sub(radius).min(height - 1)
}

/// One output element of [`conv_columns`]: the tap-order chain from
/// `+0.0` down column `x` around row `y`.
#[inline(always)]
fn column_chain(src: &[f64], width: usize, taps: &[f64], y: usize, x: usize) -> f64 {
    let (height, radius) = (src.len() / width, taps.len() / 2);
    let mut acc = 0.0f64;
    for (i, &t) in taps.iter().enumerate() {
        acc += t * src[clamped_row(y, i, radius, height) * width + x];
    }
    acc
}

fn conv_columns_scalar(src: &[f64], width: usize, taps: &[f64], out: &mut [f64]) {
    for (y, orow) in out.chunks_exact_mut(width).enumerate() {
        for (x, o) in orow.iter_mut().enumerate() {
            *o = column_chain(src, width, taps, y, x);
        }
    }
}

fn halved_diff_scalar(plus: &[f64], minus: &[f64], out: &mut [f64]) {
    for ((o, &p), &m) in out.iter_mut().zip(plus).zip(minus) {
        *o = (p - m) / 2.0;
    }
}

fn magnitude_scalar(gx: &[f64], gy: &[f64], out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(gx).zip(gy) {
        *o = (x * x + y * y).sqrt();
    }
}

fn nearest_groups4_scalar(p: &[f64], tposed: &[f64], k: usize) -> (usize, f64) {
    let dim = p.len();
    let ngroups = k.div_ceil(4);
    let mut best = (0usize, f64::INFINITY);
    for g in 0..ngroups {
        let base = g * dim * 4;
        let mut acc = [0.0f64; 4];
        for (j, &x) in p.iter().enumerate() {
            let ys = &tposed[base + j * 4..base + j * 4 + 4];
            for (a, &y) in acc.iter_mut().zip(ys) {
                let d = x - y;
                *a += d * d;
            }
        }
        for (lane, &dd) in acc.iter().enumerate() {
            let ci = g * 4 + lane;
            if ci < k && dd < best.1 {
                best = (ci, dd);
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Dispatched kernels.
// ---------------------------------------------------------------------------

/// χ² accumulators of one row `a` against four rows `b0..b3` of equal
/// length — the SB miss-frontier kernel. Returns the four raw
/// accumulators (callers finish with `pen · (acc/2)`), each lane
/// performing exactly the scalar per-bin sequence in `j` order:
/// `denom = x + y`, `num = (x − y)²`, accumulate `num/denom` when
/// `denom > 1e-12`, else `+0.0`. `RECIP` switches the division to
/// `num · fast_recip(denom)` (the [`fast_recip`] bit-trick). All
/// levels are bit-identical, including NaN/±inf propagation from
/// degenerate bins (a NaN bin's `denom` fails the ordered `>` guard
/// identically everywhere).
///
/// # Panics
/// Panics when any of `b0..b3` is shorter than `a`.
pub fn chi2_acc4<const RECIP: bool>(
    level: SimdLevel,
    a: &[f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) -> [f64; 4] {
    let dim = a.len();
    assert!(
        b0.len() >= dim && b1.len() >= dim && b2.len() >= dim && b3.len() >= dim,
        "chi2_acc4: rows shorter than a"
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline; rows `b0..b3` are at least `a.len()` long (asserted above).
        SimdLevel::Sse2 => unsafe { x86::chi2_acc4_sse2::<RECIP>(a, b0, b1, b2, b3) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_level` returns `Avx2` only when runtime-detected; rows `b0..b3` are at least `a.len()` long (asserted above).
        SimdLevel::Avx2 => unsafe { x86::chi2_acc4_avx2::<RECIP>(a, b0, b1, b2, b3) },
        _ => chi2_acc4_scalar::<RECIP>(a, b0, b1, b2, b3),
    }
}

/// Per-signature maxima accumulation over an ROI-major 4-lane block:
/// for each pair `bi`, `mx[i] = max_num(mx[i], pen[bi] · block[bi·4 + i])`.
/// This is Algorithm 3 line 2 accumulated on the fly during the SB
/// fill — the same `pen · raw` products the reference path's running
/// `max` sees, in a different order, which [`max_num`] is insensitive
/// to.
///
/// # Panics
/// Panics when `block.len() < pen.len() · 4`.
pub fn max_pen_accum4(level: SimdLevel, block: &[f64], pen: &[f64], mx: &mut [f64; 4]) {
    assert!(
        block.len() >= pen.len() * 4,
        "max_pen_accum4: block shorter than pen·4"
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline; `block.len() >= pen.len()*4` (asserted above).
        SimdLevel::Sse2 => unsafe { x86::max_pen_accum4_sse2(block, pen, mx) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_level` returns `Avx2` only when runtime-detected; `block.len() >= pen.len()*4` (asserted above).
        SimdLevel::Avx2 => unsafe { x86::max_pen_accum4_avx2(block, pen, mx) },
        _ => max_pen_accum4_scalar(block, pen, mx),
    }
}

/// Algorithm 3 lines 10–15 for one candidate over an ROI-major raw
/// 4-signature block: per pair `bi` (in order), per signature `i` (in
/// order) `dv = (block[bi·4+i] · pen[bi]) / m[i]`,
/// `sq += w[i] · dv · dv`, then `total += √sq / den[bi]`. The
/// vector variants process pairs in groups (a 4×4 in-register
/// transpose on AVX2) but keep the per-pair `i` order per lane and
/// extract the group's `√sq/den` lanes sequentially in `bi` order, so
/// the order-sensitive running sum matches the scalar reference
/// bit-for-bit.
///
/// # Panics
/// Panics when `block.len() < pen.len()·4` or `den.len() < pen.len()`.
pub fn combine_exact4(
    level: SimdLevel,
    block: &[f64],
    pen: &[f64],
    den: &[f64],
    w: &[f64; 4],
    m: &[f64; 4],
) -> f64 {
    assert!(
        block.len() >= pen.len() * 4 && den.len() >= pen.len(),
        "combine_exact4: inconsistent slice lengths"
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline; `block.len() >= pen.len()*4` and `den.len() >= pen.len()` (asserted above).
        SimdLevel::Sse2 => unsafe { x86::combine_exact4_sse2(block, pen, den, w, m) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_level` returns `Avx2` only when runtime-detected; `block.len() >= pen.len()*4` and `den.len() >= pen.len()` (asserted above).
        SimdLevel::Avx2 => unsafe { x86::combine_exact4_avx2(block, pen, den, w, m) },
        _ => combine_exact4_scalar(block, pen, den, w, m),
    }
}

/// Valid-range 1-D convolution against an edge-padded row:
/// `out[x] = Σ_i taps[i] · padded[x + i]`, accumulated in tap order —
/// the separable Gaussian's horizontal pass. Lane-for-lane identical
/// across levels.
///
/// # Panics
/// Panics when `padded.len() + 1 < out.len() + taps.len()`.
pub fn conv_valid(level: SimdLevel, padded: &[f64], taps: &[f64], out: &mut [f64]) {
    assert!(
        padded.len() + 1 >= out.len() + taps.len(),
        "conv_valid: padded row too short"
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline; `padded.len() + 1 >= out.len() + taps.len()` (asserted above).
        SimdLevel::Sse2 => unsafe { x86::conv_valid_sse2(padded, taps, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_level` returns `Avx2` only when runtime-detected; `padded.len() + 1 >= out.len() + taps.len()` (asserted above).
        SimdLevel::Avx2 => unsafe { x86::conv_valid_avx2(padded, taps, out) },
        _ => conv_valid_scalar(padded, taps, out),
    }
}

/// Column convolution with clamp-to-edge rows over a row-major image of
/// `width` columns — the separable Gaussian's vertical pass:
/// `out[y·w + x] = Σ_i taps[i] · src[clamp(y + i − r, 0, h − 1)·w + x]`
/// with `r = taps.len() / 2` and `h = src.len() / w`. Each element is
/// accumulated from `+0.0` in tap order, a multiply then an add (no
/// FMA): `((0 + k₀·t₀) + k₁·t₁) + …`. Lane-for-lane identical across
/// levels.
///
/// # Panics
/// Panics when `width == 0`, `src.len()` is not a multiple of `width`,
/// or `out.len() != src.len()`.
pub fn conv_columns(level: SimdLevel, src: &[f64], width: usize, taps: &[f64], out: &mut [f64]) {
    assert!(
        width > 0 && src.len().is_multiple_of(width) && out.len() == src.len(),
        "conv_columns: src and out must be the same whole rows"
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline; `src` and `out` are the same whole rows of `width > 0` (asserted above).
        SimdLevel::Sse2 => unsafe { x86::conv_columns_sse2(src, width, taps, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_level` returns `Avx2` only when runtime-detected; `src` and `out` are the same whole rows of `width > 0` (asserted above).
        SimdLevel::Avx2 => unsafe { x86::conv_columns_avx2(src, width, taps, out) },
        _ => conv_columns_scalar(src, width, taps, out),
    }
}

/// Central-difference helper: `out[i] = (plus[i] − minus[i]) / 2.0`
/// over `out.len()` elements (the image-gradient inner loop).
///
/// # Panics
/// Panics when `plus` or `minus` is shorter than `out`.
pub fn halved_diff(level: SimdLevel, plus: &[f64], minus: &[f64], out: &mut [f64]) {
    assert!(
        plus.len() >= out.len() && minus.len() >= out.len(),
        "halved_diff: inputs shorter than out"
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline; `plus` and `minus` are at least `out.len()` long (asserted above).
        SimdLevel::Sse2 => unsafe { x86::halved_diff_sse2(plus, minus, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_level` returns `Avx2` only when runtime-detected; `plus` and `minus` are at least `out.len()` long (asserted above).
        SimdLevel::Avx2 => unsafe { x86::halved_diff_avx2(plus, minus, out) },
        _ => halved_diff_scalar(plus, minus, out),
    }
}

/// Gradient magnitude `out[i] = √(gx[i]² + gy[i]²)` over `out.len()`
/// elements (evaluated as `(gx·gx + gy·gy).sqrt()` — the descriptor
/// pipeline's per-pixel magnitude).
///
/// # Panics
/// Panics when `gx` or `gy` is shorter than `out`.
pub fn magnitude(level: SimdLevel, gx: &[f64], gy: &[f64], out: &mut [f64]) {
    assert!(
        gx.len() >= out.len() && gy.len() >= out.len(),
        "magnitude: inputs shorter than out"
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline; `gx` and `gy` are at least `out.len()` long (asserted above).
        SimdLevel::Sse2 => unsafe { x86::magnitude_sse2(gx, gy, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_level` returns `Avx2` only when runtime-detected; `gx` and `gy` are at least `out.len()` long (asserted above).
        SimdLevel::Avx2 => unsafe { x86::magnitude_avx2(gx, gy, out) },
        _ => magnitude_scalar(gx, gy, out),
    }
}

/// Nearest centroid over a group-major transposed codebook — the exact
/// k-means assignment kernel, and the fallback and oracle of
/// [`Codebook::nearest`]. `tposed` holds `⌈k/4⌉` groups of four
/// centroids each, laid out `[group][dimension][lane]` with padded
/// lanes zero-filled; `p` must have the codebook dimensionality.
/// Returns `(index, squared distance)` with the scalar tie-break:
/// strictly smaller distance wins, first index on ties. Per-centroid
/// accumulation runs in dimension order, so distances are bit-identical
/// to the scalar `Σ (x−y)²` fold. A NaN distance never wins a
/// comparison and is skipped.
///
/// # Panics
/// Panics when `tposed.len() < ⌈k/4⌉ · p.len() · 4` or `k == 0`.
fn nearest_groups4(level: SimdLevel, p: &[f64], tposed: &[f64], k: usize) -> (usize, f64) {
    assert!(k > 0, "nearest_groups4: empty codebook");
    assert!(
        tposed.len() >= k.div_ceil(4) * p.len() * 4,
        "nearest_groups4: tposed too short"
    );
    match clamp_level(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86-64 baseline; `tposed.len() >= (k/4 rounded up)*p.len()*4` (asserted above).
        SimdLevel::Sse2 => unsafe { x86::nearest_groups4_sse2(p, tposed, k) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_level` returns `Avx2` only when runtime-detected; `tposed.len() >= (k/4 rounded up)*p.len()*4` (asserted above).
        SimdLevel::Avx2 => unsafe { x86::nearest_groups4_avx2(p, tposed, k) },
        _ => nearest_groups4_scalar(p, tposed, k),
    }
}

/// `‖p‖`: the square root of `Σ x²`, summed in four interleaved chains.
/// This is the norm [`Codebook::nearest`] expects; its error bound
/// allows any summation order.
pub fn norm(p: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = p.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for (a, &x) in acc.iter_mut().zip(c) {
            *a += x * x;
        }
    }
    for (a, &x) in acc.iter_mut().zip(tail) {
        *a += x * x;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])).sqrt()
}

/// `s = ‖p‖ + max ‖c‖` must lie in `[CERT_MIN, CERT_MAX)` for the
/// certified path. Below, the absolute error of underflowed products
/// and norms is no longer small against the relative bound; above,
/// `s²` and the sums it bounds could overflow. NaN and ±inf fail the
/// test too. Real descriptors sit near `s = 2`.
const CERT_MIN: f64 = f64::from_bits((1023 - 300) << 52);
const CERT_MAX: f64 = f64::from_bits((1023 + 500) << 52);

/// A k-means codebook laid out for nearest-centroid search: the
/// centroids transposed group-major (the layout of the exact kernel,
/// `[group][dimension][lane]`, four centroids per group, padded lanes
/// zero), each centroid's `‖c‖²` (`+inf` in padded lanes), and
/// `max ‖c‖`. Build it once per set of centroids (a Lloyd iteration, a
/// fitted model) and query it per point with [`Codebook::nearest`].
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    k: usize,
    dim: usize,
    tposed: Vec<f64>,
    norm2: Vec<f64>,
    max_norm: f64,
    /// `γ_{dim+2}·(1 + 2⁻¹⁰)`: the certificate's error bound per unit
    /// of `(‖p‖ + max ‖c‖)²` (see [`Codebook::nearest`]).
    err_scale: f64,
}

impl Codebook {
    /// Lays out `centroids` (all of one dimensionality).
    ///
    /// # Panics
    /// Panics when `centroids` is empty or their lengths differ.
    pub fn new(centroids: &[Vec<f64>]) -> Self {
        assert!(!centroids.is_empty(), "Codebook: no centroids");
        let (k, dim) = (centroids.len(), centroids[0].len());
        assert!(
            centroids.iter().all(|c| c.len() == dim),
            "Codebook: centroids differ in dimensionality"
        );
        let ngroups = k.div_ceil(4);
        let mut tposed = vec![0.0f64; ngroups * dim * 4];
        // Padded lanes score `+inf` in the certified filter.
        let mut norm2 = vec![f64::INFINITY; ngroups * 4];
        for (ci, c) in centroids.iter().enumerate() {
            let (g, lane) = (ci / 4, ci % 4);
            for (j, &v) in c.iter().enumerate() {
                tposed[(g * dim + j) * 4 + lane] = v;
            }
            norm2[ci] = c.iter().map(|v| v * v).sum();
        }
        // NaN-propagating max: a NaN or infinite centroid makes every
        // query take the exact kernel.
        let max2 = norm2[..k]
            .iter()
            .fold(0.0f64, |m, &n| if n > m || n.is_nan() { n } else { m });
        // γ_m = m·u / (1 − m·u), u = 2⁻⁵³. Past m·u ≈ 2⁻¹² the 2⁻¹⁰
        // inflation would no longer cover the bound's own rounding, so
        // such codebooks (dim ≳ 2⁴⁰, never allocatable) never certify.
        let mu = (dim + 2) as f64 * (f64::EPSILON / 2.0);
        let gamma = mu / (1.0 - mu);
        let err_scale = if gamma < 1.0 / 4096.0 {
            gamma * (1.0 + 1.0 / 1024.0)
        } else {
            f64::INFINITY
        };
        Self {
            k,
            dim,
            tposed,
            norm2,
            max_norm: max2.sqrt(),
            err_scale,
        }
    }

    /// Index of the nearest centroid to `p`, where `p_norm` is
    /// [`norm`]`(p)` (any larger value is also sound, only slower).
    /// Returns exactly `nearest_groups4(level, p, ..).0` — the
    /// strict-first-minimum of the sequential `Σ fl((x − c)²)` — at
    /// every dispatch level, for every input.
    ///
    /// On AVX2 with FMA it first scores every word by
    /// `a_c = ‖c‖² − 2·(p·c)` (FMA, any summation order) and accepts the
    /// minimum `b` only if every other word has `a_c − a_b > 4E`, with
    /// `E = γ_{dim+2}·(‖p‖ + max ‖c‖)²`. Why that suffices, with
    /// `D_c = ‖p − c‖²` exact and `S = (‖p‖ + max‖c‖)² ≥ D_c`:
    ///
    /// * the exact kernel's `D̂_c` takes 3 roundings per term and
    ///   `dim − 1` in the sum, so `|D̂_c − D_c| ≤ γ_{dim+2}·D_c ≤ E`;
    /// * `a_c` is `‖c‖²` and `p·c` (each within `γ_dim` of their
    ///   absolute sums) and one subtraction, and `D_c = ‖p‖² + A_c`
    ///   for the exact `A_c`, so `|a_c − A_c| ≤ γ_{dim+1}·S ≤ E`;
    /// * hence `D̂_c − D̂_b ≥ (a_c − a_b) − 4E > 0`: `b` is the exact
    ///   kernel's strict minimum, so also its first minimum.
    ///
    /// `E` is inflated by `2⁻¹⁰` to cover its own rounding, the rounding
    /// of the `a_c − a_b > 4E` test and of `p_norm` and `max ‖c‖`. The
    /// bound is relative, so `s = ‖p‖ + max‖c‖` must lie in
    /// `[2⁻³⁰⁰, 2⁵⁰⁰)`, where underflow's absolute error is far below
    /// `E` and nothing overflows.
    ///
    /// Everything else runs the exact kernel: near-ties and duplicate
    /// words (no margin), NaN or ±inf anywhere (the tests are false), an
    /// `s` out of range, `p.len() != dim`, and the scalar, SSE2 and
    /// FMA-less AVX2 levels.
    pub fn nearest(&self, level: SimdLevel, p: &[f64], p_norm: f64) -> usize {
        debug_assert!(
            p_norm.partial_cmp(&norm(p)) != Some(std::cmp::Ordering::Less),
            "p_norm below norm(p)"
        );
        self.certified(level, p, p_norm)
            .unwrap_or_else(|| nearest_groups4(level, p, &self.tposed, self.k).0)
    }

    /// The dot-product filter of [`Codebook::nearest`]: `Some(index)`
    /// when the margin certifies it, `None` when the exact kernel must
    /// decide.
    #[cfg(target_arch = "x86_64")]
    fn certified(&self, level: SimdLevel, p: &[f64], p_norm: f64) -> Option<usize> {
        if clamp_level(level) != SimdLevel::Avx2 || !fma_detected() || p.len() != self.dim {
            return None;
        }
        let s = p_norm + self.max_norm;
        if !(CERT_MIN..CERT_MAX).contains(&s) {
            return None;
        }
        let margin = 4.0 * (self.err_scale * s * s);
        // SAFETY: AVX2 (clamped above) and FMA are runtime-detected;
        // `p.len() == dim`, and `new` sized `tposed` to `⌈k/4⌉·dim·4`
        // and `norm2` to `⌈k/4⌉·4`.
        unsafe { x86::nearest_certified_avx2_fma(p, &self.tposed, &self.norm2, self.k, margin) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn certified(&self, _level: SimdLevel, _p: &[f64], _p_norm: f64) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    /// Deterministic pseudo-random vector with optional special values
    /// spliced in.
    fn vec_with(seed: u64, n: usize, specials: &[(usize, f64)]) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut v: Vec<f64> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 10_000) as f64 / 9_999.0
            })
            .collect();
        for &(i, x) in specials {
            if i < n {
                v[i] = x;
            }
        }
        v
    }

    #[test]
    fn level_resolution_rules() {
        let det = SimdLevel::Avx2;
        assert_eq!(resolve_level(None, None, det), SimdLevel::Avx2);
        assert_eq!(resolve_level(Some("1"), None, det), SimdLevel::Scalar);
        assert_eq!(resolve_level(Some("0"), None, det), SimdLevel::Avx2);
        assert_eq!(resolve_level(Some(""), None, det), SimdLevel::Avx2);
        assert_eq!(resolve_level(None, Some("sse2"), det), SimdLevel::Sse2);
        assert_eq!(resolve_level(None, Some("SCALAR"), det), SimdLevel::Scalar);
        // Requests above detection clamp down; unknown values fall back.
        assert_eq!(
            resolve_level(None, Some("avx2"), SimdLevel::Sse2),
            SimdLevel::Sse2
        );
        assert_eq!(resolve_level(None, Some("wat"), det), det);
        // Force-scalar wins over FC_SIMD.
        assert_eq!(
            resolve_level(Some("yes"), Some("avx2"), det),
            SimdLevel::Scalar
        );
    }

    #[test]
    fn available_levels_start_with_scalar() {
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.contains(&active_level()));
        for w in levels.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn fast_recip_accuracy() {
        for &x in &[1e-12, 0.3, 1.0, 7.5, 1e6, 1e300] {
            let r = fast_recip(x);
            assert!(((r * x) - 1.0).abs() < 1e-8, "x={x} r={r}");
        }
    }

    #[test]
    fn chi2_acc4_levels_agree_bitwise() {
        // Includes NaN bins, ±inf bins, zeros (denominator guard), and
        // odd lengths.
        for n in [0usize, 1, 3, 4, 7, 16, 33] {
            let a = vec_with(1, n, &[(0, 0.0), (2, f64::NAN), (5, f64::INFINITY)]);
            let b0 = vec_with(2, n, &[(2, f64::NAN)]);
            let b1 = vec_with(3, n, &[(5, f64::INFINITY)]);
            let b2 = vec_with(4, n, &[(1, f64::NEG_INFINITY)]);
            let b3 = vec_with(5, n, &[(0, 0.0)]);
            let reference = chi2_acc4::<false>(SimdLevel::Scalar, &a, &b0, &b1, &b2, &b3);
            let reference_r = chi2_acc4::<true>(SimdLevel::Scalar, &a, &b0, &b1, &b2, &b3);
            for level in available_levels() {
                let got = chi2_acc4::<false>(level, &a, &b0, &b1, &b2, &b3);
                let got_r = chi2_acc4::<true>(level, &a, &b0, &b1, &b2, &b3);
                for k in 0..4 {
                    assert_eq!(bits(got[k]), bits(reference[k]), "{level:?} n={n} k={k}");
                    assert_eq!(
                        bits(got_r[k]),
                        bits(reference_r[k]),
                        "recip {level:?} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_pen_accum4_levels_agree_bitwise() {
        for nr in [0usize, 1, 2, 5, 16] {
            let block = vec_with(11, nr * 4, &[(2, f64::NAN), (7, f64::INFINITY)]);
            let pen = vec_with(12, nr, &[]);
            let mut reference = [1.0f64; 4];
            max_pen_accum4(SimdLevel::Scalar, &block, &pen, &mut reference);
            for level in available_levels() {
                let mut mx = [1.0f64; 4];
                max_pen_accum4(level, &block, &pen, &mut mx);
                for k in 0..4 {
                    assert_eq!(bits(mx[k]), bits(reference[k]), "{level:?} nr={nr}");
                }
            }
        }
    }

    #[test]
    fn combine_exact4_levels_agree_bitwise() {
        let w = [1.0, 0.5, 2.0, 1.25];
        let m = [1.0, 3.5, 2.0, 1.5];
        for nr in [0usize, 1, 2, 3, 4, 5, 7, 16, 19] {
            let block = vec_with(21, nr * 4, &[]);
            let pen = vec_with(22, nr, &[]);
            let den: Vec<f64> = vec_with(23, nr, &[]).iter().map(|v| v + 1.0).collect();
            let reference = combine_exact4(SimdLevel::Scalar, &block, &pen, &den, &w, &m);
            for level in available_levels() {
                let got = combine_exact4(level, &block, &pen, &den, &w, &m);
                assert_eq!(bits(got), bits(reference), "{level:?} nr={nr}");
            }
        }
    }

    /// The vertical pass as it was written before `conv_columns`: one
    /// scaled source row accumulated into each output row per tap.
    fn per_tap_columns(src: &[f64], width: usize, taps: &[f64]) -> Vec<f64> {
        let height = src.len() / width;
        let mut out = vec![0.0f64; src.len()];
        for (y, orow) in out.chunks_exact_mut(width).enumerate() {
            for (i, &t) in taps.iter().enumerate() {
                let yi = clamped_row(y, i, taps.len() / 2, height);
                for (o, &s) in orow.iter_mut().zip(&src[yi * width..(yi + 1) * width]) {
                    *o += t * s;
                }
            }
        }
        out
    }

    #[test]
    fn conv_columns_levels_agree_bitwise_with_the_per_tap_chain() {
        // Widths around every vector step (2, 4, 8, 16), heights below
        // and above the tap radius, a −0.0 product (0 + −0 = +0 must
        // survive) and NaN/±inf pixels.
        for width in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            for height in [1usize, 2, 5, 12] {
                for taps_n in [1usize, 3, 7, 21] {
                    let n = width * height;
                    let src = vec_with(
                        61 + width as u64,
                        n,
                        &[
                            (1, -0.0),
                            (3, f64::NAN),
                            (n / 2, f64::INFINITY),
                            (n - 1, -2.5),
                        ],
                    );
                    let mut taps = vec_with(62, taps_n, &[]);
                    taps[0] = -taps[0];
                    let want = per_tap_columns(&src, width, &taps);
                    for level in available_levels() {
                        let mut out = vec![1.0; n];
                        conv_columns(level, &src, width, &taps, &mut out);
                        for (i, (a, b)) in out.iter().zip(&want).enumerate() {
                            assert_eq!(
                                bits(*a),
                                bits(*b),
                                "{level:?} {width}x{height} taps={taps_n} at {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conv_diff_magnitude_levels_agree_bitwise() {
        for n in [1usize, 2, 3, 4, 5, 9, 31, 64] {
            for taps_n in [1usize, 3, 7, 11] {
                let padded = vec_with(41, n + taps_n - 1, &[]);
                let taps = vec_with(42, taps_n, &[]);
                let mut reference = vec![0.0; n];
                conv_valid(SimdLevel::Scalar, &padded, &taps, &mut reference);
                for level in available_levels() {
                    let mut out = vec![0.0; n];
                    conv_valid(level, &padded, &taps, &mut out);
                    for (a, b) in out.iter().zip(&reference) {
                        assert_eq!(bits(*a), bits(*b), "conv {level:?} n={n} taps={taps_n}");
                    }
                }
            }
            let x = vec_with(43, n, &[]);
            let gx = vec_with(45, n, &[(0, -0.25)]);
            let mut ref_d = vec![0.0; n];
            halved_diff(SimdLevel::Scalar, &x, &gx, &mut ref_d);
            let mut ref_m = vec![0.0; n];
            magnitude(SimdLevel::Scalar, &gx, &x, &mut ref_m);
            for level in available_levels() {
                let mut d = vec![0.0; n];
                halved_diff(level, &x, &gx, &mut d);
                let mut mg = vec![0.0; n];
                magnitude(level, &gx, &x, &mut mg);
                for i in 0..n {
                    assert_eq!(bits(d[i]), bits(ref_d[i]), "diff {level:?}");
                    assert_eq!(bits(mg[i]), bits(ref_m[i]), "mag {level:?}");
                }
            }
        }
    }

    #[test]
    fn nearest_groups4_matches_naive_and_ties_first() {
        for (k, dim) in [(1usize, 3usize), (3, 8), (4, 16), (5, 1), (9, 7), (16, 128)] {
            let cents: Vec<Vec<f64>> = (0..k).map(|c| vec_with(50 + c as u64, dim, &[])).collect();
            let t = Codebook::new(&cents).tposed;
            let p = vec_with(99, dim, &[]);
            // Naive scalar reference with the first-wins tie-break.
            let naive = cents
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    let d: f64 = c.iter().zip(&p).map(|(y, x)| (x - y) * (x - y)).sum();
                    (ci, d)
                })
                .fold((0usize, f64::INFINITY), |best, (ci, d)| {
                    if d < best.1 {
                        (ci, d)
                    } else {
                        best
                    }
                });
            for level in available_levels() {
                let got = nearest_groups4(level, &p, &t, k);
                assert_eq!(got.0, naive.0, "{level:?} k={k} dim={dim}");
                assert_eq!(bits(got.1), bits(naive.1), "{level:?} k={k} dim={dim}");
            }
        }
        // Exact ties: duplicate centroids — the first index must win at
        // every level.
        let cents = vec![vec![0.5, 0.5], vec![0.5, 0.5], vec![0.9, 0.1]];
        let t = Codebook::new(&cents).tposed;
        for level in available_levels() {
            assert_eq!(nearest_groups4(level, &[0.5, 0.5], &t, 3).0, 0);
        }
    }

    /// How a [`codebook_case`] bends its random codebook and point.
    #[derive(Debug, Clone, Copy)]
    enum Bend {
        /// Left as drawn: the margin should certify.
        None,
        /// The point sits on a word that is listed twice.
        Duplicate,
        /// The point is exactly midway between two words (dyadic
        /// coordinates, so the midpoint is representable).
        Midway,
        /// A NaN, +inf or −inf coordinate in the point.
        PointSpecial(f64),
        /// A NaN, +inf or −inf coordinate in one word.
        WordSpecial(f64),
    }

    /// `k` words of dimension `dim` with dyadic coordinates in
    /// `[0, 1)·scale`, and a point, bent as `bend` says. The flag says
    /// whether the case is built to tie (or to score NaN/±inf), so the
    /// certificate must refuse it.
    fn codebook_case(
        seed: u64,
        k: usize,
        dim: usize,
        scale: f64,
        bend: Bend,
    ) -> (Vec<Vec<f64>>, Vec<f64>, bool) {
        let dyadic = |s: u64| -> Vec<f64> {
            vec_with(s, dim, &[])
                .into_iter()
                .map(|v| (v * 1024.0).floor() / 1024.0 * scale)
                .collect()
        };
        let mut words: Vec<Vec<f64>> = (0..k)
            .map(|c| dyadic(seed ^ ((c as u64 + 1) << 8)))
            .collect();
        let mut p = dyadic(seed ^ 0xABCD);
        let a = (seed as usize) % k;
        let sq =
            |x: &[f64], y: &[f64]| -> f64 { x.iter().zip(y).map(|(u, v)| (u - v) * (u - v)).sum() };
        match bend {
            // Duplicate and midway need two words; with one there is
            // nothing to tie, so the case stays a plain one.
            Bend::None | Bend::Duplicate | Bend::Midway if k == 1 => (words, p, false),
            Bend::None => (words, p, false),
            Bend::Duplicate => {
                // Off the dyadic grid by a quarter step in every
                // coordinate: any word off word `a` is farther.
                let b = (a + 1) % k;
                words[b] = words[a].clone();
                p = words[a].iter().map(|v| v + scale / 4096.0).collect();
                (words, p, true)
            }
            Bend::Midway => {
                // Midway between `a` and its nearest word: no third word
                // can be nearer to the midpoint than those two.
                let b = (0..k)
                    .filter(|&c| c != a)
                    .min_by(|&x, &y| sq(&words[a], &words[x]).total_cmp(&sq(&words[a], &words[y])))
                    .expect("k >= 2");
                p = words[a]
                    .iter()
                    .zip(&words[b])
                    .map(|(x, y)| (x + y) / 2.0)
                    .collect();
                (words, p, true)
            }
            Bend::PointSpecial(v) => {
                p[(seed as usize / 7) % dim] = v;
                (words, p, true)
            }
            Bend::WordSpecial(v) => {
                words[a][(seed as usize / 7) % dim] = v;
                (words, p, true)
            }
        }
    }

    const BENDS: [Bend; 9] = [
        Bend::None,
        Bend::Duplicate,
        Bend::Midway,
        Bend::PointSpecial(f64::NAN),
        Bend::PointSpecial(f64::INFINITY),
        Bend::PointSpecial(f64::NEG_INFINITY),
        Bend::WordSpecial(f64::NAN),
        Bend::WordSpecial(f64::INFINITY),
        Bend::WordSpecial(f64::NEG_INFINITY),
    ];

    /// Coordinate scales. Tiny: 1e-80 certifies, 1e-160 and 1e-300 are
    /// below the range (their squares underflow). Huge: 1e100 and 1e140
    /// certify, 1e200 is above it.
    const SCALES: [f64; 9] = [1.0, 1e-3, 1e3, 1e-80, 1e-160, 1e-300, 1e100, 1e140, 1e200];

    /// Whether this host runs the certified filter at `Avx2`.
    fn certifies_here() -> bool {
        cfg!(target_arch = "x86_64") && detected_max() == SimdLevel::Avx2 && fma_detected()
    }

    #[test]
    fn codebook_certifies_separated_words_and_refuses_built_ties() {
        // 16 words of 128-d unit-scale descriptors: the benchmark's shape.
        let (words, _, _) = codebook_case(3, 16, 128, 1.0, Bend::None);
        let book = Codebook::new(&words);
        for (i, w) in words.iter().enumerate() {
            // A point a hair off word i is nearest to it by a wide margin.
            let p: Vec<f64> = w.iter().map(|v| v + 1e-3).collect();
            let n = norm(&p);
            for level in available_levels() {
                assert_eq!(book.nearest(level, &p, n), i, "{level:?}");
            }
            if certifies_here() {
                assert_eq!(book.certified(SimdLevel::Avx2, &p, n), Some(i));
            }
            // Scalar, SSE2 and arity mismatches never take the filter.
            assert_eq!(book.certified(SimdLevel::Scalar, &p, n), None);
            assert_eq!(book.certified(SimdLevel::Sse2, &p, n), None);
            assert_eq!(book.certified(SimdLevel::Avx2, &p[1..], n), None);
        }
        // A word listed twice, the point on it: the exact kernel's first
        // index wins, and the filter refuses the zero margin.
        let mut dup = words.clone();
        dup[9] = dup[4].clone();
        let book = Codebook::new(&dup);
        let n = norm(&dup[4]);
        assert_eq!(book.certified(SimdLevel::Avx2, &dup[4], n), None);
        for level in available_levels() {
            assert_eq!(book.nearest(level, &dup[4], n), 4);
        }
        // Tiny and huge magnitudes inside the range certify; outside it
        // they fall back even when well separated.
        for (scale, inside) in [
            (1e-80, true),
            (1e140, true),
            (1e-300, false),
            (1e200, false),
        ] {
            let (words, _, _) = codebook_case(5, 5, 3, scale, Bend::None);
            let book = Codebook::new(&words);
            let n = norm(&words[2]);
            let want = (inside && certifies_here()).then_some(2);
            assert_eq!(
                book.certified(SimdLevel::Avx2, &words[2], n),
                want,
                "scale {scale}"
            );
            // At 1e-300 every squared distance underflows to 0, so the
            // exact kernel's answer is its first index.
            for level in available_levels() {
                let exact = nearest_groups4(level, &words[2], &book.tposed, 5).0;
                assert_eq!(book.nearest(level, &words[2], n), exact);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Codebook::nearest` ≡ the exact kernel's index at every
        /// level: odd dimensions, `k` not a multiple of 4 and above 16,
        /// duplicate words, exact midpoints, tiny and huge magnitudes,
        /// NaN and ±inf — and every case built to tie takes the exact
        /// kernel.
        #[test]
        fn prop_codebook_nearest_is_the_exact_index(
            seed in 0u64..1_000_000,
            k in 1usize..=37,
            dim in 1usize..=33,
            scale in 0usize..SCALES.len(),
            bend in 0usize..BENDS.len(),
        ) {
            let (words, p, tie) = codebook_case(seed, k, dim, SCALES[scale], BENDS[bend]);
            let book = Codebook::new(&words);
            let n = norm(&p);
            for level in available_levels() {
                let want = nearest_groups4(level, &p, &book.tposed, k).0;
                prop_assert_eq!(book.nearest(level, &p, n), want, "{:?}", level);
            }
            if tie {
                prop_assert_eq!(book.certified(SimdLevel::Avx2, &p, n), None);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_chi2_acc4_bitwise(
            n in 0usize..40,
            seed in 0u64..1_000_000,
            zero_at in 0usize..40,
        ) {
            let a = vec_with(seed, n, &[(zero_at, 0.0)]);
            let b0 = vec_with(seed ^ 1, n, &[(zero_at, 0.0)]);
            let b1 = vec_with(seed ^ 2, n, &[]);
            let b2 = vec_with(seed ^ 3, n, &[]);
            let b3 = vec_with(seed ^ 4, n, &[]);
            let reference = chi2_acc4::<false>(SimdLevel::Scalar, &a, &b0, &b1, &b2, &b3);
            for level in available_levels() {
                let got = chi2_acc4::<false>(level, &a, &b0, &b1, &b2, &b3);
                for k in 0..4 {
                    prop_assert_eq!(bits(got[k]), bits(reference[k]));
                }
            }
        }

        #[test]
        fn prop_combine_exact4_bitwise(nr in 0usize..24, seed in 0u64..1_000_000) {
            let block = vec_with(seed, nr * 4, &[]);
            let pen = vec_with(seed ^ 5, nr, &[]);
            let den: Vec<f64> = vec_with(seed ^ 6, nr, &[]).iter().map(|v| v + 1.0).collect();
            let w = [1.0, 2.0, 0.5, 1.5];
            let m = [1.0, 1.25, 2.0, 4.0];
            let reference = combine_exact4(SimdLevel::Scalar, &block, &pen, &den, &w, &m);
            for level in available_levels() {
                prop_assert_eq!(bits(combine_exact4(level, &block, &pen, &den, &w, &m)), bits(reference));
            }
        }

        #[test]
        fn prop_conv_valid_bitwise(n in 1usize..48, taps_n in 1usize..13, seed in 0u64..1_000_000) {
            let padded = vec_with(seed, n + taps_n - 1, &[]);
            let taps = vec_with(seed ^ 7, taps_n, &[]);
            let mut reference = vec![0.0; n];
            conv_valid(SimdLevel::Scalar, &padded, &taps, &mut reference);
            for level in available_levels() {
                let mut out = vec![0.0; n];
                conv_valid(level, &padded, &taps, &mut out);
                for i in 0..n {
                    prop_assert_eq!(bits(out[i]), bits(reference[i]));
                }
            }
        }
    }
}
