//! The Signature-Based (SB) recommender — the paper's Algorithm 3,
//! implemented verbatim.
//!
//! For every candidate tile `T_A` and every ROI tile `T_B`:
//!
//! 1. per signature `S_i`:  `d_{i,A,B} = 2^{dmanh(T_A,T_B)−1} · distχ²(S_i(T_A), S_i(T_B))`
//! 2. normalize by the per-signature maximum over all pairs;
//! 3. combine: `d_{A,B} = √(Σ_i w_i · d_{i,A,B}²) / dphysical(A,B)`
//! 4. per candidate: `d_A = Σ_B d_{A,B}`; rank ascending (most similar
//!    first).
//!
//! The χ² distance applies to all four signatures ("all four of our
//! current signatures produce histograms as output"). When the user has
//! not yet committed an ROI, the current tile serves as the reference —
//! the recommender then looks for "more tiles like the one being viewed".
//!
//! # Reference path and hot fill
//!
//! [`SbRecommender::distances`] is the reference path: it reads every
//! signature through the store's locked metadata map. It is kept for
//! standalone use, for metadata-free stores, and as the golden baseline
//! every test and perf bench compares against. The serving path is
//! [`SbRecommender::distances_into`]: one fill over contiguous rows of
//! a frozen [`SignatureIndex`], with all tile/key lookups hoisted out
//! of the triple loop, every (candidate, ROI) pair probed in a
//! [`PairCache`] before the χ² kernel runs, and every buffer reused
//! from a caller-owned [`PredictScratch`] — no locks, no signature
//! copies, no allocation. One call scores one job — one session's
//! candidates against its reference tiles; sessions that share a cache
//! (see [`crate::batch::PredictScheduler`]) take turns, each call
//! normalizing over its own pairs only, so what another session left
//! in the cache changes which pairs are probed instead of computed and
//! never a bit of the result. A disabled cache (`PairCache::new(0)`,
//! or a domain the cache rejects) misses every probe, so the same fill
//! serves callers that cannot cache.
//!
//! Both paths produce **bit-identical** distances for tiles inside
//! the index's geometry: they perform the same floating-point
//! operations in the same order (index rows are zero-padded, and χ²
//! skips all-zero bins). Metadata stored for out-of-geometry ids is
//! not representable in the index and ranks as "missing" there — see
//! the scope note in `fc_tiles::sigindex`.

use crate::paircache::{
    pair_key, pair_key_ordered, slot_base, PairCache, PairCacheStats, MAX_CACHED_SIGS,
};
use crate::recommender::{PredictionContext, Recommender};
use crate::signature::SignatureKind;
use fc_simd::SimdLevel;
use fc_tiles::{MetaKey, SignatureIndex, TileId, TileStore};

/// Configuration for the SB recommender.
#[derive(Debug, Clone)]
pub struct SbConfig {
    /// Which signatures participate, with their weights `w_i`
    /// ("All signatures are assigned equal weight by default, but the
    /// user can update these weight parameters as necessary").
    pub weights: Vec<(SignatureKind, f64)>,
    /// Apply Algorithm 3's line-8 Manhattan penalty `2^(dmanh−1)`
    /// (disabled only by the ablation benches).
    pub manhattan_penalty: bool,
    /// Apply Algorithm 3's line-13 division by `dphysical(A,B)`
    /// (disabled only by the ablation benches).
    pub physical_distance: bool,
}

impl SbConfig {
    /// All four signatures with equal weight.
    pub fn all_equal() -> Self {
        Self {
            weights: crate::signature::SIGNATURE_KINDS
                .iter()
                .map(|&k| (k, 1.0))
                .collect(),
            manhattan_penalty: true,
            physical_distance: true,
        }
    }

    /// A single signature (used by the Fig. 10b per-signature runs).
    pub fn single(kind: SignatureKind) -> Self {
        Self {
            weights: vec![(kind, 1.0)],
            ..Self::all_equal()
        }
    }
}

/// Reusable buffers for the allocation-free predict path. Owned by the
/// caller (the [`crate::engine::PredictionEngine`] keeps one per
/// session) and grown to the high-water mark of
/// `candidates × signatures × ROI`; steady-state predictions then
/// allocate nothing.
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// **Raw** (penalty-free, unnormalized) χ² per (candidate, roi,
    /// signature): candidate-major blocks, ROI-major inside a block
    /// (`nsig` contiguous lanes per pair — the layout a cache slot
    /// holds). Penalty and normalization by the per-signature maxima
    /// happen inside the combine pass.
    pair: Vec<f64>,
    /// Per-signature normalization maxima (Algorithm 3 line 2).
    maxes: Vec<f64>,
    /// Dense index per candidate (`usize::MAX` = outside the index).
    cand_rows: Vec<usize>,
    /// Manhattan penalty per (candidate, roi) pair — it is independent
    /// of the signature, so it is resolved once per pair instead of
    /// once per (signature, pair).
    penalties: Vec<f64>,
    /// Physical-distance denominator per (candidate, roi) pair, sharing
    /// the penalty's level projection (or cache slot).
    denoms: Vec<f64>,
    /// Matrix row offset per (signature, roi) (`usize::MAX` = the ROI
    /// tile has no vector under that signature's key).
    roi_offsets: Vec<usize>,
    /// Scored candidates, reused by [`SbRecommender::rank_tiles`].
    scored: Vec<(TileId, f64)>,
    /// Dense index per ROI tile (`usize::MAX` = outside the index) —
    /// the cache key half the pair probes share.
    roi_dense: Vec<usize>,
    /// ROI positions of the current candidate's cache misses.
    miss_bi: Vec<u32>,
    /// Geometry `(dmanh, dphysical)` per miss, stashed for write-back.
    miss_geo: Vec<(u32, f64)>,
    /// Row offsets gathered over the miss frontier.
    gath_offs: Vec<usize>,
    /// χ² lane outputs over the miss frontier.
    gath_out: Vec<f64>,
}

/// Sentinel for "no row" in the hoisted offset tables.
const NO_ROW: usize = usize::MAX;

/// The SB recommendation model.
#[derive(Debug, Clone)]
pub struct SbRecommender {
    cfg: SbConfig,
    /// Interned metadata keys, parallel to `cfg.weights` — resolved
    /// once at construction so the hot path never touches strings.
    keys: Vec<MetaKey>,
    /// SIMD dispatch level for the hot-path kernels, resolved once at
    /// construction (runtime CPU detection, `FC_FORCE_SCALAR` /
    /// `FC_SIMD` overrides). Every level is bit-identical on the exact
    /// paths, so it is *not* part of the pair cache's validity domain.
    simd: SimdLevel,
    name: String,
}

impl SbRecommender {
    /// Creates a recommender with the given signature weights.
    pub fn new(cfg: SbConfig) -> Self {
        Self::with_simd_level(cfg, fc_simd::active_level())
    }

    /// [`Self::new`] with an explicit SIMD dispatch level (clamped to
    /// what the CPU supports), ignoring the environment knobs — used by
    /// the per-level golden tests and the scalar-baseline benches.
    pub fn with_simd_level(cfg: SbConfig, level: SimdLevel) -> Self {
        let name = if cfg.weights.len() == 1 {
            format!("SB:{}", cfg.weights[0].0.display_name())
        } else {
            "SB".to_string()
        };
        let keys = cfg
            .weights
            .iter()
            .map(|&(kind, _)| MetaKey::intern(kind.meta_name()))
            .collect();
        Self {
            cfg,
            keys,
            simd: fc_simd::clamp_level(level),
            name,
        }
    }

    /// The SIMD dispatch level the hot paths run at.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Computes Algorithm 3's distance values for `candidates` against
    /// `roi`, returning `(candidate, d_A)` pairs (unsorted).
    ///
    /// This is the **reference path**: it re-reads every signature
    /// through the store's metadata lock, per pair. Use
    /// [`Self::distances_into`] on the request path.
    pub fn distances(
        &self,
        store: &TileStore,
        candidates: &[TileId],
        roi: &[TileId],
    ) -> Vec<(TileId, f64)> {
        let nsig = self.cfg.weights.len();
        // d[i][(a, b)] laid out as d[i][a * roi.len() + b].
        let mut per_sig = vec![vec![0.0f64; candidates.len() * roi.len()]; nsig];
        let mut maxes = vec![1.0f64; nsig]; // line 2: d_i,MAX ← 1

        for (i, &key) in self.keys.iter().enumerate() {
            for (ai, &a) in candidates.iter().enumerate() {
                let sig_a = store.meta_vec_key(a, key);
                for (bi, &b) in roi.iter().enumerate() {
                    let sig_b = store.meta_vec_key(b, key);
                    let raw = match (&sig_a, &sig_b) {
                        (Some(x), Some(y)) => chi_squared(x, y),
                        // Missing metadata: treated as maximally distant.
                        _ => 1.0,
                    };
                    let v = penalized(self.cfg.manhattan_penalty, a, b, raw);
                    per_sig[i][ai * roi.len() + bi] = v;
                    maxes[i] = maxes[i].max(v);
                }
            }
        }

        // Lines 10-15: normalize, combine, sum over ROI tiles.
        candidates
            .iter()
            .enumerate()
            .map(|(ai, &a)| {
                let total = combine_one(&self.cfg, a, roi, |i, bi| {
                    per_sig[i][ai * roi.len() + bi] / maxes[i]
                });
                (a, total)
            })
            .collect()
    }

    /// The serving path: Algorithm 3 over the frozen
    /// [`SignatureIndex`] for one job — `candidates` scored against
    /// the reference tiles `roi` — through an epoch-stamped
    /// [`PairCache`]. All metadata lookups are hoisted out of the
    /// triple loop; every (candidate, ROI) pair is probed first, only
    /// the miss frontier runs the χ² kernel over contiguous matrix
    /// rows, and misses are written back for the next request; every
    /// buffer comes from `scratch`.
    ///
    /// `out` is cleared and filled with `(candidate, d_A)` in candidate
    /// order, bit-identical to [`Self::distances`] across hits, misses
    /// and epoch invalidations, whoever warmed the cache
    /// (golden-tested). A cache that is disabled — zero capacity, or a
    /// domain it rejects (see [`PairCache::begin`]) — misses every
    /// probe and ignores every write-back, so callers that cannot
    /// cache pass `PairCache::new(0)` and get the same bits.
    pub fn distances_into(
        &self,
        index: &SignatureIndex,
        candidates: &[TileId],
        roi: &[TileId],
        cache: &mut PairCache,
        scratch: &mut PredictScratch,
        out: &mut Vec<(TileId, f64)>,
    ) {
        self.fill(index, candidates, roi, cache, scratch);
        out.clear();
        self.combine(candidates, roi.len(), scratch, out);
    }

    /// The fill: hoists the job's lookups, then per candidate probes
    /// the [`PairCache`] for every ROI pair, resolves hits (and missing
    /// tiles) **straight into the pair matrix ROI-major** — `nsig` raw
    /// lanes per pair, no staging buffer, no transpose — runs the χ²
    /// kernel over the gathered miss frontier only, writes misses
    /// back, and accumulates the per-signature maxima (Algorithm 3
    /// line 2) on the fly from the `pen · raw` products
    /// ([`fc_simd::max_num`] selects one argument and is insensitive
    /// to accumulation order, so the maxima equal the reference's
    /// running `max` bit-for-bit). The fill is sequential — probes and
    /// write-backs mutate the cache — and targets interactive steady
    /// state, where hits dominate.
    fn fill(
        &self,
        index: &SignatureIndex,
        candidates: &[TileId],
        roi: &[TileId],
        cache: &mut PairCache,
        scratch: &mut PredictScratch,
    ) {
        let nsig = self.keys.len();
        let (nc, nr) = (candidates.len(), roi.len());
        // Declares the fill's domain (index build, key set). A cache
        // that rejects it stays disabled for this fill: every probe
        // below misses and every insert is a no-op.
        cache.begin(index, &self.keys);

        // Hoisted lookups, each performed once per call instead of
        // once per pair inside the triple loop: candidate dense
        // indices …
        let s = &mut *scratch;
        s.cand_rows.clear();
        s.cand_rows.extend(
            candidates
                .iter()
                .map(|&t| index.dense_index(t).unwrap_or(NO_ROW)),
        );
        // … ROI dense indices (the probe key half shared by every
        // candidate) …
        s.roi_dense.clear();
        s.roi_dense
            .extend(roi.iter().map(|&b| index.dense_index(b).unwrap_or(NO_ROW)));
        // … and ROI row offsets per signature. The
        // signature-independent pair geometry (Manhattan penalty,
        // physical-distance denominator) is resolved per pair by the
        // probe pass — slot hit or miss compute — which writes every
        // slot reserved below.
        s.roi_offsets.clear();
        for &key in &self.keys {
            let mat = index.matrix(key);
            s.roi_offsets.extend(s.roi_dense.iter().map(|&d| {
                if d == NO_ROW {
                    NO_ROW
                } else {
                    mat.and_then(|m| m.row_offset(d)).unwrap_or(NO_ROW)
                }
            }));
        }

        // Grow-only: every cell the combine pass reads is written by
        // the fill below, so stale data past the high-water mark needs
        // no clearing pass.
        if s.penalties.len() < nc * nr {
            s.penalties.resize(nc * nr, 0.0);
            s.denoms.resize(nc * nr, 0.0);
        }
        let stride = nsig * nr;
        if s.pair.len() < nc * stride {
            s.pair.resize(nc * stride, 0.0);
        }
        // Line 2: d_i,MAX ← 1, per signature.
        s.maxes.clear();
        s.maxes.resize(nsig, 1.0);
        if nr == 0 {
            return;
        }

        let rd = &s.roi_dense[..];
        let rd_max = rd.iter().copied().max().unwrap_or(NO_ROW);
        let (mut hits, mut misses) = (0u64, 0u64);
        for (ai, &a) in candidates.iter().enumerate() {
            let ra = s.cand_rows[ai];
            let chunk = &mut s.pair[ai * stride..(ai + 1) * stride];
            let pen = &mut s.penalties[ai * nr..(ai + 1) * nr];
            let den = &mut s.denoms[ai * nr..(ai + 1) * nr];
            // Resolve every pair straight into the ROI-major pair
            // matrix (no transpose), misses deferred.
            let (h, m) = self.resolve_pairs(
                cache,
                a,
                roi,
                ra,
                rd,
                rd_max,
                chunk,
                pen,
                den,
                &mut s.miss_bi,
                &mut s.miss_geo,
            );
            hits += h;
            misses += m;
            if !s.miss_bi.is_empty() {
                self.miss_frontier(
                    index,
                    ra,
                    &s.roi_offsets,
                    &s.miss_bi,
                    &mut s.gath_offs,
                    &mut s.gath_out,
                    chunk,
                );
                // ROI-major lanes are contiguous per pair, so the
                // write-back reads them straight from the matrix.
                for (&bi, &(dmanh, dphys)) in s.miss_bi.iter().zip(&s.miss_geo) {
                    let bi = bi as usize;
                    cache.insert(
                        pair_key(ra, rd[bi]),
                        &chunk[bi * nsig..(bi + 1) * nsig],
                        dmanh,
                        dphys,
                    );
                }
            }
            // Line 2 on the fly: the same `pen · raw` products the
            // reference maximizes over, in a different order —
            // `max_num` doesn't care. Full-width configs take the
            // vector kernel (one `max_num` lane per signature).
            if nsig == MAX_CACHED_SIGS {
                let jm: &mut [f64; MAX_CACHED_SIGS] = (&mut s.maxes[..MAX_CACHED_SIGS])
                    .try_into()
                    .expect("nsig == 4");
                fc_simd::max_pen_accum4(self.simd, chunk, pen, jm);
            } else {
                for (bi, &p) in pen.iter().enumerate() {
                    let lanes = &chunk[bi * nsig..(bi + 1) * nsig];
                    for (mx, &v) in s.maxes.iter_mut().zip(lanes) {
                        *mx = fc_simd::max_num(*mx, p * v);
                    }
                }
            }
        }
        cache.record(hits, misses);
    }

    /// Resolves one candidate's (candidate, ROI) pairs against the
    /// cache — the probe protocol. Per pair: writes the flag-adjusted
    /// penalty and denominator, copies hit (or missing-tile) raw lanes
    /// into `lanes` (`nsig` per pair), and defers misses into
    /// `miss_bi`/`miss_geo` with their geometry stashed for
    /// write-back. Returns the (hits, misses) deltas.
    ///
    /// Fast path: when every ROI dense index is valid and below the
    /// candidate's (the steady state — ROI tiles live at coarser
    /// levels, which have smaller dense indices), the candidate is the
    /// `hi` half of every pair key: one hash per candidate,
    /// consecutive slots per ROI. `NO_ROW` is `usize::MAX`, so any
    /// out-of-geometry ROI tile disables the fast path by dominating
    /// `rd_max`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn resolve_pairs(
        &self,
        cache: &PairCache,
        a: TileId,
        roi: &[TileId],
        ra: usize,
        rd: &[usize],
        rd_max: usize,
        lanes: &mut [f64],
        pen: &mut [f64],
        den: &mut [f64],
        miss_bi: &mut Vec<u32>,
        miss_geo: &mut Vec<(u32, f64)>,
    ) -> (u64, u64) {
        let nsig = self.keys.len();
        let (mut hits, mut misses) = (0u64, 0u64);
        miss_bi.clear();
        miss_geo.clear();
        let tile_missing =
            |bi: usize, b: TileId, pen: &mut [f64], den: &mut [f64], lanes: &mut [f64]| {
                // Candidate or ROI tile outside the index: every signature
                // reads as raw distance 1.
                let (dmanh, dphys) = pair_geometry(a, b);
                pen[bi] = self.penalty_of(dmanh);
                den[bi] = self.denom_of(dphys);
                lanes[bi * nsig..(bi + 1) * nsig].fill(1.0);
            };
        if ra == NO_ROW {
            for (bi, &b) in roi.iter().enumerate() {
                tile_missing(bi, b, pen, den, lanes);
            }
        } else if ra > rd_max {
            let base = slot_base(ra);
            for (bi, &rb) in rd.iter().enumerate() {
                let key = pair_key_ordered(rb, ra);
                if let Some(slot) = cache.probe_from(base, rb, key) {
                    hits += 1;
                    pen[bi] = self.penalty_of(slot.dmanh);
                    den[bi] = self.denom_of(slot.denom);
                    copy_lanes(lanes, bi * nsig, slot, nsig);
                } else {
                    misses += 1;
                    let (dmanh, dphys) = pair_geometry(a, roi[bi]);
                    pen[bi] = self.penalty_of(dmanh);
                    den[bi] = self.denom_of(dphys);
                    miss_bi.push(bi as u32);
                    miss_geo.push((dmanh, dphys));
                }
            }
        } else {
            for (bi, &b) in roi.iter().enumerate() {
                let rb = rd[bi];
                if rb == NO_ROW {
                    tile_missing(bi, b, pen, den, lanes);
                } else if let Some(slot) = cache.probe(pair_key(ra, rb)) {
                    hits += 1;
                    pen[bi] = self.penalty_of(slot.dmanh);
                    den[bi] = self.denom_of(slot.denom);
                    copy_lanes(lanes, bi * nsig, slot, nsig);
                } else {
                    misses += 1;
                    let (dmanh, dphys) = pair_geometry(a, b);
                    pen[bi] = self.penalty_of(dmanh);
                    den[bi] = self.denom_of(dphys);
                    miss_bi.push(bi as u32);
                    miss_geo.push((dmanh, dphys));
                }
            }
        }
        (hits, misses)
    }

    /// Runs the χ² kernel over one candidate's miss frontier: per
    /// signature, gathers the missing pairs' row offsets out of the
    /// `offs` table (`nr` entries per signature), computes raw
    /// values, and scatters each into its pair's lane of the ROI-major
    /// `chunk`.
    #[allow(clippy::too_many_arguments)]
    fn miss_frontier(
        &self,
        index: &SignatureIndex,
        ra: usize,
        offs: &[usize],
        miss_bi: &[u32],
        gath_offs: &mut Vec<usize>,
        gath_out: &mut Vec<f64>,
        chunk: &mut [f64],
    ) {
        let nsig = self.keys.len();
        let nr = offs.len() / nsig;
        for (i, &key) in self.keys.iter().enumerate() {
            let offs = &offs[i * nr..(i + 1) * nr];
            gath_offs.clear();
            gath_offs.extend(miss_bi.iter().map(|&bi| offs[bi as usize]));
            gath_out.clear();
            gath_out.resize(miss_bi.len(), 0.0);
            match index.matrix(key).and_then(|m| m.row(ra).map(|r| (m, r))) {
                Some((mat, row_a)) => {
                    chi_squared_lanes(self.simd, row_a, mat.data(), gath_offs, gath_out);
                }
                // Candidate lacks this signature (or the whole key is
                // absent): every pair is maximally distant (raw = 1).
                None => gath_out.fill(1.0),
            }
            for (&bi, &raw) in miss_bi.iter().zip(gath_out.iter()) {
                chunk[bi as usize * nsig + i] = raw;
            }
        }
    }

    /// Line 8's penalty factor from a cached/computed Manhattan
    /// distance, honoring the ablation flag.
    #[inline]
    fn penalty_of(&self, dmanh: u32) -> f64 {
        if self.cfg.manhattan_penalty {
            exp2i(dmanh as i32 - 1)
        } else {
            1.0
        }
    }

    /// Line 13's denominator from a cached/computed physical distance,
    /// honoring the ablation flag.
    #[inline]
    fn denom_of(&self, dphys: f64) -> f64 {
        if self.cfg.physical_distance {
            dphys
        } else {
            1.0
        }
    }

    /// Lines 10-15, streaming over the ROI-major raw layout the fill
    /// left in `scratch`, with the reference's exact operations and
    /// order per pair: `dv = (raw·pen)/mᵢ` (the same IEEE product as
    /// the reference's `pen·raw`, then the division by the
    /// per-signature maximum exactly as the reference performs it
    /// inside its combine closure), `sq += wᵢ·dv·dv` in signature
    /// order, `total += √sq/dphys` in ROI order. Bit-identical to
    /// `distances`; the full-width config takes the vector kernel,
    /// which transposes in registers while preserving exactly this
    /// order per lane.
    fn combine(
        &self,
        candidates: &[TileId],
        nr: usize,
        scratch: &PredictScratch,
        out: &mut Vec<(TileId, f64)>,
    ) {
        let nsig = self.keys.len();
        out.reserve(candidates.len());
        let weights = &self.cfg.weights;
        let maxes = &scratch.maxes[..];
        let mut w4 = [0.0f64; MAX_CACHED_SIGS];
        let mut m4 = [1.0f64; MAX_CACHED_SIGS];
        for (i, (&(_, w), &m)) in weights.iter().zip(maxes).enumerate().take(MAX_CACHED_SIGS) {
            w4[i] = w;
            m4[i] = m;
        }
        for (ai, &a) in candidates.iter().enumerate() {
            let block = &scratch.pair[ai * nsig * nr..(ai + 1) * nsig * nr];
            let pens = &scratch.penalties[ai * nr..(ai + 1) * nr];
            let dens = &scratch.denoms[ai * nr..(ai + 1) * nr];
            let total = if nsig == MAX_CACHED_SIGS {
                fc_simd::combine_exact4(self.simd, block, pens, dens, &w4, &m4)
            } else {
                let mut total = 0.0f64;
                for ((lanes, &p), &dn) in block.chunks_exact(nsig).zip(pens).zip(dens) {
                    let mut sq = 0.0f64;
                    for (i, &(_, w)) in weights.iter().enumerate() {
                        let dv = (lanes[i] * p) / maxes[i];
                        sq += w * dv * dv;
                    }
                    total += sq.sqrt() / dn;
                }
                total
            };
            out.push((a, total));
        }
    }

    /// Ranks candidates against the context's reference set using the
    /// frozen index, the session's [`PairCache`] and caller-owned
    /// scratch — the steady-state request path. Ordering is identical
    /// to [`Recommender::rank`] on the same data (the distances are
    /// bit-identical).
    pub fn rank_indexed_cached(
        &self,
        ctx: &PredictionContext<'_>,
        index: &SignatureIndex,
        cache: &mut PairCache,
        scratch: &mut PredictScratch,
    ) -> Vec<TileId> {
        self.rank_tiles(index, ctx.candidates, ctx.reference_tiles(), cache, scratch)
            .0
    }

    /// [`Recommender::rank`] on bare tile lists: the locked reference
    /// path, for stores without an index.
    pub(crate) fn rank_reference(
        &self,
        store: &TileStore,
        candidates: &[TileId],
        roi: &[TileId],
    ) -> Vec<TileId> {
        let mut scored = self.distances(store, candidates, roi);
        sort_scored(&mut scored);
        scored.into_iter().map(|(t, _)| t).collect()
    }

    /// [`Self::rank_indexed_cached`] on bare tile lists — the fill, the
    /// sort, the ranked ids — plus what this call alone added to
    /// `cache`'s counters. The one ranking routine behind the engine's
    /// own path and the dataset-shared one
    /// ([`crate::batch::PredictScheduler::rank`]).
    pub(crate) fn rank_tiles(
        &self,
        index: &SignatureIndex,
        candidates: &[TileId],
        roi: &[TileId],
        cache: &mut PairCache,
        scratch: &mut PredictScratch,
    ) -> (Vec<TileId>, PairCacheStats) {
        let before = cache.stats();
        let mut scored = std::mem::take(&mut scratch.scored);
        self.distances_into(index, candidates, roi, cache, scratch, &mut scored);
        sort_scored(&mut scored);
        let ranked = scored.iter().map(|&(t, _)| t).collect();
        scratch.scored = scored;
        (ranked, cache.stats().since(before))
    }
}

/// Line 8: the Manhattan-distance penalty `2^(dmanh − 1)` applied to a
/// raw χ² value.
#[inline]
fn penalized(enabled: bool, a: TileId, b: TileId, raw: f64) -> f64 {
    if enabled {
        let dmanh = a.manhattan(&b);
        2.0f64.powi(dmanh as i32 - 1) * raw
    } else {
        raw
    }
}

/// Exact `2^n` by exponent-field construction — the same value
/// `2.0f64.powi(n)` computes (powers of two are exact in binary
/// floating point) without the libcall. Falls back to `powi` outside
/// the normal-exponent range.
#[inline]
fn exp2i(n: i32) -> f64 {
    if (-1022..=1023).contains(&n) {
        f64::from_bits(((1023 + n) as u64) << 52)
    } else {
        2.0f64.powi(n)
    }
}

/// Lines 12-15 for one candidate: weighted l2 combine over signatures,
/// divided by physical distance, summed over ROI tiles. `d(i, bi)`
/// yields the normalized per-signature distance.
#[inline]
fn combine_one(cfg: &SbConfig, a: TileId, roi: &[TileId], d: impl Fn(usize, usize) -> f64) -> f64 {
    let mut total = 0.0f64;
    for (bi, &b) in roi.iter().enumerate() {
        let mut sq = 0.0f64;
        for (i, &(_, w)) in cfg.weights.iter().enumerate() {
            let v = d(i, bi);
            sq += w * v * v;
        }
        let denom = if cfg.physical_distance {
            physical_distance(a, b)
        } else {
            1.0
        };
        total += sq.sqrt() / denom;
    }
    total
}

/// Ascending by distance, candidate id as the deterministic tiebreak.
fn sort_scored(scored: &mut [(TileId, f64)]) {
    scored.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("finite distances")
            .then(a.0.cmp(&b.0))
    });
}

impl Recommender for SbRecommender {
    fn name(&self) -> &str {
        &self.name
    }

    fn rank(&self, ctx: &PredictionContext<'_>) -> Vec<TileId> {
        self.rank_reference(ctx.store, ctx.candidates, ctx.reference_tiles())
    }
}

/// χ² distance between two non-negative vectors:
/// `½ Σ (a−b)² / (a+b)`, skipping all-zero bins. Defined for unequal
/// lengths by treating missing entries as 0.
pub fn chi_squared(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(b.len());
    let mut acc = 0.0f64;
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0.0);
        let y = b.get(i).copied().unwrap_or(0.0);
        let denom = x + y;
        if denom > 1e-12 {
            acc += (x - y) * (x - y) / denom;
        }
    }
    acc / 2.0
}

/// `dmanh` and the floored-Euclidean `dphysical` for one tile pair,
/// from one shared level projection. Bitwise symmetric in `(a, b)`:
/// `abs_diff` is symmetric and `(−d)·(−d)` is the same IEEE product as
/// `d·d`, so the pair cache can store one value per unordered pair.
#[inline]
fn pair_geometry(a: TileId, b: TileId) -> (u32, f64) {
    let level = a.level.max(b.level);
    let pa = a.project_to(level);
    let pb = b.project_to(level);
    let dmanh = pa.y.abs_diff(pb.y) + pa.x.abs_diff(pb.x);
    let dy = f64::from(pa.y) - f64::from(pb.y);
    let dx = f64::from(pa.x) - f64::from(pb.x);
    (dmanh, (dy * dy + dx * dx).sqrt().max(1.0))
}

/// Copies a slot's first `nsig` raw lanes to `lanes[at..]`, with a
/// fixed-width fast path for the common full-width config (a
/// runtime-length `copy_from_slice` lowers to a `memcpy` call).
#[inline]
fn copy_lanes(lanes: &mut [f64], at: usize, slot: &crate::paircache::Slot, nsig: usize) {
    if nsig == MAX_CACHED_SIGS {
        lanes[at..at + MAX_CACHED_SIGS].copy_from_slice(&slot.vals);
    } else {
        lanes[at..at + nsig].copy_from_slice(&slot.vals[..nsig]);
    }
}

/// χ² over two equal-length contiguous rows — the hot-path form used
/// against [`SignatureIndex`] matrices, whose rows are zero-padded to a
/// common width. Zero-padded bins contribute exactly 0, as in
/// [`chi_squared`]'s skip, so both forms agree bitwise (the accumulator
/// is non-negative, and adding +0.0 to a non-negative `f64` is exact).
#[inline]
pub fn chi_squared_rows(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let denom = x + y;
        let num = (x - y) * (x - y);
        // Branchless select: the rejected-lane division may produce
        // inf/NaN, which is discarded, never accumulated.
        acc += if denom > 1e-12 { num / denom } else { 0.0 };
    }
    acc / 2.0
}

/// Raw χ² of one candidate row against many ROI rows of the same
/// matrix: `out[bi] = χ²(row_a, row(offs[bi]))`, with
/// `offs[bi] == NO_ROW` meaning the ROI tile lacks this signature (raw
/// distance 1).
///
/// Present lanes are processed four at a time through
/// [`fc_simd::chi2_acc4`] with one independent accumulator per lane.
/// Each lane performs exactly the operations of [`chi_squared_rows`]
/// in the same order — lanes are independent sums, so the blocking
/// adds data parallelism without reassociating any addition, and
/// results stay bit-identical to the scalar loop at every dispatch
/// level (the vector guard adds `+0.0` for rejected bins, exactly the
/// scalar's `else` arm).
fn chi_squared_lanes(
    simd: SimdLevel,
    row_a: &[f64],
    data: &[f64],
    offs: &[usize],
    out: &mut [f64],
) {
    let dim = row_a.len();
    let nr = offs.len();
    if dim == 0 {
        // Degenerate zero-width key: χ² of empty rows is 0.
        for bi in 0..nr {
            out[bi] = if offs[bi] == NO_ROW { 1.0 } else { 0.0 };
        }
        return;
    }
    let mut bi = 0;
    while bi < nr {
        if bi + 4 <= nr && offs[bi..bi + 4].iter().all(|&o| o != NO_ROW) {
            let b0 = &data[offs[bi]..][..dim];
            let b1 = &data[offs[bi + 1]..][..dim];
            let b2 = &data[offs[bi + 2]..][..dim];
            let b3 = &data[offs[bi + 3]..][..dim];
            let acc = fc_simd::chi2_acc4::<false>(simd, row_a, b0, b1, b2, b3);
            for k in 0..4 {
                out[bi + k] = acc[k] / 2.0;
            }
            bi += 4;
        } else {
            out[bi] = match offs[bi] {
                NO_ROW => 1.0,
                o => chi_squared_rows(row_a, &data[o..][..dim]),
            };
            bi += 1;
        }
    }
}

/// `dphysical(A, B)`: Euclidean distance between tile centres in the
/// deeper level's tile coordinates, floored at 1 so the division in
/// Algorithm 3 line 13 is well-defined for coincident tiles.
pub fn physical_distance(a: TileId, b: TileId) -> f64 {
    let level = a.level.max(b.level);
    let pa = a.project_to(level);
    let pb = b.project_to(level);
    let dy = f64::from(pa.y) - f64::from(pb.y);
    let dx = f64::from(pa.x) - f64::from(pb.x);
    (dy * dy + dx * dx).sqrt().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Request, SessionHistory};
    use fc_array::{IoMode, LatencyModel, SimClock};
    use fc_tiles::Geometry;

    fn store_with_sigs() -> (TileStore, Geometry) {
        let g = Geometry::new(3, 256, 256, 64, 64);
        let s = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
        (s, g)
    }

    fn put_hist(s: &TileStore, id: TileId, hist: &[f64]) {
        s.put_meta(id, SignatureKind::Hist1D.meta_name(), hist.to_vec());
    }

    /// One job through the fill with a disabled cache (every pair
    /// computed), on the caller's scratch.
    fn score(
        sb: &SbRecommender,
        ix: &SignatureIndex,
        candidates: &[TileId],
        roi: &[TileId],
        scratch: &mut PredictScratch,
    ) -> Vec<(TileId, f64)> {
        let mut out = Vec::new();
        sb.distances_into(
            ix,
            candidates,
            roi,
            &mut PairCache::new(0),
            scratch,
            &mut out,
        );
        out
    }

    #[test]
    fn chi_squared_basics() {
        assert_eq!(chi_squared(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        let d = chi_squared(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((d - 1.0).abs() < 1e-12, "{d}");
        // Symmetry.
        let a = [0.2, 0.3, 0.5];
        let b = [0.5, 0.25, 0.25];
        assert!((chi_squared(&a, &b) - chi_squared(&b, &a)).abs() < 1e-15);
        // Unequal lengths: missing = 0.
        assert!(chi_squared(&[1.0], &[1.0, 1.0]) > 0.0);
    }

    #[test]
    fn chi_squared_rows_matches_padded_general_form() {
        let a = [0.2, 0.3, 0.5, 0.0];
        let b = [0.5, 0.25, 0.25, 0.0];
        assert_eq!(
            chi_squared_rows(&a, &b).to_bits(),
            chi_squared(&[0.2, 0.3, 0.5], &[0.5, 0.25, 0.25]).to_bits()
        );
    }

    #[test]
    fn physical_distance_floors_at_one() {
        let a = TileId::new(2, 1, 1);
        assert_eq!(physical_distance(a, a), 1.0);
        assert_eq!(physical_distance(a, TileId::new(2, 1, 4)), 3.0);
        // Cross-level projects to the deeper level.
        let parent = TileId::new(1, 0, 0);
        let deep = TileId::new(2, 0, 4);
        assert_eq!(physical_distance(parent, deep), 4.0);
    }

    #[test]
    fn rank_prefers_similar_signature() {
        let (s, g) = store_with_sigs();
        let roi = TileId::new(2, 1, 1);
        let similar = TileId::new(2, 1, 2);
        let different = TileId::new(2, 2, 1);
        put_hist(&s, roi, &[0.9, 0.1]);
        put_hist(&s, similar, &[0.85, 0.15]);
        put_hist(&s, different, &[0.1, 0.9]);
        let sb = SbRecommender::new(SbConfig::single(SignatureKind::Hist1D));
        let mut h = SessionHistory::new(3);
        let cur = Request::initial(TileId::new(2, 2, 2));
        h.push(cur);
        let candidates = [similar, different];
        let roi_tiles = [roi];
        let ctx = PredictionContext {
            request: cur,
            history: &h,
            candidates: &candidates,
            geometry: g,
            store: &s,
            roi: &roi_tiles,
        };
        let ranked = sb.rank(&ctx);
        assert_eq!(ranked[0], similar);
        assert_eq!(ranked.len(), 2);
        // The indexed fast path agrees exactly.
        let ix = s.signature_index().unwrap();
        let mut scratch = PredictScratch::default();
        let mut cache = PairCache::for_index(&ix);
        assert_eq!(
            sb.rank_indexed_cached(&ctx, &ix, &mut cache, &mut scratch),
            ranked
        );
    }

    #[test]
    fn manhattan_penalty_demotes_distant_lookalikes() {
        let (s, _g) = store_with_sigs();
        let roi = TileId::new(2, 0, 0);
        // Identical signatures, but one candidate is far away.
        let near = TileId::new(2, 0, 1);
        let far = TileId::new(2, 3, 3);
        for id in [roi, near, far] {
            put_hist(&s, id, &[0.5, 0.5]);
        }
        let sb = SbRecommender::new(SbConfig::single(SignatureKind::Hist1D));
        let d = sb.distances(&s, &[near, far], &[roi]);
        // Identical signatures → raw distance 0 for both; the Manhattan
        // penalty multiplies zero, so both are 0 — the tie is fine. Now
        // make signatures slightly different to expose the penalty.
        put_hist(&s, near, &[0.45, 0.55]);
        put_hist(&s, far, &[0.45, 0.55]);
        let d2 = sb.distances(&s, &[near, far], &[roi]);
        let near_d = d2[0].1;
        let far_d = d2[1].1;
        assert!(near_d < far_d, "near {near_d} vs far {far_d}");
        let _ = d;
    }

    #[test]
    fn missing_metadata_is_max_distance() {
        let (s, _g) = store_with_sigs();
        let roi = TileId::new(2, 1, 1);
        let known = TileId::new(2, 1, 2);
        let unknown = TileId::new(2, 1, 0);
        put_hist(&s, roi, &[1.0, 0.0]);
        put_hist(&s, known, &[1.0, 0.0]);
        let sb = SbRecommender::new(SbConfig::single(SignatureKind::Hist1D));
        let d = sb.distances(&s, &[known, unknown], &[roi]);
        assert!(d[0].1 < d[1].1);
        // Same verdict through the index.
        let ix = s.signature_index().unwrap();
        let out = score(
            &sb,
            &ix,
            &[known, unknown],
            &[roi],
            &mut PredictScratch::default(),
        );
        assert_eq!(out[0].1.to_bits(), d[0].1.to_bits());
        assert_eq!(out[1].1.to_bits(), d[1].1.to_bits());
    }

    #[test]
    fn falls_back_to_current_tile_without_roi() {
        let (s, g) = store_with_sigs();
        let cur_tile = TileId::new(2, 1, 1);
        let like_cur = TileId::new(2, 1, 2);
        let unlike = TileId::new(2, 0, 1);
        put_hist(&s, cur_tile, &[0.8, 0.2]);
        put_hist(&s, like_cur, &[0.8, 0.2]);
        put_hist(&s, unlike, &[0.0, 1.0]);
        let sb = SbRecommender::new(SbConfig::single(SignatureKind::Hist1D));
        let mut h = SessionHistory::new(3);
        let cur = Request::initial(cur_tile);
        h.push(cur);
        let candidates = [unlike, like_cur];
        let ctx = PredictionContext {
            request: cur,
            history: &h,
            candidates: &candidates,
            geometry: g,
            store: &s,
            roi: &[],
        };
        assert_eq!(sb.rank(&ctx)[0], like_cur);
        let ix = s.signature_index().unwrap();
        let mut scratch = PredictScratch::default();
        let mut cache = PairCache::for_index(&ix);
        assert_eq!(
            sb.rank_indexed_cached(&ctx, &ix, &mut cache, &mut scratch)[0],
            like_cur
        );
    }

    #[test]
    fn multi_signature_weights_combine() {
        let cfg = SbConfig::all_equal();
        assert_eq!(cfg.weights.len(), 4);
        let sb = SbRecommender::new(cfg);
        assert_eq!(sb.name(), "SB");
        let single = SbRecommender::new(SbConfig::single(SignatureKind::Sift));
        assert_eq!(single.name(), "SB:SIFT");
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let (s, _g) = store_with_sigs();
        for y in 0..4 {
            for x in 0..4 {
                put_hist(
                    &s,
                    TileId::new(2, y, x),
                    &[f64::from(y) / 4.0, 1.0 - f64::from(y) / 4.0],
                );
            }
        }
        let sb = SbRecommender::new(SbConfig::single(SignatureKind::Hist1D));
        let ix = s.signature_index().unwrap();
        let candidates: Vec<TileId> = (0..4)
            .flat_map(|y| (0..4).map(move |x| TileId::new(2, y, x)))
            .collect();
        let roi = [TileId::new(2, 0, 0), TileId::new(2, 3, 3)];
        let mut scratch = PredictScratch::default();
        let first = score(&sb, &ix, &candidates, &roi, &mut scratch);
        // Re-running with warm scratch (including a shrunk problem in
        // between) must give identical bits.
        score(&sb, &ix, &candidates[..3], &roi[..1], &mut scratch);
        let second = score(&sb, &ix, &candidates, &roi, &mut scratch);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }
}
