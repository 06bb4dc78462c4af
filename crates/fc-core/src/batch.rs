//! Cross-session predict batching (the multi-user serving core).
//!
//! One analyst's candidate set at prediction distance 1 is at most 24
//! tiles, scored against a pair cache that only its own pans warm. A
//! busy server, however, runs many sessions whose predicts arrive
//! *together* over the same tiles. The [`PredictScheduler`] exploits
//! that: concurrent sessions submit their candidate/ROI sets, a short
//! rendezvous coalesces them into **one**
//! [`SbRecommender::distances_into`] call per tick over one shared
//! pair cache, and every session gets back exactly the ranking it
//! would have computed alone (per-job normalization keeps the batch
//! bit-identical to per-session predicts — a golden test enforces it).
//!
//! # Rendezvous protocol (group commit)
//!
//! The first session to submit becomes the **tick leader**. With the
//! default zero window it computes the pending batch *immediately* —
//! no timed wait — while jobs submitted during its compute accumulate
//! for the next tick, whose leader is the first of them. Batch size
//! therefore adapts to load (one job when idle, most of the registered
//! sessions when saturated) without adding latency at low
//! concurrency: this is group commit, not a barrier. Setting
//! [`BatchConfig::window`] non-zero makes the leader additionally wait
//! up to that long for every registered session to join — a fan-in
//! hint for multi-core hosts chasing maximal batch width. Followers
//! just enqueue and sleep on the condvar until the leader deposits
//! their results — bounded by [`BatchConfig::follower_timeout`], after
//! which a follower assumes its leader died uncleanly and rescues
//! itself with a bit-identical solo recompute (counted in
//! [`SchedulerStats::rescues`]).
//!
//! # Allocation discipline
//!
//! The scheduler owns one [`PredictScratch`] plus pooled job and
//! output buffers, all recycled through the state mutex: at a steady
//! session count the submit → batch → result cycle allocates only the
//! final ranked `Vec<TileId>` handed to each caller (the same
//! allocation the unbatched path makes), keeping `predict`
//! allocation-free under fan-in.

use crate::paircache::{PairCache, PairCacheStats};
use crate::sb::{sort_scored, PredictScratch, SbBatchJob, SbRecommender};
use crate::signature::pair_cache_capacity_hint;
use fc_tiles::{Pyramid, SignatureIndex, TileId};
use parking_lot::atomic::{AtomicU64, AtomicUsize};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Scheduler tuning parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchConfig {
    /// Extra fan-in time a tick leader waits for the remaining
    /// registered sessions before computing. Zero (the default) is
    /// pure group commit: the leader computes whatever is pending and
    /// later arrivals form the next tick — the right setting when
    /// cores are scarce. A non-zero window trades per-predict latency
    /// for wider batches on multi-core hosts.
    pub window: Duration,
    /// How long a follower sleeps on the leader's deposit before
    /// rescuing itself with a bit-identical solo computation (zero =
    /// [`DEFAULT_FOLLOWER_TIMEOUT`]). The leader's `catch_unwind`
    /// already unwedges followers on a clean panic; this bound covers
    /// the unclean cases — a leader thread killed by stack overflow or
    /// an abort-in-destructor — so a follower can never block forever.
    pub follower_timeout: Duration,
}

/// Follower rescue bound used when [`BatchConfig::follower_timeout`]
/// is zero. Generous on purpose: a rescue duplicates work, so it must
/// only fire when the leader is genuinely gone, not merely slow.
pub const DEFAULT_FOLLOWER_TIMEOUT: Duration = Duration::from_secs(5);

/// Counters describing scheduler behaviour (monotonic, lock-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Batch ticks executed.
    pub batches: u64,
    /// Jobs served across all ticks.
    pub jobs: u64,
    /// Largest single tick, in jobs.
    pub largest_batch: usize,
    /// Candidates scored across all ticks.
    pub batched_candidates: u64,
    /// Followers that timed out waiting for a dead leader and
    /// recomputed solo. Zero in healthy operation.
    pub rescues: u64,
}

/// One queued predict job: the submitting session's candidate set and
/// resolved reference tiles, plus the ticket its result is filed under.
#[derive(Debug, Default)]
struct PendingJob {
    ticket: u64,
    candidates: Vec<TileId>,
    roi: Vec<TileId>,
}

/// Mutex-guarded scheduler state (see module docs for the protocol).
#[derive(Debug, Default)]
struct SchedState {
    next_ticket: u64,
    /// Jobs awaiting the current tick.
    pending: Vec<PendingJob>,
    /// Results for followers, keyed by ticket.
    results: HashMap<u64, Vec<TileId>>,
    /// Whether a leader is collecting the current tick.
    leader_active: bool,
    /// Whether that leader is inside its fan-in wait (submitters only
    /// notify the condvar then, sparing the thundering herd when the
    /// window is zero).
    leader_waiting: bool,
    /// Batch scratch, recycled across ticks.
    scratch: PredictScratch,
    /// The χ² pair cache **shared by every coalesced session**: one
    /// session's pans warm the pairs another session probes (the
    /// prediction-arithmetic analogue of §6.2's shared tile cache).
    /// Sized lazily from the first tick's index; epoch changes
    /// invalidate it in O(1) via its generation stamp.
    cache: PairCache,
    /// Snapshot of `cache`'s counters at the last leader deposit.
    /// While a leader computes it holds the cache *outside* the lock
    /// (`cache` here is a zero-stat placeholder), so readers combine
    /// this snapshot with the live counters — see
    /// [`PredictScheduler::pair_cache_stats`].
    pair_stats: PairCacheStats,
    /// Per-job distance outputs, recycled across ticks.
    outs: Vec<Vec<(TileId, f64)>>,
    /// Recycled job buffers (candidates/roi capacity survives).
    job_pool: Vec<PendingJob>,
}

/// Coalesces concurrent sessions' SB predictions into one batched
/// distance computation per tick. Construct one per served pyramid and
/// share it (`Arc`) across session threads; results are bit-identical
/// to unbatched per-session prediction.
///
/// The scheduler's [`SbRecommender`] must be configured identically to
/// the sessions' own (same signature weights and flags) — the engine
/// factory that builds session engines should also supply this model,
/// e.g. via [`crate::engine::PredictionEngine::sb_model`].
pub struct PredictScheduler {
    sb: SbRecommender,
    pyramid: Arc<Pyramid>,
    cfg: BatchConfig,
    /// Sessions currently registered (the leader's fan-in target).
    registered: AtomicUsize,
    state: Mutex<SchedState>,
    /// Shim condvar (guard-based `wait`/`wait_for` API): in debug
    /// builds its waits are model-checker scheduling points, which is
    /// what lets `fc-check` explore the leader/follower rendezvous.
    cv: Condvar,
    batches: AtomicU64,
    jobs_total: AtomicU64,
    largest: AtomicUsize,
    cands_total: AtomicU64,
    rescues: AtomicU64,
}

impl std::fmt::Debug for PredictScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictScheduler")
            .field("registered", &self.registered.load(Ordering::Relaxed))
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PredictScheduler {
    /// Creates a scheduler for sessions exploring `pyramid`, using `sb`
    /// (a clone of the sessions' SB model) for the batched scoring.
    pub fn new(sb: SbRecommender, pyramid: Arc<Pyramid>, cfg: BatchConfig) -> Self {
        Self {
            sb,
            pyramid,
            cfg,
            registered: AtomicUsize::new(0),
            state: Mutex::new(SchedState::default()),
            cv: Condvar::new(),
            batches: AtomicU64::new(0),
            jobs_total: AtomicU64::new(0),
            largest: AtomicUsize::new(0),
            cands_total: AtomicU64::new(0),
            rescues: AtomicU64::new(0),
        }
    }

    /// Registers a session: the fan-in target every tick leader waits
    /// for grows by one. Pair with [`Self::unregister`].
    pub fn register(&self) {
        self.registered.fetch_add(1, Ordering::Relaxed);
    }

    /// Unregisters a session (a leader mid-wait re-reads the target,
    /// so departures never wedge a tick past its window).
    pub fn unregister(&self) {
        self.registered.fetch_sub(1, Ordering::Relaxed);
    }

    /// Number of registered sessions.
    pub fn registered(&self) -> usize {
        self.registered.load(Ordering::Relaxed)
    }

    /// The SIMD dispatch level the scheduler's shared SB model runs at.
    pub fn simd_level(&self) -> fc_simd::SimdLevel {
        self.sb.simd_level()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            batches: self.batches.load(Ordering::Relaxed),
            jobs: self.jobs_total.load(Ordering::Relaxed),
            largest_batch: self.largest.load(Ordering::Relaxed),
            batched_candidates: self.cands_total.load(Ordering::Relaxed),
            rescues: self.rescues.load(Ordering::Relaxed),
        }
    }

    /// Ranks `candidates` against `refs` (the session's ROI, or its
    /// current tile when no ROI is committed), joining — or leading —
    /// the current batch tick. Blocks until the tick containing this
    /// job completes; the returned ranking is bit-identical to
    /// [`SbRecommender::rank_indexed_cached`] on the same inputs.
    pub fn rank(&self, candidates: &[TileId], refs: &[TileId]) -> Vec<TileId> {
        let (ticket, leading, wake_leader) = {
            let mut g = self.state.lock();
            let ticket = g.next_ticket;
            g.next_ticket += 1;
            let mut job = g.job_pool.pop().unwrap_or_default();
            job.ticket = ticket;
            job.candidates.clear();
            job.candidates.extend_from_slice(candidates);
            job.roi.clear();
            job.roi.extend_from_slice(refs);
            g.pending.push(job);
            let leading = !g.leader_active;
            if leading {
                g.leader_active = true;
            }
            (ticket, leading, g.leader_waiting)
        };
        if wake_leader {
            // A leader is in its fan-in wait: let it see the new job.
            self.cv.notify_all();
        }
        if leading {
            self.lead(ticket)
        } else {
            self.follow(ticket, candidates, refs)
        }
    }

    /// Leader path: (optionally) wait for fan-in, compute the batch,
    /// deposit the followers' results, return our own.
    fn lead(&self, ticket: u64) -> Vec<TileId> {
        let mut g = self.state.lock();
        if !self.cfg.window.is_zero() {
            let deadline = parking_lot::time::now() + self.cfg.window;
            g.leader_waiting = true;
            loop {
                let target = self.registered.load(Ordering::Relaxed).max(1);
                if g.pending.len() >= target {
                    break;
                }
                let now = parking_lot::time::now();
                if now >= deadline {
                    break;
                }
                self.cv.wait_for(&mut g, deadline - now);
            }
            g.leader_waiting = false;
        }
        let jobs = std::mem::take(&mut g.pending);
        let mut scratch = std::mem::take(&mut g.scratch);
        let mut cache = std::mem::take(&mut g.cache);
        let mut outs = std::mem::take(&mut g.outs);
        // The next submitter may start collecting the following tick
        // while we compute this one outside the lock.
        g.leader_active = false;
        drop(g);

        let ncands: usize = jobs.iter().map(|j| j.candidates.len()).sum();
        // The compute runs under `catch_unwind`: a panicking leader
        // must still deposit *something* for its followers (empty
        // rankings) before re-raising, or every coalesced session
        // would sleep on the condvar forever.
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let index = self.pyramid.store().signature_index();
            if let Some(index) = &index {
                // Lazy sizing: the shared cache follows the served
                // index's shape (a later epoch bump keeps the table
                // and invalidates by generation).
                let want = pair_cache_capacity_hint(index.keys().len(), index.ntiles());
                if cache.capacity() != want {
                    cache = PairCache::new(want);
                }
            }
            let jobrefs: Vec<SbBatchJob<'_>> = jobs
                .iter()
                .map(|j| SbBatchJob {
                    candidates: &j.candidates,
                    roi: &j.roi,
                })
                .collect();
            self.rank_jobs(
                index.as_deref(),
                &jobrefs,
                &mut cache,
                &mut scratch,
                &mut outs,
            )
        }));
        let ranked = match computed {
            Ok(r) => r,
            Err(payload) => {
                // Unwedge the followers with empty rankings (the
                // possibly-poisoned scratch/outs are dropped, not
                // returned to the pool), then re-raise on this thread.
                let mut g = self.state.lock();
                for job in &jobs {
                    if job.ticket != ticket {
                        g.results.insert(job.ticket, Vec::new());
                    }
                }
                drop(g);
                self.cv.notify_all();
                std::panic::resume_unwind(payload);
            }
        };

        self.batches.fetch_add(1, Ordering::Relaxed);
        self.jobs_total
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        self.largest.fetch_max(jobs.len(), Ordering::Relaxed);
        self.cands_total.fetch_add(ncands as u64, Ordering::Relaxed);

        let mut mine = Vec::new();
        let mut g = self.state.lock();
        for (job, r) in jobs.iter().zip(ranked) {
            if job.ticket == ticket {
                mine = r;
            } else {
                g.results.insert(job.ticket, r);
            }
        }
        g.job_pool.extend(jobs);
        g.scratch = scratch;
        g.pair_stats = cache.stats();
        g.cache = cache;
        g.outs = outs;
        drop(g);
        self.cv.notify_all();
        mine
    }

    /// Counters of the shared χ² pair-distance cache (cumulative over
    /// every coalesced session). Takes the scheduler state lock
    /// briefly. While a tick leader is computing it holds the cache
    /// outside the lock (the in-state placeholder reads all-zero), so
    /// this returns the elementwise max of the live counters and the
    /// last deposited snapshot — counters are monotonic, so the max is
    /// always the freshest complete reading and never regresses.
    pub fn pair_cache_stats(&self) -> PairCacheStats {
        let g = self.state.lock();
        let live = g.cache.stats();
        let snap = g.pair_stats;
        PairCacheStats {
            hits: live.hits.max(snap.hits),
            misses: live.misses.max(snap.misses),
            invalidations: live.invalidations.max(snap.invalidations),
        }
    }

    /// Follower path: sleep until the tick leader deposits our result,
    /// bounded by [`BatchConfig::follower_timeout`]. A leader that
    /// panics cleanly unwedges us through its `catch_unwind` deposit;
    /// if the leader thread dies *without* unwinding (stack overflow,
    /// abort) the timeout fires and we rescue ourselves with a
    /// bit-identical solo recompute of our own job.
    fn follow(&self, ticket: u64, candidates: &[TileId], refs: &[TileId]) -> Vec<TileId> {
        let timeout = if self.cfg.follower_timeout.is_zero() {
            DEFAULT_FOLLOWER_TIMEOUT
        } else {
            self.cfg.follower_timeout
        };
        let deadline = parking_lot::time::now() + timeout;
        let mut g = self.state.lock();
        loop {
            if let Some(r) = g.results.remove(&ticket) {
                return r;
            }
            let now = parking_lot::time::now();
            if now >= deadline {
                break;
            }
            self.cv.wait_for(&mut g, deadline - now);
        }
        // Rescue. If our job is still queued the leader died before
        // even collecting the tick: withdraw the job and clear the
        // ghost leader flag so the next submitter can lead again. (If
        // a merely-slow leader races this, the worst case is a benign
        // second concurrent tick — `lead` takes state buffers by
        // `mem::take`, so a concurrent tick just runs on fresh ones —
        // plus one orphaned `results` entry for the rescued ticket.)
        if let Some(pos) = g.pending.iter().position(|j| j.ticket == ticket) {
            let job = g.pending.remove(pos);
            g.job_pool.push(job);
            g.leader_active = false;
        }
        drop(g);
        self.rescues.fetch_add(1, Ordering::Relaxed);
        self.rank_solo(candidates, refs)
    }

    /// The unbatched computation for a single job — exactly what
    /// [`Self::rank`] is specified to equal. Used by the follower
    /// rescue path; runs on fresh scratch and a disabled cache so it
    /// never touches buffers a dead leader may still own.
    fn rank_solo(&self, candidates: &[TileId], refs: &[TileId]) -> Vec<TileId> {
        let job = SbBatchJob {
            candidates,
            roi: refs,
        };
        let mut ranked = self.rank_jobs(
            self.pyramid.store().signature_index().as_deref(),
            std::slice::from_ref(&job),
            &mut PairCache::new(0),
            &mut PredictScratch::default(),
            &mut Vec::new(),
        );
        ranked.remove(0)
    }

    /// Scores `jobs` in one fill over `cache` and returns each job's
    /// ranking, in job order.
    fn rank_jobs(
        &self,
        index: Option<&SignatureIndex>,
        jobs: &[SbBatchJob<'_>],
        cache: &mut PairCache,
        scratch: &mut PredictScratch,
        outs: &mut Vec<Vec<(TileId, f64)>>,
    ) -> Vec<Vec<TileId>> {
        match index {
            Some(index) => {
                self.sb.distances_into(index, jobs, cache, scratch, outs);
                outs.iter_mut()
                    .map(|out| {
                        sort_scored(out);
                        out.iter().map(|&(t, _)| t).collect()
                    })
                    .collect()
            }
            // Metadata-free store: fall back to the locked reference
            // path per job (identical to the sessions' own fallback).
            None => jobs
                .iter()
                .map(|job| {
                    let store = self.pyramid.store();
                    let mut scored = self.sb.distances(store, job.candidates, job.roi);
                    sort_scored(&mut scored);
                    scored.into_iter().map(|(t, _)| t).collect()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureKind;
    use crate::{SbConfig, SbRecommender};
    use fc_array::{DenseArray, Schema};
    use fc_tiles::{PyramidBuilder, PyramidConfig, TileId};
    use std::time::Instant;

    fn pyramid(with_sigs: bool) -> Arc<Pyramid> {
        let schema = Schema::grid2d("G", 64, 64, &["v"]).unwrap();
        let data: Vec<f64> = (0..64 * 64).map(|i| (i % 64) as f64 / 64.0).collect();
        let base = DenseArray::from_vec(schema, data).unwrap();
        let p = PyramidBuilder::new()
            .build(&base, &PyramidConfig::simple(3, 16, &["v"]))
            .unwrap();
        if with_sigs {
            for id in p.geometry().all_tiles() {
                let v = f64::from(id.x % 3) / 3.0;
                p.store()
                    .put_meta(id, SignatureKind::Hist1D.meta_name(), vec![v, 1.0 - v]);
            }
        }
        Arc::new(p)
    }

    fn scheduler(p: &Arc<Pyramid>) -> PredictScheduler {
        PredictScheduler::new(
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            p.clone(),
            BatchConfig::default(),
        )
    }

    /// The locked reference ranking, independent of the scheduler.
    fn solo(p: &Arc<Pyramid>, cands: &[TileId], refs: &[TileId]) -> Vec<TileId> {
        let sb = SbRecommender::new(SbConfig::single(SignatureKind::Hist1D));
        let mut scored = sb.distances(p.store(), cands, refs);
        sort_scored(&mut scored);
        scored.into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn single_session_rank_matches_unbatched() {
        let p = pyramid(true);
        let s = scheduler(&p);
        s.register();
        let g = p.geometry();
        let cands = g.candidates(TileId::new(2, 2, 2), 1);
        let refs = [TileId::new(2, 2, 2)];
        let batched = s.rank(&cands, &refs);
        assert_eq!(batched, solo(&p, &cands, &refs));
        // The follower-rescue computation is the same ranking.
        assert_eq!(s.rank_solo(&cands, &refs), batched);
        assert_eq!(s.stats().batches, 1);
        assert_eq!(s.stats().jobs, 1);
        s.unregister();
    }

    #[test]
    fn concurrent_sessions_coalesce_and_agree_with_solo_ranking() {
        let p = pyramid(true);
        let s = Arc::new(scheduler(&p));
        let g = p.geometry();
        const N: usize = 8;
        for _ in 0..N {
            s.register();
        }
        let results: Vec<(usize, Vec<TileId>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|i| {
                    let s = s.clone();
                    let tile = TileId::new(2, (i % 4) as u32, (i / 4 + 1) as u32);
                    scope.spawn(move || {
                        let cands = g.candidates(tile, 1);
                        let refs = [tile];
                        (i, s.rank(&cands, &refs))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every session's ranking equals its solo computation.
        for (i, ranked) in &results {
            let tile = TileId::new(2, (i % 4) as u32, (i / 4 + 1) as u32);
            let cands = g.candidates(tile, 1);
            assert_eq!(ranked, &solo(&p, &cands, &[tile]), "session {i}");
            assert_eq!(ranked, &s.rank_solo(&cands, &[tile]), "session {i}");
        }
        let st = s.stats();
        assert_eq!(st.jobs, N as u64);
        assert!(st.batches <= N as u64);
        assert!(st.largest_batch >= 1);
        for _ in 0..N {
            s.unregister();
        }
    }

    #[test]
    fn leader_panic_reraises_and_scheduler_stays_usable() {
        let p = pyramid(false);
        // Infinite metadata drives χ² to ∞/∞ = NaN (NaN inputs are
        // skipped by the zero-bin guard, but ∞ passes it), so
        // sort_scored's finite-distance expectation fires inside the
        // leader's compute.
        for id in p.geometry().all_tiles() {
            p.store().put_meta(
                id,
                SignatureKind::Hist1D.meta_name(),
                vec![f64::INFINITY, 0.5],
            );
        }
        let s = scheduler(&p);
        s.register();
        let cands = [TileId::new(2, 1, 1), TileId::new(2, 1, 2)];
        let refs = [TileId::new(2, 1, 0)];
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.rank(&cands, &refs)));
        assert!(panicked.is_err(), "NaN distances must still panic");
        // The tick's state was cleaned up: a later rank (with sane
        // metadata) leads a fresh batch instead of wedging.
        for id in p.geometry().all_tiles() {
            let v = f64::from(id.x % 3) / 3.0;
            p.store()
                .put_meta(id, SignatureKind::Hist1D.meta_name(), vec![v, 1.0 - v]);
        }
        let ranked = s.rank(&cands, &refs);
        assert_eq!(ranked.len(), 2);
        s.unregister();
    }

    #[test]
    fn follower_of_a_dead_leader_rescues_itself() {
        let p = pyramid(true);
        let s = PredictScheduler::new(
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            p.clone(),
            BatchConfig {
                follower_timeout: Duration::from_millis(40),
                ..BatchConfig::default()
            },
        );
        s.register();
        // Forge a leader that died uncleanly (no unwind, no deposit)
        // before even collecting its tick.
        s.state.lock().leader_active = true;
        let g = p.geometry();
        let cands = g.candidates(TileId::new(2, 2, 2), 1);
        let refs = [TileId::new(2, 2, 2)];
        let t0 = Instant::now();
        let ranked = s.rank(&cands, &refs);
        assert!(t0.elapsed() >= Duration::from_millis(40), "must time out");
        assert_eq!(ranked, solo(&p, &cands, &refs), "rescue is bit-identical");
        assert_eq!(s.stats().rescues, 1);
        assert_eq!(s.stats().batches, 0, "no tick ever completed");
        // The ghost leader flag was cleared: the next rank leads a
        // fresh tick immediately instead of waiting out the timeout.
        let t1 = Instant::now();
        let again = s.rank(&cands, &refs);
        assert!(t1.elapsed() < Duration::from_millis(40));
        assert_eq!(again, ranked);
        assert_eq!(s.stats().batches, 1);
        assert_eq!(s.stats().rescues, 1);
        s.unregister();
    }

    #[test]
    fn follower_rescues_even_after_its_job_was_collected() {
        let p = pyramid(true);
        let s = PredictScheduler::new(
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            p.clone(),
            BatchConfig {
                follower_timeout: Duration::from_millis(40),
                ..BatchConfig::default()
            },
        );
        s.register();
        s.state.lock().leader_active = true;
        let g = p.geometry();
        let cands = g.candidates(TileId::new(2, 1, 1), 1);
        let refs = [TileId::new(2, 1, 1)];
        let ranked = std::thread::scope(|scope| {
            let follower = scope.spawn(|| s.rank(&cands, &refs));
            // Play the leader dying *after* it collected the tick:
            // steal the pending job so the follower cannot withdraw it.
            loop {
                let mut st = s.state.lock();
                if !st.pending.is_empty() {
                    st.pending.clear();
                    break;
                }
                drop(st);
                std::thread::sleep(Duration::from_millis(1));
            }
            follower.join().unwrap()
        });
        assert_eq!(ranked, solo(&p, &cands, &refs));
        assert_eq!(s.stats().rescues, 1);
        // The forged leader never cleared its flag (the follower must
        // not: a live leader may still own the tick). Clean up.
        s.state.lock().leader_active = false;
        s.unregister();
    }

    #[test]
    fn metadata_free_store_falls_back_to_reference_path() {
        let p = pyramid(false);
        let s = scheduler(&p);
        s.register();
        let cands = [TileId::new(2, 1, 1), TileId::new(2, 1, 2)];
        let refs = [TileId::new(2, 1, 0)];
        let ranked = s.rank(&cands, &refs);
        assert_eq!(ranked.len(), 2);
        s.unregister();
    }
}
