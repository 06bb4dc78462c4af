//! Model checking the predict scheduler: two sessions racing `rank`
//! on one shared pair cache must each get the ranking a session alone
//! computes, and the one cache must have served every probe of both —
//! checked over **every** interleaving of the two, not whatever the OS
//! scheduler happens to do.
//!
//! Debug-only: the loom-lite scheduler is compiled out of release.
#![cfg(debug_assertions)]

use std::sync::Arc;

use fc_core::batch::{BatchConfig, PredictScheduler};
use fc_core::signature::SignatureKind;
use fc_core::{SbConfig, SbRecommender};
use fc_tiles::{Pyramid, PyramidBuilder, PyramidConfig, TileId};
use parking_lot::model::{self, Options};

fn pyramid() -> Arc<Pyramid> {
    let schema = fc_array::Schema::grid2d("G", 64, 64, &["v"]).unwrap();
    let data: Vec<f64> = (0..64 * 64).map(|i| (i % 64) as f64 / 64.0).collect();
    let base = fc_array::DenseArray::from_vec(schema, data).unwrap();
    let p = PyramidBuilder::new()
        .build(&base, &PyramidConfig::simple(3, 16, &["v"]))
        .unwrap();
    for id in p.geometry().all_tiles() {
        let v = f64::from(id.x % 3) / 3.0;
        p.store()
            .put_meta(id, SignatureKind::Hist1D.meta_name(), vec![v, 1.0 - v]);
    }
    Arc::new(p)
}

/// The expected ranking: a scheduler nobody else uses, which fc-core's
/// own tests pin as equal to the direct reference computation.
fn solo_ranking(p: &Arc<Pyramid>, cands: &[TileId], refs: &[TileId]) -> Vec<TileId> {
    PredictScheduler::new(
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        p.clone(),
        BatchConfig::default(),
    )
    .rank(cands, refs)
}

/// Two sessions rank different candidate sets concurrently; in
/// whichever order they take the lock, both must return their solo
/// ranking and every probe must land in the one shared table.
#[test]
fn concurrent_rank_is_solo_identical_under_model_schedules() {
    let p = pyramid();
    // Pre-warm the signature index so its lazy build is not part of
    // the model (it is single-threaded setup, not the sharing under
    // test, and it would blow up the schedule space).
    let _ = p.store().signature_index().unwrap();

    let t1 = TileId::new(2, 2, 2);
    let t2 = TileId::new(2, 1, 1);
    let cands1 = p.geometry().candidates(t1, 1);
    let cands2 = p.geometry().candidates(t2, 1);
    let want1 = solo_ranking(&p, &cands1, &[t1]);
    let want2 = solo_ranking(&p, &cands2, &[t2]);

    let stats = model::check(Options::default(), move || {
        let s = Arc::new(PredictScheduler::new(
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            p.clone(),
            BatchConfig::default(),
        ));

        let (s2, cands2c, want2c) = (Arc::clone(&s), cands2.clone(), want2.clone());
        let t = model::spawn(move || {
            let got = s2.rank(&cands2c, &[t2]);
            assert_eq!(got, want2c, "shared rank diverged from solo (thread)");
        });

        let got = s.rank(&cands1, &[t1]);
        assert_eq!(got, want1, "shared rank diverged from solo (main)");
        t.join();

        // Each rank ran once, and the table they shared counted every
        // probe of both: none lost, no second table allocated over the
        // first.
        assert_eq!(s.stats().jobs, 2);
        let pc = s.pair_cache_stats();
        assert_eq!(
            pc.hits + pc.misses,
            (cands1.len() + cands2.len()) as u64,
            "probes lost: {pc:?}"
        );
    });
    assert!(stats.exhausted, "one mutex, no timed waits: DFS exhausts");
    // 35 today: the index read, the job counter and the lock of each
    // rank are all scheduling points. Far fewer would mean the model
    // no longer sees them.
    assert!(stats.schedules >= 20, "only {} explored", stats.schedules);
}
