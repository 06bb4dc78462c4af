//! Model checking the shared χ² pair table: two sessions racing a rank
//! on one signature index build must each get the ranking a session
//! alone computes, and the build's one table must have served every
//! probe of both — checked over **every** interleaving of the two, not
//! whatever the OS scheduler happens to do. And the table's lock is a
//! leaf: nothing is acquired while it is held.
//!
//! Debug-only: the loom-lite scheduler is compiled out of release.
#![cfg(debug_assertions)]

use std::sync::Arc;

use fc_core::batch::{BatchConfig, PredictScheduler};
use fc_core::signature::SignatureKind;
use fc_core::{SbConfig, SbRecommender};
use fc_tiles::{Pyramid, PyramidBuilder, PyramidConfig, TileId};
use parking_lot::lockgraph;
use parking_lot::model::{self, Options};

fn sig(id: TileId) -> Vec<f64> {
    let v = f64::from(id.x % 3) / 3.0;
    vec![v, 1.0 - v]
}

fn pyramid() -> Arc<Pyramid> {
    let schema = fc_array::Schema::grid2d("G", 64, 64, &["v"]).unwrap();
    let data: Vec<f64> = (0..64 * 64).map(|i| (i % 64) as f64 / 64.0).collect();
    let base = fc_array::DenseArray::from_vec(schema, data).unwrap();
    let p = PyramidBuilder::new()
        .build(&base, &PyramidConfig::simple(3, 16, &["v"]))
        .unwrap();
    for id in p.geometry().all_tiles() {
        p.store()
            .put_meta(id, SignatureKind::Hist1D.meta_name(), sig(id));
    }
    Arc::new(p)
}

fn sb() -> SbRecommender {
    SbRecommender::new(SbConfig::single(SignatureKind::Hist1D))
}

fn ranker(p: &Arc<Pyramid>) -> PredictScheduler {
    PredictScheduler::new(sb(), p.clone(), BatchConfig::default())
}

/// The expected ranking: a pyramid of the same data that nobody else
/// ranks over (fc-core's own tests pin the ranker to the direct
/// reference computation).
fn solo_ranking(cands: &[TileId], refs: &[TileId]) -> Vec<TileId> {
    ranker(&pyramid()).rank(cands, refs)
}

/// Two sessions rank different candidate sets concurrently, each
/// through a ranker of its own over one store; in whichever order they
/// take the build's table lock, both must return their solo ranking and
/// every probe must land in the build's one table.
#[test]
fn concurrent_rank_is_solo_identical_under_model_schedules() {
    let p = pyramid();
    let t1 = TileId::new(2, 2, 2);
    let t2 = TileId::new(2, 1, 1);
    let cands1 = p.geometry().candidates(t1, 1);
    let cands2 = p.geometry().candidates(t2, 1);
    let want1 = solo_ranking(&cands1, &[t1]);
    let want2 = solo_ranking(&cands2, &[t2]);

    let stats = model::check(Options::default(), move || {
        // A fresh index build per schedule, and with it a fresh table:
        // rewrite one signature, then warm the rebuild on this thread
        // alone, so neither the lazy build nor the store's locks are
        // part of the race under test.
        p.store().put_meta(
            TileId::ROOT,
            SignatureKind::Hist1D.meta_name(),
            sig(TileId::ROOT),
        );
        let index = p.store().signature_index().unwrap();
        assert!(
            sb().pair_table(&index).is_none(),
            "a new build has no table"
        );

        let (p2, cands2c, want2c) = (Arc::clone(&p), cands2.clone(), want2.clone());
        let t = model::spawn(move || {
            let got = ranker(&p2).rank(&cands2c, &[t2]);
            assert_eq!(got, want2c, "shared rank diverged from solo (thread)");
        });

        let got = ranker(&p).rank(&cands1, &[t1]);
        assert_eq!(got, want1, "shared rank diverged from solo (main)");
        t.join();

        // The one table counted every probe of both: none lost, no
        // second table made beside the first.
        let (pc, _) = sb().pair_table(&index).expect("the ranks made it");
        assert_eq!(
            pc.hits + pc.misses,
            (cands1.len() + cands2.len()) as u64,
            "probes lost: {pc:?}"
        );
    });
    assert!(stats.exhausted, "one mutex, no timed waits: DFS exhausts");
    // The index read, the job counter and the table lock of each rank
    // are scheduling points. Far fewer would mean the model no longer
    // sees them.
    assert!(stats.schedules >= 20, "only {} explored", stats.schedules);
}

/// The table lock is a leaf of the lock order: a cold rank (index
/// build, table creation, fill) and a warm one acquire nothing while
/// holding it.
#[test]
fn the_pair_table_lock_is_a_leaf() {
    let p = pyramid();
    let r = ranker(&p);
    let t = TileId::new(2, 2, 2);
    let cands = p.geometry().candidates(t, 1);
    let ((), edges) = lockgraph::capture(|| {
        r.rank(&cands, &[t]);
        r.rank(&cands, &[t]);
    });
    let index = p.store().signature_index().unwrap();
    let (pc, _) = sb()
        .pair_table(&index)
        .expect("both ranks went through the table");
    assert_eq!(pc.hits + pc.misses, 2 * cands.len() as u64);
    let from_table: Vec<_> = edges
        .iter()
        .filter(|e| e.from_site.contains("paircache.rs"))
        .collect();
    assert!(
        from_table.is_empty(),
        "locks taken under the table lock: {from_table:?}"
    );
}
