//! The frozen, zero-copy signature index.
//!
//! # Why this exists
//!
//! The SB recommender (paper Algorithm 3) evaluates a χ² distance for
//! every (signature × candidate × ROI-tile) triple **on every request**.
//! Routing each lookup through [`TileStore::meta_vec`] costs a global
//! `RwLock` acquisition, a string-keyed scan, and a heap copy of the
//! signature vector — `O(nsig·|C|·|R|)` lock round-trips and clones per
//! prediction. This module replaces that with one contiguous row-major
//! matrix per metadata key, keyed by a dense tile index, built **once**
//! from the store's metadata map.
//!
//! # Concurrency model: frozen after build
//!
//! A [`SignatureIndex`] is immutable. [`TileStore::signature_index`]
//! builds it lazily on first read and hands out an `Arc`; any
//! subsequent [`TileStore::put_meta`] invalidates the store's cached
//! copy and bumps the store's metadata epoch, so long-lived readers
//! (the prediction engine) revalidate with a single relaxed atomic load
//! and only rebuild after offline metadata changes. At steady state —
//! signatures are computed offline before any user traffic (§2.3) —
//! the predict path therefore performs **zero lock acquisitions and
//! zero signature copies**: it reads shared matrix rows directly.
//!
//! Rows are padded with zeros to the key's widest vector. χ² skips
//! all-zero bins, so padded entries contribute nothing and distances
//! are bit-identical to comparing the original unpadded vectors.
//!
//! # Derived state: the memo
//!
//! A consumer may attach one value of its own to a build
//! ([`SignatureIndex::memo`]): made on first use, shared by the build's
//! clones and dropped with the last of them. fc-core keeps its χ² pair
//! tables there, so every session ranking over one build shares them
//! and a rebuild starts with none.
//!
//! Scope: the index covers tiles **inside its geometry**. Metadata
//! stored under out-of-geometry ids (`put_meta` does not validate) is
//! dropped at build time, so such tiles read as "no signature" here
//! even though `meta_vec` would return their vectors; the bit-identity
//! guarantee applies to in-geometry tiles.
//!
//! [`TileStore::meta_vec`]: crate::store::TileStore::meta_vec
//! [`TileStore::signature_index`]: crate::store::TileStore::signature_index
//! [`TileStore::put_meta`]: crate::store::TileStore::put_meta

use crate::geometry::Geometry;
use crate::id::TileId;
use crate::store::{MetaKey, TileMeta};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of process-unique [`SignatureIndex::build_id`] values.
static NEXT_BUILD_ID: AtomicU64 = AtomicU64::new(0);

/// One metadata key's signatures for every tile, as a dense row-major
/// matrix: row `i` is the signature of the tile with dense index `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct SigMatrix {
    dim: usize,
    /// `ntiles × dim`, row-major, zero-padded per row.
    data: Vec<f64>,
    /// Whether the tile at each dense index has this metadata key.
    present: Vec<bool>,
}

impl SigMatrix {
    /// The signature row for a dense tile index; `None` when the tile
    /// has no vector under this key.
    #[inline]
    pub fn row(&self, dense: usize) -> Option<&[f64]> {
        Some(&self.data[self.row_offset(dense)?..][..self.dim])
    }

    /// The offset of a tile's row in [`Self::data`]; `None` when the
    /// tile has no vector under this key. Lets hot loops hoist the
    /// presence check and slice a pre-fetched [`Self::data`] directly.
    #[inline]
    pub fn row_offset(&self, dense: usize) -> Option<usize> {
        if *self.present.get(dense)? {
            Some(dense * self.dim)
        } else {
            None
        }
    }

    /// The backing row-major matrix (`ntiles × dim`).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

/// The frozen index: per-key dense matrices plus the dense tile-index
/// mapping for the geometry it was built over. See the module docs for
/// the concurrency model.
#[derive(Debug, Clone)]
pub struct SignatureIndex {
    geometry: Geometry,
    /// Per level: (tile columns, dense offset of that level's first tile).
    level_dims: Vec<(u32, usize)>,
    ntiles: usize,
    /// Sorted by key id; parallel to `mats`.
    keys: Vec<MetaKey>,
    mats: Vec<SigMatrix>,
    /// Process-unique identity of this build (see [`Self::build_id`]).
    build_id: u64,
    /// What a consumer derived from this build (see [`Self::memo`]).
    memo: Memo,
}

/// The slot behind [`SignatureIndex::memo`], shared by a build's clones.
#[derive(Clone, Default)]
struct Memo(Arc<OnceLock<Box<dyn Any + Send + Sync>>>);

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "Memo(set)"
        } else {
            "Memo"
        })
    }
}

/// Structural equality: two indexes over the same geometry and matrices
/// compare equal even though their [`SignatureIndex::build_id`]s differ
/// (the build id is an identity, not part of the indexed data).
impl PartialEq for SignatureIndex {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry
            && self.level_dims == other.level_dims
            && self.ntiles == other.ntiles
            && self.keys == other.keys
            && self.mats == other.mats
    }
}

impl SignatureIndex {
    /// Builds the index from a store's metadata map. Cost is one pass
    /// over the map to size each matrix plus one to fill it — this runs
    /// offline (at `attach_signatures` time or on the first read after
    /// a metadata change), never on the request path.
    pub(crate) fn build(geometry: Geometry, meta: &HashMap<TileId, TileMeta>) -> Self {
        let mut level_dims = Vec::with_capacity(geometry.levels as usize);
        let mut ntiles = 0usize;
        for l in 0..geometry.levels {
            let (rows, cols) = geometry.tiles_at(l);
            level_dims.push((cols, ntiles));
            ntiles += rows as usize * cols as usize;
        }

        // Pass 1: the set of keys and each key's widest vector.
        let mut dims: Vec<(MetaKey, usize)> = Vec::new();
        for m in meta.values() {
            for (key, v) in m.entries() {
                match dims.iter_mut().find(|(k, _)| *k == *key) {
                    Some(e) => e.1 = e.1.max(v.len()),
                    None => dims.push((*key, v.len())),
                }
            }
        }
        dims.sort_by_key(|(k, _)| *k);

        // Pass 2: fill one matrix per key.
        let keys: Vec<MetaKey> = dims.iter().map(|(k, _)| *k).collect();
        let mut mats: Vec<SigMatrix> = dims
            .iter()
            .map(|&(_, dim)| SigMatrix {
                dim,
                data: vec![0.0; ntiles * dim],
                present: vec![false; ntiles],
            })
            .collect();
        let index = Self {
            geometry,
            level_dims,
            ntiles,
            keys: Vec::new(),
            mats: Vec::new(),
            build_id: NEXT_BUILD_ID.fetch_add(1, Ordering::Relaxed),
            memo: Memo::default(),
        };
        for (&id, m) in meta {
            let Some(dense) = index.dense_index(id) else {
                continue; // metadata for a tile outside the geometry
            };
            for (key, v) in m.entries() {
                let ki = keys.binary_search(key).expect("key collected in pass 1");
                let mat = &mut mats[ki];
                mat.data[dense * mat.dim..dense * mat.dim + v.len()].copy_from_slice(v);
                mat.present[dense] = true;
            }
        }
        Self {
            keys,
            mats,
            ..index
        }
    }

    /// A process-unique identity for this build. Every
    /// `SignatureIndex::build` — including rebuilds of the same store
    /// after a metadata epoch bump — gets a fresh id, so derived caches
    /// (e.g. the χ² pair cache in `fc-core`) can detect *any* index
    /// change with one integer compare and invalidate in O(1), without
    /// tracking `(store_id, meta_epoch)` pairs themselves.
    #[inline]
    pub fn build_id(&self) -> u64 {
        self.build_id
    }

    /// The value a consumer derives from this build: made by `init` on
    /// the first call, then the same value for every caller and every
    /// clone of the build, and dropped with the build's last clone.
    /// fc-core keeps its χ² pair tables here. A build holds one memo,
    /// so every call must ask for the same type `T`.
    ///
    /// # Panics
    /// When an earlier call stored a value of another type.
    pub fn memo<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> &T {
        self.memo
            .0
            .get_or_init(|| Box::new(init()))
            .downcast_ref()
            .expect("a signature index build holds one memo type")
    }

    /// Number of tiles (dense index domain size).
    pub fn ntiles(&self) -> usize {
        self.ntiles
    }

    /// The metadata keys with a matrix in this index.
    pub fn keys(&self) -> &[MetaKey] {
        &self.keys
    }

    /// The dense index of a tile: levels concatenated coarsest-first,
    /// row-major within a level. `None` for tiles outside the geometry.
    #[inline]
    pub fn dense_index(&self, id: TileId) -> Option<usize> {
        if !self.geometry.contains(id) {
            return None;
        }
        let (cols, offset) = self.level_dims[id.level as usize];
        Some(offset + id.y as usize * cols as usize + id.x as usize)
    }

    /// The matrix for a metadata key, if any tile carries it.
    #[inline]
    pub fn matrix(&self, key: MetaKey) -> Option<&SigMatrix> {
        let i = self.keys.binary_search(&key).ok()?;
        Some(&self.mats[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_map(entries: &[(TileId, &str, Vec<f64>)]) -> HashMap<TileId, TileMeta> {
        let mut map: HashMap<TileId, TileMeta> = HashMap::new();
        for (id, name, v) in entries {
            map.entry(*id)
                .or_default()
                .put_shared(MetaKey::intern(name), v.clone().into());
        }
        map
    }

    #[test]
    fn dense_index_is_a_bijection() {
        let g = Geometry::new(3, 64, 64, 16, 16);
        let ix = SignatureIndex::build(g, &HashMap::new());
        let mut seen = vec![false; ix.ntiles()];
        for id in g.all_tiles() {
            let d = ix.dense_index(id).unwrap();
            assert!(!seen[d], "dense index {d} assigned twice");
            seen[d] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(ix.ntiles(), g.total_tiles());
        assert!(ix.dense_index(TileId::new(7, 0, 0)).is_none());
    }

    #[test]
    fn build_ids_are_unique_but_equality_is_structural() {
        let g = Geometry::new(2, 32, 32, 16, 16);
        let map = meta_map(&[(TileId::ROOT, "hist", vec![0.25, 0.75])]);
        let a = SignatureIndex::build(g, &map);
        let b = SignatureIndex::build(g, &map);
        assert_ne!(a.build_id(), b.build_id());
        assert_eq!(a, b, "same data compares equal despite fresh ids");
        // A clone keeps the identity: it is the same frozen build.
        assert_eq!(a.clone().build_id(), a.build_id());
    }

    #[test]
    fn the_memo_is_made_once_per_build_and_dropped_with_it() {
        let g = Geometry::new(2, 32, 32, 16, 16);
        let map = meta_map(&[(TileId::ROOT, "hist", vec![0.25, 0.75])]);
        let a = SignatureIndex::build(g, &map);
        let made = Arc::new(AtomicU64::new(0));
        let memo = |ix: &SignatureIndex| {
            let made = made.clone();
            ix.memo(move || {
                made.fetch_add(1, Ordering::Relaxed);
                Arc::new(7u32)
            })
            .clone()
        };
        let first = memo(&a);
        // Every call and every clone of the build reads the one value …
        let clone = a.clone();
        assert!(Arc::ptr_eq(&first, &memo(&a)));
        assert!(Arc::ptr_eq(&first, &memo(&clone)));
        assert_eq!(made.load(Ordering::Relaxed), 1);
        // … a rebuild makes its own …
        let b = SignatureIndex::build(g, &map);
        assert!(!Arc::ptr_eq(&first, &memo(&b)));
        assert_eq!(made.load(Ordering::Relaxed), 2);
        // … and the value goes with the build's last clone.
        drop(a);
        assert_eq!(Arc::strong_count(&first), 2);
        drop(clone);
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn rows_round_trip_with_padding() {
        let g = Geometry::new(2, 32, 32, 16, 16);
        let a = TileId::ROOT;
        let b = TileId::new(1, 1, 1);
        let map = meta_map(&[
            (a, "hist", vec![0.25, 0.75]),
            (b, "hist", vec![1.0, 2.0, 3.0]), // wider: pads a's row
            (b, "mean", vec![0.5]),
        ]);
        let ix = SignatureIndex::build(g, &map);
        let hist = ix.matrix(MetaKey::intern("hist")).unwrap();
        assert_eq!(hist.dim, 3);
        assert_eq!(
            hist.row(ix.dense_index(a).unwrap()).unwrap(),
            &[0.25, 0.75, 0.0]
        );
        assert_eq!(
            hist.row(ix.dense_index(b).unwrap()).unwrap(),
            &[1.0, 2.0, 3.0]
        );
        // A tile with no "hist" entry reads as absent, not as zeros.
        assert!(hist
            .row(ix.dense_index(TileId::new(1, 0, 0)).unwrap())
            .is_none());
        // The narrower key has its own matrix.
        let mean = ix.matrix(MetaKey::intern("mean")).unwrap();
        assert_eq!(mean.dim, 1);
        assert!(ix.matrix(MetaKey::intern("nope")).is_none());
    }
}
