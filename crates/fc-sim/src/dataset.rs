//! The tiled study dataset: NDSI pyramid + signatures.

use crate::terrain::{build_ndsi_database, TerrainConfig};
use fc_array::{AggFn, Database, IoMode, LatencyModel};
use fc_core::signature::{attach_signatures, SignatureConfig};
use fc_tiles::{AttrAgg, Pyramid, PyramidBuilder, PyramidConfig, TileId};
use fc_vision::Vocabulary;
use std::sync::Arc;

/// Dataset construction parameters.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Terrain generation parameters.
    pub terrain: TerrainConfig,
    /// Number of zoom levels (the paper's NDSI dataset had nine; the
    /// default here is six to keep experiment turnaround minutes, with
    /// the same quadtree structure).
    pub levels: u8,
    /// Square tile side in cells.
    pub tile: usize,
    /// Backend latency model (SciDB-like by default).
    pub latency: LatencyModel,
    /// Signature pipeline configuration.
    pub signatures: SignatureConfig,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            terrain: TerrainConfig::default(),
            levels: 4,
            tile: 64,
            latency: LatencyModel::scidb_like(),
            signatures: SignatureConfig::ndsi("ndsi_avg"),
        }
    }
}

impl DatasetConfig {
    /// A small configuration for unit tests: 128² cells, 32-cell tiles,
    /// three levels (21 tiles).
    // fc-check: allow(unreferenced-pub) -- fixture shared across crates: fc-sim, fc-core, fc-server and root tests build on it
    pub fn tiny() -> Self {
        Self {
            terrain: TerrainConfig {
                size: 128,
                ..TerrainConfig::default()
            },
            levels: 3,
            tile: 32,
            latency: LatencyModel::free(),
            ..Self::default()
        }
    }
}

/// The built study dataset.
pub struct StudyDataset {
    /// The tiled NDSI pyramid with signatures attached.
    pub pyramid: Arc<Pyramid>,
    /// The array catalog holding `SVIS`, `SSWIR`, `MASK`, `NDSI`, and the
    /// per-level materialized views.
    pub db: Database,
    /// Trained SIFT vocabulary (for attaching signatures to new tiles).
    pub sift_vocab: Arc<Vocabulary>,
    /// Trained denseSIFT vocabulary.
    pub dense_vocab: Arc<Vocabulary>,
    /// The configuration it was built with.
    pub config: DatasetConfig,
}

impl StudyDataset {
    /// Builds the full dataset: terrain → bands → Query 1 NDSI →
    /// per-attribute aggregated pyramid → signatures.
    pub fn build(config: DatasetConfig) -> Self {
        let (db, ndsi) = build_ndsi_database(&config.terrain);
        let pyr_cfg = PyramidConfig {
            levels: config.levels,
            tile_h: config.tile,
            tile_w: config.tile,
            aggs: vec![
                AttrAgg::new("ndsi_max", AggFn::Max),
                AttrAgg::new("ndsi_min", AggFn::Min),
                AttrAgg::new("ndsi_avg", AggFn::Avg),
                AttrAgg::new("land", AggFn::Avg),
            ],
            latency: config.latency,
            io_mode: IoMode::Simulated,
        };
        let pyramid = Arc::new(
            PyramidBuilder::new()
                .build(&ndsi, &pyr_cfg)
                .expect("pyramid builds from NDSI array"),
        );
        let (sift_vocab, dense_vocab) = attach_signatures(&pyramid, &config.signatures);
        pyramid.store().reset_io_stats();
        pyramid.store().clock().reset();
        Self {
            pyramid,
            db,
            sift_vocab,
            dense_vocab,
            config,
        }
    }

    /// Mean value of `attr` over a tile, read from the offline path
    /// (what a user "sees" when they look at the rendered tile).
    pub fn tile_mean(&self, id: TileId, attr: &str) -> Option<f64> {
        let t = self.pyramid.store().fetch_offline(id)?;
        let vals = t.present_values(attr).ok()?;
        Some(fc_ml::mean(&vals))
    }

    /// Fraction of a tile's cells with `attr ≥ threshold`.
    pub(crate) fn tile_fraction_above(
        &self,
        id: TileId,
        attr: &str,
        threshold: f64,
    ) -> Option<f64> {
        let t = self.pyramid.store().fetch_offline(id)?;
        let vals = t.present_values(attr).ok()?;
        if vals.is_empty() {
            return Some(0.0);
        }
        Some(vals.iter().filter(|&&v| v >= threshold).count() as f64 / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_builds_with_signatures() {
        let ds = StudyDataset::build(DatasetConfig::tiny());
        let g = ds.pyramid.geometry();
        assert_eq!(g.levels, 3);
        assert_eq!(g.tiles_at(2), (4, 4));
        assert_eq!(ds.pyramid.store().backend_len(), 1 + 4 + 16);
        // Signatures exist on every tile.
        for id in g.all_tiles() {
            let meta = ds.pyramid.store().meta(id).unwrap();
            assert!(meta.get("sig_hist").is_some());
            assert!(meta.get("sig_sift").is_some());
        }
        // Materialized views registered through Query 1.
        assert!(ds.db.scan("NDSI").is_ok());
        assert!(ds.db.scan("SVIS").is_ok());
        // Clock reset: building charged nothing to the session.
        assert_eq!(ds.pyramid.store().io_stats().reads, 0);
    }

    #[test]
    fn tile_stats_reflect_snowy_ridges() {
        let ds = StudyDataset::build(DatasetConfig::tiny());
        let g = ds.pyramid.geometry();
        let deepest = g.levels - 1;
        // Find the max-mean tile at the deepest level; it should have a
        // clearly positive NDSI (a snowy ridge tile).
        let (rows, cols) = g.tiles_at(deepest);
        let mut best = f64::MIN;
        for y in 0..rows {
            for x in 0..cols {
                let m = ds
                    .tile_mean(TileId::new(deepest, y, x), "ndsi_avg")
                    .unwrap();
                best = best.max(m);
            }
        }
        assert!(best > 0.1, "snowiest tile mean {best}");
        let f = ds
            .tile_fraction_above(TileId::new(deepest, 0, 0), "ndsi_avg", -2.0)
            .unwrap();
        assert_eq!(f, 1.0);
    }

    #[test]
    fn attr_aggregation_diverges_at_coarse_levels() {
        let ds = StudyDataset::build(DatasetConfig::tiny());
        let root = ds.pyramid.store().fetch_offline(TileId::ROOT).unwrap();
        let max_vals = root.present_values("ndsi_max").unwrap();
        let min_vals = root.present_values("ndsi_min").unwrap();
        let avg_vals = root.present_values("ndsi_avg").unwrap();
        let any_diverged = max_vals
            .iter()
            .zip(&min_vals)
            .zip(&avg_vals)
            .any(|((mx, mn), av)| mx > av && av > mn);
        assert!(any_diverged, "max/avg/min should separate after regrid");
    }
}
