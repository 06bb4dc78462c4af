//! Study task specifications (§5.3.3).
//!
//! "Participants completed the same search task over three different
//! regions … For each region, participants were asked to identify four
//! data tiles that met specific visual requirements."

use fc_tiles::TileId;

/// A rectangular tile region at one zoom level (half-open bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRect {
    /// Zoom level the rectangle lives on.
    pub level: u8,
    /// First tile row.
    pub y0: u32,
    /// One past the last tile row.
    pub y1: u32,
    /// First tile column.
    pub x0: u32,
    /// One past the last tile column.
    pub x1: u32,
}

impl TileRect {
    /// Whether the rectangle contains `id` (projected to the rect's
    /// level when levels differ).
    pub(crate) fn contains(&self, id: TileId) -> bool {
        let p = id.project_to(self.level);
        p.y >= self.y0 && p.y < self.y1 && p.x >= self.x0 && p.x < self.x1
    }

    /// Whether the tile's full coverage area intersects the rectangle
    /// (unlike [`TileRect::contains`], which tests only the projected
    /// origin corner for coarser tiles).
    pub(crate) fn overlaps(&self, id: TileId) -> bool {
        if id.level <= self.level {
            let shift = u32::from(self.level - id.level);
            let y0 = id.y << shift;
            let y1 = (id.y + 1) << shift;
            let x0 = id.x << shift;
            let x1 = (id.x + 1) << shift;
            y0 < self.y1 && self.y0 < y1 && x0 < self.x1 && self.x0 < x1
        } else {
            self.contains(id)
        }
    }

    /// Center tile of the rectangle.
    pub(crate) fn center(&self) -> TileId {
        TileId::new(
            self.level,
            (self.y0 + self.y1.saturating_sub(1)) / 2,
            (self.x0 + self.x1.saturating_sub(1)) / 2,
        )
    }
}

/// One search task: find `tiles_needed` tiles at `target_level` inside
/// `region` whose NDSI satisfies `threshold`.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Task index (0-based; the paper numbers them 1–3).
    pub id: usize,
    /// Human-readable description.
    pub name: String,
    /// Search region at the target level.
    pub region: TileRect,
    /// Zoom level the answer tiles must be on.
    pub target_level: u8,
    /// NDSI threshold a tile must reach (on `attr`).
    pub threshold: f64,
    /// Attribute the threshold applies to.
    pub attr: String,
    /// Number of qualifying tiles to collect (four in the study).
    pub tiles_needed: usize,
    /// Minimum Manhattan separation between collected tiles (users pick
    /// visually distinct findings; wide ranges force more travel).
    pub min_separation: u32,
}

impl TaskSpec {
    /// The paper's three tasks mapped onto the synthetic terrain's three
    /// ridge systems, for a pyramid with `levels` zoom levels. Region
    /// rectangles are expressed at the target level (one below the
    /// deepest, matching "zoom level 6 [of 9]" ≈ ⅔ depth in the paper).
    ///
    /// Task thresholds and region sizes mirror the difficulty ordering
    /// the paper reports (task 1 longest, task 3 shortest: 35/25/17
    /// average requests).
    pub(crate) fn study_tasks(levels: u8) -> Vec<TaskSpec> {
        assert!(levels >= 3, "study tasks need at least 3 levels");
        let target = levels - 1; // deepest level, like "raw data" answers
        let (rows, cols) = (1u32 << target, 1u32 << target); // quadtree tiles
                                                             // Fractions of the unit square covering each ridge system
                                                             // (see `terrain::study_ridges`), padded.
        let frac = |lo: f64, hi: f64, n: u32| -> (u32, u32) {
            let a = (lo * n as f64).floor() as u32;
            let b = ((hi * n as f64).ceil() as u32).clamp(a + 1, n);
            (a, b)
        };
        // Separation between collected tiles scales with resolution so
        // the *geographic* spread users cover is constant across pyramid
        // depths (tiles get smaller as levels deepen).
        let sep_strong = (rows / 10).max(2);
        let sep_weak = (rows / 16).max(1);
        let (w_y, w_x) = (frac(0.05, 0.65, rows), frac(0.02, 0.35, cols));
        let (a_y, a_x) = (frac(0.08, 0.42, rows), frac(0.52, 0.98, cols));
        let (s_y, s_x) = (frac(0.52, 0.98, rows), frac(0.28, 0.58, cols));
        vec![
            TaskSpec {
                id: 0,
                name: "western range (Rockies analogue), highest NDSI".into(),
                region: TileRect {
                    level: target,
                    y0: w_y.0,
                    y1: w_y.1,
                    x0: w_x.0,
                    x1: w_x.1,
                },
                target_level: target,
                threshold: 0.38,
                attr: "ndsi_avg".into(),
                tiles_needed: 4,
                min_separation: sep_strong,
            },
            TaskSpec {
                id: 1,
                name: "north-eastern range (Alps analogue), NDSI ≥ 0.5".into(),
                region: TileRect {
                    level: target,
                    y0: a_y.0,
                    y1: a_y.1,
                    x0: a_x.0,
                    x1: a_x.1,
                },
                target_level: target,
                threshold: 0.26,
                attr: "ndsi_avg".into(),
                tiles_needed: 4,
                min_separation: sep_weak,
            },
            TaskSpec {
                id: 2,
                name: "southern range (Andes analogue), NDSI > 0.25".into(),
                region: TileRect {
                    level: target,
                    y0: s_y.0,
                    y1: s_y.1,
                    x0: s_x.0,
                    x1: s_x.1,
                },
                target_level: target,
                threshold: 0.22,
                attr: "ndsi_avg".into(),
                tiles_needed: 4,
                min_separation: sep_weak,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_contains_and_projects() {
        let r = TileRect {
            level: 3,
            y0: 2,
            y1: 4,
            x0: 0,
            x1: 2,
        };
        assert!(r.contains(TileId::new(3, 2, 1)));
        assert!(!r.contains(TileId::new(3, 4, 0)));
        // Deeper tile projects up into the rect.
        assert!(r.contains(TileId::new(4, 5, 2)));
        // Coarser tile projects down: level-2 tile (1, 0) covers level-3
        // rows 2..4, cols 0..2 — inside.
        assert!(r.contains(TileId::new(2, 1, 0)));
        assert_eq!(r.center(), TileId::new(3, 2, 0));
    }

    #[test]
    fn study_tasks_cover_distinct_regions() {
        let tasks = TaskSpec::study_tasks(4);
        assert_eq!(tasks.len(), 3);
        for t in &tasks {
            assert_eq!(t.target_level, 3);
            assert!(t.region.y0 < t.region.y1 && t.region.x0 < t.region.x1);
            assert_eq!(t.tiles_needed, 4);
        }
        // Regions must not fully overlap: centers differ.
        let centers: Vec<TileId> = tasks.iter().map(|t| t.region.center()).collect();
        assert_ne!(centers[0], centers[1]);
        assert_ne!(centers[1], centers[2]);
    }

    #[test]
    fn study_tasks_scale_with_levels() {
        for levels in 3..=7u8 {
            let tasks = TaskSpec::study_tasks(levels);
            let n = 1u32 << (levels - 1);
            for t in &tasks {
                assert!(t.region.y1 <= n);
                assert!(t.region.x1 <= n);
            }
        }
    }
}
