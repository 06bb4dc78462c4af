//! The slot layout of the per-process memos keyed by tile (the phase
//! classifier's answers, AB's move trees).

use fc_tiles::{Geometry, TileId};

/// Numbers the tiles of a geometry's grid level by level, row-major
/// within a level, from level 0 down to the last level at which the
/// count stays within a cap: a grid larger than the cap is memoized
/// over its coarse levels only.
pub(crate) struct TileSlots {
    /// Per numbered level: first slot, tile rows, tile columns.
    levels: Vec<(usize, u32, u32)>,
    len: usize,
}

impl TileSlots {
    /// The layout of `geometry`'s grid in at most `cap` slots.
    pub(crate) fn new(geometry: Geometry, cap: usize) -> Self {
        let mut levels = Vec::new();
        let mut len = 0usize;
        for level in 0..geometry.levels {
            let (rows, cols) = geometry.tiles_at(level);
            let next = (rows as usize)
                .checked_mul(cols as usize)
                .and_then(|n| n.checked_add(len))
                .filter(|&n| n <= cap);
            let Some(next) = next else { break };
            levels.push((len, rows, cols));
            len = next;
        }
        Self { levels, len }
    }

    /// How many slots the layout numbers.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot of `tile`; `None` off the numbered grid.
    pub(crate) fn slot(&self, tile: TileId) -> Option<usize> {
        let &(first, rows, cols) = self.levels.get(usize::from(tile.level))?;
        (tile.y < rows && tile.x < cols)
            .then(|| first + tile.y as usize * cols as usize + tile.x as usize)
    }
}
