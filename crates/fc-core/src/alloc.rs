//! Cache allocation strategies (§4.4, updated in §5.4.3).
//!
//! The cache manager assigns each recommendation model a slice of the
//! prefetch budget `k`, depending on the predicted analysis phase:
//!
//! * **Original** (§4.4): Navigation → all AB; Sensemaking → all SB;
//!   Foraging → equal split.
//! * **Updated** (§5.4.3, after the accuracy study): "When the
//!   Sensemaking phase is predicted, our model always fetches predictions
//!   from our SB model only. Otherwise, our final model fetches the first
//!   4 predictions from the AB model (or less if k < 4), and then starts
//!   fetching predictions from the SB model if k > 4."
//! * AB-only / SB-only for the ablation benches.
//!
//! The module also hosts the **cross-session hotspot prior**
//! ([`HotspotBlend`], `boost_toward_hotspots`): in multi-user mode
//! the engine can re-rank each model's candidate list toward the
//! communal hotspots the shared cache's popularity sketch discovered
//! online — the same toward-hotspot boost the Doshi-et-al. Hotspot
//! baseline applies (`baselines::HotspotRecommender::rank`), but
//! trained from live traffic instead of offline traces. Opt-in and
//! phase-gated, so single-user prediction stays bit-identical.

use crate::phase::Phase;
use fc_tiles::TileId;

/// How the prefetch budget is split between the AB and SB recommenders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationStrategy {
    /// The §4.4 design.
    Original,
    /// The §5.4.3 final engine (used for Figs. 10c–13).
    Updated,
    /// Everything to the AB model (ablation).
    AbOnly,
    /// Everything to the SB model (ablation).
    SbOnly,
}

impl AllocationStrategy {
    /// Returns `(ab_slots, sb_slots)` for a budget of `k` tiles in the
    /// given phase. Slots sum to `k`.
    pub fn allocate(self, phase: Phase, k: usize) -> (usize, usize) {
        match self {
            AllocationStrategy::Original => match phase {
                Phase::Navigation => (k, 0),
                Phase::Sensemaking => (0, k),
                Phase::Foraging => {
                    let ab = k / 2 + k % 2; // odd budgets favour AB
                    (ab, k - ab)
                }
            },
            AllocationStrategy::Updated => match phase {
                Phase::Sensemaking => (0, k),
                _ => {
                    let ab = k.min(4);
                    (ab, k - ab)
                }
            },
            AllocationStrategy::AbOnly => (k, 0),
            AllocationStrategy::SbOnly => (0, k),
        }
    }

    /// Short name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            AllocationStrategy::Original => "original",
            AllocationStrategy::Updated => "hybrid",
            AllocationStrategy::AbOnly => "ab-only",
            AllocationStrategy::SbOnly => "sb-only",
        }
    }
}

/// How (and when) the cross-session hotspot prior blends into
/// candidate ranking. Carried by `EngineConfig::hotspot`; `None` there
/// (the default) keeps prediction bit-identical to the paper engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotspotBlend {
    /// A hotspot is "nearby" within this projected Manhattan distance
    /// of the current tile (the Doshi-et-al. radius).
    pub radius: u32,
    /// Per-phase gate, indexed by [`Phase::index`]: the prior applies
    /// only in phases marked `true`. Default: Foraging and Navigation
    /// (where the user is *seeking* regions of interest); Sensemaking
    /// stays pure SB, as §5.4.3 allocates.
    pub phases: [bool; 3],
}

impl Default for HotspotBlend {
    fn default() -> Self {
        Self {
            radius: 4,
            phases: [true, true, false],
        }
    }
}

impl HotspotBlend {
    /// Whether the prior applies in `phase`.
    pub(crate) fn applies_in(&self, phase: Phase) -> bool {
        self.phases[phase.index()]
    }
}

/// Re-ranks `list` toward the nearest communal hotspot, mirroring
/// `HotspotRecommender::rank`: when a hotspot lies within `radius` of
/// `current`, candidates strictly closer to it than `current` move to
/// the front (stable — relative model order is preserved within both
/// groups, so the boost only expresses the prior, never reshuffles the
/// model's own ranking). No nearby hotspot → no change.
///
/// Hotspots *at* the current tile are skipped: the online sketch
/// counts every request, so the tile being viewed is routinely among
/// the top-N, and a zero-distance "nearest hotspot" would silence the
/// pull of every real neighbour exactly when the user sits on a
/// popular path.
pub(crate) fn boost_toward_hotspots(
    list: &mut [TileId],
    current: TileId,
    hotspots: &[(TileId, u64)],
    radius: u32,
) {
    let Some(hs) = hotspots
        .iter()
        .map(|&(h, _)| (h, current.manhattan(&h)))
        .filter(|&(_, d)| d > 0 && d <= radius)
        .min_by_key(|&(h, d)| (d, h))
        .map(|(h, _)| h)
    else {
        return;
    };
    let here = current.manhattan(&hs);
    // Stable partition via a stable sort on the boost predicate:
    // toward-hotspot candidates (key `false`) move to the front,
    // relative order preserved within both groups, no allocation on
    // the predict path (candidate lists are ≤ the 24-tile move
    // neighbourhood, well inside the sort's insertion-run regime).
    list.sort_by_key(|t| t.manhattan(&hs) >= here);
}

/// Merges two ranked lists under an allocation: take `ab_slots` from
/// `ab`, then `sb_slots` from `sb`, skipping duplicates; if either list
/// runs short, backfill from the other so the budget is used fully.
///
/// The slots are a budget, not a size: a session's `k` comes off the
/// wire, so the output reserves for the tiles the lists can supply.
pub fn merge_allocated(
    ab: &[fc_tiles::TileId],
    sb: &[fc_tiles::TileId],
    ab_slots: usize,
    sb_slots: usize,
) -> Vec<fc_tiles::TileId> {
    let budget = ab_slots + sb_slots;
    let mut out = Vec::with_capacity(budget.min(ab.len() + sb.len()));
    let push = |t: fc_tiles::TileId, out: &mut Vec<fc_tiles::TileId>| {
        if !out.contains(&t) && out.len() < budget {
            out.push(t);
        }
    };
    for &t in ab.iter().take(ab_slots) {
        push(t, &mut out);
    }
    for &t in sb {
        if out.len() >= budget {
            break;
        }
        push(t, &mut out);
    }
    // Backfill from AB beyond its slots if SB was short.
    for &t in ab.iter().skip(ab_slots) {
        if out.len() >= budget {
            break;
        }
        push(t, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_tiles::TileId;

    #[test]
    fn original_strategy_follows_section_4_4() {
        let s = AllocationStrategy::Original;
        assert_eq!(s.allocate(Phase::Navigation, 8), (8, 0));
        assert_eq!(s.allocate(Phase::Sensemaking, 8), (0, 8));
        assert_eq!(s.allocate(Phase::Foraging, 8), (4, 4));
        assert_eq!(s.allocate(Phase::Foraging, 5), (3, 2));
    }

    #[test]
    fn updated_strategy_follows_section_5_4_3() {
        let s = AllocationStrategy::Updated;
        assert_eq!(s.allocate(Phase::Sensemaking, 6), (0, 6));
        assert_eq!(s.allocate(Phase::Navigation, 3), (3, 0));
        assert_eq!(s.allocate(Phase::Navigation, 4), (4, 0));
        assert_eq!(s.allocate(Phase::Foraging, 8), (4, 4));
        assert_eq!(s.allocate(Phase::Navigation, 8), (4, 4));
    }

    #[test]
    fn slots_always_sum_to_k() {
        for s in [
            AllocationStrategy::Original,
            AllocationStrategy::Updated,
            AllocationStrategy::AbOnly,
            AllocationStrategy::SbOnly,
        ] {
            for phase in Phase::ALL {
                for k in 0..=9 {
                    let (a, b) = s.allocate(phase, k);
                    assert_eq!(a + b, k, "{s:?} {phase} k={k}");
                }
            }
        }
    }

    fn tid(x: u32) -> TileId {
        TileId::new(3, 0, x)
    }

    #[test]
    fn merge_takes_slots_then_dedups() {
        let ab = [tid(1), tid(2), tid(3)];
        let sb = [tid(2), tid(4), tid(5)];
        let merged = merge_allocated(&ab, &sb, 2, 2);
        assert_eq!(merged, vec![tid(1), tid(2), tid(4), tid(5)]);
    }

    #[test]
    fn merge_backfills_when_sb_short() {
        let ab = [tid(1), tid(2), tid(3), tid(4)];
        let sb = [tid(1)];
        let merged = merge_allocated(&ab, &sb, 2, 2);
        assert_eq!(merged, vec![tid(1), tid(2), tid(3), tid(4)]);
    }

    #[test]
    fn merge_respects_budget() {
        let ab = [tid(1), tid(2), tid(3)];
        let sb = [tid(4), tid(5), tid(6)];
        assert_eq!(merge_allocated(&ab, &sb, 1, 1).len(), 2);
        assert_eq!(merge_allocated(&ab, &sb, 0, 0).len(), 0);
        // A budget far past what the lists hold reserves nothing for it.
        let k = u32::MAX as usize;
        assert_eq!(merge_allocated(&ab, &sb, 4, k - 4).len(), 6);
    }

    #[test]
    fn boost_moves_toward_hotspot_candidates_to_the_front_stably() {
        // Current tile at x=5; hotspot at x=8 (distance 3 ≤ radius 4).
        let current = tid(5);
        let hotspots = [(tid(8), 10u64)];
        // tid(4) and tid(5) don't approach the hotspot; 6 and 7 do.
        let mut list = vec![tid(4), tid(7), tid(6)];
        boost_toward_hotspots(&mut list, current, &hotspots, 4);
        // 7 and 6 move up preserving their relative (model) order.
        assert_eq!(list, vec![tid(7), tid(6), tid(4)]);
    }

    #[test]
    fn boost_is_a_no_op_without_a_nearby_hotspot() {
        let current = tid(5);
        let hotspots = [(tid(50), 99u64)];
        let original = vec![tid(4), tid(6), tid(7)];
        let mut list = original.clone();
        boost_toward_hotspots(&mut list, current, &hotspots, 4);
        assert_eq!(list, original, "far hotspot must not re-rank");
        let mut list = original.clone();
        boost_toward_hotspots(&mut list, current, &[], 4);
        assert_eq!(list, original, "empty prior must not re-rank");
    }

    #[test]
    fn boost_picks_the_nearest_hotspot_deterministically() {
        let current = tid(5);
        // Two hotspots in range; the nearer (tid 7, d=2) wins over
        // tid(2) (d=3), so tid(6) boosts but tid(4) does not.
        let hotspots = [(tid(2), 50u64), (tid(7), 10u64)];
        let mut list = vec![tid(4), tid(6)];
        boost_toward_hotspots(&mut list, current, &hotspots, 4);
        assert_eq!(list, vec![tid(6), tid(4)]);
    }

    #[test]
    fn boost_skips_the_current_tile_as_its_own_hotspot() {
        // The current tile tops the (online) sketch; the real pull
        // must come from the next-nearest hotspot, not be silenced by
        // the zero-distance self entry.
        let current = tid(5);
        let hotspots = [(tid(5), 100u64), (tid(8), 10u64)];
        let mut list = vec![tid(4), tid(6)];
        boost_toward_hotspots(&mut list, current, &hotspots, 4);
        assert_eq!(list, vec![tid(6), tid(4)]);
    }

    #[test]
    fn default_blend_gates_sensemaking_off() {
        let b = HotspotBlend::default();
        assert!(b.applies_in(Phase::Foraging));
        assert!(b.applies_in(Phase::Navigation));
        assert!(!b.applies_in(Phase::Sensemaking));
    }
}
