//! The four workloads: what each one sends, to which serving shape,
//! and why it is in the benchmark.
//!
//! Every workload has the same load shape. One driver thread holds two
//! sessions open and alternates A, B, A, B with one request in flight
//! (closed loop, two clients). A lap serves a fixed plan of session
//! pairs against a fresh server, so every count a lap produces repeats
//! exactly; a run measures as many whole laps as fit in `--seconds`.

use crate::sut::{ContextSpec, EngineKind, Geo, Serving, Step, TileId, CTX32, CTX64};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub context: ContextSpec,
    pub serving: Serving,
    traffic: Traffic,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// The held-out study traces, paired in a seeded order; the first
    /// `pairs` pairs are served.
    Study { pairs: usize },
    /// `pairs` pairs of sessions panning round a closed serpentine
    /// over the deepest level, `requests` each, from starts spaced
    /// evenly round the cycle behind a seeded offset.
    Serpentine { pairs: usize, requests: usize },
    /// `pairs` pairs of sessions on seeded jump walks, `requests` each.
    Jumps { pairs: usize, requests: usize },
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "study-wire",
        why: "held-out study traces through reactor, shared cache (9% of tiles) and the paper's hybrid engine: every layer in its natural share",
        context: CTX32,
        serving: Serving {
            engine: EngineKind::Hybrid,
            wire: true,
            capacity: 128,
            shards: 0,
            k: 5,
        },
        traffic: Traffic::Study { pairs: usize::MAX },
    },
    Workload {
        name: "payload-wire",
        why: "128 KiB tiles, AB-only engine, cache larger than the dataset: codec, payload copy and socket dominate, predictor bypassed",
        context: CTX64,
        serving: Serving {
            engine: EngineKind::AbOnly,
            wire: true,
            capacity: 0,
            shards: 0,
            k: 2,
        },
        // Every session pans the whole level once, so a lap touches
        // every tile the same number of times whatever the seed.
        traffic: Traffic::Serpentine {
            pairs: 4,
            requests: 256,
        },
    },
    Workload {
        name: "predict-deep",
        why: "in-process middleware, four signatures at prediction distance 2 (64 candidates): predict is nearly all of the time, server bypassed",
        context: CTX32,
        // The two sessions share a 64-tile cache: with private caches
        // the pairing would not matter and every seed would serve the
        // same lap. (No scheduler: the engine ranks through its own
        // pair cache, the path the wire workloads never take.)
        serving: Serving {
            engine: EngineKind::Deep,
            wire: false,
            capacity: 64,
            shards: 0,
            k: 8,
        },
        traffic: Traffic::Study { pairs: usize::MAX },
    },
    Workload {
        name: "jump-churn",
        why: "a third of requests teleport, 64-tile cache in 4 shards: miss path, install and evict instead of lookup; prefetching mostly wasted",
        context: CTX32,
        serving: Serving {
            engine: EngineKind::Hybrid,
            wire: true,
            capacity: 64,
            shards: 4,
            k: 5,
        },
        traffic: Traffic::Jumps {
            pairs: 8,
            requests: 250,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The walks of two concurrent sessions; the second may be empty.
pub type Pair = [Vec<Step>; 2];

/// SplitMix64 finaliser.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

impl Workload {
    /// The session pairs of one lap, a pure function of the seed and
    /// the held-out traces.
    pub fn plan(&self, heldout: &[Vec<Step>], seed: u64) -> Vec<Pair> {
        let mut rng = Rng::new(mix(seed) ^ 0x5EED_0F1A_95C3);
        let geo = self.context.geo();
        match self.traffic {
            Traffic::Study { pairs } => {
                let mut all = pair_up(heldout, &mut rng);
                all.truncate(pairs);
                all
            }
            Traffic::Serpentine { pairs, requests } => {
                let cycle = pan_cycle(geo);
                let base = rng.below(cycle.len() as u64) as usize;
                (0..pairs)
                    .map(|p| {
                        [0, 1].map(|s| {
                            let start = base + (2 * p + s) * cycle.len() / (2 * pairs);
                            cycle_walk(geo, &cycle, start, requests)
                        })
                    })
                    .collect()
            }
            Traffic::Jumps { pairs, requests } => (0..pairs)
                .map(|_| [(); 2].map(|()| jump_walk(geo, requests, &mut rng)))
                .collect(),
        }
    }
}

/// Pairs the traces up in a seeded order; an odd one out runs alone.
pub fn pair_up(traces: &[Vec<Step>], rng: &mut Rng) -> Vec<Pair> {
    let mut order: Vec<usize> = (0..traces.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
        .chunks(2)
        .map(|c| {
            [
                traces[c[0]].clone(),
                c.get(1).map(|&i| traces[i].clone()).unwrap_or_default(),
            ]
        })
        .collect()
}

/// A closed tour of the deepest level in which every step is one pan:
/// east along the top row, a serpentine down the rows below that keeps
/// clear of the first column, and the first column back up. Needs an
/// even number of rows, which every power-of-two grid past the root
/// has.
pub fn pan_cycle(geo: Geo) -> Vec<TileId> {
    let level = geo.levels() - 1;
    let (rows, cols) = geo.tiles_at(level);
    assert!(
        rows % 2 == 0 && cols >= 2,
        "no pan cycle on a {rows}x{cols} grid"
    );
    let mut tour: Vec<TileId> = (0..cols).map(|x| TileId::new(level, 0, x)).collect();
    for y in 1..rows {
        let xs: Vec<u32> = if y % 2 == 1 {
            (1..cols).rev().collect()
        } else {
            (1..cols).collect()
        };
        tour.extend(xs.into_iter().map(|x| TileId::new(level, y, x)));
    }
    tour.extend((1..rows).rev().map(|y| TileId::new(level, y, 0)));
    tour
}

/// `requests` steps round `cycle` from position `start`.
pub fn cycle_walk(geo: Geo, cycle: &[TileId], start: usize, requests: usize) -> Vec<Step> {
    (0..requests)
        .map(|i| {
            let tile = cycle[(start + i) % cycle.len()];
            let prev = (i > 0).then(|| cycle[(start + i - 1) % cycle.len()]);
            Step {
                tile,
                mv: prev.and_then(|p| geo.move_between(p, tile)),
            }
        })
        .collect()
}

/// A third of the steps jump to a uniform tile at level 2 or deeper;
/// the others take a uniformly chosen legal move.
pub fn jump_walk(geo: Geo, requests: usize, rng: &mut Rng) -> Vec<Step> {
    let jump = |rng: &mut Rng| {
        let floor = 2.min(geo.levels() - 1);
        let level = floor + rng.below(u64::from(geo.levels() - floor)) as u8;
        let (rows, cols) = geo.tiles_at(level);
        TileId::new(
            level,
            rng.below(u64::from(rows)) as u32,
            rng.below(u64::from(cols)) as u32,
        )
    };
    let mut walk = Vec::with_capacity(requests);
    let mut at = jump(rng);
    walk.push(Step { tile: at, mv: None });
    while walk.len() < requests {
        let moves = geo.legal_moves(at);
        let step = if rng.below(3) == 0 || moves.is_empty() {
            Step {
                tile: jump(rng),
                mv: None,
            }
        } else {
            let mv = moves[rng.below(moves.len() as u64) as usize];
            Step {
                tile: geo.apply(at, mv).unwrap_or(at),
                mv: Some(mv),
            }
        };
        at = step.tile;
        walk.push(step);
    }
    walk
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geo {
        CTX32.geo()
    }

    fn traces(n: usize) -> Vec<Vec<Step>> {
        (0..n)
            .map(|i| {
                vec![
                    Step {
                        tile: TileId::new(0, 0, 0),
                        mv: None
                    };
                    i + 1
                ]
            })
            .collect()
    }

    #[test]
    fn plans_repeat_under_a_seed_and_differ_across_seeds() {
        let held = traces(27);
        for w in &WORKLOADS {
            let a = w.plan(&held, 7);
            assert_eq!(a, w.plan(&held, 7), "{}", w.name);
            assert_ne!(a, w.plan(&held, 8), "{}", w.name);
        }
    }

    #[test]
    fn pairing_uses_every_trace_once_and_leaves_the_odd_one_alone() {
        let held = traces(27);
        let pairs = pair_up(&held, &mut Rng::new(3));
        assert_eq!(pairs.len(), 14);
        let mut lens: Vec<usize> = pairs.iter().flatten().map(Vec::len).collect();
        lens.sort_unstable();
        // 27 traces of lengths 1..=27 plus one empty slot.
        assert_eq!(lens, (0..=27).collect::<Vec<_>>());
        assert!(pairs[13][1].is_empty());
    }

    #[test]
    fn pan_cycle_is_a_closed_tour_of_single_pans() {
        for spec in [CTX32, CTX64] {
            let g = spec.geo();
            let cycle = pan_cycle(g);
            let (rows, cols) = g.tiles_at(g.levels() - 1);
            assert_eq!(cycle.len(), (rows * cols) as usize);
            let distinct: std::collections::HashSet<_> = cycle.iter().collect();
            assert_eq!(distinct.len(), cycle.len());
            // One step past a full lap, so the closing edge is checked too.
            let walk = cycle_walk(g, &cycle, 17, cycle.len() + 1);
            assert!(walk[0].mv.is_none());
            for pair in walk.windows(2) {
                let mv = pair[1].mv.expect("every later step is a move");
                assert!(mv.is_pan());
                assert_eq!(g.apply(pair[0].tile, mv), Some(pair[1].tile));
            }
            assert_eq!(walk[0].tile, walk[cycle.len()].tile);
        }
    }

    #[test]
    fn serpentine_sessions_cover_the_level_evenly_whatever_the_seed() {
        let w = find("payload-wire").unwrap();
        for seed in [1, 2, 99] {
            let plan = w.plan(&[], seed);
            let mut touches = std::collections::HashMap::new();
            for step in plan.iter().flatten().flatten() {
                *touches.entry(step.tile).or_insert(0usize) += 1;
            }
            assert_eq!(touches.len(), 256);
            assert!(touches.values().all(|&n| n == 8), "seed {seed}");
        }
    }

    #[test]
    fn jump_walk_moves_are_legal_and_a_third_of_steps_jump() {
        let g = geo();
        let walk = jump_walk(g, 6000, &mut Rng::new(5));
        assert_eq!(walk.len(), 6000);
        let mut jumps = 0;
        for pair in walk.windows(2) {
            match pair[1].mv {
                Some(mv) => assert_eq!(g.apply(pair[0].tile, mv), Some(pair[1].tile)),
                None => {
                    jumps += 1;
                    assert!(pair[1].tile.level >= 2);
                }
            }
        }
        let share = f64::from(jumps) / 5999.0;
        assert!((share - 1.0 / 3.0).abs() < 0.03, "jump share {share}");
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name), Some(w));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }
}
