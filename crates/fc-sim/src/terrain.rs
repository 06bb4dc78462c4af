//! Synthetic MODIS-like terrain and the NDSI band pipeline.
//!
//! The generator produces an elevation field (fractal value noise plus
//! three ridge systems), derives snow cover from elevation and latitude,
//! synthesizes VIS and SWIR reflectance bands, and computes the NDSI
//! through the same `join` + `apply` UDF query the paper runs in SciDB
//! (Query 1):
//!
//! ```text
//! store(apply(join(SVIS, SSWIR), ndsi, ndsi_func(...)), NDSI);
//! ```
//!
//! Snowy mountain ranges appear as spatially coherent clusters of
//! high-NDSI cells — the ROIs the paper's users hunt for.

use fc_array::{apply, join, Database, DenseArray, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Terrain generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TerrainConfig {
    /// Square raw-array side length in cells.
    pub size: usize,
    /// RNG seed (terrain is fully deterministic under it).
    pub seed: u64,
    /// Elevation above which snow is likely (in `[0, 1]`).
    pub snowline: f64,
}

impl Default for TerrainConfig {
    fn default() -> Self {
        Self {
            size: 512,
            seed: 0x7E44A1,
            snowline: 0.55,
        }
    }
}

/// A ridge segment: mountains form along the line `(x0,y0)→(x1,y1)` in
/// unit coordinates.
#[derive(Debug, Clone, Copy)]
pub struct Ridge {
    /// Segment start (unit coords).
    pub a: (f64, f64),
    /// Segment end (unit coords).
    pub b: (f64, f64),
    /// Peak elevation contribution.
    pub amp: f64,
    /// Gaussian half-width of the range (unit coords).
    pub width: f64,
}

/// The three study ranges: west (Rockies analogue, task 1), north-east
/// (Alps analogue, task 2), and south (Andes analogue, task 3). Unit
/// coordinates: x → longitude (east), y → latitude (south).
pub fn study_ridges() -> [Ridge; 3] {
    [
        Ridge {
            a: (0.12, 0.15),
            b: (0.22, 0.55),
            amp: 0.75,
            width: 0.085,
        },
        Ridge {
            a: (0.62, 0.18),
            b: (0.88, 0.30),
            amp: 0.62,
            width: 0.055,
        },
        Ridge {
            a: (0.38, 0.62),
            b: (0.46, 0.93),
            amp: 0.68,
            width: 0.06,
        },
    ]
}

/// All fields produced by the generator.
#[derive(Debug)]
pub struct Terrain {
    /// Elevation in `[0, 1]`.
    pub elevation: DenseArray,
    /// Visible-light reflectance band (`SVIS`).
    pub vis: DenseArray,
    /// Short-wave-infrared reflectance band (`SSWIR`).
    pub swir: DenseArray,
    /// Land/sea mask (1 = land).
    pub mask: DenseArray,
}

/// Hash-based lattice noise: deterministic pseudo-random value in
/// `[0, 1)` for integer lattice coordinates.
fn lattice(seed: u64, xi: i64, yi: i64) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(xi as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(yi as u64)
        .wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 27;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One octave of value noise. It remembers what the next sample of a
/// raster row needs again: the row's `y` with its floor and smoothstep
/// weight, and the four corner hashes of the lattice cell it is in.
/// Each is kept under the value it was computed from — the weight
/// under `y`, the corners under the cell — and recomputed when a
/// sample brings another, so any call order gives what a fresh octave
/// would. Along a row 2–170 consecutive samples share a cell.
struct Octave {
    seed: u64,
    /// The last sample's `y`, `y.floor()`, and the smoothstep of their
    /// difference.
    y: f64,
    y0: f64,
    sy: f64,
    /// `corners` are `lattice` at `(xi, yi)`, `(xi + 1, yi)`,
    /// `(xi, yi + 1)` and `(xi + 1, yi + 1)` for `(xi, yi) = (x0 as
    /// i64, y0 as i64)`, and stand for `x0 <= x < x1`: `x1` is `x0 +
    /// 1.0`, or `x0` — no `x` — once `y0` has moved on.
    x0: f64,
    x1: f64,
    corners: [f64; 4],
}

impl Octave {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            y: 0.0,
            y0: 0.0,
            sy: 0.0,
            x0: 0.0,
            x1: 0.0,
            corners: [0.0; 4],
        }
    }

    fn set_row(&mut self, y: f64) {
        let y0 = y.floor();
        if y0 != self.y0 {
            self.y0 = y0;
            self.x1 = self.x0;
        }
        let fy = y - y0;
        self.y = y;
        self.sy = fy * fy * (3.0 - 2.0 * fy);
    }

    fn enter_cell(&mut self, x0: f64) {
        let (xi, yi) = (x0 as i64, self.y0 as i64);
        self.x0 = x0;
        self.x1 = x0 + 1.0;
        self.corners = [
            lattice(self.seed, xi, yi),
            lattice(self.seed, xi + 1, yi),
            lattice(self.seed, xi, yi + 1),
            lattice(self.seed, xi + 1, yi + 1),
        ];
    }

    /// Smoothstep-interpolated value noise at `(x, y)` (unit frequency).
    fn at(&mut self, x: f64, y: f64) -> f64 {
        // NaN fails both tests and is recomputed every time. The two
        // zeros pass for each other, and may: a zero `fx` or `fy` of
        // either sign squares to the same weight.
        if y != self.y {
            self.set_row(y);
        }
        // For an integral `x0`, `x0 <= x < x0 + 1.0` is `x.floor() ==
        // x0`; where the sum rounds, every float between is `x0`.
        if !(self.x0 <= x && x < self.x1) {
            self.enter_cell(x.floor());
        }
        let fx = x - self.x0;
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let [v00, v10, v01, v11] = self.corners;
        let top = v00 + (v10 - v00) * sx;
        let bot = v01 + (v11 - v01) * sx;
        top + (bot - top) * self.sy
    }
}

/// Fractal Brownian motion — octaves of value noise, persistence 0.5 —
/// as a sampler to be asked point after point.
struct Fbm {
    octaves: Vec<Octave>,
}

impl Fbm {
    fn new(seed: u64, octaves: u32) -> Self {
        Self {
            octaves: (0..octaves)
                .map(|o| Octave::new(seed.wrapping_add(o as u64)))
                .collect(),
        }
    }

    fn at(&mut self, x: f64, y: f64) -> f64 {
        let mut amp = 0.5;
        let mut freq = 1.0;
        let mut total = 0.0;
        let mut norm = 0.0;
        for octave in &mut self.octaves {
            total += amp * octave.at(x * freq, y * freq);
            norm += amp;
            amp *= 0.5;
            freq *= 2.0;
        }
        total / norm
    }
}

/// Distance from point `p` to segment `ab`, all in unit coordinates.
fn dist_to_segment(p: (f64, f64), a: (f64, f64), b: (f64, f64)) -> f64 {
    let (px, py) = p;
    let (ax, ay) = a;
    let (bx, by) = b;
    let (dx, dy) = (bx - ax, by - ay);
    let len2 = dx * dx + dy * dy;
    let t = if len2 <= f64::EPSILON {
        0.0
    } else {
        (((px - ax) * dx + (py - ay) * dy) / len2).clamp(0.0, 1.0)
    };
    let (cx, cy) = (ax + t * dx, ay + t * dy);
    ((px - cx).powi(2) + (py - cy).powi(2)).sqrt()
}

/// Generates the terrain fields.
pub fn generate(cfg: &TerrainConfig) -> Terrain {
    let n = cfg.size;
    let ridges = study_ridges();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let band_noise_seed: u64 = rng.gen();

    let schema = |name: &str, attr: &str| {
        Schema::new(
            name,
            [("y".to_string(), n), ("x".to_string(), n)],
            [attr.to_string()],
        )
        .expect("valid terrain schema")
    };

    let mut elevation = vec![0.0f64; n * n];
    let mut vis = vec![0.0f64; n * n];
    let mut swir = vec![0.0f64; n * n];
    let mut mask = vec![0.0f64; n * n];

    let mut base_noise = Fbm::new(cfg.seed, 5);
    let mut crag_noise = Fbm::new(cfg.seed ^ 0xC4A6, 5);
    let mut vis_noise = Fbm::new(band_noise_seed, 4);
    let mut swir_noise = Fbm::new(band_noise_seed ^ 0x51, 4);

    for yi in 0..n {
        for xi in 0..n {
            let u = xi as f64 / n as f64;
            let v = yi as f64 / n as f64;
            // Base continent: low rolling noise.
            let base = 0.30 * base_noise.at(u * 6.0, v * 6.0);
            // Ridge systems, under one craggy modulation so ranges
            // contain distinct peaks.
            let crag = 0.55 + 0.9 * crag_noise.at(u * 28.0, v * 28.0);
            let mut ridge_elev = 0.0f64;
            for r in &ridges {
                let d = dist_to_segment((u, v), r.a, r.b);
                let bump = r.amp * (-d * d / (r.width * r.width)).exp();
                ridge_elev += bump * crag;
            }
            let elev = (base + ridge_elev).clamp(0.0, 1.0);

            // Snow: above the snowline, colder (higher probability) with
            // altitude; smooth sigmoid edge.
            let snow = 1.0 / (1.0 + (-(elev - cfg.snowline) * 18.0).exp());

            // Band synthesis. Snow is bright in VIS, dark in SWIR
            // (that contrast is what the NDSI detects).
            let noise_v = 0.13 * (vis_noise.at(u * 56.0, v * 56.0) - 0.5);
            let noise_s = 0.13 * (swir_noise.at(u * 56.0, v * 56.0) - 0.5);
            let visr = (0.16 + 0.64 * snow + 0.08 * elev + noise_v).clamp(0.01, 1.0);
            let swirr = (0.44 - 0.34 * snow + 0.05 * (1.0 - elev) + noise_s).clamp(0.01, 1.0);

            let idx = yi * n + xi;
            elevation[idx] = elev;
            vis[idx] = visr;
            swir[idx] = swirr;
            // Ocean where the continent base is very low near the border.
            let border = (u.min(v).min(1.0 - u).min(1.0 - v) * 12.0).min(1.0);
            mask[idx] = if elev * border > 0.02 { 1.0 } else { 0.0 };
        }
    }

    Terrain {
        elevation: DenseArray::from_vec(schema("ELEV", "elevation"), elevation)
            .expect("elevation field"),
        vis: DenseArray::from_vec(schema("SVIS", "reflectance"), vis).expect("vis band"),
        swir: DenseArray::from_vec(schema("SSWIR", "reflectance"), swir).expect("swir band"),
        mask: DenseArray::from_vec(schema("MASK", "land"), mask).expect("mask field"),
    }
}

/// Runs the paper's Query 1 against a fresh [`Database`]: loads the
/// bands, joins them on dimensions, applies the NDSI UDF, and stores the
/// result as `NDSI` with the four study attributes (max/min/avg NDSI and
/// the land/sea mask — §5.1.1).
///
/// Returns the database and the NDSI array.
pub fn build_ndsi_database(cfg: &TerrainConfig) -> (Database, std::sync::Arc<DenseArray>) {
    let terrain = generate(cfg);
    let db = Database::new();
    let vis = db.store("SVIS", terrain.vis);
    let swir = db.store("SSWIR", terrain.swir);
    let mask = db.store("MASK", terrain.mask);

    // Query 1: NDSI = (VIS − SWIR) / (VIS + SWIR), as a UDF over the
    // join, which is dropped as soon as the UDF has read it.
    let ndsi = apply(
        &join(&vis, &swir).expect("bands share dimensions"),
        "ndsi",
        |c| {
            let v = c.attr(0); // SVIS.reflectance
            let s = c.attr(1); // SSWIR.reflectance
            (v - s) / (v + s)
        },
    )
    .expect("ndsi is a new attribute");

    // Flatten to the study schema: max/min/avg NDSI + land mask. The raw
    // level carries identical max/min/avg (one week flattened, §5.1.1);
    // they diverge at coarser zoom levels through per-attribute regrid.
    let n = ndsi.shape();
    let schema = Schema::new(
        "NDSI",
        [("y".to_string(), n[0]), ("x".to_string(), n[1])],
        [
            "ndsi_max".to_string(),
            "ndsi_min".to_string(),
            "ndsi_avg".to_string(),
            "land".to_string(),
        ],
    )
    .expect("NDSI study schema");
    let mut out = DenseArray::empty(schema);
    let ai = ndsi.schema().attr_index("ndsi").expect("ndsi attr");
    let mask_vals = mask.attr_values("land").expect("land attr").to_vec();
    for c in ndsi.cells() {
        let v = c.attr(ai);
        let m = mask_vals[c.index()];
        out.fill_cell(c.index(), &[v, v, v, m]).expect("same shape");
    }
    let arr = db.store("NDSI", out);
    (db, arr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fractal Brownian motion at one point, from a fresh sampler.
    fn fbm(seed: u64, x: f64, y: f64, octaves: u32) -> f64 {
        Fbm::new(seed, octaves).at(x, y)
    }

    fn small_cfg() -> TerrainConfig {
        TerrainConfig {
            size: 64,
            seed: 42,
            snowline: 0.55,
        }
    }

    #[test]
    fn terrain_is_deterministic() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.elevation, b.elevation);
        assert_eq!(a.vis, b.vis);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_cfg());
        let b = generate(&TerrainConfig {
            seed: 43,
            ..small_cfg()
        });
        assert_ne!(a.elevation, b.elevation);
    }

    #[test]
    fn elevation_and_bands_in_range() {
        let t = generate(&small_cfg());
        for arr in [&t.elevation, &t.vis, &t.swir] {
            for c in arr.cells() {
                let v = c.attr(0);
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
        }
    }

    #[test]
    fn ridges_create_high_ground() {
        let t = generate(&TerrainConfig {
            size: 128,
            ..small_cfg()
        });
        // Sample on the west ridge vs in the flat east-south.
        let on_ridge = t
            .elevation
            .get(
                "elevation",
                &[(0.35 * 128.0) as usize, (0.17 * 128.0) as usize],
            )
            .unwrap()
            .unwrap();
        let off_ridge = t
            .elevation
            .get(
                "elevation",
                &[(0.85 * 128.0) as usize, (0.65 * 128.0) as usize],
            )
            .unwrap()
            .unwrap();
        assert!(
            on_ridge > off_ridge + 0.2,
            "ridge {on_ridge} vs plain {off_ridge}"
        );
    }

    #[test]
    fn ndsi_pipeline_produces_snowy_mountains() {
        let (db, ndsi) = build_ndsi_database(&TerrainConfig {
            size: 128,
            ..small_cfg()
        });
        assert!(db.scan("NDSI").is_ok());
        // NDSI in [-1, 1]; snowy ridge cells positive, plains negative.
        let mut ridge_vals = Vec::new();
        let mut plain_vals = Vec::new();
        for c in ndsi.cells() {
            let coords = c.coords();
            let (v, u) = (coords[0] as f64 / 128.0, coords[1] as f64 / 128.0);
            let val = c.attr(ndsi.schema().attr_index("ndsi_avg").unwrap());
            assert!((-1.0..=1.0).contains(&val));
            if dist_to_segment((u, v), (0.12, 0.15), (0.22, 0.55)) < 0.03 {
                ridge_vals.push(val);
            } else if u > 0.6 && v > 0.6 {
                plain_vals.push(val);
            }
        }
        let ridge_avg: f64 = ridge_vals.iter().sum::<f64>() / ridge_vals.len() as f64;
        let plain_avg: f64 = plain_vals.iter().sum::<f64>() / plain_vals.len() as f64;
        assert!(
            ridge_avg > 0.2 && plain_avg < 0.0,
            "ridge {ridge_avg} plains {plain_avg}"
        );
    }

    /// The zeros compare equal, so in x and in y a sampler serves
    /// `-0.0` from what it kept for `0.0` and the other way round,
    /// where a fresh one would have floored to the other zero.
    #[test]
    fn sampler_matches_one_shot_across_the_zeros() {
        let mut noise = Fbm::new(9, 3);
        for (x, y) in [
            (0.3, 0.3),
            (-0.0, 0.3),
            (-0.4, -0.0),
            (-0.0, -0.0),
            (0.3, 0.0),
        ] {
            assert_eq!(
                noise.at(x, y).to_bits(),
                fbm(9, x, y, 3).to_bits(),
                "({x}, {y})"
            );
        }
    }

    proptest! {
        /// A sampler that has been anywhere answers as a fresh one does:
        /// what an octave keeps is a cache, not an assumption about
        /// raster order. Each step jumps anywhere in ±40, creeps along x or y
        /// in either direction (so runs of samples share cells and
        /// leave them through every side), or lands on a cell boundary.
        #[test]
        fn sampler_matches_one_shot_in_any_call_order(
            seed in any::<u64>(),
            octaves in 1u32..=6,
            steps in proptest::collection::vec(
                (0u8..4, -40.0f64..40.0, -40.0f64..40.0),
                1..200,
            ),
        ) {
            let mut noise = Fbm::new(seed, octaves);
            let (mut x, mut y) = (0.0f64, 0.0f64);
            for (kind, a, b) in steps {
                match kind {
                    0 => (x, y) = (a, b),
                    1 => x += a * 0.01,
                    2 => y += b * 0.01,
                    _ => x = x.round(),
                }
                prop_assert_eq!(
                    noise.at(x, y).to_bits(),
                    fbm(seed, x, y, octaves).to_bits(),
                    "at ({}, {})", x, y
                );
            }
        }
    }

    #[test]
    fn fbm_is_smooth_and_bounded() {
        for i in 0..100 {
            let x = i as f64 * 0.13;
            let v = fbm(7, x, x * 0.7, 5);
            assert!((0.0..=1.0).contains(&v));
            let v2 = fbm(7, x + 1e-4, x * 0.7, 5);
            assert!((v - v2).abs() < 0.01, "smoothness at {x}");
        }
    }
}
