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

use fc_array::{apply, join, project_as, Database, DenseArray, Schema};
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

/// Smoothstep weight of the offset `f` into a lattice cell.
fn smoothstep(f: f64) -> f64 {
    f * f * (3.0 - 2.0 * f)
}

/// Fractal Brownian motion — octaves of value noise, persistence 0.5 —
/// read row by row off an `n × n` raster: cell `(xi, yi)` samples the
/// point `(xi / n · scale, yi / n · scale)`. Coordinates are never
/// negative, so truncation is their floor.
struct FbmRows {
    n: usize,
    scale: f64,
    octaves: Vec<OctaveRows>,
    norm: f64,
    total: Vec<f64>,
}

/// One octave's state along the rows. Per raster column it keeps the
/// lattice column left of the sample and the smoothstep weight into
/// it; per lattice line `y0`, the line's values already interpolated at
/// every column (`top`) and the next line's (`bot`). A row between the
/// same two lines reuses both; one a line further down reuses `bot` as
/// its `top`.
struct OctaveRows {
    seed: u64,
    amp: f64,
    freq: f64,
    cols: Vec<(usize, f64)>,
    /// Scratch: one lattice line at every column `cols` reaches.
    line: Vec<f64>,
    y0: Option<usize>,
    top: Vec<f64>,
    bot: Vec<f64>,
}

impl FbmRows {
    fn new(seed: u64, octaves: u32, n: usize, scale: f64) -> Self {
        let (mut amp, mut freq, mut norm) = (0.5, 1.0, 0.0);
        let octaves = (0..octaves)
            .map(|o| {
                let cols: Vec<(usize, f64)> = (0..n)
                    .map(|xi| {
                        let x = xi as f64 / n as f64 * scale * freq;
                        let x0 = x as usize;
                        (x0, smoothstep(x - x0 as f64))
                    })
                    .collect();
                let octave = OctaveRows {
                    seed: seed.wrapping_add(o as u64),
                    amp,
                    freq,
                    line: vec![0.0; cols.last().map_or(0, |&(x0, _)| x0 + 2)],
                    cols,
                    y0: None,
                    top: vec![0.0; n],
                    bot: vec![0.0; n],
                };
                norm += amp;
                amp *= 0.5;
                freq *= 2.0;
                octave
            })
            .collect();
        Self {
            n,
            scale,
            octaves,
            norm,
            total: vec![0.0; n],
        }
    }

    /// The noise at every cell of raster row `yi`.
    fn row(&mut self, yi: usize) -> &[f64] {
        let y = yi as f64 / self.n as f64 * self.scale;
        self.total.fill(0.0);
        for o in &mut self.octaves {
            let y = y * o.freq;
            let y0 = y as usize;
            let sy = smoothstep(y - y0 as f64);
            o.move_to(y0);
            for (t, (&top, &bot)) in self.total.iter_mut().zip(o.top.iter().zip(&o.bot)) {
                *t += o.amp * (top + (bot - top) * sy);
            }
        }
        for t in &mut self.total {
            *t /= self.norm;
        }
        &self.total
    }
}

impl OctaveRows {
    /// Makes `top` and `bot` lattice lines `y0` and `y0 + 1`.
    fn move_to(&mut self, y0: usize) {
        match self.y0 {
            Some(at) if at == y0 => return,
            Some(at) if at + 1 == y0 => {}
            _ => self.fill_bot(y0),
        }
        std::mem::swap(&mut self.top, &mut self.bot);
        self.fill_bot(y0 + 1);
        self.y0 = Some(y0);
    }

    /// Makes `bot` lattice line `yl`, interpolated at every column.
    fn fill_bot(&mut self, yl: usize) {
        for (x0, l) in self.line.iter_mut().enumerate() {
            *l = lattice(self.seed, x0 as i64, yl as i64);
        }
        for (v, &(x0, sx)) in self.bot.iter_mut().zip(&self.cols) {
            let (a, b) = (self.line[x0], self.line[x0 + 1]);
            *v = a + (b - a) * sx;
        }
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

    let mut base_noise = FbmRows::new(cfg.seed, 5, n, 6.0);
    let mut crag_noise = FbmRows::new(cfg.seed ^ 0xC4A6, 5, n, 28.0);
    let mut vis_noise = FbmRows::new(band_noise_seed, 4, n, 56.0);
    let mut swir_noise = FbmRows::new(band_noise_seed ^ 0x51, 4, n, 56.0);

    for yi in 0..n {
        let base_row = base_noise.row(yi);
        let crag_row = crag_noise.row(yi);
        let vis_row = vis_noise.row(yi);
        let swir_row = swir_noise.row(yi);
        for xi in 0..n {
            let u = xi as f64 / n as f64;
            let v = yi as f64 / n as f64;
            // Base continent: low rolling noise.
            let base = 0.30 * base_row[xi];
            // Ridge systems, under one craggy modulation so ranges
            // contain distinct peaks.
            let crag = 0.55 + 0.9 * crag_row[xi];
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
            let noise_v = 0.13 * (vis_row[xi] - 0.5);
            let noise_s = 0.13 * (swir_row[xi] - 0.5);
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
    // level carries identical max/min/avg (one week flattened, §5.1.1),
    // so the three name the one `ndsi` buffer; they diverge at coarser
    // zoom levels through per-attribute regrid.
    let out = project_as(
        &join(&ndsi, &mask).expect("mask shares the bands' dimensions"),
        &[
            ("ndsi", "ndsi_max"),
            ("ndsi", "ndsi_min"),
            ("ndsi", "ndsi_avg"),
            ("land", "land"),
        ],
    )
    .expect("NDSI study schema");
    let arr = db.store("NDSI", out);
    (db, arr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fractal Brownian motion at one point: per octave `floor`, the
    /// four lattice corners and the smoothstep lerp. The oracle the row
    /// sampler must equal bit for bit.
    fn fbm(seed: u64, x: f64, y: f64, octaves: u32) -> f64 {
        let (mut amp, mut freq, mut total, mut norm) = (0.5, 1.0, 0.0, 0.0);
        for o in 0..octaves {
            let seed = seed.wrapping_add(o as u64);
            let (x, y) = (x * freq, y * freq);
            let (x0, y0) = (x.floor(), y.floor());
            let (sx, sy) = (smoothstep(x - x0), smoothstep(y - y0));
            let (xi, yi) = (x0 as i64, y0 as i64);
            let v00 = lattice(seed, xi, yi);
            let v10 = lattice(seed, xi + 1, yi);
            let v01 = lattice(seed, xi, yi + 1);
            let v11 = lattice(seed, xi + 1, yi + 1);
            let top = v00 + (v10 - v00) * sx;
            let bot = v01 + (v11 - v01) * sx;
            total += amp * (top + (bot - top) * sy);
            norm += amp;
            amp *= 0.5;
            freq *= 2.0;
        }
        total / norm
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

    proptest! {
        /// The row sampler is the one-shot oracle at every cell, on
        /// sides that are not powers of two too (lattice lines then fall
        /// between raster rows at irregular strides, and at scale 56 a
        /// row can skip a line). A second pass bottom-up, where every
        /// row is a jump back, reads the same rows again.
        #[test]
        fn row_sampler_matches_one_shot_at_every_cell(
            n in 1usize..=300,
            seed in any::<u64>(),
            octaves in 1u32..=6,
            scale in 0usize..3,
        ) {
            let scale = [6.0, 28.0, 56.0][scale];
            let mut noise = FbmRows::new(seed, octaves, n, scale);
            let rows: Vec<Vec<f64>> = (0..n).map(|yi| noise.row(yi).to_vec()).collect();
            for (yi, row) in rows.iter().enumerate() {
                let v = yi as f64 / n as f64;
                for (xi, got) in row.iter().enumerate() {
                    let u = xi as f64 / n as f64;
                    prop_assert_eq!(
                        got.to_bits(),
                        fbm(seed, u * scale, v * scale, octaves).to_bits(),
                        "cell ({}, {}) of {}²", xi, yi, n
                    );
                }
            }
            for yi in (0..n).rev() {
                prop_assert_eq!(noise.row(yi), rows[yi].as_slice(), "row {} again", yi);
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
