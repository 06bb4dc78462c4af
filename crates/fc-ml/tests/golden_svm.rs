//! Golden pins for SMO training.
//!
//! Captured from the trainer that evaluated `f(i)` over every row
//! through a packed-triangle Gram matrix. A trained machine is pinned
//! by its support-vector count and by `decision(x).to_bits()` over a
//! fixed probe grid — the bias, every coefficient and every support
//! row enter each decision value, so a machine that differs in one bit
//! of any of them moves the fold. Three training sets:
//!
//! * the phase-classifier rows of the benchmark's study
//!   (`tests/data/study_phases_ctx32.txt`), trained the way the
//!   benchmark does — even-numbered users, min-max scaled, default RBF
//!   parameters — one machine per class pair and the voting classifier
//!   over every row of every user;
//! * a linearly separable set under the linear kernel, which converges
//!   (`max_passes` clean sweeps) with few support vectors;
//! * two overlapping blobs at `C = 1`, where most multipliers end at
//!   the box bound and the sweep cap, not convergence, stops training:
//!   one more sweep still changes the machine.

use fc_ml::{BinarySvm, Kernel, Scaler, SvmClassifier, SvmParams};

/// FNV-1a 64-bit fold; stable across platforms and runs.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// What a machine is pinned by: support-vector count, the decision bits
/// at the first probe, and the fold of the decision bits at every probe.
type Pin = (usize, u64, u64);

fn pin(svm: &BinarySvm, probes: &[Vec<f64>]) -> Pin {
    let mut f = Fold::new();
    for p in probes {
        f.u64(svm.decision(p).to_bits());
    }
    (svm.num_support(), svm.decision(&probes[0]).to_bits(), f.0)
}

fn show(pins: &[Pin]) -> String {
    pins.iter()
        .map(|(n, d, f)| format!("    ({n}, {d:#018x}, {f:#018x}),\n"))
        .collect()
}

/// The study rows: `(user, label, Table-1 features)`.
fn study_rows() -> Vec<(usize, usize, Vec<f64>)> {
    include_str!("data/study_phases_ctx32.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            let num = |s: &str| s.parse::<f64>().expect("a number");
            let flag = |c: &str| if f[5] == c { 1.0 } else { 0.0 };
            let features = vec![
                num(f[2]),
                num(f[3]),
                num(f[4]),
                flag("p"),
                flag("i"),
                flag("o"),
            ];
            (
                f[0].parse().expect("a user"),
                f[1].parse().expect("a label"),
                features,
            )
        })
        .collect()
}

/// Every corner, edge and interior point of a coarse grid over the
/// scaled feature box: x, y, level, and the four move classes.
fn study_probes() -> Vec<Vec<f64>> {
    let mut probes = Vec::new();
    for x in [-1.0, -0.5, 0.0, 0.5, 1.0] {
        for y in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            for level in [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0] {
                for mv in 0..4 {
                    let flag = |i: usize| if mv == i { 1.0 } else { -1.0 };
                    probes.push(vec![x, y, level, flag(1), flag(2), flag(3)]);
                }
            }
        }
    }
    probes
}

const STUDY_PAIRS: [Pin; 3] = [
    (156, 0x3ff0007092940ff0, 0x8b8c4a9b2b4f7f34),
    (18, 0x3ff7bdf6c4ebfa6b, 0x285a87aa16195f9c),
    (151, 0x400816b0ab326de9, 0x5a2bc4e5138f8122),
];
/// Fold of the predicted class of every study row, and how many match
/// the row's label.
const STUDY_VOTES: (u64, usize) = (0xa7baa5632a7f8bc6, 1123);

#[test]
fn study_phase_machines_are_pinned() {
    let rows = study_rows();
    assert_eq!(rows.len(), 1256);
    let train: Vec<&(usize, usize, Vec<f64>)> = rows.iter().filter(|r| r.0 % 2 == 0).collect();
    let feats: Vec<Vec<f64>> = train.iter().map(|r| r.2.clone()).collect();
    let labels: Vec<usize> = train.iter().map(|r| r.1).collect();
    let scaler = Scaler::fit(&feats);
    let scaled = scaler.transform_all(&feats);
    let params = SvmParams::rbf_default(6);
    let probes = study_probes();

    let mut pins = Vec::new();
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = scaled
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == a || l == b)
            .map(|(x, &l)| (x.clone(), if l == a { 1.0 } else { -1.0 }))
            .unzip();
        pins.push(pin(&BinarySvm::train(&xs, &ys, params), &probes));
    }
    assert!(
        pins == STUDY_PAIRS,
        "study machines moved; actual:\n{}",
        show(&pins)
    );

    let clf = SvmClassifier::train(&scaled, &labels, params);
    assert_eq!(clf.num_classes(), 3);
    let mut f = Fold::new();
    let mut correct = 0;
    for (_, label, features) in &rows {
        let class = clf.predict(&scaler.transform(features));
        f.u64(class as u64);
        correct += usize::from(class == *label);
    }
    assert_eq!((f.0, correct), STUDY_VOTES, "{:#018x} {correct}", f.0);
}

/// A 31-bit linear congruential generator mapped to `[-1, 1)`: the sets
/// below must not move with the `rand` stand-in.
fn lcg(state: &mut u64) -> f64 {
    *state = (*state * 1_103_515_245 + 12_345) % (1 << 31);
    *state as f64 / f64::from(1u32 << 30) - 1.0
}

fn grid_probes() -> Vec<Vec<f64>> {
    let mut probes = Vec::new();
    for i in -4..=4 {
        for j in -4..=4 {
            probes.push(vec![f64::from(i), f64::from(j) * 0.5]);
        }
    }
    probes
}

const LINEAR: Pin = (8, 0xc00005a21a141909, 0xb8423c079a3f1d4e);

#[test]
fn linear_separable_machine_is_pinned() {
    let mut s = 7;
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for _ in 0..60 {
        let (a, b) = (lcg(&mut s), lcg(&mut s));
        x.push(vec![a + 3.0, b]);
        y.push(1.0);
        x.push(vec![a - 3.0, b]);
        y.push(-1.0);
    }
    let svm = BinarySvm::train(
        &x,
        &y,
        SvmParams {
            kernel: Kernel::Linear,
            ..SvmParams::rbf_default(2)
        },
    );
    assert!(x.iter().zip(&y).all(|(xi, &yi)| svm.predict(xi) == yi));
    let actual = pin(&svm, &grid_probes());
    assert!(actual == LINEAR, "actual:\n{}", show(&[actual]));
}

/// The overlapping set at the default sweep cap and at one sweep more.
const OVERLAP: [Pin; 2] = [
    (193, 0x3f939464f63666ef, 0xf601b6714b84777b),
    (193, 0x3f94962bb5a31dee, 0xf211bcd38155dca1),
];

#[test]
fn overlapping_machine_stops_at_the_sweep_cap() {
    let mut s = 11;
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for i in 0..240 {
        let side = if i % 2 == 0 { 1.0 } else { -1.0 };
        x.push(vec![0.3 * side + lcg(&mut s), lcg(&mut s)]);
        y.push(side);
    }
    let params = SvmParams {
        c: 1.0,
        kernel: Kernel::Rbf { gamma: 8.0 },
        ..SvmParams::rbf_default(2)
    };
    let probes = grid_probes();
    let actual = [params.max_iters, params.max_iters + 1].map(|max_iters| {
        pin(
            &BinarySvm::train(
                &x,
                &y,
                SvmParams {
                    max_iters,
                    ..params
                },
            ),
            &probes,
        )
    });
    assert!(actual == OVERLAP, "actual:\n{}", show(&actual));
    assert_ne!(
        actual[0], actual[1],
        "the cap was not what stopped training"
    );
}
