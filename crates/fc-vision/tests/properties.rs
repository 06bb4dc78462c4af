//! Property-based tests for the vision substrate.

use fc_vision::{
    dense_descriptors, describe_keypoints_on, detect_keypoints, DetectorParams, GradientField,
    GrayImage, DESCRIPTOR_DIM,
};
use proptest::prelude::*;

fn images() -> impl Strategy<Value = GrayImage> {
    (8usize..40, 8usize..40, any::<u64>()).prop_map(|(w, h, seed)| {
        let mut state = seed | 1;
        let px: Vec<f64> = (0..w * h)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (1u64 << 31) as f64 / 2.0
            })
            .collect();
        GrayImage::new(w, h, px)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Detection is deterministic and keypoints stay inside the image.
    #[test]
    fn detection_is_deterministic_and_bounded(img in images()) {
        let p = DetectorParams::default();
        let a = detect_keypoints(&img, &p);
        let b = detect_keypoints(&img, &p);
        prop_assert_eq!(a.len(), b.len());
        for (ka, kb) in a.iter().zip(&b) {
            prop_assert_eq!(ka.x, kb.x);
            prop_assert_eq!(ka.y, kb.y);
            prop_assert!(ka.x >= 0.0 && ka.x < img.width() as f64 * 2.0);
            prop_assert!(ka.y >= 0.0 && ka.y < img.height() as f64 * 2.0);
            prop_assert!(ka.scale > 0.0);
        }
    }

    /// Every descriptor is a unit vector of the right dimension.
    #[test]
    fn descriptors_are_unit_vectors(img in images()) {
        let kps = detect_keypoints(&img, &DetectorParams::default());
        for d in describe_keypoints_on(&GradientField::new(&img), &kps) {
            prop_assert_eq!(d.len(), DESCRIPTOR_DIM);
            let norm: f64 = d.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((norm - 1.0).abs() < 1e-6, "norm {norm}");
            prop_assert!(d.iter().all(|&v| v >= 0.0));
        }
        for d in dense_descriptors(&img, 8, 6.0) {
            prop_assert_eq!(d.len(), DESCRIPTOR_DIM);
            let norm: f64 = d.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((norm - 1.0).abs() < 1e-6);
        }
    }

    /// Brightness offsets do not change gradients, so descriptors are
    /// illumination-invariant to constant shifts.
    #[test]
    fn descriptors_ignore_constant_offsets(img in images(), offset in 0.0f64..0.2) {
        let shifted = GrayImage::new(
            img.width(),
            img.height(),
            img.pixels().iter().map(|v| v + offset).collect(),
        );
        let a = dense_descriptors(&img, 8, 6.0);
        let b = dense_descriptors(&shifted, 8, 6.0);
        prop_assert_eq!(a.len(), b.len());
        for (da, db) in a.iter().zip(&b) {
            for (x, y) in da.iter().zip(db) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }
}
