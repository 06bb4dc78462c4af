//! # fc-vision — machine-vision substrate (OpenCV substitute)
//!
//! The paper's Signature-Based recommender compares tiles by visual
//! similarity using "sophisticated machine vision features": SIFT and
//! denseSIFT, computed with OpenCV (§4.3.3, Table 2). Signatures are
//! *histograms built from clustered SIFT descriptors* — a bag of visual
//! words. This crate implements the full pipeline from scratch:
//!
//! * [`GrayImage`] — a grayscale raster in `[0, 1]` (tiles render their
//!   attribute values to this format);
//! * [`filters`] — separable Gaussian blur, 2× downsampling, gradients;
//! * [`keypoints`] — a difference-of-Gaussians scale space with 3×3×3
//!   local-extremum detection and contrast thresholding (SIFT's detector);
//! * [`descriptor`] — 4×4 spatial grid × 8 orientation bins = 128-d
//!   gradient-orientation descriptors with SIFT's clip-and-renormalize;
//! * [`dense`] — the same descriptor on a regular grid (denseSIFT:
//!   "matches entire images, whereas SIFT only matches small regions");
//! * [`bovw`] — a k-means visual-word codebook (via `fc-ml`) that turns a
//!   bag of descriptors into the histogram the recommender consumes.
//!
//! Axis-aligned heatmap tiles don't rotate, so descriptors are computed
//! in the image frame (no rotation normalization) — this matches how the
//! paper uses SIFT (comparing "clusters of orange pixels" across tiles),
//! and keeps matching deterministic.

#![warn(missing_docs)]

pub mod bovw;
pub mod dense;
pub mod descriptor;
pub mod filters;
pub mod image;
pub mod keypoints;

pub use bovw::Vocabulary;
pub use dense::{dense_descriptors, dense_descriptors_on};
pub use descriptor::{
    describe_keypoints_on, describe_patch, describe_patch_on, Descriptor, GradientField,
    WeightTables, DESCRIPTOR_DIM,
};
pub use image::GrayImage;
pub use keypoints::{detect_keypoints, DetectorParams, Keypoint};
