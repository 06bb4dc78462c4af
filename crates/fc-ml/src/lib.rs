//! # fc-ml — machine-learning substrate (LibSVM substitute)
//!
//! The paper's phase classifier is "a multi-class SVM classifier with a
//! RBF kernel … implemented using the LibSVM Java Library" (§4.2.2). This
//! crate provides that substrate from scratch:
//!
//! * [`Kernel`] — linear and RBF kernels;
//! * [`BinarySvm`] — soft-margin SVM trained with the SMO algorithm
//!   (Platt's simplified variant with full index sweeps);
//! * [`SvmClassifier`] — one-vs-one multi-class voting, LibSVM's scheme;
//! * [`Scaler`] — min-max feature scaling to `[-1, 1]` (svm-scale);
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding, used by the
//!   bag-of-visual-words signature pipeline in `fc-vision`;
//! * `eval` — confusion matrices, leave-one-out-by-group
//!   cross-validation (§5.4: "the models were trained on the trace data
//!   of the other 17 out of 18 participants"), and ordinary least squares
//!   for the paper's Fig. 12 accuracy↔latency fit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod eval;
mod kernel;
mod kmeans;
mod scale;
mod svm;

pub use eval::{accuracy, leave_one_group_out, linreg, mean, std_dev, ConfusionMatrix, LinReg};
pub use kernel::Kernel;
pub use kmeans::KMeans;
pub use scale::Scaler;
pub use svm::{BinarySvm, SvmClassifier, SvmParams};
