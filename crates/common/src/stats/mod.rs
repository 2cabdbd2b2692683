//! Statistics primitives shared by feature-quality metrics (E4) and drift
//! monitors (E10): streaming moments, histograms, quantile sketches,
//! two-sample tests, correlation, and mutual information.

pub(crate) mod corr;
pub(crate) mod histogram;
pub(crate) mod mi;
pub(crate) mod moments;
pub(crate) mod quantile;
pub(crate) mod two_sample;

pub use corr::{pearson, spearman};
pub use histogram::Histogram;
pub use mi::{discretize_equal_width, normalized_mutual_information, DiscretizeSpec};
pub use moments::OnlineMoments;
pub use quantile::{exact_quantile, P2Quantile};
pub use two_sample::{ks_p_value, ks_statistic, population_stability_index};
