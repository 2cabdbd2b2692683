//! # fstore-monitor
//!
//! Model monitoring and maintenance (paper §2.2.3 for tabular features,
//! §3.1.3 for embeddings):
//!
//! * [`drift`] — reference-vs-live drift detection. Tabular detectors (KS,
//!   PSI) and embedding-aware detectors (mean-cosine shift,
//!   MMD) live side by side because E10's point is that the former are
//!   blind to semantic drift;
//! * `mmd` — maximum mean discrepancy with an RBF kernel;
//! * `skew` — training/serving skew: the offline distribution a model was
//!   trained on vs the live values the online store is serving;
//! * [`slices`] — fine-grained subpopulation analysis (Robustness-Gym
//!   style): user-defined slice functions plus automatic slice discovery;
//! * `patch` — acting on what monitoring finds: targeted augmentation,
//!   slice reweighting, and **embedding
//!   patching** (fix the embedding once, every downstream consumer heals —
//!   the paper's product-consistency argument).

#![warn(unreachable_pub)]

pub mod drift;
mod mmd;
mod patch;
mod skew;
pub mod slices;

pub use drift::{DriftAlert, DriftMonitor, DriftReport, EmbeddingDriftMonitor};
pub use patch::{augment_slice, reweight_slice, EmbeddingPatcher};
pub use skew::{skew_report, SkewReport};
pub use slices::SliceMetrics;
