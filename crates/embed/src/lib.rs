//! # fstore-embed
//!
//! The embedding ecosystem (paper §3): everything a feature store needs to
//! treat pretrained embeddings as first-class citizens.
//!
//! * [`store`] — named, versioned embedding tables with provenance and
//!   consumer lineage (the "embedding store" of §3.1.2 / §4).
//! * `corpus` — synthetic self-supervised training data with controllable
//!   popularity skew, topic structure, and a typed knowledge graph
//!   (substitute for the paper's web-scale corpora; see DESIGN.md).
//! * [`sgns`] — skip-gram with negative sampling, the canonical
//!   self-supervised embedding trainer.
//! * [`kg`] — knowledge-graph-augmented SGNS (Bootleg-style type/relation
//!   signals, §3.1.1).
//! * `compress` — scalar quantization and PCA (the memory-budget knobs of
//!   Leszczynski/May's instability & compression studies).
//! * `quality` — embedding quality metrics: k-NN overlap between versions,
//!   the eigenspace overlap score, semantic displacement after Procrustes
//!   alignment (§3.1.2).
//! * `align` — orthogonal-Procrustes version alignment, which keeps
//!   deployed models working across embedding updates (§4's dot-product
//!   staleness problem).
//! * `eig` — the small dense symmetric-eigen / SVD kernels those metrics
//!   need.

// Index-based loops are clearer than iterator chains in the dense
// numeric kernels below; silence the style lint crate-wide.
#![allow(clippy::needless_range_loop)]
#![warn(unreachable_pub)]

mod align;
mod compress;
mod corpus;
mod db;
mod eig;
pub mod kg;
mod quality;
pub mod sgns;
mod spill;
pub mod store;

pub use align::{align_to_reference, AlignmentReport};
pub use compress::{PcaModel, QuantizedTable};
pub use corpus::{Corpus, CorpusConfig, KnowledgeGraph};
pub use db::EmbeddingDb;
pub use kg::KgSgnsConfig;
pub use quality::{eigenspace_overlap, knn_overlap, semantic_displacement};
pub use sgns::SgnsConfig;
pub use spill::VectorPager;
pub use store::{EmbeddingProvenance, EmbeddingStore, EmbeddingTable, EmbeddingVersion};
