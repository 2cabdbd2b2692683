//! # fstore-bench
//!
//! The experiment harness (DESIGN.md §3). The paper is a tutorial with no
//! evaluation tables, so this crate regenerates the **derived experiment
//! suite E1–E23** — one experiment per concrete claim/metric the paper
//! surveys. Speed claims are not made here: they are `perfbench/` runs.
//!
//! * `cargo run -p fstore-bench --release --bin experiments` — run all
//!   experiments and print their tables (EXPERIMENTS.md quotes this output).
//! * `cargo run -p fstore-bench --release --bin experiments -- --quick` —
//!   smaller parameters, same shapes.
//! * `cargo run -p fstore-bench --release --bin experiments -- e5 e9` —
//!   run a subset.
//!
//! E14–E23 also write a JSON artifact each to `experiment-artifacts/`
//! beside the binary (see [`experiments::write_artifact`]).

// Index-based loops are clearer than iterator chains in the dense
// numeric kernels below; silence the style lint crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod experiments;
pub mod table;
pub mod workloads;

pub use table::Table;
