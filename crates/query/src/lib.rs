//! # fstore-query
//!
//! The feature definition language (paper §2.2.1, "feature authoring and
//! publishing"). Users author features as SQL-style scalar expressions over
//! a source table; the registry stores the *text* (provenance) and this
//! crate compiles it into a typed, schema-bound program the materializer
//! evaluates per row. Aggregate functions live here too and are shared with
//! the streaming layer's window aggregators.
//!
//! ```
//! use fstore_common::{Schema, Value, ValueType};
//! use fstore_query::Program;
//!
//! let schema = Schema::of(&[("fare", ValueType::Float), ("surge", ValueType::Float)]);
//! let p = Program::compile("clip(fare * coalesce(surge, 1.0), 0.0, 100.0)", &schema).unwrap();
//! let v = p.eval(&[Value::Float(30.0), Value::Null]).unwrap();
//! assert_eq!(v, Value::Float(30.0));
//! ```

#![warn(unreachable_pub)]

mod agg;
mod ast;
mod eval;
mod lexer;
mod parser;
mod program;
mod types;

pub use agg::{AggAccumulator, AggFunc, MomentsOut};
pub use program::Program;
