//! # fstore-stream
//!
//! Streaming features (paper §2.2.1): raw events flow in ordered roughly by
//! event time, user-supplied aggregation functions run over per-entity time
//! windows, and finalized window values are **dual-written** — persisted to
//! the online store for serving and logged to the offline store for
//! training — exactly the pipeline the paper describes for streaming
//! features. Watermarks bound out-of-orderness; events later than the
//! allowed lateness are counted and dropped, never silently merged into a
//! closed window.

#![warn(unreachable_pub)]

mod aggregator;
mod event;
mod pipeline;
mod runtime;
mod window;

pub use aggregator::{StreamAggregator, WindowEmit};
pub use event::Event;
pub use pipeline::{StreamPipeline, StreamPipelineReport};
pub use runtime::StreamRuntime;
pub use window::WindowSpec;
