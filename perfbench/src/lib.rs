//! `perfbench`: the repository's end-to-end and per-layer benchmark of the
//! landmark routing pipeline (build, engine, repair, verify, serve).  See
//! `README.md` in this directory for the metric dictionary.

pub mod counting;
pub mod metrics;
pub mod pipeline;
pub mod reference;
pub mod report;
pub mod sys;
