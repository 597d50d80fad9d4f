//! # routecheck
//!
//! Static verification of built routing schemes.
//!
//! A deterministic routing function restricted to one destination `d` is a
//! *functional graph* over `(vertex, header)` states: each state forwards to
//! exactly one successor or delivers.  That makes total-delivery a decidable
//! property — no traffic simulation, no sampling.  This crate walks those
//! state chains for every `(source, dest)` pair and classifies each as
//! [`SourceClass::Proven`], [`SourceClass::Livelock`],
//! [`SourceClass::DeadPort`], [`SourceClass::HeaderOverflow`],
//! [`SourceClass::WrongDelivery`], or [`SourceClass::Unreachable`] (no live
//! path exists, so the pair is excluded from the verdict).
//!
//! The sweep is exact, deterministic, and parallel: chunks of destinations
//! go to workers through `graphkit::par::ordered_fold`, per-worker
//! [`Checker`] scratch keeps the hot path allocation-free, and the fold is
//! in destination order so results are bit-identical for every thread count.
//!
//! On top of the sweep, [`verify_instance`] combines the per-scheme
//! structural table audits (`SchemeInstance::audit`) with the all-pairs walk
//! into a [`SchemeSoundness`] verdict, and [`Soundness`] renders a run over
//! many schemes as a table or JSON with stable snake_case machine codes.
//!
//! The checker is itself checked: the mutation harness in
//! `routeschemes::mutate` corrupts single table entries or single port
//! decisions of real instances, and the test suite pins that every seeded
//! mutation is flagged with a concrete counterexample pair.

#![forbid(unsafe_code)]

pub mod check;
pub mod report;

pub use check::{
    check_routing, CheckReport, Checker, ClassCounts, Counterexample, DestReport, SourceClass,
};
pub use report::{verify_instance, SchemeSoundness, Soundness, Verdict};

#[cfg(test)]
mod tests;
