//! # vgprs-bench — experiment scenarios and harness
//!
//! The library half of the benchmark crate: every figure/claim of the
//! paper is reproduced by a function in [`scenarios`] or [`experiments`],
//! shared by the `harness` binary, the workspace integration tests and
//! the `benchmark/` micro timings so that all three observe identical
//! systems. The ladder figures and their worlds are
//! `vgprs_core::figures`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod experiments;
pub mod harness;
pub mod scenarios;
