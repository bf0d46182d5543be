//! `sdqbench`: the service-stack benchmark of the Semandaq reproduction.
//!
//! Four workloads drive the program the way its users do — three through
//! the TCP service, one through the paper's load → detect → audit →
//! repair session — and report end-to-end metrics with tracing off. A
//! second, traced run unrolls the stack from each crate's public
//! functions and reports where the time goes, layer by layer. See the
//! README beside this crate for every name.

#![warn(missing_docs)]

pub mod json;
pub mod layers;
pub mod ledger;
pub mod oracle;
pub mod report;
pub mod script;
pub mod spans;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod workloads;
