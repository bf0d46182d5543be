//! # semandaq-core — the assembled Semandaq system
//!
//! Wires the six components of the paper's architecture (Fig. 1) into one
//! facade over the [`minidb`] substrate:
//!
//! * [`engine::ConstraintEngine`] — CFD registration with a consistency
//!   gate, relational tableau storage, minimal-cover reduction;
//! * [`server::QualityServer`] — error detection (SQL / native /
//!   columnar), auditing (report + quality map), exploration hooks,
//!   cleansing, constraint discovery;
//! * [`monitor::DataMonitor`] — incremental detection or
//!   repair-on-arrival under an update stream.
//!
//! ```
//! use datagen::dirty_customers;
//! use semandaq_core::{QualityServer, ServerConfig};
//!
//! let d = dirty_customers(100, 0.05, 1);
//! let mut server = QualityServer::new(d.db, "customer").unwrap();
//! server.register_cfds(datagen::customer::CANONICAL_CFDS).unwrap();
//! let report = server.detect().unwrap();
//! assert!(!report.is_empty());
//! let repair = server.repair().unwrap();
//! assert!(repair.residual.is_empty());
//! assert!(server.detect().unwrap().is_empty());
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod monitor;
pub mod server;

pub use engine::ConstraintEngine;
pub use monitor::{DataMonitor, MonitorMode, Update, UpdateOutcome};
pub use server::{DetectorKind, QualityServer, ServerConfig};
