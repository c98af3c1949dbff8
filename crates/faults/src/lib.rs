#![warn(missing_docs)]

//! # recloud-faults
//!
//! Fault-model substrate for the reCloud reproduction.
//!
//! The paper's fault model (§2.1) has three ingredients, all owned here:
//!
//! 1. **Per-component failure probabilities** — measured in reality as
//!    `downtime / window`, synthesized here from the paper's §4.1 setting
//!    (switches ~ N(0.008, 0.001), everything else ~ N(0.01, 0.001),
//!    rounded to 4 decimals) — [`probability`]. A bathtub-curve lifetime
//!    model covers the paper's note that probabilities vary over a
//!    component's life — [`bathtub`].
//! 2. **Fault trees over shared dependencies** (§3.2.3, Fig 5): OR/AND/
//!    K-of-N gates over basic events; multiple hosts' trees connect by
//!    referencing the same basic events — [`tree`].
//! 3. **The assembled [`FaultModel`]** — probabilities + dependency trees +
//!    auxiliary (non-topology) components such as shared OS images; it
//!    collapses raw sampled states into *effective* per-node states a
//!    row at a time, keeping each distinct tree once — [`model`].
//!
//! A FIFL-style fault injector for tests and what-if analyses lives in
//! [`injection`].

pub mod bathtub;
pub mod injection;
pub mod model;
pub mod probability;
pub mod trace;
pub mod tree;

pub use bathtub::BathtubCurve;
pub use injection::FaultInjector;
pub use model::FaultModel;
pub use probability::ProbabilityConfig;
pub use trace::DowntimeLog;
pub use tree::{FaultTree, FaultTreeBuilder};
