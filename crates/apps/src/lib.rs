#![warn(missing_docs)]

//! # recloud-apps
//!
//! Application model for the reCloud reproduction.
//!
//! Developers describe *what* they need deployed; reCloud decides *where*.
//! This crate owns the "what" and the representation of the "where":
//!
//! * [`spec`] — application structures: plain K-of-N redundancy (§2.2),
//!   multi-layer applications and microservice meshes with per-component
//!   instance counts `N_Ci` and per-edge reachability requirements
//!   `K_{Ci,Cj}` (§3.2.4, Fig 6);
//! * [`plan`] — deployment plans (which host runs which instance), their
//!   validation, random generation and the neighbor move used by the
//!   simulated-annealing search (§3.3.1 Step 3);
//! * [`workload`] — per-host workload (the §4.2.2 utility input,
//!   N(0.2, 0.05)) with near-real-time update support;
//! * [`rules`] — placement heuristics ("no two instances in the same
//!   rack/pod") and capacity constraints used both by reCloud's search and
//!   by the common-practice baseline.

pub mod plan;
pub mod rules;
pub mod spec;
pub mod workload;

pub use plan::DeploymentPlan;
pub use rules::PlacementRules;
pub use spec::{ApplicationSpec, CompIdx, Connectivity, Source};
pub use workload::WorkloadMap;
