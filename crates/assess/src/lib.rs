#![warn(missing_docs)]

//! # recloud-assess
//!
//! Quantitative reliability assessment of deployment plans — the pipeline
//! of §3.2, end to end:
//!
//! 1. generate failure states for every sampled event over many rounds
//!    (extended dagger sampling for reCloud, Monte-Carlo for the INDaaS
//!    baseline) — from `recloud-sampling`;
//! 2. fold shared-dependency fault trees into effective per-component
//!    states (§3.2.3) — from `recloud-faults`;
//! 3. route-and-check each round (§3.2.1, Figs 2 & 6): K-of-N counting for
//!    simple apps, a greatest-fixpoint cascade over the requirement graph
//!    for complex structures (§3.2.4) — [`check`];
//! 4. accumulate into a reliability score with conservative variance and
//!    the 95% confidence-interval width (Eqs 1–3).
//!
//! [`assessor::Assessor`] is the single-threaded engine, and
//! [`engine::Engine`] the seed-keyed one every front door builds;
//! [`parallel::ParallelAssessor`] is the MapReduce-style master/worker
//! engine of §3.2.1/§4.2.4, with typed tasks and results crossing in-repo
//! channels. [`ground_truth`] computes *exact* reliabilities for
//! small models by weighted exhaustive enumeration, which the test suite
//! uses to validate both samplers and the error bounds.

pub mod assessor;
pub mod check;
pub mod compare;
pub mod driver;
pub mod engine;
pub mod fingerprint;
pub mod ground_truth;
pub mod parallel;
pub mod sensitivity;
mod table;

pub use assessor::{Assessment, Assessor, BatchWidth, DrivenAssessment, SamplerKind, Timings};
pub use check::StructureChecker;
pub use compare::{compare_plans, Comparison, RankedPlan};
pub use driver::{AssessmentDriver, ChunkTask, PartialEstimate};
pub use engine::Engine;
pub use fingerprint::{assessment_key, fnv1a_128};
pub use ground_truth::exact_reliability;
pub use parallel::ParallelAssessor;
pub use sensitivity::{dependency_sensitivity, SensitivityReport, SensitivityRow};
