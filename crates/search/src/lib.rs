#![warn(missing_docs)]

//! # recloud-search
//!
//! Proactive search for a reliable deployment plan (§3.3) — "this ability
//! is completely missing in the state-of-the-art INDaaS system".
//!
//! * [`annealing`] — the 6-step simulated-annealing search of §3.3.1, with
//!   the paper's specially-designed acceptance probability: the log-ratio
//!   reliability difference Δ = |log((1−R_n)/(1−R_c))| (Eq 5) and the
//!   wall-clock-normalized temperature t = (T_max − T_elapsed)/T_max
//!   (Eq 6). The classic absolute-Δ and geometric-cooling settings are
//!   retained behind [`schedule`] switches for the ablation benches.
//! * [`holdout`] — how a search answers: its chains' best plans re-ranked
//!   on a held-out validation table, the winner scored once more on a
//!   report table.
//! * [`transform`] — the network-transformations equivalence check of
//!   Step 3: a *sound* sufficient test that a neighbor move landed on a
//!   symmetric host (same failure-probability class, aligned power and
//!   switch environment), in which case re-assessment is skipped.
//! * [`objective`] — multi-objective optimization (§3.3.3): the holistic
//!   measure M = a·reliability + b·utility (Eq 7), with host-workload
//!   utility as in §4.2.2.
//! * [`common_practice`] — the §4.2.2 baselines: vanilla common practice
//!   (least-loaded hosts, one per rack) and the enhanced variant (top-5
//!   non-repeating plans, pick the most power-diverse).

pub mod annealing;
pub mod common_practice;
pub mod holdout;
pub mod objective;
pub mod parallel;
pub mod schedule;
pub mod transform;

pub use annealing::{SearchConfig, SearchOutcome, SearchStats, Searcher, TrajectoryPoint};
pub use common_practice::{common_practice, enhanced_common_practice};
pub use objective::{HolisticObjective, LatencyObjective, Objective, ReliabilityObjective};
pub use parallel::{ChainEvent, ParallelOutcome, ParallelSearchConfig, ParallelSearcher};
pub use schedule::{DeltaRule, SearchBudget, TemperatureSchedule};
pub use transform::SymmetryChecker;
