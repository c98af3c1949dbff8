#![warn(missing_docs)]

//! # reCloud — reliable application deployment in the cloud
//!
//! A from-scratch Rust implementation of the CoNEXT '17 reCloud system:
//! quantitative reliability assessment of cloud deployment plans with
//! rigorous error bounds, and proactive search for plans that meet a
//! developer's reliability requirements — aware of the correlated
//! failures that shared dependencies (power, cooling, software) inject.
//!
//! ## Quick start
//!
//! The §2.2 service, through the engine every front door (the `recloud`
//! CLI and the daemon) uses: an [`assess::Engine`] holds a topology's
//! fault model under a seed, [`assess::engine::check_fits`] refuses an app
//! the data center cannot host, and [`search::ParallelSearcher`] anneals
//! for a plan.
//!
//! ```
//! use recloud::assess::engine::check_fits;
//! use recloud::prelude::*;
//!
//! // A small data center: fat-tree with a dedicated border pod and the
//! // paper's five shared power supplies.
//! let topology = FatTreeParams::new(8).build();
//!
//! // The paper's fault model: switches ~ N(0.008, 0.001), everything
//! // else ~ N(0.01, 0.001), plus power-supply dependency fault trees.
//! let seed = 42;
//! let mut engine = Engine::new(&topology, seed, SamplerKind::ExtendedDagger);
//!
//! // Deploy 5 instances, require 4 alive, give the search 40 plans of
//! // 1,000 rounds each.
//! let spec = ApplicationSpec::k_of_n(4, 5);
//! check_fits(engine.topology(), &spec).unwrap();
//! let config = ParallelSearchConfig::new(1, SearchConfig::iterations(40, 1_000, seed));
//! let searcher = ParallelSearcher::new(&topology, engine.at(seed).model().clone());
//! let outcome = searcher.search(&spec, &ReliabilityObjective, &config, None, None).best;
//! println!(
//!     "deployed with reliability {:.4} (± {:.4})",
//!     outcome.best_reliability,
//!     outcome.best_ciw95 / 2.0
//! );
//! assert!(outcome.best_reliability > 0.9);
//! ```
//!
//! ## Crate map
//!
//! | Concern | Crate |
//! |---|---|
//! | Topologies (fat-tree/leaf-spine/Jellyfish/builder) | `recloud-topology` |
//! | Failure probabilities, fault trees, correlated deps | `recloud-faults` |
//! | Monte-Carlo & extended dagger sampling, error bounds | `recloud-sampling` |
//! | Route-and-check (analytic fat-tree, valley-free, BFS) | `recloud-routing` |
//! | Application specs, plans, workload, placement rules | `recloud-apps` |
//! | Assessment pipeline, parallel engine, ground truth | `recloud-assess` |
//! | Annealing search, symmetry, multi-objective, baselines | `recloud-search` |
//!
//! This crate re-exports the sub-crates and a [`prelude`].

pub mod prelude;

// Re-export the sub-crates wholesale for power users.
pub use recloud_apps as apps;
pub use recloud_assess as assess;
pub use recloud_faults as faults;
pub use recloud_routing as routing;
pub use recloud_sampling as sampling;
pub use recloud_search as search;
pub use recloud_topology as topology;
