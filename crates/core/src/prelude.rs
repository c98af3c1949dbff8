//! One-stop imports for typical reCloud usage.
//!
//! ```
//! use recloud::prelude::*;
//! ```

pub use recloud_apps::{ApplicationSpec, DeploymentPlan, PlacementRules, Source, WorkloadMap};
pub use recloud_assess::{
    compare_plans, Assessment, Assessor, Engine, ParallelAssessor, SamplerKind,
};
pub use recloud_faults::{
    BathtubCurve, FaultInjector, FaultModel, FaultTree, FaultTreeBuilder, ProbabilityConfig,
};
pub use recloud_sampling::{
    ExtendedDaggerSampler, MonteCarloSampler, ReliabilityEstimate, Rng, Sampler,
};
pub use recloud_search::{
    common_practice, enhanced_common_practice, DeltaRule, HolisticObjective, LatencyObjective,
    Objective, ParallelSearchConfig, ParallelSearcher, ReliabilityObjective, SearchBudget,
    SearchConfig, SearchOutcome, Searcher, TemperatureSchedule,
};
pub use recloud_topology::{
    BCubeParams, ComponentId, ComponentKind, FatTreeParams, JellyfishParams, LeafSpineParams,
    Scale, Topology, TopologyBuilder, Vl2Params,
};
