//! MapReduce-style parallel assessment (§3.2.1, §4.2.4).
//!
//! "A master node distributes portions of rounds to worker nodes. Each
//! worker node performs the route-and-check for the assigned rounds. The
//! master node then gathers the results from each worker node to compute
//! the overall reliability score."
//!
//! This engine reproduces that structure in-process: the master lays out
//! one [`ChunkTask`] per chunk, workers — scoped threads sharing the plan
//! by reference — build their own assessment context (sampler, state
//! matrices, router — the §4.2.4 "context setup"), claim chunks through
//! one atomic index, run them, and answer with `(chunk, rounds,
//! successes)` results on an `mpsc` channel that the master reduces. Results cross as typed values: the paper's
//! "serialization/transmission/deserialization" cost belongs to a
//! network this engine does not have, and modelling it with a byte codec
//! measured 131 ns per chunk against chunks of 0.1–10 ms (EXPERIMENTS.md,
//! Fig 12).
//!
//! Chunk seeds are derived exactly as in the serial [`Assessor`], so a
//! parallel assessment returns **bit-identical** scores to the serial one
//! regardless of worker count or scheduling — the property the
//! equivalence tests pin down.

use crate::assessor::{Assessment, Assessor, BatchWidth, SamplerKind, Timings};
use crate::check::StructureChecker;
use crate::driver::{AssessmentDriver, ChunkTask};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_faults::FaultModel;
use recloud_sampling::ResultAccumulator;
use recloud_topology::Topology;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// Master/worker assessment engine.
pub struct ParallelAssessor {
    topology: Topology,
    model: FaultModel,
    kind: SamplerKind,
    workers: usize,
    /// The model's chunk width: the serial engine's, so both cut a round
    /// count into the same chunks.
    chunk_rounds: usize,
    /// Kernel lane width of every worker engine: 256-lane wide by default;
    /// the scalar reference exists for equivalence tests and benchmarking.
    /// Chunks are lane-width aligned (the serial engine's layout), so full
    /// chunks decompose into whole wide words on every worker.
    width: BatchWidth,
}

impl ParallelAssessor {
    /// Creates an engine with `workers` worker nodes (threads).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(topology: &Topology, model: FaultModel, workers: usize) -> Self {
        Self::with_sampler(topology, model, workers, SamplerKind::ExtendedDagger)
    }

    /// Creates an engine with an explicit sampler choice.
    pub fn with_sampler(
        topology: &Topology,
        model: FaultModel,
        workers: usize,
        kind: SamplerKind,
    ) -> Self {
        assert!(workers >= 1, "need at least one worker");
        ParallelAssessor {
            topology: topology.clone(),
            chunk_rounds: Assessor::chunking_of(&model).1,
            model,
            kind,
            workers,
            width: BatchWidth::Wide256,
        }
    }

    /// Selects the kernel lane width of every worker engine. Both widths
    /// produce bit-identical assessments.
    pub fn set_width(&mut self, width: BatchWidth) {
        self.width = width;
    }

    /// Assesses a plan over `rounds` rounds, distributing chunks over the
    /// workers. Deterministic per seed and identical to the serial result.
    pub fn assess(
        &self,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        rounds: usize,
        seed: u64,
    ) -> Assessment {
        assert!(rounds > 0, "cannot assess over zero rounds");
        let t0 = Instant::now();

        // Chunk layout and seeding must match the serial engine's, so the
        // master runs the same AssessmentDriver every other path uses —
        // its task hand-out becomes the fan-out.
        let layout = Assessor::layout(self.chunk_rounds, rounds);
        let mut driver = AssessmentDriver::new(layout, seed, None);
        let tasks: Vec<ChunkTask> = std::iter::from_fn(|| driver.next_task()).collect();
        let (tasks, next) = (&tasks, &AtomicUsize::new(0));

        let (result_tx, result_rx) = mpsc::channel::<(u32, u64, u64)>();
        thread::scope(|scope| {
            for _ in 0..self.workers {
                let result_tx = result_tx.clone();
                scope.spawn(move || {
                    // One engine per worker: its router is built once here
                    // and its table slot on the first chunk, both reused for
                    // every chunk the worker claims, so steady-state workers
                    // allocate nothing. The model clone copies the
                    // probabilities only; the trees are the master's, shared.
                    let mut engine =
                        Assessor::with_sampler(&self.topology, self.model.clone(), self.kind);
                    engine.set_width(self.width);
                    let mut checker = StructureChecker::new(spec, plan);
                    while let Some(task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let mut local = ResultAccumulator::new();
                        engine.run_chunk(&mut checker, task.seed, task.rounds, &mut local);
                        result_tx
                            .send((task.chunk, local.rounds(), local.successes()))
                            .expect("result channel open");
                    }
                });
            }
        });
        drop(result_tx);
        // Master-side reduce. All workers have joined, so every result is
        // queued; chunk arrival order is irrelevant because the driver's
        // estimate is a pure function of the accumulated totals.
        while !driver.is_complete() {
            let (chunk, rounds, successes) =
                result_rx.recv().expect("every chunk produces a result");
            driver.feed(chunk, rounds, successes);
        }
        // The master's wall clock (what Fig 12 plots).
        Assessment {
            estimate: driver.estimate(),
            timings: Timings { total: t0.elapsed() },
            sampler: self.kind.name(),
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_apps::ApplicationSpec;
    use recloud_sampling::Rng;
    use recloud_topology::FatTreeParams;
    use std::time::Duration;

    fn setup() -> (Topology, FaultModel, ApplicationSpec, DeploymentPlan) {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::paper_default(&t, 3);
        let spec = ApplicationSpec::k_of_n(2, 4);
        let mut rng = Rng::new(8);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        (t, model, spec, plan)
    }

    #[test]
    fn parallel_equals_serial_exactly() {
        let (t, model, spec, plan) = setup();
        let serial = Assessor::new(&t, model.clone()).assess(&spec, &plan, 12_000, 77);
        for workers in [1, 2, 4] {
            let par = ParallelAssessor::new(&t, model.clone(), workers);
            let r = par.assess(&spec, &plan, 12_000, 77);
            assert_eq!(
                (r.estimate.successes, r.estimate.rounds),
                (serial.estimate.successes, serial.estimate.rounds),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn batched_parallel_equals_scalar_serial() {
        let (t, model, spec, plan) = setup();
        let mut scalar = Assessor::new(&t, model.clone());
        scalar.set_width(BatchWidth::Scalar);
        let reference = scalar.assess(&spec, &plan, 9_000, 13);
        for workers in [1, 2, 4] {
            let par = ParallelAssessor::new(&t, model.clone(), workers);
            let r = par.assess(&spec, &plan, 9_000, 13);
            assert_eq!(
                (r.estimate.successes, r.estimate.rounds),
                (reference.estimate.successes, reference.estimate.rounds),
                "workers={workers}"
            );
        }
        // And the explicit scalar parallel path matches too.
        let mut par = ParallelAssessor::new(&t, model, 2);
        par.set_width(BatchWidth::Scalar);
        let r = par.assess(&spec, &plan, 9_000, 13);
        assert_eq!(r.estimate.successes, reference.estimate.successes);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (t, model, spec, plan) = setup();
        let a = ParallelAssessor::new(&t, model.clone(), 2).assess(&spec, &plan, 8_000, 5);
        let b = ParallelAssessor::new(&t, model, 3).assess(&spec, &plan, 8_000, 5);
        assert_eq!(a.estimate.successes, b.estimate.successes);
    }

    #[test]
    fn monte_carlo_parallel_also_deterministic() {
        let (t, model, spec, plan) = setup();
        let a = ParallelAssessor::with_sampler(&t, model.clone(), 2, SamplerKind::MonteCarlo)
            .assess(&spec, &plan, 6_000, 9);
        let b = Assessor::with_sampler(&t, model, SamplerKind::MonteCarlo)
            .assess(&spec, &plan, 6_000, 9);
        assert_eq!(a.estimate.successes, b.estimate.successes);
        assert_eq!(a.sampler, "monte-carlo");
    }

    #[test]
    fn timings_total_is_wall_clock() {
        let (t, model, spec, plan) = setup();
        let r = ParallelAssessor::new(&t, model, 4).assess(&spec, &plan, 10_000, 1);
        assert!(r.timings.total > Duration::ZERO);
        assert_eq!(r.estimate.rounds, 10_000);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let (t, model, _, _) = setup();
        ParallelAssessor::new(&t, model, 0);
    }
}
