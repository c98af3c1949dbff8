//! MapReduce-style parallel assessment (§3.2.1, §4.2.4).
//!
//! "A master node distributes portions of rounds to worker nodes. Each
//! worker node performs the route-and-check for the assigned rounds. The
//! master node then gathers the results from each worker node to compute
//! the overall reliability score."
//!
//! This engine reproduces that structure in-process: the master encodes a
//! [`crate::wire::JobFrame`] (the plan under test) and per-chunk
//! [`crate::wire::TaskFrame`]s, workers decode them, build their own
//! assessment context (sampler, state matrices, router — the §4.2.4
//! "context setup"), run the chunks, and answer with encoded
//! [`crate::wire::ResultFrame`]s that the master reduces. All frames cross
//! in-repo MPMC channels ([`recloud_sampling::sync`]) as raw bytes,
//! standing in for the paper's network transport.
//!
//! Chunk seeds are derived exactly as in the serial [`Assessor`], so a
//! parallel assessment returns **bit-identical** scores to the serial one
//! regardless of worker count or scheduling — the property the
//! equivalence tests pin down.

use crate::assessor::{Assessment, Assessor, BatchWidth, SamplerKind, Timings};
use crate::check::StructureChecker;
use crate::driver::AssessmentDriver;
use crate::wire::{JobFrame, ResultFrame, TaskFrame};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_faults::FaultModel;
use recloud_sampling::sync::{channel, scoped_workers};
use recloud_sampling::wire::Bytes;
use recloud_sampling::ResultAccumulator;
use recloud_topology::{ComponentId, Topology};
use std::time::{Duration, Instant};

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
    /// the narrower paths exist for equivalence tests and benchmarking.
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

    /// Selects the batched (wide) or scalar route-and-check path in every
    /// worker engine. Both produce bit-identical assessments.
    pub fn set_batched(&mut self, batched: bool) {
        self.width = if batched { BatchWidth::Wide256 } else { BatchWidth::Scalar };
    }

    /// Selects an explicit kernel lane width for every worker engine.
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

        // The master serializes the job once; every worker gets a copy of
        // the bytes, exactly as a network fan-out would.
        let job = JobFrame {
            rounds_total: rounds as u64,
            assignments: (0..spec.num_components())
                .map(|c| plan.hosts_of(c).iter().map(|h| h.0).collect())
                .collect(),
        }
        .encode();

        // Chunk layout and seeding must match the serial engine's, so the
        // master runs the same AssessmentDriver every other path uses —
        // its task hand-out becomes the wire-encoded fan-out.
        let layout = Assessor::layout(self.chunk_rounds, rounds);
        let mut driver = AssessmentDriver::new(layout, seed, None);

        let (task_tx, task_rx) = channel::<Bytes>();
        let (result_tx, result_rx) = channel::<Bytes>();
        while let Some(task) = driver.next_task() {
            let frame =
                TaskFrame { chunk: task.chunk, seed: task.seed, rounds: task.rounds as u32 };
            task_tx.send(frame.encode()).expect("task channel open");
        }
        drop(task_tx); // workers drain until empty
        scoped_workers(self.workers, |_worker_id| {
            // Worker-side job setup: deserialize the plan and build the
            // full assessment context. Each worker decodes its own copy of
            // the job bytes, exactly as a remote node would.
            let job = JobFrame::decode(job.clone()).expect("master sent a valid job frame");
            let assignments: Vec<Vec<ComponentId>> = job
                .assignments
                .iter()
                .map(|c| c.iter().map(|&h| ComponentId(h)).collect())
                .collect();
            let plan = DeploymentPlan::new(spec, assignments);
            // One engine per worker: its router is built once here and
            // its table slot on the first chunk, both reused for every
            // chunk the worker drains, so steady-state workers allocate
            // nothing. The model clone copies the probabilities only; the
            // trees are the master's, shared.
            let mut engine = Assessor::with_sampler(&self.topology, self.model.clone(), self.kind);
            engine.set_width(self.width);
            let mut checker = StructureChecker::new(spec, &plan);
            while let Ok(task) = task_rx.recv() {
                let task = TaskFrame::decode(task).expect("master sent a valid task");
                let mut local = ResultAccumulator::new();
                let t = engine.run_chunk(&mut checker, task.seed, task.rounds as usize, &mut local);
                let frame = ResultFrame {
                    chunk: task.chunk,
                    rounds: local.rounds(),
                    successes: local.successes(),
                    sampling_ns: t.sampling.as_nanos() as u64,
                    collapse_ns: t.collapse.as_nanos() as u64,
                    check_ns: t.check.as_nanos() as u64,
                    total_ns: t.total.as_nanos() as u64,
                };
                result_tx.send(frame.encode()).expect("result channel open");
            }
        });
        drop(result_tx);
        // Master-side reduce: decoded result frames feed the shared
        // driver. All workers have joined, so every result frame is
        // queued; chunk arrival order is irrelevant because the driver's
        // estimate is a pure function of the accumulated totals.
        while !driver.is_complete() {
            let frame = result_rx.recv().expect("every chunk produces a result");
            let r = ResultFrame::decode(frame).expect("workers send valid results");
            let timings = Timings {
                sampling: Duration::from_nanos(r.sampling_ns),
                collapse: Duration::from_nanos(r.collapse_ns),
                check: Duration::from_nanos(r.check_ns),
                total: Duration::from_nanos(r.total_ns),
            };
            driver.feed(r.chunk, r.rounds, r.successes, &timings);
        }
        // Stage timings are summed CPU time across workers; `total` is the
        // master's wall clock (what Fig 12 plots).
        driver.set_total(t0.elapsed());
        Assessment {
            estimate: driver.estimate(),
            timings: driver.timings(),
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
        scalar.set_batched(false);
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
        par.set_batched(false);
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
