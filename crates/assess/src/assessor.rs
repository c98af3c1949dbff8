//! The single-threaded assessment engine.
//!
//! [`Assessor`] wires the full §3.2 pipeline together and reports, besides
//! the reliability estimate, its wall clock — the quantity behind Figures
//! 10 and 11 (evolve+assess time per plan). The per-stage split is sampled
//! into the `assess.{sampling,collapse,check}_us` histograms: every 16th
//! chunk an engine runs, and every chunk under a trace span, reads the
//! clock at its stage boundaries; the others read none.
//!
//! Rounds are processed in chunks aligned to the extended-dagger
//! macro-cycle; the same chunk layout is used by the parallel engine so
//! serial and parallel assessments are bit-identical. Per chunk there is
//! one path: materialise whichever rows of the plan's cone the engine's
//! [`FailureTable`] is missing — everything on a fresh seed, a few rows
//! when a search neighbour touches a new host, nothing on a repeat — then
//! route-and-check. Each part costs what the plan changed: only the hosts
//! a slot has not seen complete are named and checked, and the router
//! derives reach only for those ([`Router::external_reach_keyed`]).

use crate::check::StructureChecker;
use crate::driver::{AssessmentDriver, PartialEstimate};
use crate::table::{FailureTable, RowSource};
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_faults::{FaultInjector, FaultModel};
use recloud_obs::{Counter, Gauge, Histogram, SpanCtx};
use recloud_routing::{make_router, MemoStats, Router, TableKey};
use recloud_sampling::{
    BitMatrix, ExtendedDaggerSampler, MonteCarloSampler, ReliabilityEstimate, ResultAccumulator,
    Sampler, WideWord,
};
use recloud_topology::{ComponentId, Topology};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which failure-state generator to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerKind {
    /// Extended dagger sampling (§3.2.2) — reCloud's engine.
    ExtendedDagger,
    /// Monte-Carlo sampling (§3.2.1) — the INDaaS baseline.
    MonteCarlo,
}

impl SamplerKind {
    /// Sampler name as reported in assessments.
    pub fn name(self) -> &'static str {
        match self {
            SamplerKind::ExtendedDagger => "dagger",
            SamplerKind::MonteCarlo => "monte-carlo",
        }
    }

    /// Runs `f` with this kind's sampler for `seed`. Both samplers are a
    /// bare seed, so building one per chunk on the stack is free.
    fn with_sampler<R>(self, seed: u64, f: impl FnOnce(&mut dyn Sampler) -> R) -> R {
        match self {
            SamplerKind::ExtendedDagger => f(&mut ExtendedDaggerSampler::seeded(seed)),
            SamplerKind::MonteCarlo => f(&mut MonteCarloSampler::seeded(seed)),
        }
    }
}

/// Lane width of the route-and-check kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchWidth {
    /// One round per operation — the reference path the wide kernel is
    /// proven bit-identical to.
    Scalar,
    /// 256 rounds per operation through the wide Router API (the default).
    Wide256,
}

/// Wall clock of one assessment. The stage split is sampled into the
/// registry's stage histograms instead (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timings {
    /// End-to-end, including scratch management.
    pub total: Duration,
}

/// A chunk's stages are timed on every `STAGE_SAMPLE`th chunk an engine
/// runs (and on every chunk under a trace span); the rest read no clock.
const STAGE_SAMPLE: u64 = 16;

/// Stage boundaries of one chunk: each lap reads the clock when the chunk
/// is timed, and is zero without a read when it is not.
pub(crate) struct StageClock(Option<Instant>);

impl StageClock {
    fn start(timed: bool) -> Self {
        StageClock(timed.then(Instant::now))
    }

    /// Time since the start or the last lap.
    pub(crate) fn lap(&mut self) -> Duration {
        let Some(last) = self.0 else { return Duration::ZERO };
        let now = Instant::now();
        self.0 = Some(now);
        now - last
    }
}

/// The result of assessing one deployment plan.
#[derive(Clone, Copy, Debug)]
pub struct Assessment {
    /// Reliability score with conservative variance (Eqs 1–2); call
    /// [`ReliabilityEstimate::ciw95`] for the Eq 3 error bound.
    pub estimate: ReliabilityEstimate,
    /// Wall clock.
    pub timings: Timings,
    /// Which sampler produced the states.
    pub sampler: &'static str,
}

/// Result of [`Assessor::drive`]: the assessment over however many
/// rounds actually ran, plus whether the full layout was executed.
#[derive(Clone, Copy, Debug)]
pub struct DrivenAssessment {
    /// The assessment over the rounds executed (all of them when
    /// `completed`, a prefix when the drive stopped early).
    pub assessment: Assessment,
    /// True when every chunk in the layout ran; false after an early
    /// stop (target CIW reached or the partial callback broke).
    pub completed: bool,
}

/// Reusable assessment engine for one (topology, fault model) pair.
///
/// Construction builds the router; the failure-state table grows one slot
/// per chunk on first use (up to its bound) and is reused from then on,
/// as are the plan checker and the chunk driver, so assessing N plans of
/// one shape performs no further allocation.
pub struct Assessor {
    topology: Topology,
    model: FaultModel,
    kind: SamplerKind,
    router: Box<dyn Router + Send>,
    /// Macro-cycle of the model's probability vector.
    s_max: usize,
    /// The failure-state table: per chunk, the rows materialised so far
    /// for the slot's seed. The table does not depend on the plan
    /// (§3.2.1), so plans assessed on one seed — a common-random-number
    /// search (§3.3) — share it, each adding only the rows its cone is
    /// the first to name. Its chunk width is the macro-cycle rounded up to
    /// the kernel lane width (256), identical for serial and parallel
    /// execution.
    table: FailureTable,
    /// The router's cone of no hosts: the rows it reads whatever the plan.
    base_cone: Vec<ComponentId>,
    /// Scratch: the plan's hosts whose cone the chunk's slot does not know
    /// to be complete; the cone last named (their rows beyond the base
    /// cone) and the hosts it was named for — the chunks of one assessment
    /// mostly miss the same hosts.
    missing: Vec<ComponentId>,
    cone: Vec<ComponentId>,
    named: Vec<ComponentId>,
    /// The checker and the driver of the last [`Assessor::drive`], kept for
    /// the next one to run in.
    checker: Option<StructureChecker>,
    driver: Option<AssessmentDriver>,
    /// Counts of the chunks run since they were last published.
    tally: Tally,
    /// Chunks run by this engine: which ones time their stages.
    chunks_run: u64,
    /// Optional fault injection applied to every sampled row before
    /// fault-tree collapsing — forced failures flow through the full
    /// correlated-failure path (what-if analyses, sensitivity reports).
    injector: Option<FaultInjector>,
    /// Route-and-check lane width: 256 lanes by default, with the scalar
    /// reference kept selectable — both are bit-identical; the scalar one
    /// exists for equivalence tests and width-vs-width benchmarking.
    width: BatchWidth,
    /// Cached global-registry instrument handles.
    obs: AssessInstruments,
}

/// What chunks count as they run; published to the registry once per
/// assessment, or per chunk run on its own ([`Assessor::publish`]).
#[derive(Default)]
struct Tally {
    /// Table rows materialised.
    rows: u64,
    /// Host-cone rows named to the table (0 while every host's cone is
    /// known complete).
    named_rows: u64,
    /// Slots re-keyed from another chunk's rows.
    evictions: u64,
    /// The router's counts when last published.
    memo: MemoStats,
}

/// Cached handles into the process-wide [`recloud_obs::global()`]
/// registry. Registration happens once per engine (here); the record
/// calls are lock- and allocation-free. The rounds counter lives in the
/// [`AssessmentDriver`], which every path feeds. Rounds-per-second is
/// derived by readers as `assess.rounds_total / (assess.total_us.sum /
/// 1e6)`.
struct AssessInstruments {
    /// Stage times (µs) of the timed chunks: sampling and collapse only
    /// when a row was missing, route-and-check always.
    sampling_us: Arc<Histogram>,
    collapse_us: Arc<Histogram>,
    check_us: Arc<Histogram>,
    /// Per-assessment end-to-end time (µs).
    total_us: Arc<Histogram>,
    /// Completed assessments.
    assessments_total: Arc<Counter>,
    /// Bytes of materialised table rows of the newest engine.
    cache_bytes: Arc<Gauge>,
    /// Bytes the newest engine's table and its router's memo have written.
    arena_bytes: Arc<Gauge>,
    /// Bytes of the newest engine's fault model: its numbers plus the
    /// structure it shares with its clones. With `arena_bytes`, what an
    /// engine keeps.
    model_bytes: Arc<Gauge>,
    /// Table rows sampled (component rows + dependency-event rows).
    rows_materialised: Arc<Counter>,
    /// Plan-independent digests the router derived from table rows
    /// ([`Router::memo_stats`]). Flat while a search runs on a held
    /// table; climbing with it means the table is being re-keyed.
    digests_built: Arc<Counter>,
    /// Per-host reach rows the router derived. About one per slot per
    /// step of a search on a held table; one per host per slot when
    /// consecutive plans share nothing.
    reach_rows_built: Arc<Counter>,
    /// Slots the table holds, and slots re-keyed from another chunk's
    /// rows because a request had more chunks than the table has slots.
    table_slots: Arc<Gauge>,
    slot_evictions: Arc<Counter>,
    /// Host-cone rows a request (or a chunk run on its own) named to the
    /// table, the base cone aside: on a fresh seed its hosts' whole cones,
    /// on a held table its new hosts', 0 when it has none.
    cone_rows: Arc<Histogram>,
    /// Model swaps ([`Assessor::reseed`]) and what each took (µs): with
    /// the queue wait and the first chunk's `assess.total_us`, the parts
    /// of a served first estimate on a seed the engine did not hold.
    reseeds_total: Arc<Counter>,
    reseed_us: Arc<Histogram>,
}

impl AssessInstruments {
    fn from_global() -> Self {
        let registry = recloud_obs::global();
        AssessInstruments {
            sampling_us: registry.histogram("assess.sampling_us"),
            collapse_us: registry.histogram("assess.collapse_us"),
            check_us: registry.histogram("assess.check_us"),
            total_us: registry.histogram("assess.total_us"),
            assessments_total: registry.counter("assess.assessments_total"),
            cache_bytes: registry.gauge("assess.cache_bytes"),
            arena_bytes: registry.gauge("assess.arena_bytes"),
            model_bytes: registry.gauge("assess.model_bytes"),
            rows_materialised: registry.counter("assess.rows_materialised_total"),
            digests_built: registry.counter("assess.digests_built_total"),
            reach_rows_built: registry.counter("assess.reach_rows_built_total"),
            table_slots: registry.gauge("assess.table_slots"),
            slot_evictions: registry.counter("assess.slot_evictions_total"),
            cone_rows: registry.histogram("assess.cone_rows"),
            reseeds_total: registry.counter("assess.reseeds_total"),
            reseed_us: registry.histogram("assess.reseed_us"),
        }
    }

    /// A timed chunk's stages, and its `assess.chunk` span (`v0` = rounds,
    /// `v1` = chunk index) under `span`.
    fn record_stages(
        &self,
        sampling: Duration,
        collapse: Duration,
        check: Duration,
        span: Option<SpanCtx>,
        (rounds, chunk): (usize, usize),
    ) {
        for (histogram, d) in [(&self.sampling_us, sampling), (&self.collapse_us, collapse)] {
            if d > Duration::ZERO {
                histogram.record(d.as_micros() as u64);
            }
        }
        self.check_us.record(check.as_micros() as u64);
        if let Some(ctx) = span {
            let end_us = recloud_obs::trace::now_us();
            let start_us = end_us.saturating_sub((sampling + collapse + check).as_micros() as u64);
            let tracer = recloud_obs::tracer();
            tracer.record(
                ctx.trace_id,
                ctx.span,
                "assess.chunk",
                start_us,
                end_us,
                rounds as u64,
                chunk as u64,
            );
        }
    }

    fn set_model_bytes(&self, model: &FaultModel) {
        let numbers = std::mem::size_of_val(model.probs());
        self.model_bytes.set((numbers + model.structure_bytes()) as i64);
    }
}

impl Assessor {
    /// Target chunk size in rounds before alignment, chosen so chunks
    /// remain numerous enough for 4-way parallel speedup at 10⁴ rounds.
    /// The actual chunk width rounds this up to a dagger macro-cycle
    /// multiple and then to the kernel lane width (256), so full chunks
    /// decompose into whole wide words; extended-dagger truncation at
    /// chunk boundaries is bias-free, so the extra lane-alignment rounds
    /// are statistically harmless.
    const TARGET_CHUNK: usize = 2_500;

    /// The chunk width for a macro-cycle: macro-cycle aligned, then
    /// lane-width aligned.
    fn chunk_width(s_max: usize) -> usize {
        (Self::TARGET_CHUNK.div_ceil(s_max) * s_max).next_multiple_of(WideWord::LANES)
    }

    /// What a model's numbers fix about an engine: the macro-cycle of its
    /// probability vector and the chunk width that follows from it.
    pub(crate) fn chunking_of(model: &FaultModel) -> (usize, usize) {
        let s_max = ExtendedDaggerSampler::macro_cycle(model.probs());
        (s_max, Self::chunk_width(s_max))
    }

    /// Creates a dagger-based assessor (reCloud's default).
    pub fn new(topology: &Topology, model: FaultModel) -> Self {
        Self::with_sampler(topology, model, SamplerKind::ExtendedDagger)
    }

    /// Creates an assessor with an explicit sampler choice.
    pub fn with_sampler(topology: &Topology, model: FaultModel, kind: SamplerKind) -> Self {
        let (s_max, chunk_rounds) = Self::chunking_of(&model);
        let router = make_router(topology);
        let obs = AssessInstruments::from_global();
        obs.set_model_bytes(&model);
        Assessor {
            topology: topology.clone(),
            model,
            kind,
            base_cone: Self::base_cone_of(router.as_ref(), topology),
            router,
            s_max,
            table: FailureTable::new(chunk_rounds),
            missing: Vec::new(),
            cone: Vec::new(),
            named: Vec::new(),
            checker: None,
            driver: None,
            tally: Tally::default(),
            chunks_run: 0,
            injector: None,
            width: BatchWidth::Wide256,
            obs,
        }
    }

    fn base_cone_of(router: &dyn Router, topology: &Topology) -> Vec<ComponentId> {
        let mut base = Vec::new();
        router.cone(topology.num_components(), &mut std::iter::empty(), &mut base);
        base
    }

    /// Installs (or clears) a fault injector applied to every sampled
    /// row. Invalidates the table.
    pub fn set_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
        self.table.invalidate(&self.model, self.table.chunk_rounds());
    }

    /// Replaces the router [`make_router`] picked — for leveled fabrics
    /// served by [`recloud_routing::UpDownRouter`], and for checking one
    /// router against another. The table is router-independent and its
    /// rows stay; what does not carry over are the notes that the *old*
    /// router's cones are in place, since the new one's may be wider.
    pub fn set_router(&mut self, router: Box<dyn Router + Send>) {
        self.publish(); // the old router's counts, while it can be asked
        self.base_cone = Self::base_cone_of(router.as_ref(), &self.topology);
        self.table.recheck_cones();
        self.named.clear();
        self.tally.memo = router.memo_stats();
        self.router = router;
    }

    /// Replaces the fault model, keeping the topology, router and — when
    /// the new model has the same shape — the table's allocations.
    ///
    /// This is what lets a long-running server reuse one engine across
    /// requests with different model seeds: router construction (the
    /// expensive part at large scales) happens once per (topology, worker),
    /// while each reseed only swaps probability tables — the caller clones
    /// [`Assessor::model`] (the structure is shared, the clone copies the
    /// numbers), [`FaultModel::redraw`]s it and hands it back here.
    /// Assessments after a reseed are bit-identical to a freshly
    /// constructed engine with the same model; every table row is
    /// invalidated because it was sampled under the previous model.
    ///
    /// # Panics
    /// Panics if `model` was built for a different topology (component
    /// count mismatch).
    pub fn reseed(&mut self, model: FaultModel) {
        assert_eq!(
            model.num_topology_components(),
            self.topology.num_components(),
            "model was built for a different topology"
        );
        let t0 = Instant::now();
        let (s_max, chunk_rounds) = Self::chunking_of(&model);
        self.s_max = s_max;
        self.table.invalidate(&model, chunk_rounds);
        self.obs.set_model_bytes(&model);
        self.model = model;
        self.obs.reseeds_total.inc();
        self.obs.reseed_us.record(t0.elapsed().as_micros() as u64);
    }

    /// Selects the kernel lane width: the wide (256-rounds-per-operation)
    /// route-and-check path or the scalar reference. Both produce
    /// bit-identical assessments; the scalar path exists for equivalence
    /// tests and benchmarking.
    pub fn set_width(&mut self, width: BatchWidth) {
        self.width = width;
    }

    /// The active kernel lane width.
    pub fn width(&self) -> BatchWidth {
        self.width
    }

    /// Bytes the failure-state table has written — per slot (one per chunk
    /// index ever assessed, up to the table's bound) its rows up to the
    /// most it has held, its poison rows and its indexes — plus what the
    /// router keeps about it ([`Router::memo_stats`]). What the engine
    /// keeps resident for its table; storage a slot reserved and never
    /// wrote is not counted. Exported as the `assess.arena_bytes` gauge.
    pub fn arena_bytes(&self) -> usize {
        self.table.written_bytes() + self.router.memo_stats().bytes
    }

    /// Bytes of the table rows materialised for the current seed — what a
    /// repeat assessment on that seed reuses. Searches assess thousands of
    /// plans against one table; this keeps that footprint observable so it
    /// cannot silently balloon.
    pub fn cache_bytes(&self) -> usize {
        self.table.valid_bytes()
    }

    /// Routes and checks the first `rounds` columns of `table` — the table
    /// slot `key` names — feeding verdicts into `acc`, in the scalar and
    /// the batched flavors.
    fn route_and_check(
        router: &mut dyn Router,
        width: BatchWidth,
        checker: &mut StructureChecker,
        table: &BitMatrix,
        key: TableKey,
        rounds: usize,
        acc: &mut ResultAccumulator,
    ) {
        match width {
            BatchWidth::Wide256 => checker.chunk_reliable(router, table, key, rounds, acc),
            BatchWidth::Scalar => {
                for round in 0..rounds {
                    router.begin_round(table, round);
                    let ok = checker.round_reliable(router, table, round);
                    acc.push(ok);
                }
            }
        }
    }

    /// The chunk layout for a round count: (chunk index, rounds in chunk).
    /// Shared with the parallel engine so results are execution-identical.
    pub fn chunk_layout(&self, rounds: usize) -> Vec<(u32, usize)> {
        Self::layout(self.table.chunk_rounds(), rounds)
    }

    /// `rounds` rounds cut into chunks of `chunk_rounds` (a model's
    /// [`Assessor::chunking_of`] width), the last one short.
    pub(crate) fn layout(chunk_rounds: usize, rounds: usize) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        Self::layout_into(chunk_rounds, rounds, &mut out);
        out
    }

    /// [`Assessor::layout`] into a vector the caller already has.
    pub(crate) fn layout_into(chunk_rounds: usize, rounds: usize, out: &mut Vec<(u32, usize)>) {
        out.clear();
        out.reserve(rounds.div_ceil(chunk_rounds));
        let mut remaining = rounds;
        let mut idx = 0u32;
        while remaining > 0 {
            let n = remaining.min(chunk_rounds);
            out.push((idx, n));
            remaining -= n;
            idx += 1;
        }
    }

    /// Derives the per-chunk sampler seed from the master seed; chunk
    /// streams are independent, so any chunk-to-worker mapping yields the
    /// same result list. Delegates to the system-wide
    /// [`recloud_sampling::derive_seed`] rule (chunk index as the stream).
    pub fn chunk_seed(master_seed: u64, chunk: u32) -> u64 {
        recloud_sampling::derive_seed(master_seed, chunk as u64)
    }

    /// The fault model in use.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs one chunk of rounds, feeding verdicts into `acc`. Exposed for
    /// the parallel engine's workers, which see chunks of many seeds in
    /// any order: the chunk is keyed by its seed alone, in table slot 0.
    pub fn run_chunk(
        &mut self,
        checker: &mut StructureChecker,
        chunk_seed: u64,
        rounds: usize,
        acc: &mut ResultAccumulator,
    ) {
        self.chunk(0, checker, chunk_seed, rounds, acc);
        self.publish();
    }

    /// The one per-chunk path: key chunk `chunk`'s table slot, materialise
    /// what the cones of the plan's not-yet-complete hosts are missing
    /// there — sampling each row for the chunk's own `rounds`, not the
    /// table width — then route-and-check. A timed chunk (see
    /// [`STAGE_SAMPLE`]) reads the clock once per stage boundary, twice or
    /// four times, records its stages and, under a trace span, an
    /// `assess.chunk` span; any other reads no clock.
    fn chunk(
        &mut self,
        chunk: usize,
        checker: &mut StructureChecker,
        chunk_seed: u64,
        rounds: usize,
        acc: &mut ResultAccumulator,
    ) {
        let span = recloud_obs::current_span();
        let mut clock =
            StageClock::start(span.is_some() || self.chunks_run.is_multiple_of(STAGE_SAMPLE));
        self.chunks_run += 1;
        let Assessor { table, missing, cone, named, base_cone, model, injector, s_max, .. } = self;
        let (slot, evicted) = table.key(chunk, chunk_seed, rounds, model);
        self.tally.evictions += evicted as u64;
        missing.clear();
        missing.extend(checker.hosts().filter(|&h| !table.cone_valid(slot, h)));
        if !missing.is_empty() && named != missing {
            cone.clear();
            let components = self.topology.num_components();
            self.router.cone(components, &mut missing.iter().copied(), cone);
            named.clone_from(missing);
            self.tally.named_rows += cone.len() as u64;
        }
        let rows = if missing.is_empty() { &[] } else { &cone[..] };
        let lap = &mut clock;
        let m = self.kind.with_sampler(chunk_seed, move |sampler| {
            let src = RowSource { sampler, model, s_max: *s_max, injector: injector.as_ref() };
            table.materialise(slot, (base_cone, rows, missing), &src, lap)
        });
        self.tally.rows += m.rows as u64;

        let router = self.router.as_mut();
        Self::route_and_check(router, self.width, checker, m.states, m.key, rounds, acc);
        if clock.0.is_some() {
            let (sampling, collapse, check) = (m.sampling, m.collapse, clock.lap());
            self.obs.record_stages(sampling, collapse, check, span, (rounds, chunk));
        }
    }

    /// Publishes what the chunks since the last call counted — rows named
    /// and materialised, evictions, the router's digests — into the
    /// registry.
    fn publish(&mut self) {
        let add = |counter: &Counter, n: u64| {
            if n > 0 {
                counter.add(n);
            }
        };
        let memo = self.router.memo_stats();
        self.obs.cone_rows.record(std::mem::take(&mut self.tally.named_rows));
        add(&self.obs.rows_materialised, std::mem::take(&mut self.tally.rows));
        add(&self.obs.slot_evictions, std::mem::take(&mut self.tally.evictions));
        add(&self.obs.digests_built, memo.digests_built - self.tally.memo.digests_built);
        add(&self.obs.reach_rows_built, memo.reach_rows_built - self.tally.memo.reach_rows_built);
        self.tally.memo = memo;
    }

    /// Assesses one deployment plan over `rounds` route-and-check rounds
    /// (§4.1 default: 10⁴). Deterministic for a given seed, whatever the
    /// engine assessed before.
    ///
    /// Repeated calls with the same `seed` reuse the rows already in the
    /// table (it is plan-independent), paying only for rows the new plan
    /// is the first to read plus the route-and-check — the fast path of
    /// common-random-number searches.
    ///
    /// Thin consumer of [`Assessor::drive`]: runs the full layout with no
    /// stopping rule.
    pub fn assess(
        &mut self,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        rounds: usize,
        seed: u64,
    ) -> Assessment {
        self.drive(spec, plan, rounds, seed, None, &mut |_| ControlFlow::Continue(())).assessment
    }

    /// Runs the [`AssessmentDriver`] over `rounds`, executing chunks
    /// serially and yielding a [`PartialEstimate`] to `on_partial` after
    /// every chunk. The drive stops early when the callback breaks or when
    /// `target_ciw` is reached (the driver's `stop_hint`); the returned
    /// assessment then covers exactly the rounds executed so far and
    /// `completed` is false. The rows an early-stopped drive materialised
    /// stay valid for a follow-up on the same seed.
    ///
    /// # Panics
    /// Panics if `rounds` is zero.
    pub fn drive(
        &mut self,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        rounds: usize,
        seed: u64,
        target_ciw: Option<f64>,
        on_partial: &mut dyn FnMut(&PartialEstimate) -> ControlFlow<()>,
    ) -> DrivenAssessment {
        assert!(rounds > 0, "cannot assess over zero rounds");
        let mut checker = self.checker.take().unwrap_or_else(|| StructureChecker::new(spec, plan));
        checker.retarget(spec, plan);
        let mut driver =
            self.driver.take().unwrap_or_else(|| AssessmentDriver::new(Vec::new(), 0, None));
        driver.restart(self.table.chunk_rounds(), rounds, seed, target_ciw);
        let t0 = Instant::now();
        while let Some(task) = driver.next_task() {
            let mut local = ResultAccumulator::new();
            self.chunk(task.chunk as usize, &mut checker, task.seed, task.rounds, &mut local);
            let partial = driver.feed(task.chunk, local.rounds(), local.successes());
            let flow = on_partial(&partial);
            if partial.stop_hint || flow.is_break() {
                break;
            }
        }
        let timings = Timings { total: t0.elapsed() };
        driver.flush();
        self.obs.total_us.record(timings.total.as_micros() as u64);
        self.obs.assessments_total.inc();
        // The footprint moves only with materialised rows: a re-keyed slot
        // always materialises its base cone.
        if self.tally.rows > 0 {
            self.obs.cache_bytes.set(self.cache_bytes() as i64);
            self.obs.arena_bytes.set(self.arena_bytes() as i64);
            self.obs.table_slots.set(self.table.slots() as i64);
        }
        self.publish();
        let driven = DrivenAssessment {
            assessment: Assessment {
                estimate: driver.estimate(),
                timings,
                sampler: self.kind.name(),
            },
            completed: driver.is_complete(),
        };
        (self.checker, self.driver) = (Some(checker), Some(driver));
        driven
    }

    /// Measures pure full-width failure-state generation over `rounds`
    /// rounds — the Figure 7 microbenchmark (no collapsing, no routing).
    pub fn sampling_time(&mut self, rounds: usize, seed: u64) -> Duration {
        let mut raw = BitMatrix::new(self.model.num_events(), self.table.chunk_rounds());
        let t0 = Instant::now();
        for (chunk, _n) in self.chunk_layout(rounds) {
            self.kind.with_sampler(Self::chunk_seed(seed, chunk), |sampler| {
                sampler.sample_into(self.model.probs(), &mut raw)
            });
        }
        t0.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_faults::{FaultTree, ProbabilityConfig};
    use recloud_sampling::Rng;
    use recloud_topology::FatTreeParams;

    fn setup(kind: SamplerKind) -> (Topology, Assessor, ApplicationSpec) {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::paper_default(&t, 11);
        let a = Assessor::with_sampler(&t, model, kind);
        (t, a, ApplicationSpec::k_of_n(1, 2))
    }

    #[test]
    fn deterministic_per_seed() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(5);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r1 = a.assess(&spec, &plan, 3_000, 42);
        let r2 = a.assess(&spec, &plan, 3_000, 42);
        assert_eq!(r1.estimate.score, r2.estimate.score);
        let r3 = a.assess(&spec, &plan, 3_000, 43);
        // Different seed: almost surely a (slightly) different score.
        assert_ne!(
            (r1.estimate.successes, r1.estimate.rounds),
            (r3.estimate.successes + 1, 0),
            "sanity"
        );
    }

    #[test]
    fn dagger_and_monte_carlo_agree_statistically() {
        let (t, mut dagger, spec) = setup(SamplerKind::ExtendedDagger);
        let model = FaultModel::paper_default(&t, 11);
        let mut mc = Assessor::with_sampler(&t, model, SamplerKind::MonteCarlo);
        let mut rng = Rng::new(7);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let rd = dagger.assess(&spec, &plan, 40_000, 1);
        let rm = mc.assess(&spec, &plan, 40_000, 1);
        let gap = (rd.estimate.score - rm.estimate.score).abs();
        let bound = rd.estimate.ciw95() + rm.estimate.ciw95();
        assert!(gap <= bound.max(0.005), "gap {gap} exceeds bound {bound}");
        assert_eq!(rd.sampler, "dagger");
        assert_eq!(rm.sampler, "monte-carlo");
    }

    #[test]
    fn all_reliable_when_nothing_fails() {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.0), 0);
        let mut a = Assessor::new(&t, model);
        let spec = ApplicationSpec::k_of_n(2, 2);
        let mut rng = Rng::new(2);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r = a.assess(&spec, &plan, 500, 0);
        assert_eq!(r.estimate.score, 1.0);
        assert_eq!(r.estimate.ciw95(), 0.0);
    }

    #[test]
    fn all_unreliable_when_hosts_always_fail() {
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::new(
            &t,
            &ProbabilityConfig::PerKind {
                table: vec![(recloud_topology::ComponentKind::Host, 1.0)],
                default: 0.0,
            },
            0,
        );
        let mut a = Assessor::new(&t, model);
        let spec = ApplicationSpec::k_of_n(1, 3);
        let mut rng = Rng::new(3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r = a.assess(&spec, &plan, 300, 0);
        assert_eq!(r.estimate.score, 0.0);
    }

    #[test]
    fn chunk_layout_covers_rounds_exactly() {
        let (_t, a, _spec) = setup(SamplerKind::ExtendedDagger);
        for rounds in [1usize, 100, 2_500, 10_000, 99_999] {
            let layout = a.chunk_layout(rounds);
            let total: usize = layout.iter().map(|(_, n)| n).sum();
            assert_eq!(total, rounds);
            for (i, (idx, n)) in layout.iter().enumerate() {
                assert_eq!(*idx as usize, i);
                assert!(*n > 0);
            }
        }
    }

    #[test]
    fn chunk_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..64).map(|c| Assessor::chunk_seed(99, c)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn power_dependency_lowers_reliability() {
        // The same plan must score strictly lower with power trees than
        // with the trees stripped, because power adds correlated failures.
        let t = FatTreeParams::new(4).build();
        let with = FaultModel::paper_default(&t, 11);
        let without = FaultModel::new(&t, &ProbabilityConfig::PaperDefault, 11);
        let spec = ApplicationSpec::k_of_n(2, 2);
        let mut rng = Rng::new(4);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let r_with = Assessor::new(&t, with).assess(&spec, &plan, 30_000, 5);
        let r_without = Assessor::new(&t, without).assess(&spec, &plan, 30_000, 5);
        assert!(
            r_with.estimate.score < r_without.estimate.score,
            "correlated failures must hurt: {} vs {}",
            r_with.estimate.score,
            r_without.estimate.score
        );
    }

    #[test]
    fn cache_supports_shorter_followup_requests() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let full = a.assess(&spec, &plan, 9_000, 5);
        let prefix = a.assess(&spec, &plan, 4_000, 5);
        // The shorter run is a prefix of the longer one's result list.
        assert!(prefix.estimate.successes <= full.estimate.successes);
        assert_eq!(prefix.estimate.rounds, 4_000);
    }

    /// The tentpole invariant: both kernel lane widths — scalar and
    /// 256-lane — produce bit-identical assessments (same successes, same
    /// rounds) across specs (simple and complex) and word/wide-boundary
    /// round counts, on a fresh seed and on rows already in the table.
    #[test]
    fn batched_equals_scalar_bit_for_bit() {
        let t = FatTreeParams::new(4).build();
        let specs = [
            ApplicationSpec::k_of_n(1, 2),
            ApplicationSpec::k_of_n(3, 5),
            ApplicationSpec::layered(&[(2, 3), (1, 2)]),
        ];
        for (si, spec) in specs.iter().enumerate() {
            let mut rng = Rng::new(40 + si as u64);
            let plan = DeploymentPlan::random(spec, t.hosts(), &mut rng);
            for rounds in [63usize, 64, 65, 255, 256, 257, 2_500, 2_563] {
                let model = FaultModel::paper_default(&t, 11);
                let mut scalar = Assessor::new(&t, model.clone());
                scalar.set_width(BatchWidth::Scalar);
                let mut wide = Assessor::new(&t, model);
                assert_eq!(wide.width(), BatchWidth::Wide256);
                let rs = scalar.assess(spec, &plan, rounds, 9);
                let rb = wide.assess(spec, &plan, rounds, 9);
                assert_eq!(
                    (rs.estimate.successes, rs.estimate.rounds),
                    (rb.estimate.successes, rb.estimate.rounds),
                    "spec {si} rounds {rounds} fresh"
                );
                // Second assess with the same seed: no row is missing.
                let rs2 = scalar.assess(spec, &plan, rounds, 9);
                let rb2 = wide.assess(spec, &plan, rounds, 9);
                assert_eq!(rs2.estimate.successes, rb2.estimate.successes);
                assert_eq!(rb.estimate.successes, rb2.estimate.successes);
            }
        }
    }

    /// Batched and scalar must also agree under a generic (non-wide-native)
    /// router, where the screened round-major fallback carries the load.
    #[test]
    fn batched_equals_scalar_on_generic_router() {
        let t = recloud_topology::LeafSpineParams::new(3, 4, 3).border_spines(2).build();
        let model = FaultModel::paper_default(&t, 7);
        let spec = ApplicationSpec::k_of_n(2, 4);
        let mut rng = Rng::new(15);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let mut scalar = Assessor::new(&t, model.clone());
        scalar.set_width(BatchWidth::Scalar);
        let mut batched = Assessor::new(&t, model);
        for rounds in [65usize, 4_000] {
            let rs = scalar.assess(&spec, &plan, rounds, 3);
            let rb = batched.assess(&spec, &plan, rounds, 3);
            assert_eq!(
                (rs.estimate.successes, rs.estimate.rounds),
                (rb.estimate.successes, rb.estimate.rounds),
                "rounds {rounds}"
            );
        }
    }

    /// A plan whose instances sit on the given `(pod, edge, slot)` hosts.
    fn plan_on(t: &Topology, spec: &ApplicationSpec, at: &[(u32, u32, u32)]) -> DeploymentPlan {
        let m = t.fat_tree().unwrap();
        DeploymentPlan::new(spec, vec![at.iter().map(|&(p, e, s)| m.host(p, e, s)).collect()])
    }

    /// Rows a cone costs: its components plus the supplies they draw from.
    fn rows_of(t: &Topology, components: &[ComponentId]) -> usize {
        let mut supplies: Vec<_> = components.iter().filter_map(|&c| t.power_of(c)).collect();
        supplies.sort_unstable();
        supplies.dedup();
        components.len() + supplies.len()
    }

    #[test]
    fn cache_bytes_accounts_materialised_rows() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        assert_eq!(a.cache_bytes(), 0, "nothing materialised before the first assessment");
        assert_eq!(a.arena_bytes(), 0, "slots are allocated on first use");
        let m = *t.fat_tree().unwrap();
        // Two hosts under one edge switch: the cone is the top of the
        // fabric plus one host pod's worth of one rack.
        let plan = plan_on(&t, &spec, &[(0, 0, 0), (0, 0, 1)]);
        let mut cone: Vec<ComponentId> =
            (0..2).flat_map(|g| [m.core(g, 0), m.core(g, 1)]).collect();
        cone.extend([m.border(0), m.border(1), m.host(0, 0, 0), m.host(0, 0, 1), m.edge(0, 0)]);
        cone.extend([m.agg(0, 0), m.agg(0, 1)]);
        let rounds = 6_000;
        a.assess(&spec, &plan, rounds, 5);
        // k=4 fat-tree, chunk = 2560 rounds = 40 words a row, 3 chunks.
        assert_eq!(a.chunk_layout(rounds).len(), 3);
        let first = rows_of(&t, &cone);
        assert!(first < t.num_components() / 2, "{first} rows of {}", t.num_components());
        assert_eq!(a.cache_bytes(), 3 * first * 40 * 8);
        // The same plan again adds nothing; a neighbour in another pod
        // adds its host, edge switch and pod aggs (and their supplies).
        a.assess(&spec, &plan, rounds, 5);
        assert_eq!(a.cache_bytes(), 3 * first * 40 * 8);
        a.assess(&spec, &plan_on(&t, &spec, &[(0, 0, 0), (1, 1, 0)]), rounds, 5);
        cone.extend([m.host(1, 1, 0), m.edge(1, 1), m.agg(1, 0), m.agg(1, 1)]);
        assert_eq!(a.cache_bytes(), 3 * rows_of(&t, &cone) * 40 * 8);
        // What the table has written is the rows it holds (plus a poison
        // row and an index per matrix), not the 36 component rows + 5
        // supply rows per slot it has room for.
        let written = a.arena_bytes();
        let full = 3 * (36 + 5) * 40 * 8 + a.router.memo_stats().bytes;
        assert!(written < full, "{written} of {full}");
        a.set_injector(None); // invalidates the table; what it wrote stays
        assert_eq!(a.cache_bytes(), 0);
        assert_eq!(a.arena_bytes(), written);
    }

    /// The router's memo is part of the engine's footprint, and its two
    /// counts tell a held table from a re-keyed one: plan-independent
    /// digests — per wide word one border row, built once, and one
    /// `pod_ext` per pod — stand still while plans come and go on one
    /// generation; host reach rows are built as hosts enter, one per slot.
    /// Both count what is built, not what is answered.
    #[test]
    fn held_table_builds_no_digests_and_arena_bytes_include_the_memo() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let before = recloud_obs::global().snapshot();
        let rounds = 6_000usize; // 3 chunks of 10 wide words, the last one short
        let (chunks, wides) = (3, rounds.div_ceil(WideWord::LANES) as u64);
        a.assess(&spec, &plan_on(&t, &spec, &[(0, 0, 0), (0, 1, 1)]), rounds, 5);
        let first = a.router.memo_stats();
        assert_eq!(first.digests_built, wides * 2, "per wide word: the border row and pod 0");
        assert_eq!(first.reach_rows_built, chunks * 2, "per slot: two hosts");
        assert!(first.bytes > 0);
        assert_eq!(a.arena_bytes(), a.table.written_bytes() + first.bytes);
        // The same plan again: everything is served from the memo.
        a.assess(&spec, &plan_on(&t, &spec, &[(0, 0, 0), (0, 1, 1)]), rounds, 5);
        assert_eq!(a.router.memo_stats(), first);
        // Same pod, one host moved: its row per slot, and no digest.
        a.assess(&spec, &plan_on(&t, &spec, &[(0, 0, 0), (0, 0, 1)]), rounds, 5);
        let moved = a.router.memo_stats();
        assert_eq!(moved.digests_built, first.digests_built);
        assert_eq!(moved.reach_rows_built, first.reach_rows_built + chunks);
        // A new pod adds its digest per wide word (the border row is kept,
        // not derived again) and its host's rows; a new seed re-keys and
        // rebuilds everything the plan reads. Bytes stand still throughout.
        a.assess(&spec, &plan_on(&t, &spec, &[(0, 0, 0), (2, 0, 0)]), rounds, 5);
        let new_pod = a.router.memo_stats();
        assert_eq!(new_pod.digests_built, moved.digests_built + wides);
        assert_eq!(new_pod.reach_rows_built, moved.reach_rows_built + chunks);
        a.assess(&spec, &plan_on(&t, &spec, &[(0, 0, 0), (2, 0, 0)]), rounds, 6);
        let rekeyed = a.router.memo_stats();
        assert_eq!(rekeyed.digests_built, new_pod.digests_built + 3 * wides);
        assert_eq!(rekeyed.reach_rows_built, new_pod.reach_rows_built + chunks * 2);
        assert_eq!(rekeyed.bytes, first.bytes, "the memo is sized by the plan, once");
        let after = recloud_obs::global().snapshot();
        let counted =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        let digests = counted("assess.digests_built_total");
        assert!(digests >= rekeyed.digests_built, "counter saw {digests} digests");
        let rows = counted("assess.reach_rows_built_total");
        assert!(rows >= rekeyed.reach_rows_built, "counter saw {rows} reach rows");
    }

    /// What the router keeps is sized by the plans it is shown, not by the
    /// hosts a search visits: a 2,000-step walk of one-host moves on the
    /// Medium fabric touches ~1,500 of its 3,312 hosts, and the memo is
    /// byte for byte as large as after 50 steps; of the engine's arena only
    /// the table grew, by the rows of the hosts visited. Every step still
    /// derives its new host's rows.
    #[test]
    fn memo_bytes_do_not_grow_with_hosts_visited() {
        let t = recloud_topology::Scale::Medium.build();
        let mut a = Assessor::new(&t, FaultModel::paper_default(&t, 11));
        let spec = ApplicationSpec::k_of_n(4, 5);
        let mut rng = Rng::new(8);
        let mut plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let (rounds, chunks) = (4_000, 2);
        let mut walk = |a: &mut Assessor, steps: usize| {
            for _ in 0..steps {
                plan = plan.neighbor(t.hosts(), &mut rng);
                a.assess(&spec, &plan, rounds, 5);
            }
            (a.router.memo_stats(), a.arena_bytes(), a.table.written_bytes())
        };
        let (early, arena, table) = walk(&mut a, 50);
        assert!(early.bytes > 0);
        let (late, arena_late, table_late) = walk(&mut a, 1_950);
        assert_eq!(late.bytes, early.bytes, "digest bytes are a function of plan size only");
        assert_eq!(arena_late - arena, table_late - table, "only the table grew");
        let built = late.reach_rows_built - early.reach_rows_built;
        assert!(
            (1_950 * chunks * 9 / 10..=1_950 * chunks).contains(&built),
            "one reach row per slot per step, but for a host still in the set: {built}"
        );
        // Per slot: twice the hosts of the largest plan shown — 10 reach
        // rows, whatever the fabric's size — and per wide word the built
        // bits, a border row and a `pod_ext` per pod.
        let m = t.fat_tree().unwrap();
        let wides = a.chunk_layout(1 << 20)[0].1 / WideWord::LANES;
        let digests = wides * (16 + 32 * (m.half + m.host_pods) as usize);
        assert_eq!(late.bytes, chunks as usize * (10 * (wides * 32 + 16) + digests));
    }

    /// The table's memory contract, in rows rather than resident bytes so
    /// that it holds whatever the allocator does: a slot writes the rows
    /// it holds, packed front to back, and one poison row per matrix —
    /// here on a fresh Medium engine streaming a 100,000-round request
    /// (a slot per chunk, a few hundred of 4K rows each), and again after
    /// a new seed re-keys every slot onto the same positions.
    #[test]
    fn a_medium_stream_writes_only_its_valid_rows() {
        let t = recloud_topology::Scale::Medium.build();
        let mut a = Assessor::new(&t, FaultModel::paper_default(&t, 11));
        let spec = ApplicationSpec::k_of_n(2, 3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(3));
        let rounds = 100_000;
        for seed in [1, 2] {
            a.assess(&spec, &plan, rounds, seed);
            assert_eq!(a.table.slots(), a.chunk_layout(rounds).len());
            let mut valid = 0;
            for (states, deps) in a.table.matrices() {
                assert_eq!(states.rows_written(), states.rows_held() + 1, "seed {seed}");
                assert_eq!(deps.rows_written(), deps.rows_held() + 1, "seed {seed}");
                assert!(states.rows_held() < states.components() / 10, "seed {seed}");
                valid += (states.rows_held() + deps.rows_held()) * states.words_per_row() * 8;
            }
            assert_eq!(a.cache_bytes(), valid);
        }
    }

    /// A Large 10⁴-round plan writes its cone and nothing else: every slot
    /// holds exactly the rows the router's cone names, and every other
    /// component reads as failed in every round — in release builds too,
    /// where a router reading outside its cone would otherwise see stale
    /// bits rather than a verdict-changing poison row.
    #[test]
    fn a_large_plan_writes_only_its_cone() {
        let t = recloud_topology::Scale::Large.build();
        let mut a = Assessor::new(&t, FaultModel::paper_default(&t, 11));
        let spec = ApplicationSpec::k_of_n(4, 5);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(5));
        a.assess(&spec, &plan, 10_000, 1);
        let mut cone = a.base_cone.clone();
        a.router.cone(t.num_components(), &mut plan.all_hosts(), &mut cone);
        let mut in_cone = vec![false; t.num_components()];
        cone.iter().for_each(|c| in_cone[c.index()] = true);
        let cone_rows = in_cone.iter().filter(|&&named| named).count();
        assert!(cone_rows < t.num_components() / 20, "{cone_rows} rows");
        assert_eq!(a.table.slots(), a.chunk_layout(10_000).len());
        for (states, deps) in a.table.matrices() {
            assert_eq!(states.rows_held(), cone_rows);
            assert_eq!(states.rows_written(), cone_rows + 1, "the cone and the poison row");
            assert_eq!(deps.rows_written(), deps.rows_held() + 1);
            for (c, &named) in in_cone.iter().enumerate() {
                assert_eq!(states.holds(c), named, "component {c}");
                if !named {
                    assert_eq!(states.row(c).count_ones(), states.rounds(), "component {c}");
                }
            }
        }
    }

    /// ROADMAP 2(c): the table holds a bounded number of slots. A request
    /// of more than twice that many chunks wraps around them — chunk `i`
    /// re-keys slot `i % cap` — and returns exactly what the chunks return
    /// one by one through slot 0; the engine's footprint stops at `cap`
    /// slots, and the evictions are counted. (Before the bound this one
    /// request pinned 131 slots for the engine's life.)
    #[test]
    fn a_long_request_wraps_around_a_bounded_table() {
        let t = FatTreeParams::new(4).build();
        let model = || FaultModel::paper_default(&t, 11);
        let spec = ApplicationSpec::k_of_n(2, 3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(4));
        let cap = crate::table::MAX_SLOTS;
        assert!(cap >= 64, "a 100,000-round stream keeps a slot per chunk");

        let mut one = Assessor::new(&t, model());
        let chunk_rounds = one.chunk_layout(1 << 20)[0].1;
        one.assess(&spec, &plan, chunk_rounds, 9);
        let one_slot = one.arena_bytes(); // one slot and its memo

        let before = recloud_obs::global().snapshot();
        let rounds = (2 * cap + 2) * chunk_rounds + 77;
        let mut long = Assessor::new(&t, model());
        let layout = long.chunk_layout(rounds);
        assert_eq!(layout.len(), 2 * cap + 3);
        let got = long.assess(&spec, &plan, rounds, 9).estimate;

        let mut by_chunk = Assessor::new(&t, model());
        let mut checker = StructureChecker::new(&spec, &plan);
        let mut acc = ResultAccumulator::new();
        for &(chunk, n) in &layout {
            by_chunk.run_chunk(&mut checker, Assessor::chunk_seed(9, chunk), n, &mut acc);
        }
        assert_eq!((got.rounds, got.successes), (acc.rounds(), acc.successes()));
        assert_eq!(got.rounds, rounds as u64);

        assert!(long.arena_bytes() <= cap * one_slot, "{} bytes", long.arena_bytes());
        assert_eq!(long.table.slots(), cap);
        let after = recloud_obs::global().snapshot();
        let evictions = after.counter("assess.slot_evictions_total").unwrap_or(0)
            - before.counter("assess.slot_evictions_total").unwrap_or(0);
        assert!(evictions >= (layout.len() - cap) as u64, "counter saw {evictions} evictions");
        assert!(after.gauge("assess.table_slots").is_some(), "slot gauge registered");
        // The same request again finds its first chunks evicted by its
        // last ones, rebuilds them, and answers the same.
        let again = long.assess(&spec, &plan, rounds, 9).estimate;
        assert_eq!((again.rounds, again.successes), (got.rounds, got.successes));
        assert!(long.arena_bytes() <= cap * one_slot);
    }

    /// Same seed ⇒ same answer, whatever the engine did before and
    /// however the chunks are executed.
    #[test]
    fn answers_do_not_depend_on_history_or_execution() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(2, 3);
        let model = || FaultModel::paper_default(&t, 11);
        let mut rng = Rng::new(31);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let (rounds, seed) = (9_000, 77);
        let counts = |a: Assessment| (a.estimate.rounds, a.estimate.successes);
        let want = counts(Assessor::new(&t, model()).assess(&spec, &plan, rounds, seed));

        // After other plans on the same seed, and after shorter requests.
        let mut a = Assessor::new(&t, model());
        for _ in 0..6 {
            let other = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
            a.assess(&spec, &other, [400, 2_560, rounds][rng.next_below(3)], seed);
        }
        assert_eq!(counts(a.assess(&spec, &plan, rounds, seed)), want, "after other plans");
        // After a reseed round trip.
        a.reseed(FaultModel::paper_default(&t, 12));
        a.assess(&spec, &plan, rounds, seed);
        a.reseed(model());
        assert_eq!(counts(a.assess(&spec, &plan, rounds, seed)), want, "after reseed");
        // Early-stopped, then resumed on the rows the stop left behind.
        let stopped =
            a.drive(&spec, &plan, rounds, seed + 1, None, &mut |_| ControlFlow::Break(()));
        assert!(!stopped.completed);
        let mut fresh = Assessor::new(&t, model());
        assert_eq!(
            counts(a.assess(&spec, &plan, rounds, seed + 1)),
            counts(fresh.assess(&spec, &plan, rounds, seed + 1)),
            "resumed after an early stop"
        );
        // Streamed: the last partial is the answer.
        let mut last = None;
        let streamed = a.drive(&spec, &plan, rounds, seed, None, &mut |p| {
            last = Some(p.rounds_done);
            ControlFlow::Continue(())
        });
        assert_eq!(counts(streamed.assessment), want, "streamed");
        assert_eq!(last, Some(rounds as u64));
        // Through the master/worker engine.
        for workers in [1, 2, 4] {
            let par = crate::ParallelAssessor::new(&t, model(), workers);
            assert_eq!(counts(par.assess(&spec, &plan, rounds, seed)), want, "{workers} workers");
        }
    }

    /// A drive toward a CIW target (what `--stream --target-ciw` runs):
    /// it ends at the first chunk whose estimate is that tight, or at the
    /// round ceiling.
    fn to_target(
        a: &mut Assessor,
        spec: &ApplicationSpec,
        plan: &DeploymentPlan,
        target: f64,
        ceiling: usize,
        seed: u64,
    ) -> DrivenAssessment {
        a.drive(spec, plan, ceiling, seed, Some(target), &mut |_| ControlFlow::Continue(()))
    }

    fn one_of_two() -> (Assessor, ApplicationSpec, DeploymentPlan) {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(5));
        (Assessor::new(&t, FaultModel::paper_default(&t, 3)), spec, plan)
    }

    #[test]
    fn a_loose_ciw_target_stops_early() {
        let (mut a, spec, plan) = one_of_two();
        let r = to_target(&mut a, &spec, &plan, 0.05, 1_000_000, 7);
        assert!(!r.completed, "the target is met before the ceiling");
        assert!(r.assessment.estimate.ciw95() <= 0.05);
        assert!(r.assessment.estimate.rounds < 100_000, "far fewer rounds than the ceiling");
    }

    #[test]
    fn a_strict_ciw_target_runs_to_the_ceiling() {
        let (mut a, spec, plan) = one_of_two();
        let r = to_target(&mut a, &spec, &plan, 1e-9, 5_000, 7);
        assert!(r.completed);
        assert_eq!(r.assessment.estimate.rounds, 5_000);
    }

    #[test]
    fn a_perfect_plan_meets_a_ciw_target_once_the_wilson_width_does() {
        // Nothing can fail => score 1.0 and Eq 3's CIW 0 from the first
        // chunk on, which proves nothing: the drive stops at the first
        // chunk boundary where z²/(n + z²) <= 1e-3, n >= 3,838.
        let t = FatTreeParams::new(4).build();
        let mut a = Assessor::new(&t, FaultModel::new(&t, &ProbabilityConfig::Uniform(0.0), 0));
        let spec = ApplicationSpec::k_of_n(2, 2);
        let plan = DeploymentPlan::new(&spec, vec![t.hosts()[..2].to_vec()]);
        let r = to_target(&mut a, &spec, &plan, 1e-3, 1_000_000, 0);
        assert!(!r.completed);
        assert_eq!(r.assessment.estimate.score, 1.0);
        let (rounds, chunk) = (r.assessment.estimate.rounds, a.chunk_layout(1 << 20)[0].1 as u64);
        assert!((3_838..3_838 + chunk).contains(&rounds), "{rounds} rounds in chunks of {chunk}");
    }

    #[test]
    fn a_ciw_stopped_prefix_equals_a_fixed_assessment() {
        let (mut a, spec, plan) = one_of_two();
        let stopped = to_target(&mut a, &spec, &plan, 0.05, 1_000_000, 9);
        assert!(!stopped.completed);
        let rounds = stopped.assessment.estimate.rounds as usize;
        let fixed = a.assess(&spec, &plan, rounds, 9);
        assert_eq!(stopped.assessment.estimate.successes, fixed.estimate.successes);
        assert_eq!(stopped.assessment.estimate.rounds, fixed.estimate.rounds);
    }

    /// A router swapped in on a seed the table already holds must get its
    /// own cone of no hosts materialised: the up/down reference reads
    /// every row, the analytic router it replaces left most unsampled.
    #[test]
    fn set_router_materialises_the_new_routers_base_cone() {
        let t = FatTreeParams::new(8).build();
        let model = || FaultModel::paper_default(&t, 1);
        let spec = ApplicationSpec::k_of_n(2, 3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(3));
        let updown = || Box::new(recloud_routing::UpDownRouter::for_fat_tree(&t));
        let (rounds, seed) = (6_000, 7);
        let mut fresh = Assessor::new(&t, model());
        fresh.set_router(updown());
        let want = fresh.assess(&spec, &plan, rounds, seed).estimate.successes;
        assert!(want > 5_000, "a healthy fabric: {want}");

        let mut a = Assessor::new(&t, model());
        assert_eq!(a.assess(&spec, &plan, rounds, seed).estimate.successes, want);
        let narrow = a.cache_bytes();
        a.set_router(updown());
        assert_eq!(a.assess(&spec, &plan, rounds, seed).estimate.successes, want);
        assert!(a.cache_bytes() > 2 * narrow, "the full-width cone was materialised");
    }

    /// The sampled-width regression guard, by count: a 5-host plan on the
    /// Large fat-tree reads 5 hosts, ≤ 5 edge switches, ≤ 5 × 24 pod aggs,
    /// 576 cores, 24 borders and ≤ 5 supplies of 29,934 components.
    #[test]
    fn large_fat_tree_plan_materialises_its_cone_only() {
        let t = FatTreeParams::new(48).build();
        let mut a = Assessor::new(&t, FaultModel::paper_default(&t, 1));
        let spec = ApplicationSpec::k_of_n(4, 5);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(2));
        let before = recloud_obs::global().snapshot();
        let chunk_rounds = a.chunk_layout(1 << 20)[0].1;
        let rounds = 2 * chunk_rounds + 100;
        let chunks = a.chunk_layout(rounds).len();
        assert_eq!(chunks, 3);
        a.assess(&spec, &plan, rounds, 9);
        let row_bytes = BitMatrix::new(1, chunk_rounds).bytes();
        let rows_per_chunk = a.cache_bytes() / row_bytes / chunks;
        assert!((600..=800).contains(&rows_per_chunk), "{rows_per_chunk} rows per chunk");
        let after = recloud_obs::global().snapshot();
        let counted = after.counter("assess.rows_materialised_total").unwrap_or(0)
            - before.counter("assess.rows_materialised_total").unwrap_or(0);
        assert!(counted >= (rows_per_chunk * chunks) as u64, "counter saw {counted} rows");
        let cone = after.histogram("assess.cone_rows").expect("cone histogram registered");
        assert!(cone.count >= 1);
    }

    /// The serving-layer invariant: a reseeded engine is indistinguishable
    /// from a freshly built one — same counts, bit-identical score — and
    /// reseeding invalidates the (now stale) table rows. The model comes
    /// the way the engine pool makes it — the engine's own, cloned and
    /// redrawn — or built from scratch; the seeds cross both chunk widths
    /// paper-default models have here, in both directions.
    #[test]
    fn reseed_matches_fresh_engine_bit_for_bit() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(2, 3);
        let mut rng = Rng::new(31);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let mut reused = Assessor::new(&t, FaultModel::paper_default(&t, 11));
        reused.assess(&spec, &plan, 3_000, 11);
        assert!(reused.cache_bytes() > 0, "first assessment populates the table");
        let before = recloud_obs::global().snapshot();
        let seeds: Vec<u64> = (12..24).chain([11]).collect();
        let mut widths = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let model = if i % 4 == 3 {
                FaultModel::paper_default(&t, seed)
            } else {
                let mut model = reused.model().clone();
                model.redraw(&t, &ProbabilityConfig::PaperDefault, seed);
                model
            };
            reused.reseed(model);
            assert_eq!(reused.cache_bytes(), 0, "reseed must invalidate the stale rows");
            let r = reused.assess(&spec, &plan, 6_000, seed);
            let mut fresh = Assessor::new(&t, FaultModel::paper_default(&t, seed));
            let f = fresh.assess(&spec, &plan, 6_000, seed);
            assert_eq!(r.estimate.score.to_bits(), f.estimate.score.to_bits(), "seed {seed}");
            assert_eq!(r.estimate.successes, f.estimate.successes);
            assert_eq!(r.estimate.rounds, f.estimate.rounds);
            assert_eq!(reused.chunk_layout(6_000), fresh.chunk_layout(6_000), "seed {seed}");
            widths.push(reused.chunk_layout(1 << 20)[0].1);
        }
        assert!(widths.contains(&2_560) && widths.contains(&2_816), "{widths:?}");
        assert!(widths.windows(2).any(|w| w[0] < w[1]) && widths.windows(2).any(|w| w[0] > w[1]));
        // Every reseed is counted and timed (other tests only add).
        let after = recloud_obs::global().snapshot();
        let reseeds = after.counter("assess.reseeds_total").unwrap_or(0)
            - before.counter("assess.reseeds_total").unwrap_or(0);
        assert!(reseeds >= seeds.len() as u64, "counter saw {reseeds} reseeds");
        let timed = after.histogram("assess.reseed_us").map_or(0, |h| h.count)
            - before.histogram("assess.reseed_us").map_or(0, |h| h.count);
        assert!(timed >= seeds.len() as u64, "histogram saw {timed} reseeds");
    }

    /// Copy-on-write isolation, seen from the answers: models that share
    /// a structure do not see each other change. Whatever is done to a
    /// clone — or to the original while a clone is alive — the other one
    /// assesses exactly as before.
    #[test]
    fn changing_a_model_leaves_its_clones_answers_alone() {
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::k_of_n(2, 3);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(31));
        let host = plan.hosts_of(0)[0];
        let answer = |model: &FaultModel| {
            let e = Assessor::new(&t, model.clone()).assess(&spec, &plan, 6_000, 7).estimate;
            (e.score.to_bits(), e.variance.to_bits(), e.successes)
        };
        let want = answer(&FaultModel::paper_default(&t, 11));
        type Change<'a> = (&'a str, &'a dyn Fn(&mut FaultModel));
        let changes: [Change; 6] = [
            ("set_tree", &|m| m.set_tree(host, FaultTree::single(plan.hosts_of(0)[1]))),
            ("or_attach", &|m| m.or_attach(host, FaultTree::single(plan.hosts_of(0)[2]))),
            ("add_auxiliary", &|m| {
                let aux = m.add_auxiliary(recloud_topology::ComponentKind::CoolingUnit, "c", 0.3);
                m.or_attach(host, FaultTree::single(aux));
            }),
            ("attach_shared_software", &|m| {
                m.attach_shared_software(&t, 2, 0.2, 0.1);
            }),
            ("set_prob", &|m| m.set_prob(host, 0.5)),
            ("redraw", &|m| m.redraw(&t, &ProbabilityConfig::PaperDefault, 13)),
        ];
        for (name, change) in changes {
            let mut original = FaultModel::paper_default(&t, 11);
            let mut clone = original.clone();
            change(&mut clone);
            assert_ne!(answer(&clone), want, "{name} changed the clone");
            assert_eq!(answer(&original), want, "{name} on a clone reached the original");
            let kept = original.clone();
            change(&mut original);
            assert_eq!(answer(&original), answer(&clone), "{name}: same change, same model");
            assert_eq!(answer(&kept), want, "{name} on the original reached a clone");
        }
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn reseed_rejects_foreign_model() {
        let t4 = FatTreeParams::new(4).build();
        let t6 = FatTreeParams::new(6).build();
        let mut a = Assessor::new(&t4, FaultModel::paper_default(&t4, 1));
        a.reseed(FaultModel::paper_default(&t6, 1));
    }

    #[test]
    fn chunk_seed_is_the_shared_derivation_rule() {
        for (master, chunk) in [(0u64, 0u32), (1, 1), (99, 63), (u64::MAX, 7)] {
            assert_eq!(
                Assessor::chunk_seed(master, chunk),
                recloud_sampling::derive_seed(master, chunk as u64)
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero rounds")]
    fn zero_rounds_rejected() {
        let (t, mut a, spec) = setup(SamplerKind::ExtendedDagger);
        let mut rng = Rng::new(1);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        a.assess(&spec, &plan, 0, 0);
    }
}
