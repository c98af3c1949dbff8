//! Table guard: the steady-state chunk loop — materialise the cone's rows
//! in the engine's table slot, collapse in place, wide route-and-check —
//! must be allocation-free, on fresh seeds too. The whole point of the
//! persistent failure-state table and the stack-built samplers is that
//! after the first assessment warms every buffer (one table slot per
//! chunk, the cone scratch, the engine's plan checker and chunk driver,
//! the router's per-slot memo of digests and host reach rows), later ones
//! only write into memory that already exists. A counting global allocator
//! proves it, so the hot path cannot silently regress back to a matrix per
//! chunk — or a checker per plan.

use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::{Assessor, StructureChecker};
use recloud_faults::{FaultModel, ProbabilityConfig};
use recloud_sampling::{ResultAccumulator, Rng};
use recloud_topology::{FatTreeParams, JellyfishParams, LeafSpineParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread allocation counter (const-initialized, no-Drop payload, so
// reading it inside the allocator neither allocates nor recurses). Only
// the measuring thread's allocations must count — the libtest harness
// allocates on other threads concurrently.
thread_local! {
    static TL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TL_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        TL_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = TL_ALLOCATIONS.with(Cell::get);
    f();
    TL_ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn wide_chunk_loop_does_not_allocate() {
    let t = FatTreeParams::new(4).build();
    let model = FaultModel::paper_default(&t, 11);
    let spec = ApplicationSpec::k_of_n(2, 4);
    let mut rng = Rng::new(6);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);

    // Setup and the first chunk may allocate: the first use of a table
    // slot sizes it once.
    let mut engine = Assessor::new(&t, model);
    let mut checker = StructureChecker::new(&spec, &plan);
    let mut acc = ResultAccumulator::new();
    // Warm-up chunk: first use grows the checker's reach-row scratch and
    // sizes the router's memo for slot 0.
    engine.run_chunk(&mut checker, Assessor::chunk_seed(42, 0), 2_000, &mut acc);

    // Steady state: full and short-tail chunks alike must not allocate.
    for (chunk, rounds) in [(1u32, 2_000usize), (2, 257), (3, 63)] {
        let allocs = allocations_during(|| {
            engine.run_chunk(&mut checker, Assessor::chunk_seed(42, chunk), rounds, &mut acc);
        });
        assert_eq!(allocs, 0, "chunk of {rounds} rounds allocated {allocs} times");
    }
    assert!(acc.rounds() > 0, "the counted chunks really ran");
}

/// A whole assessment allocates nothing once the engine has assessed a
/// plan of the same shape: the checker and the driver are the engine's
/// own, re-aimed at each plan, and nothing scales with the table — on a
/// seed the engine has never seen, on a neighbour of the last plan on a
/// held table (a search step), and on the same plan again. (Before the
/// engine kept its checker and driver an assessment allocated the plan's
/// checker, five blocks here, plus the driver's chunk layout: six.)
#[test]
fn assessments_allocate_nothing_once_the_engine_is_warm() {
    let t = FatTreeParams::new(4).build();
    let spec = ApplicationSpec::k_of_n(2, 4);
    let mut rng = Rng::new(6);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
    let mut engine = Assessor::new(&t, FaultModel::paper_default(&t, 11));
    let rounds = 9_000; // four chunks, the last one short
    engine.assess(&spec, &plan, rounds, 1); // warm-up: sizes the four slots

    for seed in [2u64, 3, 4] {
        let allocs = allocations_during(|| {
            let a = engine.assess(&spec, &plan, rounds, seed);
            assert_eq!(a.estimate.rounds, rounds as u64);
        });
        assert_eq!(allocs, 0, "fresh seed {seed}: {allocs} allocations");
    }
    // A search step: one host moved, the table held.
    let mut neighbour = plan.clone();
    for step in 0..20 {
        neighbour = neighbour.neighbor(t.hosts(), &mut rng);
        let allocs = allocations_during(|| {
            engine.assess(&spec, &neighbour, rounds, 4);
        });
        assert_eq!(allocs, 0, "neighbour {step}: {allocs} allocations");
    }
    let allocs = allocations_during(|| {
        engine.assess(&spec, &neighbour, rounds, 4);
    });
    assert_eq!(allocs, 0, "same plan again: {allocs} allocations");
    // Reseeding with a model of the same shape keeps the table's memory.
    engine.reseed(FaultModel::paper_default(&t, 11));
    let allocs = allocations_during(|| {
        engine.assess(&spec, &plan, rounds, 5);
    });
    assert_eq!(allocs, 0, "after reseed: {allocs} allocations");
}

/// The BFS router's two paths allocate nothing once warm either: a 2-layer
/// spec on a leaf-spine takes the screened scalar fixpoint, whose
/// host-to-host floods keep their visited sets from round to round, and
/// 4-of-5 on a Jellyfish takes the 256-lane flood, whose scratch is the
/// router's from construction.
#[test]
fn bfs_router_assessments_allocate_nothing_once_warm() {
    let leaf_spine = LeafSpineParams::new(3, 4, 3).border_spines(2).build();
    let cases = [
        ("leaf-spine", leaf_spine, ApplicationSpec::layered(&[(1, 2), (1, 2)])),
        ("Jellyfish", JellyfishParams::new(40, 6, 4).build(), ApplicationSpec::k_of_n(4, 5)),
    ];
    for (name, t, spec) in cases {
        let mut rng = Rng::new(6);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let mut engine = Assessor::new(&t, FaultModel::paper_default(&t, 11));
        let rounds = 9_000;
        engine.assess(&spec, &plan, rounds, 1);
        for seed in 2..=7 {
            let allocs = allocations_during(|| {
                engine.assess(&spec, &plan, rounds, seed);
            });
            assert_eq!(allocs, 0, "{name} seed {seed}: {allocs} allocations");
        }
    }
}

/// A seed changes the model's numbers, not its structure. Taking a warmed
/// engine to a new model seed the way the engine pool does — clone the
/// engine's model, redraw it, hand it back — allocates the clone's
/// probability vector and nothing else: no tree, no table slot, whatever
/// the component count.
#[test]
fn reseed_to_a_new_model_seed_allocates_one_block() {
    for k in [4, 8] {
        let t = FatTreeParams::new(k).build();
        let spec = ApplicationSpec::k_of_n(2, 4);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(6));
        let mut engine = Assessor::new(&t, FaultModel::paper_default(&t, 11));
        engine.assess(&spec, &plan, 9_000, 1);
        for model_seed in [12u64, 13, 14, 11] {
            let allocs = allocations_during(|| {
                let mut model = engine.model().clone();
                model.redraw(&t, &ProbabilityConfig::PaperDefault, model_seed);
                engine.reseed(model);
            });
            assert_eq!(allocs, 1, "k={k}, model seed {model_seed}: {allocs} allocations");
            engine.assess(&spec, &plan, 9_000, 1);
        }
    }
}

/// Paper-default models differ in macro-cycle, hence in chunk width, from
/// seed to seed. A served engine alternating between them settles on one
/// set of slots: a narrow-chunk seed needs more chunks than a wide-chunk
/// one, and the extra slots it adds must not make the next wide seed
/// drop and rebuild the table.
#[test]
fn alternating_chunk_widths_settle_on_one_table() {
    let t = FatTreeParams::new(4).build();
    let spec = ApplicationSpec::k_of_n(2, 4);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(6));
    let width_of = |seed: u64| {
        Assessor::new(&t, FaultModel::paper_default(&t, seed)).chunk_layout(1 << 20)[0].1
    };
    let narrow = width_of(11);
    let wide_seed = (12u64..200).find(|&s| width_of(s) > narrow).expect("a wider model seed");
    let rounds = 10 * narrow + 100;
    assert!(rounds.div_ceil(narrow) > rounds.div_ceil(width_of(wide_seed)));

    let mut engine = Assessor::new(&t, FaultModel::paper_default(&t, wide_seed));
    engine.assess(&spec, &plan, rounds, 1);
    engine.reseed(FaultModel::paper_default(&t, 11));
    engine.assess(&spec, &plan, rounds, 1); // adds the narrow seed's extra slot
    let settled = engine.arena_bytes();
    for (round, model_seed) in [wide_seed, 11, wide_seed, 11].into_iter().enumerate() {
        engine.reseed(FaultModel::paper_default(&t, model_seed));
        let allocs = allocations_during(|| {
            engine.assess(&spec, &plan, rounds, 2 + round as u64);
        });
        assert_eq!(allocs, 0, "model seed {model_seed}: {allocs} allocations");
        assert_eq!(engine.arena_bytes(), settled, "model seed {model_seed} rebuilt the table");
    }
}

/// The router keeps its digests and a bounded set of host reach rows per
/// table slot. The first search on an engine — neighbouring plans assessed
/// on one seed — sizes that memo; every later search, on the same seed or
/// another, writes into it and allocates nothing at all.
#[test]
fn later_searches_allocate_nothing_for_the_memo() {
    let t = FatTreeParams::new(6).build();
    let spec = ApplicationSpec::k_of_n(2, 4);
    let mut rng = Rng::new(6);
    let mut plans = vec![DeploymentPlan::random(&spec, t.hosts(), &mut rng)];
    for i in 0..39 {
        plans.push(plans[i].neighbor(t.hosts(), &mut rng));
    }
    let mut engine = Assessor::new(&t, FaultModel::paper_default(&t, 11));
    let rounds = 9_000; // four slots
    let search = |engine: &mut Assessor, seed: u64| {
        allocations_during(|| {
            for plan in &plans {
                engine.assess(&spec, plan, rounds, seed);
            }
        })
    };
    search(&mut engine, 1);
    let settled = engine.arena_bytes();
    for seed in [1u64, 2, 3] {
        let allocs = search(&mut engine, seed);
        assert_eq!(allocs, 0, "search on seed {seed}");
        assert_eq!(engine.arena_bytes(), settled, "seed {seed} grew the memo");
    }
}
