//! A search step allocates nothing. After a first search has warmed the
//! engine — one table slot per chunk, the router's memo, the plan checker
//! and driver, the searcher's scratch — a second one allocates for its
//! set-up and answer, for each improvement of its best plan and for each
//! plan its candidate list keeps, and for nothing else: not the
//! neighbour plan, not the symmetry check, not the assessment. A counting
//! global allocator proves it on the benchmark's Medium 4-of-5 shape.

use recloud_apps::ApplicationSpec;
use recloud_assess::Assessor;
use recloud_faults::FaultModel;
use recloud_search::{ReliabilityObjective, SearchConfig, Searcher};
use recloud_topology::Scale;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread allocation counter (const-initialized, no-Drop payload, so
// reading it inside the allocator neither allocates nor recurses). Only
// the measuring thread's allocations count.
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

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = TL_ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, TL_ALLOCATIONS.with(Cell::get) - before)
}

/// On this shape a search allocates about 17 times for its set-up and
/// answer, about twice per improvement and per kept plan, and 110–170
/// times in all over seeds 2–11. One allocation per step — a hash set of
/// the plan's hosts per neighbour, a fresh neighbour plan, a buffer per
/// symmetry check — would add at least 2,000.
#[test]
fn a_warm_search_allocates_nothing_per_step() {
    let t = Scale::Medium.build();
    let mut assessor = Assessor::new(&t, FaultModel::paper_default(&t, 20_170));
    let spec = ApplicationSpec::k_of_n(4, 5);
    let mut searcher = Searcher::new(&mut assessor);
    let mut search = |seed: u64| {
        let cfg = SearchConfig::iterations(2_000, 10_000, seed);
        allocations_during(|| searcher.search(&spec, &ReliabilityObjective, &cfg, None))
    };
    search(1);
    let (out, allocs) = search(2);
    assert_eq!(out.stats.plans_assessed, 2_000);
    assert!(
        allocs < out.stats.plans_assessed as u64 / 8,
        "{allocs} allocations over {} steps, {} improvements",
        out.stats.plans_assessed,
        out.trajectory.len()
    );
}
