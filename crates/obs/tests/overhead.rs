//! Overhead guard: the record paths (counter increment, histogram
//! record, journal record) must be lock-free and allocation-free so
//! instrumentation cannot silently regress the bit-sliced kernel
//! speedup. A counting global allocator proves the "no `Box`/`Vec` in
//! the record path" claim.

use recloud_obs::{Counter, Histogram, Journal, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread allocation counter (const-initialized, no-Drop payload, so
// reading it inside the allocator neither allocates nor recurses).
// Per-thread because the libtest harness allocates on other threads
// concurrently; only the measuring thread's allocations must count.
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
fn record_paths_do_not_allocate() {
    // Setup (registration, interning) may allocate — that is the
    // point of handle caching. Done before counting starts.
    let registry = Registry::new();
    let counter = registry.counter("overhead.counter");
    let gauge = registry.gauge("overhead.gauge");
    let histogram = registry.histogram("overhead.hist");
    let kind = registry.journal().kind_id("overhead.event");
    let journal = registry.journal();

    let allocated = allocations_during(|| {
        for i in 0..100_000u64 {
            counter.add(1);
            gauge.set(i as i64);
            histogram.record(i);
            journal.record(kind, i, i, 0.5, 1.5);
        }
    });
    assert_eq!(allocated, 0, "record paths must not allocate (got {allocated} allocations)");
    assert_eq!(counter.value(), 100_000);
    assert_eq!(histogram.snapshot().count, 100_000);
    assert_eq!(journal.recorded(), 100_000);
}

#[test]
fn record_paths_are_lock_free_under_contention() {
    // Lock-freedom is asserted structurally (the instruments hold only
    // atomics — no Mutex/RwLock on the record path) and behaviorally:
    // heavy multi-thread hammering loses no increments and the journal
    // claims exactly one slot per record.
    let counter = Counter::new();
    let histogram = Histogram::new();
    let journal = Journal::with_capacity(1024);
    let kind = journal.kind_id("contention");
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (counter, histogram, journal) = (&counter, &histogram, &journal);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    histogram.record(t * PER_THREAD + i);
                    journal.record(kind, i, t, 0.0, 0.0);
                }
            });
        }
    });
    assert_eq!(counter.value(), THREADS * PER_THREAD);
    assert_eq!(histogram.snapshot().count, THREADS * PER_THREAD);
    assert_eq!(journal.recorded(), THREADS * PER_THREAD);
}
