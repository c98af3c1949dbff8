//! What assessments record into the process-wide registry, checked
//! exactly: this file's tests are the only code in its process that
//! records, and they take turns, so every delta is theirs alone.
//!
//! An engine times the stages of every 16th chunk it runs, and of every
//! chunk under a trace span; the others read no clock. Whether a call
//! sampled is read from `assess.rows_materialised_total`: positive on a
//! seed the table does not hold, zero on one it does.

use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_assess::{Assessor, StructureChecker};
use recloud_faults::FaultModel;
use recloud_obs::{MetricsSnapshot as Snapshot, SpanCtx};
use recloud_sampling::{ResultAccumulator, Rng};
use recloud_topology::{FatTreeParams, Topology};
use std::sync::Mutex;
use std::time::Duration;

static TURN: Mutex<()> = Mutex::new(());

fn setup() -> (Topology, Assessor, ApplicationSpec) {
    let t = FatTreeParams::new(4).build();
    let a = Assessor::new(&t, FaultModel::paper_default(&t, 11));
    (t, a, ApplicationSpec::k_of_n(1, 2))
}

/// Counter `name`'s growth over `f`, with the registry after it.
fn counted(name: &str, f: impl FnOnce()) -> (u64, Snapshot) {
    let before = recloud_obs::global().snapshot();
    f();
    let after = recloud_obs::global().snapshot();
    (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0), after)
}

fn rows_materialised(f: impl FnOnce()) -> u64 {
    counted("assess.rows_materialised_total", f).0
}

fn records(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot.histogram(name).map_or(0, |h| h.count)
}

#[test]
fn timings_are_populated() {
    let _turn = TURN.lock().unwrap();
    let (t, mut a, spec) = setup();
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(9));
    let mut r = None;
    assert!(rows_materialised(|| r = Some(a.assess(&spec, &plan, 2_000, 0))) > 0);
    let r = r.unwrap();
    assert!(r.timings.total > Duration::ZERO);
    assert_eq!(r.estimate.rounds, 2_000);
}

#[test]
fn table_reuse_is_transparent() {
    // Same seed twice: the second call finds its rows in the table and
    // must return the exact same counts; a different plan on that table
    // must also match a fresh engine's result for that (plan, seed).
    let _turn = TURN.lock().unwrap();
    let (t, mut a, spec) = setup();
    let mut rng = Rng::new(12);
    let plan1 = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
    let plan2 = DeploymentPlan::random(&spec, t.hosts(), &mut rng);

    let r1 = a.assess(&spec, &plan1, 6_000, 77);
    let mut r1_cached = None;
    // The held table: nothing sampled.
    assert_eq!(rows_materialised(|| r1_cached = Some(a.assess(&spec, &plan1, 6_000, 77))), 0);
    assert_eq!(r1.estimate.successes, r1_cached.unwrap().estimate.successes);

    let r2_cached = a.assess(&spec, &plan2, 6_000, 77);
    let mut fresh = Assessor::new(&t, FaultModel::paper_default(&t, 11));
    let r2_fresh = fresh.assess(&spec, &plan2, 6_000, 77);
    assert_eq!(r2_cached.estimate.successes, r2_fresh.estimate.successes);

    // A different seed re-keys the table (and still works).
    let mut r3 = None;
    assert!(rows_materialised(|| r3 = Some(a.assess(&spec, &plan1, 6_000, 78))) > 0);
    assert_eq!(r3.unwrap().estimate.rounds, 6_000);
}

/// Assessments record round counts, rows and the cache footprint into
/// the process-global registry.
#[test]
fn assessments_record_into_the_global_registry() {
    let _turn = TURN.lock().unwrap();
    let (t, mut a, spec) = setup();
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(77));
    let rounds = 4_000usize;
    let before = recloud_obs::global().snapshot();
    // Fresh seed: the table samples; then its rows are already there.
    let mut assess = || {
        a.assess(&spec, &plan, rounds, 8);
    };
    assert!(rows_materialised(&mut assess) > 0);
    assert_eq!(rows_materialised(&mut assess), 0);
    let after = recloud_obs::global().snapshot();

    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(delta("assess.rounds_total"), 2 * rounds as u64);
    assert_eq!(delta("assess.assessments_total"), 2);
    assert_eq!(records(&after, "assess.total_us") - records(&before, "assess.total_us"), 2);
    assert!(after.gauge("assess.cache_bytes").unwrap_or(0) > 0, "cache footprint gauge set");
}

/// 64 chunks on fresh seeds time the stages of four; under a trace span
/// every chunk is timed and leaves an `assess.chunk` span.
#[test]
fn stage_clocks_are_sampled_and_every_traced_chunk_is_timed() {
    let _turn = TURN.lock().unwrap();
    let (t, mut a, spec) = setup();
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(5));
    let mut checker = StructureChecker::new(&spec, &plan);
    let mut acc = ResultAccumulator::new();
    let stages = ["assess.sampling_us", "assess.collapse_us", "assess.check_us"];
    let before = recloud_obs::global().snapshot();
    let (rows, after) = counted("assess.rows_materialised_total", || {
        for chunk in 0..64 {
            a.run_chunk(&mut checker, Assessor::chunk_seed(3, chunk), 2_000, &mut acc);
        }
    });
    assert!(rows > 0 && acc.rounds() == 64 * 2_000);
    for stage in stages {
        assert_eq!(records(&after, stage) - records(&before, stage), 4, "{stage}");
    }

    let tracer = recloud_obs::tracer();
    let trace_id = 0x05A3_B1E5;
    tracer.begin(trace_id, 0);
    let root = tracer.start(trace_id, 0, "test.root");
    let rounds = 9 * a.chunk_layout(1 << 20)[0].1;
    let chunks = a.chunk_layout(rounds).len() as u64;
    let before = recloud_obs::global().snapshot();
    recloud_obs::with_current_span(SpanCtx { trace_id, span: root }, || {
        a.assess(&spec, &plan, rounds, 4);
    });
    let after = recloud_obs::global().snapshot();
    assert_eq!(records(&after, "assess.check_us") - records(&before, "assess.check_us"), chunks);
    let (spans, dropped) = tracer.spans(trace_id).expect("trace begun");
    let chunk_spans: Vec<_> = spans.iter().filter(|s| s.kind == "assess.chunk").collect();
    assert_eq!((chunk_spans.len() as u64, dropped), (chunks, 0));
    for (i, span) in chunk_spans.iter().enumerate() {
        assert_eq!((span.parent, span.v1), (root, i as u64), "chunk {i}");
        assert!(span.v0 > 0 && span.start_us <= span.end_us, "chunk {i}");
    }
}
