//! A request that will be refused must not cost the engine its table.
//!
//! Alone in its file, hence in its process: it reads
//! `assess.rows_materialised_total` from the process-wide registry, which
//! every assessment on any thread feeds.

use recloud_server::engine::{build_plan, spec_for};
use recloud_server::protocol::AssessRequest;
use recloud_server::{EnginePool, Preset};

#[test]
fn a_refused_request_with_a_foreign_seed_leaves_the_table_alone() {
    let topology = Preset::Tiny.scale().build();
    let hosts: Vec<u32> = topology.hosts()[..3].iter().map(|h| h.index() as u32).collect();
    let request = |seed: u64, hosts: Vec<u32>| AssessRequest {
        preset: Preset::Tiny,
        rounds: 6_000,
        seed,
        k: 2,
        n: 3,
        assignments: vec![hosts],
    };
    let spec = spec_for(2, 3, 1);
    let rows =
        || recloud_obs::global().snapshot().counter("assess.rows_materialised_total").unwrap_or(0);
    let reseeds = || recloud_obs::global().snapshot().counter("assess.reseeds_total").unwrap_or(0);

    // A tenant served on seed A…
    let mut pool = EnginePool::new();
    let on_a = request(11, hosts.clone());
    let plan = build_plan(&spec, &on_a.assignments).unwrap();
    let first = pool.assess(&on_a, &spec, &plan).unwrap();
    let (warm_rows, warm_reseeds) = (rows(), reseeds());
    assert!(warm_rows > 0, "the first request materialised its cone");

    // …a malformed request carrying seed B is answered with an error…
    let bad = request(29, vec![hosts[0], hosts[1], 9_999_999]);
    let bad_plan = build_plan(&spec, &bad.assignments).unwrap();
    assert!(pool.assess(&bad, &spec, &bad_plan).unwrap_err().contains("out of range"));
    assert!(pool
        .assess_streaming(&bad, &spec, &bad_plan, 1, &Default::default(), &mut |_| {})
        .unwrap_err()
        .contains("out of range"));
    assert_eq!(reseeds(), warm_reseeds, "a refused request reseeded the engine");

    // …and seed A's rows are still there: nothing is sampled again.
    let again = pool.assess(&on_a, &spec, &plan).unwrap();
    assert_eq!(rows(), warm_rows, "the seed-A table was thrown away");
    assert_eq!(again.score.to_bits(), first.score.to_bits());
    assert_eq!(again.variance.to_bits(), first.variance.to_bits());
    assert_eq!((again.rounds, again.successes), (first.rounds, first.successes));

    // A well-formed request on seed B does reseed, once.
    let on_b = request(29, hosts);
    pool.assess(&on_b, &spec, &plan).unwrap();
    assert_eq!(reseeds(), warm_reseeds + 1);
    assert!(rows() > warm_rows);
}
