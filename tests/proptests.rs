//! Property-based tests over core data structures and cross-crate
//! invariants, running on the in-repo harness
//! ([`recloud_sampling::proptest`]) — no external `proptest` crate, so the
//! suite builds fully offline.
//!
//! Each `forall` checks its property over many random cases; on failure
//! the runner prints a `RECLOUD_PROPTEST_REPLAY=<seed>` line that re-runs
//! exactly the failing case.

use recloud::prelude::*;
use recloud::routing::{FatTreeRouter, GenericRouter, Router, UpDownRouter};
use recloud::sampling::BitMatrix;
use recloud_sampling::proptest::forall;
use recloud_sampling::{prop_assert, prop_assert_eq, prop_assume};

/// BitMatrix set/get/count algebra over arbitrary shapes.
#[test]
fn bitmatrix_set_get_count() {
    forall("bitmatrix set/get/count algebra", |g| {
        let components = g.usize_in(1..20);
        let rounds = g.usize_in(1..200);
        let cells = g.vec_in(0..64, |g| (g.usize_in(0..20), g.usize_in(0..200)));
        let mut m = BitMatrix::new(components, rounds);
        let mut expected = std::collections::HashSet::new();
        for (c, r) in cells {
            let (c, r) = (c % components, r % rounds);
            m.set(c, r);
            expected.insert((c, r));
        }
        for &(c, r) in &expected {
            prop_assert!(m.get(c, r));
        }
        prop_assert_eq!(m.total_failures(), expected.len());
        let per_row: usize = (0..components).map(|c| m.row(c).count_ones()).sum();
        prop_assert_eq!(per_row, expected.len());
        Ok(())
    });
}

/// Word writes are equivalent to bit writes.
#[test]
fn bitmatrix_word_vs_bit_writes() {
    forall("word writes equal bit writes", |g| {
        let rounds = g.usize_in(1..130);
        let word = g.any_u64();
        let mut a = BitMatrix::new(1, rounds);
        let mut b = BitMatrix::new(1, rounds);
        a.set_word(0, 0, word);
        for r in 0..rounds.min(64) {
            if (word >> r) & 1 == 1 {
                b.set(0, r);
            }
        }
        prop_assert_eq!(a, b);
        Ok(())
    });
}

/// The reliability estimate is always within [0, 1], the variance is
/// non-negative, and CIW shrinks when rounds scale up at equal rate.
#[test]
fn estimator_invariants() {
    forall("estimator invariants", |g| {
        let successes = g.u64_in(0..=1000);
        let extra = g.u64_in(0..=999);
        let rounds = successes + extra;
        prop_assume!(rounds > 0);
        let mut acc = recloud::sampling::ResultAccumulator::new();
        acc.push_batch(rounds, successes);
        let e = acc.estimate();
        prop_assert!((0.0..=1.0).contains(&e.score));
        prop_assert!(e.variance >= 0.0);
        prop_assert!(e.ciw95() >= 0.0);
        let mut acc10 = recloud::sampling::ResultAccumulator::new();
        acc10.push_batch(rounds * 10, successes * 10);
        prop_assert!(acc10.estimate().ciw95() <= e.ciw95() + 1e-15);
        Ok(())
    });
}

/// Dagger and Monte-Carlo rates agree with the probability for any
/// probability vector (coarse statistical bound).
#[test]
fn samplers_track_probabilities() {
    forall("samplers track probabilities", |g| {
        let ps = g.vec_in(1..6, |g| g.f64_in(0.02..0.5));
        let rounds = 60_000;
        for (name, mut sampler) in [
            ("dagger", Box::new(ExtendedDaggerSampler::seeded(9)) as Box<dyn Sampler>),
            ("mc", Box::new(MonteCarloSampler::seeded(9)) as Box<dyn Sampler>),
        ] {
            let mut m = BitMatrix::new(ps.len(), rounds);
            sampler.sample_into(&ps, &mut m);
            for (i, &p) in ps.iter().enumerate() {
                let rate = m.row(i).count_ones() as f64 / rounds as f64;
                // 6-sigma bound on a binomial-ish rate.
                let sigma = (p * (1.0 - p) / rounds as f64).sqrt();
                prop_assert!((rate - p).abs() < 6.0 * sigma + 0.003, "{name}: p={p} rate={rate}");
            }
        }
        Ok(())
    });
}

/// Fault trees are monotone: failing more basic events never un-fails a
/// tree built of OR/AND/KofN gates.
#[test]
fn fault_tree_monotonicity() {
    forall("fault-tree monotonicity", |g| {
        let set_a = g.any_u16();
        let extra = g.any_u16();
        let k = g.u32_in(1..4);
        // Tree over 16 basic events: KofN(k) of four AND-pairs ORed with
        // a plain OR over the last 8 events.
        let mut b = FaultTreeBuilder::new();
        let mut pairs = Vec::new();
        for i in 0..4u32 {
            let x = b.basic(ComponentId(2 * i));
            let y = b.basic(ComponentId(2 * i + 1));
            pairs.push(b.and(vec![x, y]));
        }
        let kofn = b.k_of_n(k, pairs);
        let rest: Vec<_> = (8..16u32).map(|i| b.basic(ComponentId(i))).collect();
        let or = b.or(rest);
        let root = b.or(vec![kofn, or]);
        let tree = b.build(root);

        let failed_a = move |c: ComponentId| (set_a >> c.0) & 1 == 1;
        let set_b = set_a | extra;
        let failed_b = move |c: ComponentId| (set_b >> c.0) & 1 == 1;
        let va = tree.eval(&failed_a);
        let vb = tree.eval(&failed_b);
        prop_assert!(!va || vb, "superset of failures un-failed the tree");
        Ok(())
    });
}

/// The analytic fat-tree router agrees with the valley-free reference on
/// arbitrary switch/host failure patterns.
#[test]
fn routers_agree_on_random_failures() {
    forall("analytic router equals reference", |g| {
        let failures = g.vec_in(0..24, |g| g.u32_in(0..200));
        let queries = g.vec_in(1..8, |g| (g.usize_in(0..48), g.usize_in(0..48)));
        let t = FatTreeParams::new(4).build();
        let n = t.num_components();
        let mut states = BitMatrix::new(n, 1);
        for f in failures {
            let idx = (f as usize) % n;
            if t.component(ComponentId::from_index(idx)).kind
                != recloud::topology::ComponentKind::External
            {
                states.set(idx, 0);
            }
        }
        let mut fast = FatTreeRouter::new(&t);
        let mut reference = UpDownRouter::for_fat_tree(&t);
        fast.begin_round(&states, 0);
        reference.begin_round(&states, 0);
        let hosts = t.hosts();
        for (a, b) in queries {
            let ha = hosts[a % hosts.len()];
            let hb = hosts[b % hosts.len()];
            prop_assert_eq!(
                fast.external_reaches(&states, ha),
                reference.external_reaches(&states, ha)
            );
            prop_assert_eq!(fast.connects(&states, ha, hb), reference.connects(&states, ha, hb));
        }
        Ok(())
    });
}

/// The wide router API agrees lane for lane with the scalar API on every
/// router, over arbitrary failure patterns and word-boundary round counts
/// (tails shorter and longer than one 64-round word). `connects` has no
/// wide form: its scalar verdicts are checked router against router — the
/// analytic one equals the valley-free reference, and physical
/// reachability upper-bounds both.
#[test]
fn wide_router_api_equals_scalar_api() {
    forall("wide router API equals scalar", |g| {
        let rounds = g.usize_in(1..140);
        let density = g.f64_in(0.0..0.35);
        let seed = g.any_u64();
        let t = FatTreeParams::new(4).build();
        let n = t.num_components();
        let mut states = BitMatrix::new(n, rounds);
        let mut rng = recloud::sampling::Rng::new(seed);
        for c in 0..n {
            if t.component(ComponentId::from_index(c)).kind
                == recloud::topology::ComponentKind::External
            {
                continue;
            }
            for r in 0..rounds {
                if rng.next_f64() < density {
                    states.set(c, r);
                }
            }
        }
        let hosts = t.hosts();
        let ha = hosts[g.usize_in(0..hosts.len())];
        let hb = hosts[g.usize_in(0..hosts.len())];
        let routers: [Box<dyn Router>; 3] = [
            Box::new(FatTreeRouter::new(&t)),
            Box::new(UpDownRouter::for_fat_tree(&t)),
            Box::new(GenericRouter::new(&t)),
        ];
        let mut conn = Vec::new();
        for mut router in routers {
            // Scalar truth first (the wide API may clobber scalar context).
            let mut want_ext = vec![false; rounds];
            let mut want_conn = vec![false; rounds];
            for r in 0..rounds {
                router.begin_round(&states, r);
                want_ext[r] = router.external_reaches(&states, ha);
                want_conn[r] = router.connects(&states, ha, hb);
            }
            conn.push(want_conn);
            for ww in 0..states.wide_words_per_row() {
                router.begin_wide(&states, ww);
                let ext = router.external_reach_wide(&states, ha, ww);
                for (lane, &want) in want_ext[ww * 256..].iter().take(256).enumerate() {
                    let r = ww * 256 + lane;
                    prop_assert_eq!(ext.bit(lane), want, "{}: external round {r}", router.name());
                }
            }
        }
        prop_assert_eq!(&conn[0], &conn[1], "analytic connects equals valley-free");
        prop_assert!(conn[1].iter().zip(&conn[2]).all(|(vf, phys)| !vf || *phys));
        Ok(())
    });
}

/// Batched and scalar assessments are bit-identical for arbitrary specs,
/// seeds, and round counts straddling word boundaries.
#[test]
fn batched_assessment_equals_scalar() {
    forall("batched assessment equals scalar", |g| {
        let k = g.u32_in(1..4);
        let n = k + g.u32_in(1..4);
        let words = g.usize_in(0..3);
        let offset = g.usize_in(0..6);
        let rounds = (words * 64 + offset).max(1);
        let seed = g.any_u64();
        let t = FatTreeParams::new(4).build();
        let model = FaultModel::paper_default(&t, 11);
        let spec = ApplicationSpec::k_of_n(k, n);
        let mut rng = recloud::sampling::Rng::new(seed);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        let mut scalar = Assessor::new(&t, model.clone());
        scalar.set_width(recloud::assess::BatchWidth::Scalar);
        let mut batched = Assessor::new(&t, model);
        let rs = scalar.assess(&spec, &plan, rounds, seed ^ 0xA5A5);
        let rb = batched.assess(&spec, &plan, rounds, seed ^ 0xA5A5);
        prop_assert_eq!(rs.estimate.rounds, rb.estimate.rounds);
        prop_assert_eq!(
            rs.estimate.successes,
            rb.estimate.successes,
            "k={k} n={n} rounds={rounds}"
        );
        Ok(())
    });
}

/// Both kernel lane widths — scalar and 256-lane — yield bit-for-bit
/// identical estimates across random topologies (fat-tree and leaf-spine,
/// so both the wide-native and the decomposing generic path are covered),
/// K-of-N and layered specs, wide-boundary round counts, and 1/2/4 parallel
/// workers.
#[test]
fn kernel_widths_agree_across_topologies_specs_and_workers() {
    use recloud::assess::{BatchWidth, ParallelAssessor};
    forall("scalar == 256-lane across workers", |g| {
        let t = if g.any_bool() {
            FatTreeParams::new(4).build()
        } else {
            LeafSpineParams::new(3, 4, 3).border_spines(2).build()
        };
        let k = g.u32_in(1..4);
        let n = k + g.u32_in(1..4);
        let spec = if g.any_bool() {
            ApplicationSpec::k_of_n(k, n)
        } else {
            ApplicationSpec::layered(&[(k, n), (1, 2)])
        };
        // Straddle the 256-lane boundary: up to ~2 wide words plus a tail.
        let rounds = (g.usize_in(0..3) * 256 + g.usize_in(0..9)).max(1);
        let seed = g.any_u64();
        let model = FaultModel::paper_default(&t, 7);
        let mut rng = recloud::sampling::Rng::new(seed);
        let plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);

        let mut scalar = Assessor::new(&t, model.clone());
        scalar.set_width(BatchWidth::Scalar);
        let want = scalar.assess(&spec, &plan, rounds, seed ^ 0x5A5A).estimate;
        let mut wide = Assessor::new(&t, model.clone());
        let got = wide.assess(&spec, &plan, rounds, seed ^ 0x5A5A).estimate;
        prop_assert_eq!(got.rounds, want.rounds);
        prop_assert_eq!(got.successes, want.successes, "wide rounds={rounds}");
        prop_assert_eq!(got.score.to_bits(), want.score.to_bits(), "wide");
        let workers = [1usize, 2, 4][g.usize_in(0..3)];
        let mut par = ParallelAssessor::new(&t, model, workers);
        par.set_width([BatchWidth::Scalar, BatchWidth::Wide256][g.usize_in(0..2)]);
        let got = par.assess(&spec, &plan, rounds, seed ^ 0x5A5A).estimate;
        prop_assert_eq!(got.successes, want.successes, "parallel workers={workers}");
        prop_assert_eq!(got.rounds, want.rounds);
        Ok(())
    });
}

/// The resumable driver's chunk layout: sizes sum exactly to the round
/// count, chunk ids are dense and unique, only the tail chunk may be
/// short, and `chunk_seed` never collides across (master, chunk) pairs —
/// the invariants that make any chunk-to-executor mapping (serial loop,
/// worker pool, streamed daemon) produce one identical result list.
#[test]
fn chunk_layout_and_seed_invariants() {
    let t = FatTreeParams::new(4).build();
    let model = FaultModel::paper_default(&t, 3);
    let assessor = Assessor::new(&t, model);
    forall("chunk layout and seed invariants", |g| {
        let rounds = g.usize_in(1..30_000);
        let layout = assessor.chunk_layout(rounds);
        prop_assert!(!layout.is_empty());
        let total: usize = layout.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(total, rounds, "chunk sizes must sum to the request");
        for (i, &(id, n)) in layout.iter().enumerate() {
            prop_assert_eq!(id as usize, i, "chunk ids must be dense 0..len");
            prop_assert!(n > 0, "layout contains an empty chunk");
            if i + 1 < layout.len() {
                prop_assert_eq!(n, layout[0].1, "only the tail chunk may be short");
            }
            prop_assert!(n <= layout[0].1, "no chunk exceeds the scratch width");
        }
        // Seed injectivity over several random masters and every chunk id
        // in the layout: a collision would make two chunks (or two runs)
        // replay the same failure stream.
        let masters = [g.any_u64(), g.any_u64(), g.any_u64()];
        let mut seen = std::collections::HashMap::new();
        for &master in &masters {
            for &(id, _) in &layout {
                let seed = Assessor::chunk_seed(master, id);
                if let Some(prev) = seen.insert(seed, (master, id)) {
                    prop_assert!(
                        prev == (master, id),
                        "chunk_seed collision: {prev:?} vs {:?}",
                        (master, id)
                    );
                }
            }
        }
        Ok(())
    });
}

/// Deployment plans stay valid through arbitrary chains of neighbor moves.
#[test]
fn neighbor_moves_preserve_plan_validity() {
    forall("neighbor moves preserve validity", |g| {
        let seed = g.any_u64();
        let moves = g.usize_in(1..30);
        let t = FatTreeParams::new(4).build();
        let spec = ApplicationSpec::layered(&[(1, 2), (2, 3)]);
        let mut rng = recloud::sampling::Rng::new(seed);
        let mut plan = DeploymentPlan::random(&spec, t.hosts(), &mut rng);
        for _ in 0..moves {
            plan = plan.neighbor(t.hosts(), &mut rng);
            let hosts: Vec<_> = plan.all_hosts().collect();
            let mut dedup = hosts.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), hosts.len(), "duplicate hosts after move");
            prop_assert_eq!(plan.hosts_of(0).len(), 2);
            prop_assert_eq!(plan.hosts_of(1).len(), 3);
        }
        Ok(())
    });
}

/// The paper's Δ rule is symmetric-positive and grows with the
/// reliability gap.
#[test]
fn delta_rule_properties() {
    forall("delta rule properties", |g| {
        let rc = g.f64_in(0.0..0.99999);
        let gap = g.f64_in(1e-6..0.5);
        let rn = (rc - gap).max(0.0);
        let d = DeltaRule::LogRatio.delta(rc, rn);
        prop_assert!(d >= 0.0);
        prop_assert!(d.is_finite());
        // Widening the gap increases delta.
        let rn2 = (rc - gap * 2.0).max(0.0);
        let d2 = DeltaRule::LogRatio.delta(rc, rn2);
        prop_assert!(d2 >= d - 1e-12);
        Ok(())
    });
}

/// or_merge is semantically an OR of the two trees, for arbitrary failure
/// sets.
#[test]
fn fault_tree_or_merge_is_or() {
    forall("or_merge is OR", |g| {
        let failures = g.any_u16();
        let k = g.u32_in(1..3);
        // Tree A: AND of events 0,1. Tree B: KofN(k) over events 2,3,4.
        let mut a = FaultTreeBuilder::new();
        let x = a.basic(ComponentId(0));
        let y = a.basic(ComponentId(1));
        let ra = a.and(vec![x, y]);
        let tree_a = a.build(ra);
        let mut b = FaultTreeBuilder::new();
        let leaves: Vec<_> = (2..5).map(|i| b.basic(ComponentId(i))).collect();
        let rb = b.k_of_n(k, leaves);
        let tree_b = b.build(rb);
        let merged = FaultTree::or_merge(&tree_a, &tree_b);
        let failed = move |c: ComponentId| (failures >> c.0) & 1 == 1;
        prop_assert_eq!(merged.eval(&failed), tree_a.eval(&failed) || tree_b.eval(&failed));
        Ok(())
    });
}

/// Histogram bucketing: `record(x)` lands in bucket `⌊log2 x⌋` (with 0
/// sharing bucket 0), i.e. every value sits above the previous bucket's
/// upper bound and at or below its own.
#[test]
fn obs_histogram_buckets_values_at_floor_log2() {
    use recloud_obs::{bucket_of, bucket_upper_bound, Histogram};
    forall("histogram bucket boundaries", |g| {
        let shift = g.u32_in(0..64);
        let noise = g.any_u64();
        // Cover every magnitude: a power of two, something near it, and
        // raw noise.
        for v in [1u64 << shift, (1u64 << shift) | (noise >> 1 >> (63 - shift)), noise] {
            let b = bucket_of(v);
            prop_assert_eq!(b, 63 - (v | 1).leading_zeros() as usize, "v={v}");
            if v > 1 {
                prop_assert_eq!(b, (63 - v.leading_zeros()) as usize, "floor(log2 {v})");
            }
            prop_assert!(v <= bucket_upper_bound(b), "v={v} above its bucket bound");
            if b > 0 {
                prop_assert!(v > bucket_upper_bound(b - 1), "v={v} fits an earlier bucket");
            }
            let h = Histogram::default();
            h.record(v);
            let s = h.snapshot();
            prop_assert_eq!(s.buckets[b], 1, "v={v} landed outside bucket {b}");
            prop_assert_eq!(s.buckets.iter().sum::<u64>(), 1);
        }
        Ok(())
    });
}

/// Quantile readout is monotone in q, bounded by the true max, and never
/// undershoots below the recorded values' bucket floors.
#[test]
fn obs_histogram_quantiles_are_monotone() {
    use recloud_obs::Histogram;
    forall("histogram quantile monotonicity", |g| {
        let values = g.vec_in(1..80, |g| g.any_u64() >> g.u32_in(0..64));
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.max, values.iter().copied().max().unwrap());
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        let mut prev = 0u64;
        for &q in &qs {
            let v = s.quantile(q);
            prop_assert!(v >= prev, "quantile({q}) went backwards");
            prop_assert!(v <= s.max, "quantile({q}) exceeds the recorded max");
            prev = v;
        }
        prop_assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        Ok(())
    });
}

/// The journal ring keeps exactly the newest events across arbitrary
/// capacities and write counts, wraparound included.
#[test]
fn obs_journal_wraparound_keeps_newest() {
    use recloud_obs::Journal;
    forall("journal wraparound keeps newest N", |g| {
        let capacity = 1usize << g.u32_in(3..8); // 8..=128 slots
        let writes = g.usize_in(1..400);
        let asked = g.usize_in(1..200);
        let journal = Journal::with_capacity(capacity);
        let kind = journal.kind_id("prop.event");
        for i in 0..writes {
            journal.record(kind, i as u64, (i * 3) as u64, i as f64, 0.0);
        }
        let tail = journal.tail(asked);
        prop_assert_eq!(tail.len(), asked.min(writes).min(capacity));
        // The tail is exactly the newest `len` writes, oldest first.
        let first = writes - tail.len();
        for (offset, event) in tail.iter().enumerate() {
            let i = (first + offset) as u64;
            prop_assert_eq!(event.v0, i, "wrong event survived wraparound");
            prop_assert_eq!(event.v1, i * 3);
            prop_assert_eq!(event.kind.as_str(), "prop.event");
        }
        Ok(())
    });
}

/// Downtime logs obey p = downtime / window for arbitrary interval soups,
/// including overlaps.
#[test]
fn downtime_log_probability_identity() {
    forall("downtime log identity", |g| {
        use recloud::faults::DowntimeLog;
        let intervals = g.vec_in(0..12, |g| (g.f64_in(0.0..900.0), g.f64_in(1.0..200.0)));
        let mut log = DowntimeLog::new(1_000.0);
        // Track ground truth via a fine discretization.
        let mut down = vec![false; 100_000];
        for (start, len) in intervals {
            let end = (start + len).min(1_000.0);
            log.record(ComponentId(0), start, end);
            let lo = (start * 100.0) as usize;
            let hi = ((end * 100.0) as usize).min(down.len());
            for cell in &mut down[lo..hi] {
                *cell = true;
            }
        }
        let expected = down.iter().filter(|&&d| d).count() as f64 / 100.0;
        let measured = log.downtime_of(ComponentId(0));
        prop_assert!((measured - expected).abs() < 0.05, "{measured} vs {expected}");
        let p = log.probabilities(1)[0];
        prop_assert!((p - measured / 1_000.0).abs() < 1e-12);
        Ok(())
    });
}
