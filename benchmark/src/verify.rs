//! The `verify` step: run once before the workloads, timed into nothing,
//! and any failure fails the whole benchmark. Every check compares two
//! paths of the same commit, or an independent estimator — there are no
//! golden constants, so re-baselining seeds does not break it.
//!
//! (The third correctness check — the store replays exactly what was
//! acknowledged — belongs to each store-backed workload and runs there.)

use crate::daemon::Daemon;
use crate::gen;
use crate::harness::Outcome;
use crate::serve::same_answer;
use recloud_assess::{Assessor, SamplerKind};
use recloud_faults::FaultModel;
use recloud_sampling::derive_seed;
use recloud_server::engine::{build_plan, spec_for};
use recloud_server::protocol::{AssessRequest, Preset};
use recloud_server::EnginePool;
use std::io;
use std::ops::ControlFlow;
use std::process::ExitCode;

/// Rounds of the sampler comparison: enough for a CIW95 near 1e-3.
const SAMPLER_ROUNDS: usize = 200_000;

/// (a) Extended dagger sampling against plain Monte-Carlo, an independent
/// estimator of the same reliability: they must agree within the sum of
/// their stated CIW95s.
fn samplers_agree(seed: u64, out: &mut Outcome) {
    for (preset, k, n) in [(Preset::Tiny, 2, 3), (Preset::Medium, 4, 5)] {
        let topology = preset.scale().build();
        let spec = recloud_apps::ApplicationSpec::k_of_n(k, n);
        let plan = gen::universe_plan(&spec, topology.hosts(), 0);
        let estimate = |kind| {
            let model = FaultModel::paper_default(&topology, gen::FIXED_SEED);
            Assessor::with_sampler(&topology, model, kind)
                .assess(&spec, &plan, SAMPLER_ROUNDS, seed)
                .estimate
        };
        let dagger = estimate(SamplerKind::ExtendedDagger);
        let monte_carlo = estimate(SamplerKind::MonteCarlo);
        let gap = (dagger.score - monte_carlo.score).abs();
        let allowed = dagger.ciw95() + monte_carlo.ciw95();
        println!(
            "verify: {preset:?} dagger {:.5} vs monte-carlo {:.5}: gap {gap:.2e}, allowed {allowed:.2e}",
            dagger.score, monte_carlo.score
        );
        out.check(gap <= allowed, || format!("{preset:?}: samplers disagree by {gap:.2e}"));
    }
}

/// (b) 32 served answers — three presets, plain and streamed — equal the
/// in-process engine bit for bit, and a cache hit equals its first miss.
fn served_equals_in_process(seed: u64, out: &mut Outcome) -> io::Result<()> {
    let mut daemon = Daemon::spawn("verify", &[], false)?;
    let mut client = daemon.connect()?;
    let mut pool = EnginePool::new();
    let mut first = None;
    for i in 0..32u64 {
        let (preset, k, n) =
            [(Preset::Tiny, 2, 3), (Preset::Medium, 4, 5), (Preset::Large, 4, 5)][(i % 3) as usize];
        let spec = spec_for(k, n, 1);
        let topology = preset.scale().build();
        let request = AssessRequest {
            preset,
            rounds: 10_000,
            seed: derive_seed(seed, i),
            k,
            n,
            assignments: gen::assignments(&gen::universe_plan(&spec, topology.hosts(), i)),
        };
        let streamed = i % 2 == 1;
        let served = if streamed {
            client.assess_streaming(request.clone(), 1, |_| ControlFlow::Continue(()))?.0
        } else {
            client.assess(request.clone())?
        };
        let plan = build_plan(&spec, &request.assignments).map_err(io::Error::other)?;
        let local = pool.assess(&request, &spec, &plan).map_err(io::Error::other)?;
        out.check(same_answer(&served, &local) && !served.cached, || {
            format!(
                "request {i} ({preset:?}, streamed {streamed}): served {served:?}, local {local:?}"
            )
        });
        first.get_or_insert((request, served));
    }
    let (request, miss) = first.expect("32 requests were sent");
    let hit = client.assess(request)?;
    out.check(hit.cached && same_answer(&hit, &miss), || {
        format!("hit {hit:?} != its miss {miss:?}")
    });
    daemon.shutdown()
}

pub fn run(seed: u64) -> Result<ExitCode, String> {
    let mut out = Outcome::default();
    samplers_agree(seed, &mut out);
    served_equals_in_process(seed, &mut out).map_err(|e| format!("verify: {e}"))?;
    for why in &out.failures {
        println!("verify FAILED: {why}");
    }
    println!("verify: {} checks, {} failed", out.attempted, out.failed);
    Ok(if out.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
