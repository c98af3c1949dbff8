//! The closed-loop load generator and the shape every workload reports in.
//!
//! Closed loop because the callers are placement tools that block on
//! their client: a worker issues its next op only when the previous one
//! has answered. A measured phase is cut into equal segments; each timing
//! metric is computed per segment and the median segment is reported, so
//! one disturbed stretch of a shared machine moves the max, not the value.

use crate::procfs;
use crate::stats::{self, SegmentStat};
use std::time::Instant;

/// Segments of a measured phase.
pub const SEGMENTS: usize = 5;

/// What one op tells the harness besides how long it took.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpOut {
    /// Answered, and the answer passed the inline checks.
    pub ok: bool,
    /// Served from the daemon's result cache (`None`: not a served op).
    pub hit: Option<bool>,
    /// Send → first estimate, µs (streams: first `Partial`; 0 = the
    /// answer itself was the first estimate).
    pub first_us: f64,
    /// `Partial` frames received.
    pub partials: u32,
    /// Median gap between consecutive partials, µs.
    pub gap_us: f64,
}

pub trait Worker: Send {
    /// Runs op number `index` of the workload to completion.
    fn op(&mut self, index: u64) -> OpOut;
}

#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    pub segment: usize,
    pub lat_us: f64,
    pub out: OpOut,
}

/// One worker's view of one segment.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    ops: u64,
    wall_s: f64,
}

pub struct Phase {
    pub records: Vec<OpRecord>,
    lanes: Vec<[Lane; SEGMENTS]>,
    /// CPU seconds of the process doing the work, per segment.
    work_cpu_s: [f64; SEGMENTS],
    /// Generator CPU seconds over generator wall seconds.
    pub generator_cpu_share: f64,
    /// Whole-phase wall seconds.
    pub wall_s: f64,
}

/// Runs `workers` concurrently (one thread each) for `seconds`, worker
/// `w` of `n` taking op indices `first + w`, `first + w + n`, … .
/// `work_cpu` reads the CPU seconds of the process that does the work.
pub fn closed_loop<W: Worker>(
    workers: &mut [W],
    first: u64,
    seconds: f64,
    work_cpu: &(dyn Fn() -> f64 + Sync),
) -> Phase {
    let n = workers.len() as u64;
    let seg_s = seconds / SEGMENTS as f64;
    let gen_cpu0 = procfs::cpu_seconds(None);
    let start = Instant::now();
    let per_worker: Vec<(Vec<OpRecord>, [Lane; SEGMENTS], Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, worker)| {
                s.spawn(move || {
                    let mut records = Vec::new();
                    let mut lanes = [Lane::default(); SEGMENTS];
                    // Worker 0 samples the work process's CPU clock each
                    // time it enters a new segment, and once at the end.
                    let mut cpu_marks = if w == 0 { vec![work_cpu()] } else { Vec::new() };
                    let mut seg_started = 0.0;
                    let mut segment = 0;
                    let mut index = first + w as u64;
                    loop {
                        let now = start.elapsed().as_secs_f64();
                        let now_segment = ((now / seg_s) as usize).min(SEGMENTS);
                        while segment < now_segment {
                            lanes[segment].wall_s = now - seg_started;
                            seg_started = now;
                            segment += 1;
                            if w == 0 {
                                cpu_marks.push(work_cpu());
                            }
                        }
                        if segment == SEGMENTS {
                            break;
                        }
                        let t0 = Instant::now();
                        let out = worker.op(index);
                        let lat_us = t0.elapsed().as_nanos() as f64 / 1e3;
                        records.push(OpRecord { segment, lat_us, out });
                        lanes[segment].ops += 1;
                        index += n;
                    }
                    (records, lanes, cpu_marks)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load worker panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let generator_cpu_share = (procfs::cpu_seconds(None) - gen_cpu0) / wall_s;
    let marks = &per_worker[0].2;
    let mut work_cpu_s = [0.0; SEGMENTS];
    for (s, cpu) in work_cpu_s.iter_mut().enumerate() {
        *cpu = marks.get(s + 1).copied().unwrap_or(0.0) - marks.get(s).copied().unwrap_or(0.0);
    }
    Phase {
        records: per_worker.iter().flat_map(|(r, _, _)| r.iter().copied()).collect(),
        lanes: per_worker.iter().map(|(_, l, _)| *l).collect(),
        work_cpu_s,
        generator_cpu_share,
        wall_s,
    }
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.records.len() as u64
    }

    fn seg_ops(&self, s: usize) -> u64 {
        self.lanes.iter().map(|l| l[s].ops).sum()
    }

    /// Successful ops per second: each worker's own rate, summed.
    pub fn ops_per_s(&self) -> SegmentStat {
        let per_seg: Vec<f64> = (0..SEGMENTS)
            .map(|s| {
                let ok = self.records.iter().filter(|r| r.segment == s && r.out.ok).count();
                let ok_share = ok as f64 / self.seg_ops(s).max(1) as f64;
                let rate: f64 = self
                    .lanes
                    .iter()
                    .filter(|l| l[s].wall_s > 0.0)
                    .map(|l| l[s].ops as f64 / l[s].wall_s)
                    .sum();
                rate * ok_share
            })
            .collect();
        stats::median_of_segments(&per_seg)
    }

    pub fn cpu_ms_per_op(&self) -> SegmentStat {
        let per_seg: Vec<f64> = (0..SEGMENTS)
            .map(|s| 1e3 * self.work_cpu_s[s] / self.seg_ops(s).max(1) as f64)
            .collect();
        stats::median_of_segments(&per_seg)
    }

    fn seg_values(&self, s: usize, f: impl Fn(&OpRecord) -> Option<f64>) -> Vec<f64> {
        self.records.iter().filter(|r| r.segment == s).filter_map(f).collect()
    }

    /// Per-segment typical value ([`stats::typical`]) of a per-op
    /// quantity, then the median segment.
    pub fn seg_typical(&self, f: impl Fn(&OpRecord) -> Option<f64> + Copy) -> SegmentStat {
        let per_seg: Vec<f64> =
            (0..SEGMENTS).map(|s| stats::typical(&self.seg_values(s, f))).collect();
        stats::median_of_segments(&per_seg)
    }

    /// All values of a per-op quantity over the whole phase, ascending.
    pub fn sorted(&self, f: impl Fn(&OpRecord) -> Option<f64>) -> Vec<f64> {
        stats::sorted(self.records.iter().filter_map(f).collect())
    }

    /// Share of the workers' time spent outside ops: what the harness
    /// itself costs an in-process workload.
    pub fn harness_share(&self) -> f64 {
        let in_ops_s = self.records.iter().map(|r| r.lat_us).sum::<f64>() / 1e6;
        1.0 - in_ops_s / (self.wall_s * self.lanes.len() as f64)
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.out.ok).count() as u64
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Min and max segment, when the value is a median of segments.
    pub range: Option<(f64, f64)>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit, range: None }
    }

    pub fn of_segments(name: &str, s: SegmentStat, unit: &'static str) -> Metric {
        Metric { name: name.into(), value: s.median, unit, range: Some((s.min, s.max)) }
    }
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why each failure counted, for the human reading the log.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one checked thing; a false `ok` is a failure with a reason.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn num(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Counts a phase's ops as attempted and its failed ops as failed.
    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.ops();
        self.failed += phase.failed();
    }

    /// The end-to-end metrics of an untraced measured phase.
    pub fn end_to_end(&mut self, phase: &Phase, setup_s: f64, peak_rss_mb: f64, downtime_h: f64) {
        self.num("setup_s", setup_s, "s");
        self.push(Metric::of_segments("ops_per_s", phase.ops_per_s(), "1/s"));
        self.push(Metric::of_segments("op_p50_us", phase.seg_typical(|r| Some(r.lat_us)), "us"));
        self.push(Metric::of_segments("cpu_ms_per_op", phase.cpu_ms_per_op(), "ms"));
        self.num("peak_rss_mb", peak_rss_mb, "MiB");
        // A request answered in one frame delivers its first estimate
        // with the answer.
        let first =
            |r: &OpRecord| Some(if r.out.first_us > 0.0 { r.out.first_us } else { r.lat_us });
        self.push(Metric::of_segments("first_partial_p50_us", phase.seg_typical(first), "us"));
        self.num("best_downtime_h", downtime_h, "h");
        self.count(phase);
    }

    /// The generator's own layer: tails, hit/miss split, partial cadence,
    /// how much CPU the generator took and how far the segments disagree.
    /// Counts the phase too.
    pub fn client_layer(&mut self, phase: &Phase, cpu_share: f64) {
        self.count(phase);
        let lat = phase.sorted(|r| Some(r.lat_us));
        self.num("client.op_p90_us", stats::percentile(&lat, 0.90), "us");
        self.num("client.op_p99_us", stats::percentile(&lat, 0.99), "us");
        self.num("client.op_max_us", stats::percentile(&lat, 1.0), "us");
        let hits = phase.sorted(|r| (r.out.hit == Some(true)).then_some(r.lat_us));
        let misses = phase.sorted(|r| (r.out.hit == Some(false)).then_some(r.lat_us));
        self.num("client.hit_p50_us", stats::percentile(&hits, 0.5), "us");
        self.num("client.miss_p50_us", stats::percentile(&misses, 0.5), "us");
        let served = (hits.len() + misses.len()).max(1) as f64;
        self.num("server.cache.hit_share", hits.len() as f64 / served, "share");
        let partials: f64 = phase.records.iter().map(|r| r.out.partials as f64).sum();
        self.num("client.partials_per_op", partials / phase.ops().max(1) as f64, "count");
        let gaps = phase.sorted(|r| (r.out.partials > 1).then_some(r.out.gap_us));
        self.num("client.partial_gap_p50_us", stats::percentile(&gaps, 0.5), "us");
        self.num("client.cpu_share", cpu_share, "share");
        self.num("bench.segment_spread", phase.ops_per_s().spread(), "share");
    }
}

/// Further set-ups a run times after its measured phase.
pub const EXTRA_SETUPS: usize = 4;

/// `setup_s`: the median over the set-up the run measured on (`first_s`
/// seconds) and [`EXTRA_SETUPS`] more, each built and dropped in turn.
/// The extra ones run *after* the measured phase, so that the process
/// whose peak memory is reported has only ever held one set-up; built
/// before, their freed memory stays with the allocator in amounts that
/// differ from run to run (120 or 131 MiB peak on `assess_large_fresh`).
pub fn setup_median(first_s: f64, mut build_and_drop: impl FnMut()) -> f64 {
    let mut seconds = vec![first_s];
    for _ in 0..EXTRA_SETUPS {
        let t0 = Instant::now();
        build_and_drop();
        seconds.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&seconds)
}

/// Annual downtime hours a pooled `(rounds, successes)` implies.
pub fn downtime_hours(rounds: u64, successes: u64) -> f64 {
    8760.0 * (1.0 - successes as f64 / rounds.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    struct Sleeper {
        seen: Vec<u64>,
    }

    impl Worker for Sleeper {
        fn op(&mut self, index: u64) -> OpOut {
            self.seen.push(index);
            std::thread::sleep(Duration::from_millis(2));
            OpOut { ok: index % 10 != 9, ..OpOut::default() }
        }
    }

    #[test]
    fn closed_loop_interleaves_indices_and_fills_every_segment() {
        let mut workers = vec![Sleeper { seen: vec![] }, Sleeper { seen: vec![] }];
        let phase = closed_loop(&mut workers, 100, 0.3, &|| 0.0);
        assert!(workers[0].seen.iter().all(|i| i % 2 == 0) && workers[0].seen[0] == 100);
        assert!(workers[1].seen.iter().all(|i| i % 2 == 1) && workers[1].seen[0] == 101);
        assert_eq!(phase.ops() as usize, workers[0].seen.len() + workers[1].seen.len());
        for s in 0..SEGMENTS {
            assert!(phase.seg_ops(s) > 10, "segment {s} ran {} ops", phase.seg_ops(s));
        }
        // Two sleepers at 2 ms/op: about 1,000 ops/s minus the failed tenth.
        let rate = phase.ops_per_s().median;
        assert!(rate > 500.0 && rate < 1000.0, "rate {rate}");
        let p50 = phase.seg_typical(|r| Some(r.lat_us)).median;
        assert!((2_000.0..4_000.0).contains(&p50), "p50 {p50}");
        assert!(phase.failed() > 0 && phase.failed() < phase.ops() / 5);
    }
}
