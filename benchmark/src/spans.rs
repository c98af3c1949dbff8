//! The benchmark's own span recorder for the traced pass: spans live in
//! memory while the workload runs and are written out once, as Chrome
//! trace-event JSON, when it ends.
//!
//! Times are microseconds since the recorder was created. The recorder
//! also notes the Unix-epoch time of that moment — the clock the daemon's
//! own tracer stamps its spans with — so a daemon span tree fetched over
//! `TraceDump` lands on the same timeline as the client spans around it.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u64,
    /// Which process recorded it (Chrome `tid`): 1 generator, 2 daemon.
    pub lane: u32,
}

pub struct Recorder {
    epoch_base_us: u64,
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        let epoch_base_us =
            SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_micros() as u64;
        Recorder { epoch_base_us, t0: Instant::now(), spans: Vec::new() }
    }

    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_nanos() as f64 / 1e3
    }

    /// Places a Unix-epoch timestamp (the daemon's clock) on this
    /// recorder's timeline.
    pub fn at_epoch_us(&self, epoch_us: u64) -> f64 {
        (epoch_us as i128 - self.epoch_base_us as i128) as f64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_us();
        self.push(Span { name, start_us: now, end_us: now, parent, op, lane: 1 })
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_us = self.now_us();
    }

    /// Closes a span at a time already read.
    pub fn set_end(&mut self, span: usize, end_us: f64) {
        self.spans[span].end_us = end_us;
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let op = self.spans[parent].op;
        let span = self.start(name, Some(parent), op);
        let out = f();
        self.end(span);
        out
    }

    /// Adds a span measured elsewhere (the daemon's tree).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover. Children may overlap each
    /// other or stick out past the parent (clock skew between two
    /// processes); only the union of their overlap with the parent counts.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|x, y| x.partial_cmp(y).expect("span times are never NaN"));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in kids {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_us - s.start_us - covered).max(0.0)
            })
            .collect()
    }

    /// Share of the spans `picked` selects that their child spans cover:
    /// 1 − (their self time ÷ their duration), over all of them together.
    pub fn coverage(&self, picked: impl Fn(&Span) -> bool) -> f64 {
        let (mut whole, mut uncovered) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(self.self_times_us()) {
            if picked(s) {
                whole += s.end_us - s.start_us;
                uncovered += own;
            }
        }
        1.0 - uncovered / f64::max(whole, 1e-9)
    }

    /// Total self time per span name.
    pub fn self_time_by_name_us(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_us()) {
            *by_name.entry(s.name).or_insert(0.0) += own;
        }
        by_name
    }

    /// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev):
    /// one complete ("X") event per span.
    pub fn chrome_trace(&self) -> Json {
        let origin = self.spans.iter().map(|s| s.start_us).fold(f64::INFINITY, f64::min);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us - origin)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.lane as f64)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::Num(i as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                            ("op", Json::Num(s.op as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start_us: start, end_us: end, parent, op: 0, lane: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut r = Recorder::new();
        let root = r.push(span("op", 0.0, 100.0, None));
        let a = r.push(span("a", 10.0, 40.0, Some(root)));
        r.push(span("a.inner", 15.0, 25.0, Some(a)));
        r.push(span("b", 50.0, 90.0, Some(root)));
        // Grandchildren reduce their parent's self time, not the root's.
        assert_eq!(r.self_times_us(), vec![30.0, 20.0, 10.0, 40.0]);
        let total: f64 = r.self_time_by_name_us().values().sum();
        assert_eq!(total, 100.0, "self times of a tree sum to the root's duration");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union_inside_the_parent() {
        let mut r = Recorder::new();
        let root = r.push(span("op", 100.0, 200.0, None));
        r.push(span("x", 110.0, 150.0, Some(root)));
        r.push(span("y", 140.0, 170.0, Some(root))); // overlaps x by 10
        r.push(span("z", 120.0, 130.0, Some(root))); // inside x
        r.push(span("late", 190.0, 230.0, Some(root))); // sticks out by 30
        r.push(span("outside", 300.0, 310.0, Some(root))); // no overlap at all
                                                           // Covered: [110,170] and [190,200], 70 in all.
        assert_eq!(r.self_times_us()[root], 30.0);
    }

    #[test]
    fn timed_closures_nest_under_their_parent_and_share_its_op() {
        let mut r = Recorder::new();
        let root = r.start("op", None, 42);
        let v = r.time("stage", root, || 7);
        r.end(root);
        assert_eq!(v, 7);
        let stage = &r.spans()[1];
        assert_eq!((stage.parent, stage.op), (Some(root), 42));
        assert!(r.spans()[root].end_us >= stage.end_us && stage.end_us >= stage.start_us);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut r = Recorder::new();
        let root = r.push(span("op", 1000.0, 1100.0, None));
        r.push(span("child", 1010.0, 1020.0, Some(root)));
        let doc = Json::parse(&r.chrome_trace().render()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ts").and_then(Json::as_f64), Some(10.0));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(10.0));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
    }
}
