//! The benchmark's contract, read from `BENCHMARK.json` at the repo root
//! (compiled in, so the binary and the file the driver reads cannot
//! disagree): workload names and reasons, every end-to-end metric with its
//! unit, direction and regression bound, every per-layer metric.

use crate::json::Json;
use std::sync::OnceLock;

pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    pub workloads: Vec<WorkloadSpec>,
    /// What a user of the system sees. `failed_share` is not among them:
    /// the contract forbids a metric that is 0 on a healthy run, and
    /// carries it as the `failed`/`attempted` pair of every result.
    pub end_to_end: Vec<MetricSpec>,
    /// Single-layer metrics, layer = crate name. A workload that does not
    /// run a layer reports 0 for it.
    pub per_layer: Vec<MetricSpec>,
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let text = |item: &Json, key: &str| {
            item.get(key).and_then(Json::as_str).expect("BENCHMARK.json: missing text").to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .expect("BENCHMARK.json: missing metric list")
                .as_arr()
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .expect("BENCHMARK.json: workloads")
                .as_arr()
                .iter()
                .map(|w| WorkloadSpec { name: text(w, "name"), why: text(w, "why") })
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the driver refuses a `BENCHMARK.json` over.
    #[test]
    fn benchmark_json_is_within_the_contract() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 << 10);
        let doc = Json::parse(text).unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let paths: Vec<&str> =
            doc.get("paths").unwrap().as_arr().iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["benchmark"]);

        let s = spec();
        assert!((1.0..=60.0).contains(&s.run_seconds) && s.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        let mut names: Vec<&str> = s.workloads.iter().map(|w| w.name.as_str()).collect();
        names.extend(s.end_to_end.iter().chain(&s.per_layer).map(|m| m.name.as_str()));
        for name in &names {
            assert!(legal_name(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "unit {}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &s.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(s.workloads.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// The rule `tests/hermetic.rs` holds the workspace to, applied to this
    /// package: every dependency is a path into the repo.
    #[test]
    fn every_dependency_is_a_path_dependency() {
        let manifest = include_str!("../Cargo.toml");
        let mut in_dependencies = false;
        let mut seen = 0;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                in_dependencies = line.ends_with("dependencies]");
            } else if in_dependencies && !line.is_empty() && !line.starts_with('#') {
                assert!(line.contains("path = \"../crates/"), "not a path dependency: {line}");
                seen += 1;
            }
        }
        assert!(seen >= 10, "found only {seen} dependencies");
    }
}
