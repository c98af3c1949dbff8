//! Hermetic-build guard: the workspace must stay 100% path-dependency /
//! std-only so that `cargo build` works with no network and no registry.
//!
//! The seed state of this repo failed tier-1 verify before a single test
//! ran, because dependency resolution aborted on four unresolvable
//! registry crates. This test walks every `Cargo.toml` in the workspace
//! and fails if any dependency that is not a `path` dependency (or a
//! `workspace = true` alias of one) is ever reintroduced, so that failure
//! mode cannot silently regress.

use std::path::{Path, PathBuf};

/// Collects the workspace root manifest plus every `crates/*/Cargo.toml`.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", crates.display()));
    for entry in entries {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    manifests.sort();
    manifests
}

/// True for section headers of tables that declare dependencies, including
/// target-specific forms like `[target.'cfg(unix)'.dependencies]`.
fn is_dependency_section(header: &str) -> bool {
    let h = header.trim_start_matches('[').trim_end_matches(']');
    h == "dependencies"
        || h == "dev-dependencies"
        || h == "build-dependencies"
        || h == "workspace.dependencies"
        || h.ends_with(".dependencies")
        || h.ends_with(".dev-dependencies")
        || h.ends_with(".build-dependencies")
}

/// A dependency value is hermetic iff it resolves inside the repo: either
/// an explicit `path = "..."` table, or `workspace = true` (which aliases
/// the root `[workspace.dependencies]`, itself checked by this test).
fn is_hermetic_dependency(value: &str) -> bool {
    value.contains("path") || value.contains("workspace = true")
}

/// Parses one manifest and returns `(dependency, value)` pairs for every
/// entry in every dependency section. Line-oriented on purpose: manifests
/// in this repo are hand-written, and a parser that errs toward flagging
/// too much is the safe direction for a guard test.
fn dependency_entries(text: &str) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    let mut in_dep_section = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            in_dep_section = is_dependency_section(line);
            continue;
        }
        if !in_dep_section {
            continue;
        }
        if let Some((name, value)) = line.split_once('=') {
            entries.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    entries
}

#[test]
fn every_dependency_is_a_path_dependency() {
    let manifests = workspace_manifests();
    assert!(
        manifests.len() >= 15,
        "expected the root + 14 crate manifests (store included), found {}",
        manifests.len()
    );
    let mut violations = Vec::new();
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
        for (name, value) in dependency_entries(&text) {
            if !is_hermetic_dependency(&value) {
                violations.push(format!("{}: {name} = {value}", manifest.display()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "non-path dependencies would break the offline build:\n  {}\nVendor the \
         functionality into the workspace instead (see crates/sampling/src/{{wire,proptest}}.rs \
         for how bytes and proptest were replaced).",
        violations.join("\n  ")
    );
}

#[test]
fn server_crate_is_present_and_path_only() {
    // The serving daemon is the crate most tempted by external deps
    // (async runtimes, serde, hashers); pin that it exists and resolves
    // entirely inside the repo.
    let manifests = workspace_manifests();
    let server = manifests
        .iter()
        .find(|m| m.ends_with("crates/server/Cargo.toml"))
        .expect("crates/server/Cargo.toml must exist");
    let text = std::fs::read_to_string(server).unwrap();
    let entries = dependency_entries(&text);
    assert!(!entries.is_empty(), "server manifest declares no dependencies?");
    for (name, value) in entries {
        assert!(
            is_hermetic_dependency(&value),
            "recloud-server dependency '{name} = {value}' is not path-only"
        );
    }
}

#[test]
fn store_crate_is_present_and_path_only() {
    // The durable result store is the crate most tempted by serialization
    // and checksum deps (serde, crc32fast, bincode); pin that it exists
    // and leans only on the in-repo `recloud_sampling::wire` codec — the
    // foundation crate is its one dependency, not the `recloud` façade
    // and the whole pipeline behind it.
    let manifests = workspace_manifests();
    let store = manifests
        .iter()
        .find(|m| m.ends_with("crates/store/Cargo.toml"))
        .expect("crates/store/Cargo.toml must exist");
    let text = std::fs::read_to_string(store).unwrap();
    let entries = dependency_entries(&text);
    let names: Vec<&str> = entries.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["recloud-sampling"], "recloud-store depends on more than the foundation");
    for (name, value) in entries {
        assert!(
            is_hermetic_dependency(&value),
            "recloud-store dependency '{name} = {value}' is not path-only"
        );
    }
}

#[test]
fn former_external_crates_stay_gone() {
    // The four crates the seed state depended on. Their names must not
    // reappear as dependency keys anywhere in the workspace.
    const BANNED: [&str; 4] = ["crossbeam", "bytes", "proptest", "criterion"];
    for manifest in workspace_manifests() {
        let text = std::fs::read_to_string(&manifest).unwrap();
        for (name, value) in dependency_entries(&text) {
            assert!(
                !BANNED.contains(&name.as_str()),
                "{}: dependency '{name} = {value}' reintroduces a banned external crate",
                manifest.display()
            );
        }
    }
}

#[test]
fn parser_flags_registry_dependencies() {
    // Self-test of the guard's parser on synthetic manifest snippets.
    let bad = r#"
[package]
name = "x"

[dependencies]
serde = "1"
recloud = { path = "crates/core" }

[dev-dependencies]
proptest = { version = "1", default-features = false }
"#;
    let entries = dependency_entries(bad);
    let flagged: Vec<_> =
        entries.iter().filter(|(_, v)| !is_hermetic_dependency(v)).map(|(n, _)| n).collect();
    assert_eq!(flagged, ["serde", "proptest"]);

    let good = r#"
[dependencies]
recloud-topology = { workspace = true }
recloud-faults = { path = "../faults" }

[target.'cfg(unix)'.dependencies]
recloud-apps = { workspace = true }
"#;
    assert!(dependency_entries(good).iter().all(|(_, v)| is_hermetic_dependency(v)));
}
