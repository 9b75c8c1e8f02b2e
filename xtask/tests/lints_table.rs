//! Every package in the workspace opts into the workspace lints table.
//!
//! `unsafe_code`, the hash-collection ban and the suppression rules are
//! enforced by rustc and clippy through `[workspace.lints]` and
//! `clippy.toml`. A package reaches that table only through
//! `[lints] workspace = true` in its own manifest, so a new crate that
//! forgets the line would silently escape all of it. This test keeps the
//! table's coverage as automatic as a tree walk's.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level below the repo root")
        .to_path_buf()
}

/// The entries of the root manifest's `[workspace] members` array.
fn members(root_manifest: &str) -> Vec<String> {
    let start = root_manifest
        .find("members = [")
        .expect("root manifest lists workspace members");
    let body = &root_manifest[start + "members = [".len()..];
    let body = &body[..body.find(']').expect("members array is closed")];
    body.split(',')
        .map(|m| m.trim().trim_matches('"').to_owned())
        .filter(|m| !m.is_empty())
        .collect()
}

/// Whether the manifest has a `[lints]` table containing
/// `workspace = true` (and nothing may follow it, as cargo requires).
fn opts_in(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_package_opts_into_the_workspace_lints() {
    let root = repo_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"deny\""),
        "the workspace lints table denies unsafe_code"
    );
    let members = members(&root_manifest);
    assert!(members.len() >= 10, "parsed the members array: {members:?}");
    let mut missing: Vec<String> = members
        .iter()
        .filter(|m| !opts_in(&read(&root.join(m).join("Cargo.toml"))))
        .cloned()
        .collect();
    if !opts_in(&root_manifest) {
        missing.push("the root package".into());
    }
    assert!(
        missing.is_empty(),
        "add `[lints]\\nworkspace = true` to the manifest of: {}",
        missing.join(", ")
    );
}

#[test]
fn opt_in_detection_reads_only_the_lints_table() {
    assert!(opts_in(
        "[package]\nname = \"a\"\n\n[lints]\nworkspace = true\n"
    ));
    assert!(!opts_in("[package]\nname = \"a\"\n"));
    assert!(!opts_in("[lints]\n\n[dependencies]\nworkspace = true\n"));
    assert_eq!(
        members("[workspace]\nmembers = [\n    \"crates/a\",\n    \"xtask\",\n]\n"),
        vec!["crates/a", "xtask"]
    );
}
