//! `cargo run -p xtask -- lint [--verbose] [--rule <id>] [--lock-graph <path>]`
//!
//! Thin CLI over the [`xtask`] library: exit code 1 iff any
//! Error-severity diagnostic was produced. `--verbose` includes the
//! Info-severity inventories in the output; `--rule` restricts to one
//! pass for focused runs. `--lock-graph` writes the static lock
//! acquisition graph as GraphViz DOT. A full run (no `--rule`) also
//! checks the inventories against the ratchet in [`xtask::baseline`].

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::config::LintConfig;
use xtask::runner::{run, LintOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- lint [--verbose] [--rule <id>] [--lock-graph <path>]"
            );
            ExitCode::FAILURE
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut verbose = false;
    let mut only_rule = None;
    let mut lock_graph: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--verbose" => verbose = true,
            "--rule" => match it.next() {
                Some(r) => only_rule = Some(r.clone()),
                None => {
                    eprintln!("--rule needs an argument (a rule id; see ANALYSIS.md)");
                    return ExitCode::FAILURE;
                }
            },
            "--lock-graph" => match it.next() {
                Some(p) => lock_graph = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--lock-graph needs a path (e.g. lock-graph.dot)");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(r) = &only_rule {
        if !xtask::rules::known_ids().contains(&r.as_str()) {
            eprintln!(
                "unknown rule `{r}` (known: {})",
                xtask::rules::known_ids().join(", ")
            );
            return ExitCode::FAILURE;
        }
    }

    let root = repo_root();
    let cfg = LintConfig::repo();
    let full_run = only_rule.is_none();
    let mut report = run(&root, &cfg, &LintOptions { only_rule });

    if let Some(path) = &lock_graph {
        match &report.lock_graph_dot {
            Some(dot) => {
                if let Err(e) = std::fs::write(path, dot) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("lock graph written to {}", path.display());
            }
            None => {
                eprintln!("--lock-graph: no graph produced (did --rule exclude lock-order?)");
                return ExitCode::FAILURE;
            }
        }
    }

    // A focused run sees partial inventories, so only a full run can
    // compare them against the pinned values.
    if full_run {
        let findings = xtask::baseline::check(&report);
        report.diagnostics.extend(findings);
        report.sort();
    }

    print!("{}", report.render_human(verbose));
    if report.error_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn repo_root() -> PathBuf {
    // xtask always runs via `cargo run -p xtask`, so the manifest dir is
    // <root>/xtask.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("run via cargo");
    PathBuf::from(manifest)
        .parent()
        .expect("xtask has a parent")
        .to_path_buf()
}
