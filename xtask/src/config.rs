//! Lint configuration: which files each pass applies to.
//!
//! Production runs use [`LintConfig::repo`]; the fixture tests build
//! bespoke configs pointing rules at fixture files, so every rule is
//! testable without replicating the repo layout.

/// File-set configuration consumed by the rule passes. All paths are
/// repo-relative with forward slashes; "dir" entries are prefixes.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Modules ported to the `dcover_congest::sync` facade
    /// (rule `sync-facade`).
    pub facade_files: Vec<String>,
    /// Serving-path modules (rule `panic-surface`).
    pub serving_files: Vec<String>,
    /// Protocol-implementation dirs that must not read a clock
    /// (rule `congest-conformance`).
    pub conformance_dirs: Vec<String>,
    /// Path prefixes exempt from style rules (offline dependency shims
    /// mirroring upstream APIs).
    pub shim_prefixes: Vec<String>,
    /// Directory *names* never scanned anywhere in the tree.
    pub skip_dir_names: Vec<String>,
    /// Files whose lock sites feed the static lock model (rules
    /// `lock-order` and `blocking-in-worker`).
    pub lock_order_files: Vec<String>,
    /// Names of pool-worker run-loop fns: roots of the
    /// `blocking-in-worker` reachability pass.
    pub worker_entry_fns: Vec<String>,
    /// CONGEST budget: the worst-case bit-width every `impl Message`
    /// type must stay under (rule `message-bits`). 256 = comfortable
    /// O(log n) headroom for the n this repo simulates, while still
    /// catching any accidentally-unbounded payload.
    pub max_message_bits: u64,
}

impl LintConfig {
    /// The production configuration for this repository.
    pub fn repo() -> Self {
        LintConfig {
            facade_files: vec![
                "crates/congest/src/pool.rs".into(),
                "crates/congest/src/cancel.rs".into(),
                "crates/congest/src/metrics.rs".into(),
                "crates/core/src/service.rs".into(),
            ],
            serving_files: vec![
                "crates/congest/src/engine.rs".into(),
                "crates/congest/src/sim.rs".into(),
                "crates/congest/src/pool.rs".into(),
                "crates/congest/src/cancel.rs".into(),
                "crates/congest/src/metrics.rs".into(),
                "crates/core/src/service.rs".into(),
            ],
            conformance_dirs: vec![
                "crates/core/src/protocol/".into(),
                "crates/baselines/src/".into(),
            ],
            shim_prefixes: vec!["crates/shims/".into()],
            // `fixtures` holds deliberately-violating lint-test inputs —
            // data, not sources.
            skip_dir_names: vec![
                "target".into(),
                ".git".into(),
                ".github".into(),
                "fixtures".into(),
            ],
            lock_order_files: vec![
                "crates/congest/src/pool.rs".into(),
                "crates/congest/src/cancel.rs".into(),
                "crates/congest/src/metrics.rs".into(),
                "crates/core/src/service.rs".into(),
            ],
            worker_entry_fns: vec!["worker_loop".into()],
            max_message_bits: 256,
        }
    }

    pub fn is_shim(&self, rel: &str) -> bool {
        self.shim_prefixes
            .iter()
            .any(|p| rel.starts_with(p.as_str()))
    }

    pub fn in_dirs(dirs: &[String], rel: &str) -> bool {
        dirs.iter().any(|d| rel.starts_with(d.as_str()))
    }
}
