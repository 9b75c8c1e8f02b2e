//! What a run measured, the metric tables `BENCHMARK.json` declares, and
//! the two output forms: one provenance record per value, then the result
//! line a benchmark harness reads.

use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics, reported by every workload with tracing off.
/// Each workload maps them onto its own requests; see the workload modules.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The per-layer metrics, reported by every workload's traced run. A layer
/// a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hypergraph.format.parse_s", "s"),
    ("core.protocol.build_network_s", "s"),
    ("congest.sim.setup_s", "s"),
    ("congest.sim.rounds_s", "s"),
    ("congest.sim.round_us_p50", "us"),
    ("congest.sim.round_us_max", "us"),
    ("congest.sim.msgs_per_s", "1/s"),
    ("congest.sim.rounds", "count"),
    ("congest.sim.messages", "count"),
    ("congest.engine.flood_msgs_per_s", "1/s"),
    ("congest.engine.gap_ratio", "ratio"),
    ("congest.engine.slot_bytes", "B"),
    ("congest.engine.mailbox_bytes", "B"),
    ("core.solver.remainder_s", "s"),
    ("congest.parallel.setup_s", "s"),
    ("congest.parallel.rounds_s", "s"),
    ("congest.parallel.round_us_p50", "us"),
    ("congest.parallel.cross_fraction", "ratio"),
    ("congest.parallel.flood_msgs_per_s", "1/s"),
    ("core.certificate.verify_s", "s"),
    ("hypergraph.format.record_parse_us_p50", "us"),
    ("core.service.submit_us_p99", "us"),
    ("core.service.wake_us_p50", "us"),
    ("core.service.rejected", "count"),
    ("core.service.shed", "count"),
    ("core.service.expired", "count"),
    ("congest.pool.interactive_queue_wait_ms_p50", "ms"),
    ("congest.pool.interactive_queue_wait_ms_p99", "ms"),
    ("congest.pool.bulk_queue_wait_ms_p50", "ms"),
    ("congest.pool.bulk_queue_wait_ms_p99", "ms"),
    ("congest.pool.interactive_run_ms_p50", "ms"),
    ("congest.pool.bulk_run_ms_p50", "ms"),
    ("congest.pool.worker_busy_share", "ratio"),
    ("congest.pool.queue_depth_high_water", "count"),
    ("hypergraph.delta.apply_ms_p50", "ms"),
    ("core.warm.for_delta_ms_p50", "ms"),
    ("core.protocol.build_network_warm_ms_p50", "ms"),
    ("core.solver.solve_warm_ms_p50", "ms"),
    ("core.warm.rounds_per_revision", "count"),
    ("core.warm.rounds_ratio", "ratio"),
    ("core.warm.empty_delta_mismatches", "count"),
    ("bench.solve_s", "s"),
    ("bench.latency_p90_ms", "ms"),
    ("bench.interactive_p50_ms", "ms"),
    ("bench.interactive_p99_ms", "ms"),
    ("bench.bulk_p99_ms", "ms"),
    ("bench.gen_lag_ms_p99", "ms"),
    ("bench.failed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// One measured value and the worker threads it ran on.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub threads: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that failed; any entry fails the whole run.
    pub gate_failures: Vec<String>,
    pub values: Vec<Value>,
}

impl Outcome {
    /// Records a value. `name` must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`], or be one of the descriptive extras the provenance
    /// lines carry; the unit comes from the table when declared there.
    pub fn put(&mut self, name: &str, value: f64, threads: usize) {
        let unit = unit_of(name).unwrap_or("count");
        self.values.retain(|v| v.name != name);
        self.values.push(Value {
            name: name.to_string(),
            value,
            unit,
            threads,
        });
    }

    /// Records a value whose unit no table declares.
    pub fn put_with_unit(&mut self, name: &str, value: f64, unit: &'static str, threads: usize) {
        self.values.retain(|v| v.name != name);
        self.values.push(Value {
            name: name.to_string(),
            value,
            unit,
            threads,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// Checks a correctness condition; a failure is kept for the report.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The layer a metric belongs to: its name up to the last dot, or
/// `end_to_end` for the undotted end-to-end names.
fn layer_of(name: &str) -> &str {
    name.rsplit_once('.')
        .map_or("end_to_end", |(layer, _)| layer)
}

/// Where a value came from: the ROADMAP bench-record fields that let a
/// number be traced to the host and the code that produced it.
#[derive(Clone, Debug)]
pub struct Provenance {
    pub host_cpus: usize,
    pub profile: &'static str,
    pub git_rev: String,
}

impl Provenance {
    pub fn detect() -> Self {
        Self {
            host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: source_revision(),
        }
    }
}

/// The revision of the code under test. The benchmark may run in a plain
/// source tree without git metadata, so the revision is a digest (FNV-1a,
/// 64 bit) of every source and manifest file the build reads.
fn source_revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for top in ["crates", "src", "perfbench/src"] {
        collect_sources(&root.join(top), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let rel = path.strip_prefix(&root).unwrap_or(&path);
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in rel.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// One provenance record per value, in the ROADMAP bench-record shape.
pub fn provenance_lines(workload: &str, outcome: &Outcome, prov: &Provenance) -> String {
    let mut out = String::new();
    for v in &outcome.values {
        let _ = writeln!(
            out,
            "{{\"bench\": \"perfbench\", \"case\": \"{workload}\", \"layer\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"threads\": {}, \"host_cpus\": {}, \"profile\": \"{}\", \"git_rev\": \"{}\"}}",
            layer_of(&v.name),
            v.name,
            json_number(v.value),
            v.unit,
            v.threads,
            prov.host_cpus,
            prov.profile,
            prov.git_rev,
        );
    }
    out
}

/// The result line: every metric of `table`, a declared metric the
/// workload did not measure reading 0.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.get(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile by nearest rank (the sample at ⌈q·n⌉); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_fills_unmeasured_metrics_with_zero() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("setup_s", 1.25, 1);
        let line = result_line(&o, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
    }
}
