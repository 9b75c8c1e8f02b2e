//! The `dcover` subcommands: `solve` and `batch` live here; the streaming
//! server (`serve`), the certificate checker (`verify`), and the instance
//! generators (`gen`) have their own submodules.

pub mod gen;
pub mod serve;
pub mod verify;

use std::io::Read as _;
use std::sync::Arc;
use std::time::Instant;

use dcover_core::{
    CoverResult, MwhvcConfig, MwhvcSolver, PartitionPolicy, SolveService, Ticket, Variant,
    WarmState,
};
use dcover_hypergraph::{format, Hypergraph};

use crate::args;
use crate::json::{array, Obj, Value};
use crate::Failure;

pub(crate) fn usage(msg: String) -> Failure {
    Failure::Usage(msg)
}

pub(crate) fn runtime(msg: String) -> Failure {
    Failure::Runtime(msg)
}

/// Reads an instance from a path (or stdin for `-`).
pub(crate) fn read_instance(path: &str) -> Result<Hypergraph, Failure> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| runtime(format!("reading stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| runtime(format!("{path}: {e}")))?
    };
    format::parse(&text).map_err(|e| runtime(format!("{path}: {e}")))
}

pub(crate) fn config_from(parsed: &args::Parsed) -> Result<MwhvcConfig, Failure> {
    let eps: f64 = parsed.value_or("eps", 0.5).map_err(usage)?;
    let mut config = MwhvcConfig::new(eps).map_err(|e| usage(e.to_string()))?;
    match parsed.value("variant") {
        None | Some("standard") => {}
        Some("half-bid") => config = config.with_variant(Variant::HalfBid),
        Some(other) => {
            return Err(usage(format!(
                "unknown variant `{other}` (expected `standard` or `half-bid`)"
            )))
        }
    }
    if let Some(raw) = parsed.value("partition") {
        let policy: PartitionPolicy = raw.parse().map_err(usage)?;
        config = config.with_partition(policy);
    }
    Ok(config)
}

pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub(crate) fn instance_json(file: &str, g: &Hypergraph) -> String {
    Obj::new()
        .str("file", file)
        .num("n", g.n())
        .num("m", g.m())
        .num("rank", g.rank())
        .num("max_degree", g.max_degree())
        .build()
}

/// The solution part of a report: summary numbers plus the cover, the
/// dual certificate, and the vertex levels, so a report is self-contained
/// — `dcover verify` re-checks it against the instance and `dcover solve
/// --warm-from` seeds an incremental re-solve from it.
pub(crate) fn result_json(r: &CoverResult) -> String {
    let cover = array(r.cover.iter().map(|v| v.index().to_string()));
    let duals = array(r.duals.iter().map(|d| {
        if d.is_finite() {
            format!("{d}")
        } else {
            "null".to_string()
        }
    }));
    let levels = array(r.levels.iter().map(u32::to_string));
    Obj::new()
        .num("weight", r.weight)
        .num("cover_size", r.cover.len())
        .float("dual_total", r.dual_total)
        .float("ratio_upper_bound", r.ratio_upper_bound())
        .num("iterations", r.iterations)
        .num("rounds", r.rounds())
        .num("messages", r.report.total_messages)
        .num("bits", r.report.total_bits)
        .num("max_link_bits", r.report.max_link_bits)
        .num("intra_chunk_messages", r.report.intra_chunk_messages)
        .num("cross_chunk_messages", r.report.cross_chunk_messages)
        .raw("cover", &cover)
        .raw("duals", &duals)
        .raw("levels", &levels)
        .build()
}

fn print_result_human(file: &str, g: &Hypergraph, r: &CoverResult, eps: f64, wall_ms: f64) {
    println!(
        "instance  : {file} (n={} m={} rank={} max_degree={})",
        g.n(),
        g.m(),
        g.rank(),
        g.max_degree()
    );
    println!(
        "epsilon   : {eps} (guarantee f+eps = {})",
        g.rank() as f64 + eps
    );
    println!(
        "cover     : weight {}, {} of {} vertices",
        r.weight,
        r.cover.len(),
        g.n()
    );
    println!(
        "certified : ratio <= {:.4} (dual lower bound {:.3})",
        r.ratio_upper_bound(),
        r.dual_total
    );
    println!(
        "rounds    : {} ({} iterations), {} messages, {} bits (max {} bits/link/round)",
        r.rounds(),
        r.iterations,
        r.report.total_messages,
        r.report.total_bits,
        r.report.max_link_bits
    );
    println!("time      : {wall_ms:.2} ms");
}

/// Reads the dual vector out of a report's `result` (must be all finite
/// numbers). Shared between `verify` and `solve --warm-from`.
pub(crate) fn extract_duals(value: Option<&Value>) -> Result<Vec<f64>, Failure> {
    let items = value
        .and_then(Value::as_array)
        .ok_or_else(|| runtime("report has no `duals` array in its result".to_string()))?;
    items
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|d| d.is_finite())
                .ok_or_else(|| runtime("non-finite entry in `duals`".to_string()))
        })
        .collect()
}

/// Reads the vertex-level vector out of a report's `result` (must be
/// non-negative integers).
pub(crate) fn extract_levels(value: Option<&Value>) -> Result<Vec<u32>, Failure> {
    let items = value.and_then(Value::as_array).ok_or_else(|| {
        runtime(
            "report has no `levels` array in its result (produced before warm-start support?)"
                .to_string(),
        )
    })?;
    items
        .iter()
        .map(|v| {
            v.as_f64()
                .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                .map(|x| x as u32)
                .ok_or_else(|| runtime("non-integer entry in `levels`".to_string()))
        })
        .collect()
}

/// Loads a warm seed (duals + levels, and the ε the report was produced
/// with) out of a `--json` solve/serve report.
fn warm_from_report(path: &str) -> Result<(WarmState, Option<f64>), Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| runtime(format!("{path}: {e}")))?;
    // Serve reports are JSONL; take the (single) line the caller chose.
    let report =
        crate::json::parse(text.trim()).map_err(|e| runtime(format!("{path}: bad JSON: {e}")))?;
    let result = report.get("result").unwrap_or(&report);
    let duals = extract_duals(result.get("duals")).map_err(|e| prefix_path(path, e))?;
    let levels = extract_levels(result.get("levels")).map_err(|e| prefix_path(path, e))?;
    let epsilon = report.get("epsilon").and_then(Value::as_f64);
    Ok((WarmState::from_parts(duals, levels), epsilon))
}

fn prefix_path(path: &str, failure: Failure) -> Failure {
    match failure {
        Failure::Runtime(m) => Failure::Runtime(format!("{path}: {m}")),
        Failure::Usage(m) => Failure::Usage(format!("{path}: {m}")),
    }
}

/// `dcover solve FILE [--eps E] [--threads N] [--variant V]
/// [--partition P] [--warm-from REPORT] [--json]`
pub fn solve(raw: &[String]) -> Result<(), Failure> {
    let parsed = args::parse(
        raw,
        &["json"],
        &["eps", "threads", "variant", "partition", "warm-from"],
    )
    .map_err(usage)?;
    let json = parsed.switch("json");
    solve_inner(&parsed).inspect_err(|failure| {
        // With --json, failures become machine-readable error objects on
        // stdout (the exit code still signals them), so a pipeline driving
        // many solves can parse every outcome uniformly.
        if json {
            let (kind, msg) = match failure {
                Failure::Usage(m) => ("usage", m),
                Failure::Runtime(m) => ("runtime", m),
            };
            println!(
                "{}",
                Obj::new()
                    .bool("ok", false)
                    .str("kind", kind)
                    .str("error", msg)
                    .build()
            );
        }
    })
}

fn solve_inner(parsed: &args::Parsed) -> Result<(), Failure> {
    let [file] = parsed.positional.as_slice() else {
        return Err(usage(format!(
            "solve takes exactly one instance file, got {}",
            parsed.positional.len()
        )));
    };
    let warm = match parsed.value("warm-from") {
        Some(report_path) => Some(warm_from_report(report_path)?),
        None => None,
    };
    if warm.is_some() && parsed.value_or("threads", 0).map_err(usage)? > 1 {
        return Err(usage(
            "--warm-from runs on the sequential scheduler; drop --threads (or use a cold solve \
             for chunk parallelism)"
                .to_string(),
        ));
    }
    let mut config = config_from(parsed)?;
    // Without an explicit --eps, a warm re-solve inherits the ε of the
    // report it seeds from, preserving the (f + ε) guarantee of the chain.
    if parsed.value("eps").is_none() {
        if let Some((_, Some(report_eps))) = &warm {
            config = config
                .with_epsilon(*report_eps)
                .map_err(|e| runtime(format!("report epsilon: {e}")))?;
        }
    }
    let eps = config.epsilon();
    let threads: usize = parsed.value_or("threads", 0).map_err(usage)?;
    let g = read_instance(file)?;
    let solver = MwhvcSolver::new(config);
    let start = Instant::now();
    let result = match &warm {
        Some((state, _)) => solver.solve_warm(&g, state),
        None if threads <= 1 => solver.solve(&g),
        None => solver.solve_parallel(&g, threads),
    }
    .map_err(|e| runtime(format!("{file}: {e}")))?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    if parsed.switch("json") {
        let report = Obj::new()
            .raw("instance", &instance_json(file, &g))
            .float("epsilon", eps)
            .num("threads", threads.max(1))
            .bool("warm", warm.is_some())
            .raw("result", &result_json(&result))
            .float("wall_ms", wall_ms)
            .build();
        println!("{report}");
    } else {
        if warm.is_some() {
            println!(
                "warm-start: seeded from {}",
                parsed.value("warm-from").unwrap_or("-")
            );
        }
        print_result_human(file, &g, &result, eps, wall_ms);
    }
    Ok(())
}

/// `dcover batch FILE... [--eps E] [--threads N] [--variant V] [--json]`
pub fn batch(raw: &[String]) -> Result<(), Failure> {
    let parsed = args::parse(raw, &["json"], &["eps", "threads", "variant"]).map_err(usage)?;
    if parsed.positional.is_empty() {
        return Err(usage("batch needs at least one instance file".to_string()));
    }
    let config = config_from(&parsed)?;
    let eps = config.epsilon();
    let threads: usize = parsed
        .value_or("threads", default_threads())
        .map_err(usage)?;
    if threads == 0 {
        return Err(usage("--threads must be at least 1".to_string()));
    }

    // Parse everything up front; a file that does not parse is a failed
    // entry, not a fatal error (the serving layer must not be crashable by
    // one bad input).
    let instances: Vec<Result<Hypergraph, String>> = parsed
        .positional
        .iter()
        .map(|file| {
            read_instance(file).map_err(|(Failure::Runtime(msg) | Failure::Usage(msg))| msg)
        })
        .collect();

    // Submit every parsed instance to one service — each solves
    // sequentially on a pool worker, and a full queue blocks the submit —
    // then redeem the tickets in input order.
    let service = SolveService::new(config, threads);
    let start = Instant::now();
    let tickets: Vec<Result<Ticket, String>> = instances
        .into_iter()
        .map(|g| service.submit(Arc::new(g?), eps).map_err(|e| e.to_string()))
        .collect();
    let entries: Vec<(&String, Result<CoverResult, String>)> = parsed
        .positional
        .iter()
        .zip(tickets)
        .map(|(file, ticket)| {
            (
                file,
                ticket.and_then(|t| t.wait().map_err(|e| e.to_string())),
            )
        })
        .collect();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let ok = entries.iter().filter(|(_, r)| r.is_ok()).count();
    let failed = entries.len() - ok;
    let total_weight: u64 = entries
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().map(|c| c.weight))
        .sum();
    let throughput = if wall_ms > 0.0 {
        ok as f64 / (wall_ms / 1e3)
    } else {
        f64::INFINITY
    };

    if parsed.switch("json") {
        let items = array(entries.iter().map(|(file, outcome)| {
            match outcome {
                Ok(r) => Obj::new()
                    .str("file", file)
                    .bool("ok", true)
                    .raw("result", &result_json(r))
                    .build(),
                Err(msg) => Obj::new()
                    .str("file", file)
                    .bool("ok", false)
                    .str("error", msg)
                    .build(),
            }
        }));
        let report = Obj::new()
            .num("instances", entries.len())
            .num("ok", ok)
            .num("failed", failed)
            .float("epsilon", eps)
            .num("threads", threads)
            .num("total_weight", total_weight)
            .float("wall_ms", wall_ms)
            .float("instances_per_sec", throughput)
            .raw("results", &items)
            .build();
        println!("{report}");
    } else {
        for (i, (file, outcome)) in entries.iter().enumerate() {
            match outcome {
                Ok(r) => println!(
                    "[{i}] {file}: weight {}, {} rounds, ratio <= {:.4}",
                    r.weight,
                    r.rounds(),
                    r.ratio_upper_bound()
                ),
                Err(msg) => println!("[{i}] {file}: FAILED ({msg})"),
            }
        }
        println!(
            "batch     : {} instances, {ok} ok, {failed} failed, {wall_ms:.2} ms, {throughput:.1} instances/sec, {threads} threads",
            entries.len()
        );
    }
    if failed > 0 {
        return Err(runtime(format!(
            "{failed} of {} instances failed",
            entries.len()
        )));
    }
    Ok(())
}
