//! `dcover` — the command-line serving entry point of the
//! `distributed-covering` workspace.
//!
//! Five subcommands over the DIMACS-flavoured instance format of
//! [`dcover_hypergraph::format`]:
//!
//! * `dcover solve FILE` — solve one instance (sequential or
//!   chunk-parallel) and report the certified cover; with
//!   `--warm-from REPORT`, **warm-start** from a previous report's dual
//!   state instead of solving from scratch;
//! * `dcover serve` — the streaming server: read records from stdin as
//!   they arrive, submit each to a
//!   [`SolveService`](dcover_core::SolveService) (bounded queue,
//!   backpressure, zero-copy `Arc` instances), and emit one JSON line per
//!   result in completion order with sequence ids. Streams mix full
//!   instances with `p delta` **revision records** that reference an
//!   earlier record's seq and are re-solved warm from its cached duals;
//! * `dcover batch FILE...` — solve many pre-assembled files concurrently
//!   through one [`SolveService`](dcover_core::SolveService): every file
//!   is submitted up front, solved sequentially on a persistent pool
//!   worker, and reported in input order (per-instance error isolation);
//! * `dcover verify INSTANCE REPORT` — re-check a solve report's
//!   cover/dual certificate from first principles, exiting non-zero on
//!   violation;
//! * `dcover gen FAMILY` — generate instances across every library
//!   family (random, geometric, structured), with seeds recorded in the
//!   `--json` generation report.
//!
//! `--json` switches `solve`/`batch`/`gen`/`verify` to machine-readable
//! reports (`serve` is always JSON lines). The binary is dependency-free
//! (hand-rolled argument parsing plus JSON emission *and* parsing)
//! because the build environment is offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod commands;
pub mod json;
mod out;

/// Why a command did not succeed: a usage error (exit code 2) or a runtime
/// failure (exit code 1).
#[derive(Debug)]
pub enum Failure {
    /// Bad invocation; the message explains the expected shape.
    Usage(String),
    /// The command ran but failed (I/O, parse, or solve error).
    Runtime(String),
}

const USAGE: &str = "\
dcover — distributed covering (MWHVC) solver CLI

USAGE:
    dcover solve FILE [--eps E] [--threads N] [--variant standard|half-bid]
                 [--warm-from REPORT] [--json]
    dcover serve [--eps E] [--threads N] [--queue C] [--variant standard|half-bid]
                 [--class interactive|bulk] [--deadline-ms N] [--bulk-max-wait-ms N]
                 [--shed-target-ms N] [--metrics]
    dcover batch FILE... [--eps E] [--threads N] [--variant standard|half-bid] [--json]
    dcover verify INSTANCE REPORT [--eps E] [--json]
    dcover gen FAMILY [family options] [--seed S]
               [--min-weight W] [--max-weight W] [--out FILE] [--json]

    FILE may be `-` for stdin. `solve --warm-from REPORT` seeds the solve
    from the duals/levels of a previous `--json` report of a (revision of
    the) same instance instead of starting cold; without --eps the
    report's epsilon is inherited. `solve --threads N` gives each worker
    a balanced id range of the vertices and one of the hyperedges, so
    both kinds of round keep all workers busy. Results are bit-identical
    at every thread count, and the JSON reports the intra/cross-chunk
    message split. `serve` reads a stream of records from
    stdin, each starting at its `p` header: `p mwhvc n m` starts a full
    instance, `p delta BASE R A W [EPS]` a revision of the earlier record
    whose seq is BASE (R `r` edge-removal ids, A `a` edge-insertion
    lines, W `w` vertex re-weight lines) — revisions are re-solved
    warm-started from the cached base result. Records are solved on a
    bounded submission queue (--queue, default 4x threads) with
    backpressure, and one JSON line per result is printed in completion
    order with arrival-order `seq` ids (warm results carry `warm: true`
    and their `base` seq). `batch` defaults --threads to the
    machine's available parallelism and solves each instance sequentially
    on one worker of a persistent pool; failed instances are reported per entry and
    make the exit code non-zero without aborting the rest. `verify`
    re-checks the cover and dual certificate inside a solve/serve JSON
    report against the instance and exits non-zero on any violation.
    `gen` families: uniform, mixed, planted, preferential, calibrated,
    geometric, star, clique, path, cycle, sunflower, f-partite,
    hyper-star (run `dcover gen` for per-family options); with --json the
    generation report (family, seed, params, stats) goes to stdout and
    the instance to --out FILE.
";

/// Runs the CLI against `args` (everything after the program name) and
/// returns the process exit code.
#[must_use]
pub fn run(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => out::Stdout::default().print(USAGE),
        Some("solve") => commands::solve(&args[1..]),
        Some("serve") => commands::serve::serve(&args[1..]),
        Some("batch") => commands::batch(&args[1..]),
        Some("verify") => commands::verify::verify(&args[1..]),
        Some("gen") => commands::gen::gen(&args[1..]),
        Some(other) => Err(Failure::Usage(format!("unknown subcommand `{other}`"))),
    };
    match outcome {
        Ok(()) => 0,
        Err(Failure::Runtime(msg)) => {
            eprintln!("dcover: {msg}");
            1
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("dcover: {msg}");
            eprint!("{USAGE}");
            2
        }
    }
}
