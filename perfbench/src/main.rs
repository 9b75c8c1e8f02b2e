//! `perfbench` — the repository's benchmark: end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <solve_large|serve_mixed|warm_revisions>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` inside the benchmark; the
//! library only ever sees the generated instances. Each workload applies
//! its correctness gates before it reports. Standard output carries one
//! provenance record per measured value (metric, value, unit, threads,
//! host CPUs, build profile, source revision) and ends with the result
//! line: `{"correct", "attempted", "failed", "metrics"}`, holding the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans, one JSON object per
//! line, under `perfbench/out/`.

mod gates;
mod report;
mod serve_mixed;
mod solve_large;
mod trace;
mod warm_revisions;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Outcome, Provenance, END_TO_END, PER_LAYER};
use trace::Span;

/// Set-ups per run: about half before the measured phase and the rest
/// after it, so that `setup_s`, their median, does not rest on one moment
/// of a shared host. Only one set-up is alive at a time, so repeating them
/// does not raise `peak_rss_mb`.
pub const SETUPS: usize = 9;

/// Runs `set_up` `count` times (at least once), dropping each result before
/// making the next; returns the seconds each run took and the last result.
pub fn time_setups<T>(count: usize, mut set_up: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count.max(1) {
        drop(last.take());
        let start = Instant::now();
        let made = set_up();
        times.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    (times, last.expect("at least one set-up"))
}

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase of the run lasts.
    pub seconds: Duration,
    pub trace: bool,
    /// The run's clock origin, shared by every span.
    pub epoch: Instant,
}

impl RunConfig {
    /// Writes the traced run's spans to `perfbench/out/`.
    pub fn write_spans(&self, spans: &[Span]) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.jsonl", self.workload, self.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_json_lines(spans)));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

const USAGE: &str = "usage: perfbench --workload <solve_large|serve_mixed|warm_revisions> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["solve_large", "serve_mixed", "warm_revisions"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        epoch: Instant::now(),
    })
}

/// Runs one workload at its full size.
fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        "solve_large" => solve_large::run(solve_large::FULL, cfg, &mut out),
        "serve_mixed" => serve_mixed::run(&serve_mixed::FULL, cfg, &mut out),
        "warm_revisions" => warm_revisions::run(&warm_revisions::FULL, cfg, &mut out),
        other => unreachable!("workload {other} was validated"),
    }
    out.put("peak_rss_mb", report::peak_rss_mb(), 1);
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    out.put("bench.failed_share", share, 1);
    if out.attempted == 0 {
        out.gate_failures
            .push("no operation was attempted".to_string());
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    print!(
        "{}",
        report::provenance_lines(&cfg.workload, &outcome, &Provenance::detect())
    );
    for failure in &outcome.gate_failures {
        eprintln!("perfbench: correctness gate failed: {failure}");
    }
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report::result_line(&outcome, table));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let cfg = parse_args(&args(
            "--workload serve_mixed --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(cfg.workload, "serve_mixed");
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.seconds, Duration::from_secs(10));
        assert!(cfg.trace);
    }

    /// The values that must repeat exactly for a given seed.
    const EXACT: &[&str] = &[
        "congest.sim.rounds",
        "congest.sim.messages",
        "congest.parallel.cross_fraction",
        "congest.engine.slot_bytes",
        "congest.engine.mailbox_bytes",
        "core.warm.rounds_per_revision",
        "core.warm.rounds_ratio",
    ];

    /// Runs a workload twice on one seed, each run passing its gates, and
    /// returns the exact values of both runs.
    fn twice(
        workload: &str,
        trace: bool,
        run: impl Fn(&RunConfig, &mut Outcome),
    ) -> [Vec<Option<f64>>; 2] {
        [0, 1].map(|_| {
            let cfg = RunConfig {
                workload: format!("{workload}-test"),
                seed: 3,
                seconds: Duration::from_millis(400),
                trace,
                epoch: Instant::now(),
            };
            let mut out = Outcome::default();
            run(&cfg, &mut out);
            assert!(out.correct(), "{workload}: {:?}", out.gate_failures);
            assert_eq!(out.failed, 0, "{workload}");
            EXACT.iter().map(|name| out.get(name)).collect()
        })
    }

    #[test]
    fn solve_large_counts_repeat_exactly() {
        let size = solve_large::Size { n: 2_000, m: 6_000 };
        let [a, b] = twice("solve_large", true, |cfg, out| {
            solve_large::run(size, cfg, out)
        });
        assert_eq!(a, b);
        assert!(a[..5].iter().all(|v| v.is_some_and(|x| x > 0.0)), "{a:?}");
    }

    #[test]
    fn serve_mixed_counts_repeat_exactly() {
        let size = serve_mixed::Size {
            bulk_n: 60,
            bulk_m: 160,
            records: 8,
            rate_hz: 400.0,
        };
        let [a, b] = twice("serve_mixed", false, |cfg, out| {
            serve_mixed::run(&size, cfg, out)
        });
        assert_eq!(a, b);
        assert!(
            a[0].is_some_and(|x| x > 0.0) && a[4].is_some_and(|x| x > 0.0),
            "{a:?}"
        );
    }

    #[test]
    fn warm_revisions_counts_repeat_exactly() {
        let size = warm_revisions::Size {
            n: 500,
            m: 1_500,
            chain: 60,
            min_revisions: 20,
            cold_every: 5,
        };
        let [a, b] = twice("warm_revisions", true, |cfg, out| {
            warm_revisions::run(&size, cfg, out);
        });
        assert_eq!(a, b);
        assert!(
            a[5].is_some_and(|x| x > 0.0) && a[6].is_some_and(|x| x > 0.0),
            "{a:?}"
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload solve_large --seconds 1 --trace 0",
            "--workload solve_large --seed 1 --seconds 0 --trace 0",
            "--workload solve_large --seed 1 --seconds 1 --trace 2",
            "--workload solve_large --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
