//! `dcover verify` — independent certificate checking for solve reports.
//!
//! Takes an instance file and a JSON report produced by `dcover solve
//! --json` (or one line of `dcover serve` output) and re-verifies the
//! solution from first principles via
//! [`Certificate`](dcover_core::Certificate): coverage, dual feasibility,
//! β-tightness of every cover member, and the `(f + ε)` approximation
//! bound. Exits non-zero on any violation, so a pipeline can gate on it
//! without trusting the solver.

use dcover_core::Certificate;
use dcover_hypergraph::{Cover, VertexId};

use super::{extract_duals, read_instance, runtime, usage};
use crate::args;
use crate::json::{self, Obj, Value};
use crate::out::Stdout;
use crate::Failure;

/// `dcover verify INSTANCE REPORT [--eps E] [--json]`
///
/// `REPORT` may be `-` for stdin. The report must carry the solution
/// (`result.cover` + `result.duals`, as every `--json` report does) and
/// an `epsilon` field (overridable with `--eps`).
pub fn verify(raw: &[String]) -> Result<(), Failure> {
    let parsed = args::parse(raw, &["json"], &["eps"]).map_err(usage)?;
    let [instance_path, report_path] = parsed.positional.as_slice() else {
        return Err(usage(format!(
            "verify takes exactly two arguments (INSTANCE REPORT), got {}",
            parsed.positional.len()
        )));
    };
    let g = read_instance(instance_path)?;
    let text = if report_path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| runtime(format!("reading stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(report_path).map_err(|e| runtime(format!("{report_path}: {e}")))?
    };
    let report =
        json::parse(text.trim()).map_err(|e| runtime(format!("{report_path}: bad JSON: {e}")))?;

    // The solution lives under `result` in solve/serve reports; accept it
    // at the top level too (hand-built certificates).
    let result = report.get("result").unwrap_or(&report);
    let cover_ids = extract_indices(result.get("cover"), "cover", g.n())?;
    let duals = extract_duals(result.get("duals"))?;
    let epsilon = match parsed.value("eps") {
        Some(raw) => raw
            .parse::<f64>()
            .map_err(|_| usage(format!("invalid value `{raw}` for --eps")))?,
        None => report
            .get("epsilon")
            .and_then(Value::as_f64)
            .ok_or_else(|| {
                runtime("report has no `epsilon` field; pass --eps explicitly".to_string())
            })?,
    };

    let certificate = Certificate {
        cover: Cover::from_ids(g.n(), cover_ids),
        duals,
        epsilon,
        tolerance: dcover_core::DEFAULT_TOLERANCE,
    };
    let f_plus_eps = g.rank().max(1) as f64 + epsilon;
    // Relative tolerance, shared with the certificate's own float checks:
    // an exact (or absolute-slack) comparison would flag valid covers
    // whose accumulated-rounding dual total sits a few ULPs past the
    // guarantee.
    let guarantee_slack = f_plus_eps * dcover_core::DEFAULT_TOLERANCE;
    let mut stdout = Stdout::default();
    match certificate.verify(&g) {
        Ok(bound) => {
            if parsed.switch("json") {
                let out = Obj::new()
                    .bool("ok", true)
                    .float("ratio_upper_bound", bound)
                    .float("f_plus_eps", f_plus_eps)
                    .bool("within_guarantee", bound <= f_plus_eps + guarantee_slack)
                    .build();
                stdout.line(out)
            } else {
                stdout.line(format_args!(
                    "certificate OK: ratio <= {bound:.6} (guarantee f+eps = {f_plus_eps})"
                ))
            }
        }
        Err(e) => {
            if parsed.switch("json") {
                let out = Obj::new()
                    .bool("ok", false)
                    .str("error", &e.to_string())
                    .build();
                stdout.line(out)?;
            }
            Err(runtime(format!("certificate INVALID: {e}")))
        }
    }
}

/// Reads the cover as vertex indices, validating range and integrality.
fn extract_indices(value: Option<&Value>, what: &str, n: usize) -> Result<Vec<VertexId>, Failure> {
    let items = value
        .and_then(Value::as_array)
        .ok_or_else(|| runtime(format!("report has no `{what}` array in its result")))?;
    items
        .iter()
        .map(|v| {
            let x = v
                .as_f64()
                .ok_or_else(|| runtime(format!("non-numeric entry in `{what}`")))?;
            let idx = x as usize;
            if x.fract() != 0.0 || x < 0.0 || idx >= n {
                return Err(runtime(format!(
                    "`{what}` entry {x} is not a vertex index of an n={n} instance"
                )));
            }
            Ok(VertexId::new(idx))
        })
        .collect()
}
