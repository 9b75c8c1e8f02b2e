//! `dcover gen` — seeded instance generation across every family the
//! library provides: random (uniform, mixed-rank, planted, preferential,
//! calibrated-degree), geometric coverage, and the structured/extremal
//! families (star, clique, path, cycle, sunflower, f-partite, hyper-star).
//!
//! With `--json`, a machine-readable generation report — family, **seed**,
//! the resolved parameters, and instance statistics — goes to stdout so an
//! experiment log can reproduce the instance exactly; the instance itself
//! then requires `--out FILE`.

use dcover_hypergraph::generators::{
    calibrated_degree, clique, complete_f_partite, coverage_instance, cycle, hyper_star, path,
    planted_cover, preferential_attachment, random_mixed_rank, random_uniform, star, sunflower,
    RandomUniform, WeightDist,
};
use dcover_hypergraph::{format, Hypergraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{runtime, usage};
use crate::args;
use crate::json::Obj;
use crate::out::Stdout;
use crate::Failure;

/// The families `dcover gen` knows, with their options (beyond the shared
/// `--seed`, `--min-weight`, `--max-weight`, `--out`, `--json`).
const FAMILIES: &str = "\
uniform       --n N --m M [--rank F]                    random rank-F edges
mixed         --n N --m M [--min-rank A --max-rank B]   edge sizes vary in [A, B]
planted       --n N --m M [--rank F --cover-size K --decoy-weight W]
preferential  --n N --m M [--rank F]                    skewed degrees (hubs)
calibrated    [--rank F --delta D --copies C]           max degree exactly D
geometric     [--points P --stations S --radius R --max-frequency F]
star          [--leaves L --center-weight W --leaf-weight W]
clique        [--n N]
path          [--n N]
cycle         [--n N]
sunflower     [--petals P --core C --petal-size S --core-weight W --petal-weight W]
f-partite     [--f F --group-size G]
hyper-star    [--f F --delta D --hub-weight W]";

/// Whether a family consumes the RNG (deterministic constructions ignore
/// `--seed` and report `"seed": null`).
fn is_seeded(family: &str) -> bool {
    matches!(
        family,
        "uniform" | "mixed" | "planted" | "preferential" | "calibrated" | "geometric"
    )
}

/// `dcover gen FAMILY [family options] [--seed S] [--min-weight W]
/// [--max-weight W] [--out FILE] [--json]`
pub(crate) fn gen(raw: &[String]) -> Result<(), Failure> {
    let parsed = args::parse(
        raw,
        &["json"],
        &[
            "n",
            "m",
            "rank",
            "min-rank",
            "max-rank",
            "cover-size",
            "decoy-weight",
            "delta",
            "copies",
            "points",
            "stations",
            "radius",
            "max-frequency",
            "leaves",
            "center-weight",
            "leaf-weight",
            "petals",
            "core",
            "petal-size",
            "core-weight",
            "petal-weight",
            "f",
            "group-size",
            "hub-weight",
            "seed",
            "min-weight",
            "max-weight",
            "out",
        ],
    )
    .map_err(usage)?;
    let [family] = parsed.positional.as_slice() else {
        return Err(usage(format!(
            "gen takes exactly one family; available:\n{FAMILIES}"
        )));
    };

    let seed: u64 = parsed.value_or("seed", 1).map_err(usage)?;
    let min_weight: u64 = parsed.value_or("min-weight", 1).map_err(usage)?;
    let max_weight: u64 = parsed.value_or("max-weight", 100).map_err(usage)?;
    if min_weight == 0 || min_weight > max_weight {
        return Err(usage(
            "weights need 0 < --min-weight <= --max-weight".to_string(),
        ));
    }
    let weights = WeightDist::Uniform {
        min: min_weight,
        max: max_weight,
    };
    let mut rng = StdRng::seed_from_u64(seed);

    // Each arm yields the instance plus the resolved family parameters
    // (for the JSON report).
    let (g, params): (Hypergraph, Obj) = match family.as_str() {
        "uniform" => {
            let n: usize = parsed.required("n").map_err(usage)?;
            let m: usize = parsed.required("m").map_err(usage)?;
            let rank: usize = parsed.value_or("rank", 3).map_err(usage)?;
            check(n > 0 && rank > 0, "--n and --rank must be positive")?;
            let g = random_uniform(
                &RandomUniform {
                    n,
                    m,
                    rank,
                    weights,
                },
                &mut rng,
            );
            (g, Obj::new().num("n", n).num("m", m).num("rank", rank))
        }
        "mixed" => {
            let n: usize = parsed.required("n").map_err(usage)?;
            let m: usize = parsed.required("m").map_err(usage)?;
            let min_rank: usize = parsed.value_or("min-rank", 2).map_err(usage)?;
            let max_rank: usize = parsed.value_or("max-rank", 4).map_err(usage)?;
            check(
                n > 0 && min_rank > 0 && min_rank <= max_rank,
                "need --n > 0 and 0 < --min-rank <= --max-rank",
            )?;
            let g = random_mixed_rank(n, m, min_rank, max_rank, &weights, &mut rng);
            (
                g,
                Obj::new()
                    .num("n", n)
                    .num("m", m)
                    .num("min_rank", min_rank)
                    .num("max_rank", max_rank),
            )
        }
        "planted" => {
            let n: usize = parsed.required("n").map_err(usage)?;
            let m: usize = parsed.required("m").map_err(usage)?;
            let rank: usize = parsed.value_or("rank", 3).map_err(usage)?;
            let k: usize = parsed
                .value_or("cover-size", (n / 10).max(1))
                .map_err(usage)?;
            let decoy: u64 = parsed.value_or("decoy-weight", 1000).map_err(usage)?;
            check(
                rank > 0 && k > 0 && k <= n,
                "need --rank > 0 and 0 < --cover-size <= --n",
            )?;
            let (g, planted) = planted_cover(n, m, rank, k, decoy, &mut rng);
            (
                g,
                Obj::new()
                    .num("n", n)
                    .num("m", m)
                    .num("rank", rank)
                    .num("cover_size", planted.len())
                    .num("decoy_weight", decoy),
            )
        }
        "preferential" => {
            let n: usize = parsed.required("n").map_err(usage)?;
            let m: usize = parsed.required("m").map_err(usage)?;
            let rank: usize = parsed.value_or("rank", 3).map_err(usage)?;
            check(n > 0 && rank > 0, "--n and --rank must be positive")?;
            let g = preferential_attachment(n, m, rank, &weights, &mut rng);
            (g, Obj::new().num("n", n).num("m", m).num("rank", rank))
        }
        "calibrated" => {
            let rank: usize = parsed.value_or("rank", 3).map_err(usage)?;
            let delta: usize = parsed.value_or("delta", 8).map_err(usage)?;
            let copies: usize = parsed.value_or("copies", 4).map_err(usage)?;
            check(rank > 0 && delta > 0, "--rank and --delta must be positive")?;
            let g = calibrated_degree(rank, delta, copies, &weights, &mut rng);
            (
                g,
                Obj::new()
                    .num("rank", rank)
                    .num("delta", delta)
                    .num("copies", copies),
            )
        }
        "geometric" => {
            let points: usize = parsed.value_or("points", 200).map_err(usage)?;
            let stations: usize = parsed.value_or("stations", 40).map_err(usage)?;
            let radius: f64 = parsed.value_or("radius", 0.2).map_err(usage)?;
            let max_frequency: usize = parsed.value_or("max-frequency", 3).map_err(usage)?;
            check(
                points > 0 && stations > 0 && radius > 0.0 && max_frequency > 0,
                "need positive --points, --stations, --radius, --max-frequency",
            )?;
            let inst =
                coverage_instance(points, stations, radius, max_frequency, &weights, &mut rng);
            let g = inst
                .system
                .to_hypergraph()
                .map_err(|e| runtime(format!("geometric instance invalid: {e}")))?;
            (
                g,
                Obj::new()
                    .num("points", points)
                    .num("stations", stations)
                    .float("radius", radius)
                    .num("max_frequency", max_frequency),
            )
        }
        "star" => {
            let leaves: usize = parsed.value_or("leaves", 16).map_err(usage)?;
            let center: u64 = parsed.value_or("center-weight", 1).map_err(usage)?;
            let leaf: u64 = parsed.value_or("leaf-weight", 2).map_err(usage)?;
            check(
                leaves > 0 && center > 0 && leaf > 0,
                "need positive --leaves and weights",
            )?;
            (
                star(leaves, center, leaf),
                Obj::new()
                    .num("leaves", leaves)
                    .num("center_weight", center)
                    .num("leaf_weight", leaf),
            )
        }
        "clique" => {
            let n: usize = parsed.value_or("n", 12).map_err(usage)?;
            check(n >= 2, "--n must be at least 2")?;
            (clique(n), Obj::new().num("n", n))
        }
        "path" => {
            let n: usize = parsed.value_or("n", 16).map_err(usage)?;
            check(n >= 2, "--n must be at least 2")?;
            (path(n), Obj::new().num("n", n))
        }
        "cycle" => {
            let n: usize = parsed.value_or("n", 16).map_err(usage)?;
            check(n >= 3, "--n must be at least 3")?;
            (cycle(n), Obj::new().num("n", n))
        }
        "sunflower" => {
            let petals: usize = parsed.value_or("petals", 8).map_err(usage)?;
            let core: usize = parsed.value_or("core", 2).map_err(usage)?;
            let petal_size: usize = parsed.value_or("petal-size", 2).map_err(usage)?;
            let core_weight: u64 = parsed.value_or("core-weight", 1).map_err(usage)?;
            let petal_weight: u64 = parsed.value_or("petal-weight", 3).map_err(usage)?;
            check(
                petals > 0 && core > 0 && core_weight > 0 && petal_weight > 0,
                "need positive --petals, --core, and weights",
            )?;
            (
                sunflower(petals, core, petal_size, core_weight, petal_weight),
                Obj::new()
                    .num("petals", petals)
                    .num("core", core)
                    .num("petal_size", petal_size)
                    .num("core_weight", core_weight)
                    .num("petal_weight", petal_weight),
            )
        }
        "f-partite" => {
            let f: usize = parsed.value_or("f", 3).map_err(usage)?;
            let group_size: usize = parsed.value_or("group-size", 3).map_err(usage)?;
            check(
                f > 0 && group_size > 0,
                "--f and --group-size must be positive",
            )?;
            let edge_count = (group_size as u128).checked_pow(f as u32);
            check(
                edge_count.is_some_and(|m| m <= 1_000_000),
                "f-partite needs group-size^f <= 1e6 edges",
            )?;
            (
                complete_f_partite(f, group_size),
                Obj::new().num("f", f).num("group_size", group_size),
            )
        }
        "hyper-star" => {
            let f: usize = parsed.value_or("f", 3).map_err(usage)?;
            let delta: usize = parsed.value_or("delta", 8).map_err(usage)?;
            let hub_weight: u64 = parsed.value_or("hub-weight", 1).map_err(usage)?;
            check(
                f > 0 && delta > 0 && hub_weight > 0,
                "need positive --f, --delta, --hub-weight",
            )?;
            (
                hyper_star(f, delta, hub_weight),
                Obj::new()
                    .num("f", f)
                    .num("delta", delta)
                    .num("hub_weight", hub_weight),
            )
        }
        other => {
            return Err(usage(format!(
                "unknown family `{other}`; available:\n{FAMILIES}"
            )))
        }
    };

    let text = format::serialize(&g);
    let out = parsed.value("out");
    if parsed.switch("json") {
        // The JSON report owns stdout; the instance must go to a file.
        let Some(path) = out.filter(|p| *p != "-") else {
            return Err(usage(
                "gen --json writes the report to stdout; give the instance a destination with --out FILE".to_string(),
            ));
        };
        std::fs::write(path, text).map_err(|e| runtime(format!("{path}: {e}")))?;
        let mut report = Obj::new().str("family", family);
        report = if is_seeded(family) {
            report.num("seed", seed)
        } else {
            report.raw("seed", "null")
        };
        let stats = Obj::new()
            .num("n", g.n())
            .num("m", g.m())
            .num("rank", g.rank())
            .num("max_degree", g.max_degree())
            .build();
        let report = report
            .raw("params", &params.build())
            .num("min_weight", min_weight)
            .num("max_weight", max_weight)
            .raw("instance", &stats)
            .str("out", path)
            .build();
        Stdout::default().line(report)?;
    } else {
        match out {
            None | Some("-") => Stdout::default().print(text)?,
            Some(path) => {
                std::fs::write(path, text).map_err(|e| runtime(format!("{path}: {e}")))?;
                eprintln!(
                    "wrote {path} ({family}: n={} m={} rank={} seed={})",
                    g.n(),
                    g.m(),
                    g.rank(),
                    if is_seeded(family) {
                        seed.to_string()
                    } else {
                        "-".to_string()
                    }
                );
            }
        }
    }
    Ok(())
}

fn check(ok: bool, msg: &str) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(usage(msg.to_string()))
    }
}
