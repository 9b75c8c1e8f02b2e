//! Correctness gates every workload applies before it reports a number.

use dcover_core::{Certificate, CoverResult, DEFAULT_TOLERANCE};
use dcover_hypergraph::Hypergraph;

/// Checks that `r` is a certified `(f + ε)`-approximate cover of `g`: the
/// reported weight is the cover's weight, and the cover with its dual
/// packing verifies from first principles within `f + ε`.
pub fn certify(g: &Hypergraph, r: &CoverResult, epsilon: f64) -> Result<f64, String> {
    let weight = r.cover.weight(g);
    if weight != r.weight {
        return Err(format!(
            "reported weight {} but the cover weighs {weight}",
            r.weight
        ));
    }
    let bound = Certificate::from_result(r, epsilon)
        .verify(g)
        .map_err(|e| format!("certificate rejected: {e}"))?;
    let limit = (f64::from(g.rank().max(1)) + epsilon) * (1.0 + DEFAULT_TOLERANCE);
    if bound > limit {
        return Err(format!("ratio bound {bound} exceeds f + ε = {limit}"));
    }
    Ok(bound)
}

/// Checks that two results are bit-identical: cover, duals, levels,
/// weight, dual total and the protocol-level report.
pub fn identical(a: &CoverResult, b: &CoverResult) -> Result<(), String> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if a.cover != b.cover {
        return Err("covers differ".to_string());
    }
    if bits(&a.duals) != bits(&b.duals) {
        return Err("duals differ".to_string());
    }
    if a.levels != b.levels {
        return Err("levels differ".to_string());
    }
    if a.weight != b.weight || a.dual_total.to_bits() != b.dual_total.to_bits() {
        return Err("weight or dual total differs".to_string());
    }
    if a.report != b.report {
        return Err(format!("reports differ: {:?} vs {:?}", a.report, b.report));
    }
    Ok(())
}

/// A 64-bit FNV-1a digest of everything [`identical`] compares, so results
/// can be checked after a run without keeping them.
pub fn fingerprint(r: &CoverResult) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in r.cover.iter() {
        eat(v.index() as u64);
    }
    r.duals.iter().for_each(|d| eat(d.to_bits()));
    r.levels.iter().for_each(|&l| eat(u64::from(l)));
    eat(r.weight);
    eat(r.dual_total.to_bits());
    eat(r.report.rounds);
    eat(r.report.total_messages);
    eat(r.report.total_bits);
    eat(r.report.max_link_bits);
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcover_core::MwhvcSolver;
    use dcover_hypergraph::generators::{random_uniform, RandomUniform, WeightDist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solved() -> (Hypergraph, CoverResult) {
        let g = random_uniform(
            &RandomUniform {
                n: 200,
                m: 600,
                rank: 3,
                weights: WeightDist::Uniform { min: 1, max: 100 },
            },
            &mut StdRng::seed_from_u64(5),
        );
        let r = MwhvcSolver::with_epsilon(0.5)
            .expect("valid epsilon")
            .solve(&g)
            .expect("solves");
        (g, r)
    }

    #[test]
    fn a_solver_result_passes_the_gate() {
        let (g, r) = solved();
        assert!(certify(&g, &r, 0.5).is_ok());
    }

    #[test]
    fn a_cover_with_one_member_dropped_fails_the_gate() {
        let (g, r) = solved();
        let member = r.cover.iter().next().expect("a non-empty cover");
        let mut corrupted = r.clone();
        corrupted.cover.remove(member);
        assert!(certify(&g, &corrupted, 0.5).is_err());
        // Even with the weight patched to match, the certificate catches a
        // member that was the only one covering some edge.
        let sole = g
            .edges()
            .find_map(|e| {
                let mut members = g.edge(e).iter().filter(|&&v| r.cover.contains(v));
                match (members.next(), members.next()) {
                    (Some(&v), None) => Some(v),
                    _ => None,
                }
            })
            .expect("some edge has exactly one cover member");
        let mut corrupted = r.clone();
        corrupted.cover.remove(sole);
        corrupted.weight = corrupted.cover.weight(&g);
        let err = certify(&g, &corrupted, 0.5).expect_err("an uncovered edge fails");
        assert!(err.contains("not covered"), "{err}");
        assert!(identical(&r, &corrupted).is_err());
        assert_ne!(fingerprint(&r), fingerprint(&corrupted));
    }
}
