//! Property-style suite for the plain-text instance format: `parse` and
//! `parse_delta` must never panic on arbitrary input (malformed, truncated,
//! or byte-mangled, including numbers too long for a `u32` id), and
//! `parse ∘ serialize` must be the identity on valid instances.
//!
//! Uses the workspace's seeded-rand convention (no proptest offline): each
//! property runs over a few hundred seeded random cases, so failures are
//! reproducible from the seed in the assertion message.

use dcover_hypergraph::generators::{random_mixed_rank, random_uniform, RandomUniform, WeightDist};
use dcover_hypergraph::{format, Hypergraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_instance(rng: &mut StdRng) -> Hypergraph {
    if rng.gen_bool(0.5) {
        random_uniform(
            &RandomUniform {
                n: rng.gen_range(1usize..40),
                m: rng.gen_range(0usize..60),
                rank: rng.gen_range(1usize..5),
                weights: WeightDist::Uniform {
                    min: 1,
                    max: rng.gen_range(1u64..1 << 40),
                },
            },
            rng,
        )
    } else {
        let n = rng.gen_range(1usize..30);
        let m = rng.gen_range(0usize..40);
        random_mixed_rank(n, m, 1, 4, &WeightDist::Uniform { min: 1, max: 100 }, rng)
    }
}

/// A valid delta record against a base of up to 40 vertices and 60 edges:
/// removals, insertions and weight changes, sometimes with an ε.
fn random_delta_record(rng: &mut StdRng) -> String {
    let n = rng.gen_range(1u32..40);
    let m = rng.gen_range(1u32..60);
    let removals: Vec<u32> = (0..rng.gen_range(0usize..6))
        .map(|_| rng.gen_range(0..m))
        .collect();
    let insertions: Vec<Vec<u32>> = (0..rng.gen_range(0usize..4))
        .map(|_| {
            (0..rng.gen_range(1usize..5))
                .map(|_| rng.gen_range(0..n))
                .collect()
        })
        .collect();
    let weights: Vec<(u32, u64)> = (0..rng.gen_range(0usize..4))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(1u64..1 << 40)))
        .collect();
    let base = rng.gen_range(0u64..1000);
    let mut text = format!(
        "p delta {base} {} {} {}",
        removals.len(),
        insertions.len(),
        weights.len()
    );
    if rng.gen_bool(0.3) {
        text.push_str(" 0.25");
    }
    text.push('\n');
    let line = |tag: &str, ids: &[u32]| {
        let fields: Vec<String> = ids.iter().map(u32::to_string).collect();
        format!("{tag} {}\n", fields.join(" "))
    };
    if !removals.is_empty() {
        text.push_str(&line("r", &removals));
    }
    for members in &insertions {
        text.push_str(&line("a", members));
    }
    for (v, w) in weights {
        text.push_str(&format!("w {v} {w}\n"));
    }
    text
}

/// Flips, deletes or duplicates a few random bytes, or inserts a run of
/// 11 to 15 digits: a number no `u32` id holds, but one a `usize` does.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    for _ in 0..rng.gen_range(1usize..6) {
        if bytes.is_empty() {
            return;
        }
        let i = rng.gen_range(0usize..bytes.len());
        match rng.gen_range(0u32..4) {
            0 => bytes[i] = bytes[i].wrapping_add(rng.gen_range(1u8..255)),
            1 => {
                bytes.remove(i);
            }
            2 => {
                let b = bytes[i];
                bytes.insert(i, b);
            }
            _ => {
                let first = rng.gen_range(b'1'..=b'9');
                let rest = rng.gen_range(10usize..15);
                let run: Vec<u8> = std::iter::once(first)
                    .chain((0..rest).map(|_| rng.gen_range(b'0'..=b'9')))
                    .collect();
                bytes.splice(i..i, run);
            }
        }
    }
}

#[test]
fn serialize_parse_roundtrips_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(0xF0_12AD);
    for case in 0..200 {
        let g = random_instance(&mut rng);
        let text = format::serialize(&g);
        let parsed = format::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: serialized instance failed to parse: {e}"));
        assert_eq!(parsed, g, "case {case}: roundtrip changed the instance");
    }
}

#[test]
fn parse_never_panics_on_random_bytes() {
    let mut rng = StdRng::seed_from_u64(0xBAD_F00D);
    // The instance record's vocabulary, then the delta record's.
    for alphabet in [
        "pvce 0123456789-+\n\t mwhvc\u{fffd}xéあ",
        "p delta raw 0123456789-+.\n\t c\u{fffd}é",
    ] {
        let alphabet: Vec<char> = alphabet.chars().collect();
        for _case in 0..500 {
            let len = rng.gen_range(0usize..200);
            let text: String = (0..len)
                .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())])
                .collect();
            // Any outcome is fine except a panic.
            let _ = format::parse(&text);
            let _ = format::parse_delta(&text);
        }
    }
}

#[test]
fn parse_never_panics_on_mutated_valid_instances() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..300 {
        let g = random_instance(&mut rng);
        let mut bytes = format::serialize(&g).into_bytes();
        mutate(&mut bytes, &mut rng);
        let text = String::from_utf8_lossy(&bytes);
        // Must not panic; and if it still parses, the result must be a
        // structurally valid hypergraph.
        if let Ok(parsed) = format::parse(&text) {
            assert!(parsed.n() > 0 || parsed.m() == 0, "case {case}");
            for e in parsed.edges() {
                for &v in parsed.edge(e) {
                    assert!(v.index() < parsed.n(), "case {case}: dangling vertex");
                }
            }
        }
    }
}

#[test]
fn parse_delta_never_panics_on_mutated_valid_records() {
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    for case in 0..300 {
        let text = random_delta_record(&mut rng);
        if let Err(e) = format::parse_delta(&text) {
            panic!("case {case}: valid record failed to parse: {e}");
        }
        let mut bytes = text.into_bytes();
        mutate(&mut bytes, &mut rng);
        // Any outcome is fine except a panic.
        let _ = format::parse_delta(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn truncations_of_valid_instances_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x7A7A);
    for _case in 0..100 {
        let g = random_instance(&mut rng);
        let text = format::serialize(&g);
        for cut in 0..text.len().min(80) {
            let _ = format::parse(&text[..cut]);
        }
        // Also cut from the front (drops the header).
        for skip in 0..text.len().min(40) {
            let _ = format::parse(&text[skip..]);
        }
    }
    for _case in 0..100 {
        let text = random_delta_record(&mut rng);
        for cut in 0..text.len() {
            let _ = format::parse_delta(&text[..cut]);
            let _ = format::parse_delta(&text[cut..]);
        }
    }
}
