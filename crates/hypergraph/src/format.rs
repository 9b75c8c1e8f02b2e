//! Plain-text instance format (DIMACS-flavoured) for persisting and sharing
//! MWHVC instances, plus the delta framing for incremental revisions.
//!
//! ```text
//! c optional comment lines
//! p mwhvc <n> <m>
//! v <weight>            (n lines, vertex 0..n-1 in order)
//! e <v1> <v2> ... <vk>  (m lines, zero-based vertex indices)
//! ```
//!
//! A **delta record** describes a revision of a previously seen instance
//! (see [`crate::InstanceDelta`]); `<base>` names the revision it applies
//! to (for `dcover serve`, the `seq` id of an earlier record in the same
//! stream), and an optional trailing `eps` overrides the stream's ε for
//! the re-solve:
//!
//! ```text
//! p delta <base> <r> <a> <w> [eps]
//! r <e1> <e2> ...       (edge ids to remove; `r` ids total)
//! a <v1> <v2> ... <vk>  (a lines, one inserted hyperedge each)
//! w <vertex> <weight>   (w lines, weight changes)
//! ```
//!
//! # Examples
//!
//! ```
//! use dcover_hypergraph::format;
//!
//! let text = "c triangle\np mwhvc 3 3\nv 1\nv 2\nv 3\ne 0 1\ne 1 2\ne 2 0\n";
//! let g = format::parse(text)?;
//! assert_eq!(g.n(), 3);
//! let text2 = format::serialize(&g);
//! assert_eq!(format::parse(&text2)?, g);
//!
//! let record = format::parse_delta("p delta 0 1 1 1\nr 2\na 0 2\nw 1 5\n")?;
//! assert_eq!(record.base, 0);
//! assert_eq!(record.epsilon, None);
//! assert_eq!(record.delta.apply(&g)?.graph.m(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt::Write as _;

use crate::error::ParseError;
use crate::{EdgeId, Hypergraph, HypergraphBuilder, InstanceDelta, VertexId};

/// Serializes a hypergraph to the text format.
#[must_use]
pub fn serialize(g: &Hypergraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p mwhvc {} {}", g.n(), g.m());
    for v in g.vertices() {
        let _ = writeln!(out, "v {}", g.weight(v));
    }
    for e in g.edges() {
        out.push('e');
        for &v in g.edge(e) {
            let _ = write!(out, " {}", v.index());
        }
        out.push('\n');
    }
    out
}

/// Parses a hypergraph from the text format.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed headers, counts that do not match the
/// header, unparsable numbers, or instances that fail hypergraph validation
/// (empty edges, unknown vertex indices, zero weights).
pub fn parse(text: &str) -> Result<Hypergraph, ParseError> {
    let mut header: Option<(usize, usize)> = None;
    let mut weights: Vec<u64> = Vec::new();
    // The `e` records' member lists, concatenated, and where each ends.
    let mut members: Vec<usize> = Vec::new();
    let mut edge_ends: Vec<usize> = Vec::new();

    for (line_no, raw) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("p") => {
                if header.is_some() {
                    return Err(ParseError::Malformed {
                        line: line_no,
                        reason: "duplicate header".to_string(),
                    });
                }
                let kind = fields.next();
                if kind != Some("mwhvc") {
                    return Err(ParseError::Malformed {
                        line: line_no,
                        reason: format!("expected `p mwhvc`, got `p {}`", kind.unwrap_or("")),
                    });
                }
                let n = parse_num(fields.next(), line_no, "vertex count")?;
                let m = parse_num(fields.next(), line_no, "edge count")?;
                reject_trailing(fields.next(), line_no, "p")?;
                header = Some((n, m));
            }
            Some("v") => {
                if header.is_none() {
                    return Err(ParseError::MissingHeader);
                }
                // Weights are parsed as `u64` directly: going through `usize`
                // would reject (or, worse, truncate) weights above
                // `usize::MAX` on 32-bit targets.
                let w: u64 = parse_num(fields.next(), line_no, "weight")?;
                reject_trailing(fields.next(), line_no, "v")?;
                weights.push(w);
            }
            Some("e") => {
                if header.is_none() {
                    return Err(ParseError::MissingHeader);
                }
                for field in fields {
                    let idx: usize = field.parse().map_err(|_| ParseError::Malformed {
                        line: line_no,
                        reason: format!("bad vertex index `{field}`"),
                    })?;
                    members.push(idx);
                }
                edge_ends.push(members.len());
            }
            Some(other) => {
                return Err(ParseError::Malformed {
                    line: line_no,
                    reason: format!("unknown record type `{other}`"),
                });
            }
            None => unreachable!("empty lines are skipped"),
        }
    }

    let (n, m) = header.ok_or(ParseError::MissingHeader)?;
    if weights.len() != n {
        return Err(ParseError::CountMismatch {
            what: "vertices",
            expected: n,
            actual: weights.len(),
        });
    }
    if edge_ends.len() != m {
        return Err(ParseError::CountMismatch {
            what: "edges",
            expected: m,
            actual: edge_ends.len(),
        });
    }

    let mut b = HypergraphBuilder::with_capacity(n, m);
    for (i, w) in weights.into_iter().enumerate() {
        if w == 0 {
            return Err(ParseError::Invalid(crate::BuildError::ZeroWeight {
                vertex: i,
            }));
        }
        b.add_vertex(w);
    }
    let mut start = 0;
    for end in edge_ends {
        b.add_edge(members[start..end].iter().map(|&v| VertexId::new(v)))?;
        start = end;
    }
    Ok(b.build()?)
}

/// Serializes a delta record against base revision `base`.
#[must_use]
pub fn serialize_delta(base: u64, delta: &InstanceDelta) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "p delta {base} {} {} {}",
        delta.remove_edges.len(),
        delta.add_edges.len(),
        delta.set_weights.len()
    );
    if !delta.remove_edges.is_empty() {
        out.push('r');
        for e in &delta.remove_edges {
            let _ = write!(out, " {}", e.index());
        }
        out.push('\n');
    }
    for members in &delta.add_edges {
        out.push('a');
        for v in members {
            let _ = write!(out, " {}", v.index());
        }
        out.push('\n');
    }
    for &(v, w) in &delta.set_weights {
        let _ = writeln!(out, "w {} {w}", v.index());
    }
    out
}

/// Whether a record chunk starting at this `p` header line is a delta
/// record (`p delta …`) rather than a full instance (`p mwhvc …`).
#[must_use]
pub fn is_delta_header(line: &str) -> bool {
    let mut fields = line.split_whitespace();
    fields.next() == Some("p") && fields.next() == Some("delta")
}

/// A parsed delta record: which revision it applies to, an optional ε
/// override for the re-solve, and the delta itself.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaRecord {
    /// The revision the delta applies to (a stream `seq` id).
    pub base: u64,
    /// Optional per-record ε override (validation is the solver's job —
    /// the parser only requires a number, so a bad ε surfaces as a solve
    /// error on that record, never a crash).
    pub epsilon: Option<f64>,
    /// The revision itself.
    pub delta: InstanceDelta,
}

/// Parses a delta record.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed headers, counts that do not match
/// the header, or unparsable numbers. (Whether the ids fit the base
/// instance is checked by [`InstanceDelta::apply`], which is the first
/// point where the base is known.)
pub fn parse_delta(text: &str) -> Result<DeltaRecord, ParseError> {
    let mut header: Option<(usize, usize, usize)> = None;
    let mut base = 0u64;
    let mut epsilon = None;
    let mut delta = InstanceDelta::empty();

    for (line_no, raw) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("p") => {
                if header.is_some() {
                    return Err(ParseError::Malformed {
                        line: line_no,
                        reason: "duplicate header".to_string(),
                    });
                }
                let kind = fields.next();
                if kind != Some("delta") {
                    return Err(ParseError::Malformed {
                        line: line_no,
                        reason: format!("expected `p delta`, got `p {}`", kind.unwrap_or("")),
                    });
                }
                base = parse_num(fields.next(), line_no, "base revision")?;
                let r = parse_num(fields.next(), line_no, "removal count")?;
                let a = parse_num(fields.next(), line_no, "insertion count")?;
                let w = parse_num(fields.next(), line_no, "weight-change count")?;
                if let Some(raw) = fields.next() {
                    epsilon = Some(raw.parse().map_err(|_| ParseError::Malformed {
                        line: line_no,
                        reason: format!("bad epsilon `{raw}`"),
                    })?);
                    reject_trailing(fields.next(), line_no, "p")?;
                }
                header = Some((r, a, w));
            }
            Some("r") => {
                if header.is_none() {
                    return Err(ParseError::MissingHeader);
                }
                for field in fields {
                    let idx: usize = field.parse().map_err(|_| ParseError::Malformed {
                        line: line_no,
                        reason: format!("bad edge index `{field}`"),
                    })?;
                    delta.remove_edges.push(EdgeId::new(idx));
                }
            }
            Some("a") => {
                if header.is_none() {
                    return Err(ParseError::MissingHeader);
                }
                let mut members = Vec::new();
                for field in fields {
                    let idx: usize = field.parse().map_err(|_| ParseError::Malformed {
                        line: line_no,
                        reason: format!("bad vertex index `{field}`"),
                    })?;
                    members.push(VertexId::new(idx));
                }
                delta.add_edges.push(members);
            }
            Some("w") => {
                if header.is_none() {
                    return Err(ParseError::MissingHeader);
                }
                let vertex: usize = parse_num(fields.next(), line_no, "vertex index")?;
                let weight: u64 = parse_num(fields.next(), line_no, "weight")?;
                reject_trailing(fields.next(), line_no, "w")?;
                delta.set_weights.push((VertexId::new(vertex), weight));
            }
            Some(other) => {
                return Err(ParseError::Malformed {
                    line: line_no,
                    reason: format!("unknown record type `{other}` in delta"),
                });
            }
            None => unreachable!("empty lines are skipped"),
        }
    }

    let (r, a, w) = header.ok_or(ParseError::MissingHeader)?;
    for (what, expected, actual) in [
        ("removals", r, delta.remove_edges.len()),
        ("insertions", a, delta.add_edges.len()),
        ("weight-changes", w, delta.set_weights.len()),
    ] {
        if expected != actual {
            return Err(ParseError::CountMismatch {
                what,
                expected,
                actual,
            });
        }
    }
    Ok(DeltaRecord {
        base,
        epsilon,
        delta,
    })
}

fn parse_num<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    let field = field.ok_or_else(|| ParseError::Malformed {
        line,
        reason: format!("missing {what}"),
    })?;
    field.parse().map_err(|_| ParseError::Malformed {
        line,
        reason: format!("bad {what} `{field}`"),
    })
}

/// `p` and `v` records have a fixed arity; extra fields are a malformed
/// line, not silently ignored data (`v 5 6` must not parse as weight 5).
fn reject_trailing(field: Option<&str>, line: usize, record: &str) -> Result<(), ParseError> {
    match field {
        None => Ok(()),
        Some(extra) => Err(ParseError::Malformed {
            line,
            reason: format!("trailing field `{extra}` after `{record}` record"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_weighted_edge_lists;

    #[test]
    fn roundtrip() {
        let g = from_weighted_edge_lists(&[3, 1, 4, 1], &[&[0, 1, 2], &[2, 3]]).unwrap();
        let text = serialize(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "c hello\n\np mwhvc 2 1\nc mid comment\nv 1\nv 2\ne 0 1\n";
        let g = parse(text).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(parse("v 1\n").unwrap_err(), ParseError::MissingHeader);
        assert_eq!(parse("").unwrap_err(), ParseError::MissingHeader);
    }

    #[test]
    fn count_mismatch_rejected() {
        let err = parse("p mwhvc 2 1\nv 1\ne 0\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::CountMismatch {
                what: "vertices",
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn bad_records_rejected() {
        assert!(matches!(
            parse("p mwhvc 1 0\nx 3\n").unwrap_err(),
            ParseError::Malformed { line: 2, .. }
        ));
        assert!(matches!(
            parse("p wrong 1 0\n").unwrap_err(),
            ParseError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            parse("p mwhvc 1 1\nv 1\ne zero\n").unwrap_err(),
            ParseError::Malformed { line: 3, .. }
        ));
    }

    #[test]
    fn weights_parse_as_u64_not_usize() {
        // Weights above u32::MAX (i.e. above usize::MAX on 32-bit targets)
        // must survive parsing exactly — regression for the old
        // parse-as-usize-then-cast path.
        let big = (1u64 << 52) + 12_345;
        let text = format!("p mwhvc 2 1\nv {big}\nv 7\ne 0 1\n");
        let g = parse(&text).unwrap();
        assert_eq!(g.weight(VertexId::new(0)), big);
        let text2 = serialize(&g);
        assert_eq!(parse(&text2).unwrap(), g);
    }

    #[test]
    fn trailing_garbage_on_v_record_rejected() {
        // `v 5 6` used to silently parse as weight 5, dropping the 6.
        let err = parse("p mwhvc 1 0\nv 5 6\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 2, ref reason } if reason.contains("trailing")),
            "got {err:?}"
        );
    }

    #[test]
    fn trailing_garbage_on_p_record_rejected() {
        let err = parse("p mwhvc 1 0 9\nv 1\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 1, ref reason } if reason.contains("trailing")),
            "got {err:?}"
        );
    }

    #[test]
    fn zero_weight_rejected() {
        let err = parse("p mwhvc 1 0\nv 0\n").unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)));
    }

    #[test]
    fn invalid_edge_rejected() {
        let err = parse("p mwhvc 1 1\nv 1\ne 5\n").unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)));
    }

    #[test]
    fn delta_roundtrip() {
        let delta = InstanceDelta {
            remove_edges: vec![EdgeId::new(0), EdgeId::new(2)],
            add_edges: vec![
                vec![VertexId::new(1), VertexId::new(3)],
                vec![VertexId::new(0)],
            ],
            set_weights: vec![(VertexId::new(2), 42)],
        };
        let text = serialize_delta(7, &delta);
        assert!(is_delta_header(text.lines().next().unwrap()));
        let record = parse_delta(&text).unwrap();
        assert_eq!(record.base, 7);
        assert_eq!(record.epsilon, None);
        assert_eq!(record.delta, delta);
        // An empty delta round-trips too.
        let empty = InstanceDelta::empty();
        let record = parse_delta(&serialize_delta(3, &empty)).unwrap();
        assert_eq!(record.base, 3);
        assert!(record.delta.is_empty());
    }

    #[test]
    fn delta_header_accepts_optional_epsilon() {
        let record = parse_delta("p delta 2 0 0 0 0.25\n").unwrap();
        assert_eq!(record.base, 2);
        assert_eq!(record.epsilon, Some(0.25));
        // A syntactically bad epsilon is a parse error; a semantically bad
        // one (e.g. 0.0) parses and is the solver's to refuse.
        assert!(parse_delta("p delta 2 0 0 0 abc\n").is_err());
        assert_eq!(
            parse_delta("p delta 2 0 0 0 0.0\n").unwrap().epsilon,
            Some(0.0)
        );
        assert!(parse_delta("p delta 2 0 0 0 0.5 extra\n").is_err());
    }

    #[test]
    fn delta_header_detection_and_rejection() {
        assert!(is_delta_header("p delta 0 0 0 0"));
        assert!(!is_delta_header("p mwhvc 3 2"));
        assert!(!is_delta_header("c p delta"));
        // The instance parser refuses delta records and vice versa.
        assert!(matches!(
            parse("p delta 0 0 0 0\n").unwrap_err(),
            ParseError::Malformed { line: 1, .. }
        ));
        assert!(matches!(
            parse_delta("p mwhvc 1 0\nv 1\n").unwrap_err(),
            ParseError::Malformed { line: 1, .. }
        ));
    }

    #[test]
    fn delta_count_mismatch_rejected() {
        let err = parse_delta("p delta 0 2 0 0\nr 1\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::CountMismatch {
                what: "removals",
                expected: 2,
                actual: 1
            }
        );
        let err = parse_delta("p delta 0 0 0 1\nw 0 0 0\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Malformed { line: 2, ref reason } if reason.contains("trailing"))
        );
        assert_eq!(parse_delta("r 1\n").unwrap_err(), ParseError::MissingHeader);
        assert!(parse_delta("p delta 0 0 0 0\nx 1\n").is_err());
    }
}
