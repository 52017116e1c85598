//! Graph serialization: a DIMACS-style arc-list text format and DOT
//! export for visualization.
//!
//! The text format follows the DIMACS shortest-path convention the
//! SPRAND generator family emits, extended with an optional transit-time
//! field:
//!
//! ```text
//! c comment lines
//! p mcr <num_nodes> <num_arcs>
//! a <source> <target> <weight> [transit]
//! ```
//!
//! Nodes are 1-based in the file (DIMACS convention) and 0-based in
//! memory. Fields are separated by runs of whitespace in the sense of
//! `char::is_whitespace`; a line whose first field starts with `c` is
//! a comment.
//!
//! The reader works on bytes: each line is read into one reused buffer,
//! an ASCII line is split on the six ASCII whitespace bytes, and its
//! integer fields are parsed straight from the bytes into the
//! [`GraphBuilder`]. A line holding any other byte is validated as
//! UTF-8 and split with `str::split_whitespace` instead, so Unicode
//! whitespace separates fields too.

// Parsing/validation surfaces must stay panic-free whatever the
// input; CI runs clippy with -D warnings, so these lints are a gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::graph::{Graph, GraphBuilder, GraphError, NodeId};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Machine-readable classification of a [`ParseGraphError`].
///
/// Callers that need to distinguish "the file is garbage" from "one
/// field is wrong" can match on this instead of scraping the display
/// message; the message remains the human-facing diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// The underlying reader failed.
    Io,
    /// A `p` line is present but malformed (wrong field count, wrong
    /// problem tag, or the file ends mid-header).
    TruncatedHeader,
    /// A second `p` line appeared after the graph was already declared.
    DuplicateHeader,
    /// No `p` line precedes the arcs (or the file has none at all).
    MissingHeader,
    /// An `a` line has the wrong number of fields.
    MalformedArc,
    /// A numeric field (count, endpoint, weight, or transit) failed to
    /// parse as an integer.
    NonNumericField,
    /// An arc endpoint falls outside `1..=num_nodes`.
    OutOfRangeEndpoint,
    /// The header declares more nodes or arcs than ids (`u32`) can
    /// address; rejected before any allocation is sized from it.
    HeaderCountOverflow,
    /// An arc declared a negative transit time.
    NegativeTransit,
    /// A line starts with an unrecognized type character.
    UnknownLineType,
}

/// Error produced when parsing the DIMACS-style text format.
///
/// Carries the 1-based line number of the offending line (0 for
/// whole-file errors such as a missing header), a [`ParseErrorKind`]
/// for programmatic matching, and a human-readable message.
#[derive(Debug)]
pub struct ParseGraphError {
    line: usize,
    kind: ParseErrorKind,
    message: String,
}

impl ParseGraphError {
    fn new(line: usize, kind: ParseErrorKind, message: impl Into<String>) -> Self {
        ParseGraphError {
            line,
            kind,
            message: message.into(),
        }
    }

    /// The 1-based line number the error was detected on (0 when the
    /// error concerns the file as a whole, e.g. a missing header).
    pub fn line(&self) -> usize {
        self.line
    }

    /// The machine-readable classification of the error.
    pub fn kind(&self) -> ParseErrorKind {
        self.kind
    }

    /// The human-readable diagnostic, without the line prefix.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseGraphError {}

/// Reads a graph in the DIMACS-style format described in the
/// [module documentation](self).
///
/// A mutable reference to any `BufRead` may be passed.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on malformed or duplicated headers, arc
/// lines with the wrong field count, out-of-range endpoints, negative
/// transit times, or unparsable integers. The error's
/// [`kind`](ParseGraphError::kind) distinguishes the cases and
/// [`line`](ParseGraphError::line) locates the offending line; parsing
/// never panics, whatever the input.
///
/// ```
/// use mcr_graph::io::read_dimacs;
/// let text = "c tiny\np mcr 2 2\na 1 2 5\na 2 1 3 7\n";
/// let g = read_dimacs(&mut text.as_bytes())?;
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.transit(mcr_graph::ArcId::new(1)), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn read_dimacs<R: BufRead>(reader: &mut R) -> Result<Graph, ParseGraphError> {
    let mut parser = LineParser::default();
    // One buffer, reused for every line: the reader never holds more
    // than the longest line, and parsing allocates nothing per line.
    let mut line = Vec::new();
    let mut lineno = 0;
    loop {
        lineno += 1;
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                return Err(ParseGraphError::new(
                    lineno,
                    ParseErrorKind::Io,
                    format!("io error: {e}"),
                ))
            }
        }
        if line.is_ascii() {
            let fields = line.split(|&b| is_separator(b)).filter(|f| !f.is_empty());
            parser.line(lineno, fields)?;
        } else {
            // Rare path: validate the line, then split on Unicode
            // whitespace, so U+00A0 and friends separate fields as the
            // ASCII separators do.
            let text = std::str::from_utf8(&line).map_err(|_| {
                ParseGraphError::new(
                    lineno,
                    ParseErrorKind::Io,
                    "io error: stream did not contain valid UTF-8",
                )
            })?;
            parser.line(lineno, text.split_whitespace().map(str::as_bytes))?;
        }
    }
    let builder = parser.builder.ok_or_else(|| {
        ParseGraphError::new(
            0,
            ParseErrorKind::MissingHeader,
            "missing problem line `p mcr ...`",
        )
    })?;
    Ok(builder.build())
}

/// The field separators: exactly the ASCII members of
/// `char::is_whitespace` (`u8::is_ascii_whitespace` leaves out `\x0B`).
#[inline]
fn is_separator(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r')
}

/// Fields kept per line: one more than the longest valid line (`a`
/// with a transit), so any longer line still fails every shape match.
const MAX_FIELDS: usize = 6;

/// Parser state carried from line to line.
#[derive(Default)]
struct LineParser {
    builder: Option<GraphBuilder>,
    num_nodes: usize,
}

impl LineParser {
    /// Handles one line, given as its whitespace-separated fields.
    fn line<'a>(
        &mut self,
        lineno: usize,
        fields: impl Iterator<Item = &'a [u8]>,
    ) -> Result<(), ParseGraphError> {
        let mut slots: [&[u8]; MAX_FIELDS] = [&[]; MAX_FIELDS];
        let mut len = 0;
        for (slot, field) in slots.iter_mut().zip(fields) {
            *slot = field;
            len += 1;
        }
        // Slice patterns keep the parser free of `fields[i]` indexing:
        // every shape mismatch lands in a typed-error arm instead of a
        // potential bounds panic (lint rule MCRL005).
        let fields = slots.get(..len).unwrap_or_default();
        let Some((&kind, rest)) = fields.split_first() else {
            return Ok(()); // blank or whitespace-only line
        };
        if kind.first() == Some(&b'c') {
            return Ok(()); // comment
        }
        match kind {
            b"p" => {
                if self.builder.is_some() {
                    return Err(ParseGraphError::new(
                        lineno,
                        ParseErrorKind::DuplicateHeader,
                        "duplicate problem line: the graph was already declared",
                    ));
                }
                let [b"mcr", nodes_field, arcs_field] = rest else {
                    return Err(ParseGraphError::new(
                        lineno,
                        ParseErrorKind::TruncatedHeader,
                        "expected problem line `p mcr <nodes> <arcs>`",
                    ));
                };
                let num_nodes = parse_usize(nodes_field).ok_or_else(|| {
                    ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid node count")
                })?;
                let declared_arcs = parse_usize(arcs_field).ok_or_else(|| {
                    ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid arc count")
                })?;
                // Node and arc ids are u32 internally, so larger
                // declared counts can never produce a valid graph —
                // reject them *before* allocating, or a one-line header
                // could demand hundreds of gigabytes (found by fuzzing).
                if num_nodes > u32::MAX as usize || declared_arcs > u32::MAX as usize {
                    return Err(ParseGraphError::new(
                        lineno,
                        ParseErrorKind::HeaderCountOverflow,
                        "declared node/arc count exceeds the supported maximum (2^32 - 1)",
                    ));
                }
                // The declared arc count is only a capacity *hint* —
                // arcs are stored as their lines arrive — so clamp it:
                // a header claiming 4 billion arcs must not reserve
                // gigabytes the file never delivers.
                const MAX_ARC_PREALLOC: usize = 1 << 20;
                let mut b =
                    GraphBuilder::with_capacity(num_nodes, declared_arcs.min(MAX_ARC_PREALLOC));
                b.add_nodes(num_nodes);
                self.num_nodes = num_nodes;
                self.builder = Some(b);
            }
            b"a" => {
                if crate::chaos::fail_hit("graph.io.read_dimacs.arc") {
                    return Err(ParseGraphError::new(
                        lineno,
                        ParseErrorKind::Io,
                        "injected chaos fault while reading arc line",
                    ));
                }
                let num_nodes = self.num_nodes;
                let b = self.builder.as_mut().ok_or_else(|| {
                    ParseGraphError::new(
                        lineno,
                        ParseErrorKind::MissingHeader,
                        "arc before problem line",
                    )
                })?;
                let (src_field, dst_field, weight_field, transit_field) = match rest {
                    [s, d, w] => (s, d, w, None),
                    [s, d, w, t] => (s, d, w, Some(t)),
                    _ => {
                        return Err(ParseGraphError::new(
                            lineno,
                            ParseErrorKind::MalformedArc,
                            "expected `a <src> <dst> <weight> [transit]`",
                        ));
                    }
                };
                let src = parse_usize(src_field).ok_or_else(|| {
                    ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid source")
                })?;
                let dst = parse_usize(dst_field).ok_or_else(|| {
                    ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid target")
                })?;
                let weight = parse_i64(weight_field).ok_or_else(|| {
                    ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid weight")
                })?;
                let transit = match transit_field {
                    Some(t) => parse_i64(t).ok_or_else(|| {
                        ParseGraphError::new(
                            lineno,
                            ParseErrorKind::NonNumericField,
                            "invalid transit",
                        )
                    })?,
                    None => 1,
                };
                if src == 0 || src > num_nodes || dst == 0 || dst > num_nodes {
                    return Err(ParseGraphError::new(
                        lineno,
                        ParseErrorKind::OutOfRangeEndpoint,
                        format!("endpoint out of range 1..={num_nodes}"),
                    ));
                }
                b.try_add_arc_with_transit(
                    NodeId::new(src - 1),
                    NodeId::new(dst - 1),
                    weight,
                    transit,
                )
                .map_err(|e| {
                    let kind = match e {
                        GraphError::NegativeTransit { .. } => ParseErrorKind::NegativeTransit,
                        _ => ParseErrorKind::OutOfRangeEndpoint,
                    };
                    ParseGraphError::new(
                        lineno,
                        kind,
                        match e {
                            GraphError::NegativeTransit { .. } => "negative transit time".into(),
                            other => other.to_string(),
                        },
                    )
                })?;
            }
            other => {
                return Err(ParseGraphError::new(
                    lineno,
                    ParseErrorKind::UnknownLineType,
                    format!("unknown line type `{}`", String::from_utf8_lossy(other)),
                ));
            }
        }
        Ok(())
    }
}

/// Parses an unsigned decimal field the way `usize::from_str` does: an
/// optional `+`, then one or more digits, failing on overflow.
fn parse_usize(field: &[u8]) -> Option<usize> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    usize::try_from(parse_digits(digits)?).ok()
}

/// Parses a signed decimal field the way `i64::from_str` does: an
/// optional `+` or `-`, then one or more digits, failing on overflow
/// (`i64::MIN` itself parses).
fn parse_i64(field: &[u8]) -> Option<i64> {
    match field {
        [b'-', digits @ ..] => 0i64.checked_sub_unsigned(parse_digits(digits)?),
        [b'+', digits @ ..] => i64::try_from(parse_digits(digits)?).ok(),
        digits => i64::try_from(parse_digits(digits)?).ok(),
    }
}

/// The value of a nonempty run of ASCII digits, or `None` for any other
/// byte, an empty run, or a value past `u64::MAX`.
fn parse_digits(digits: &[u8]) -> Option<u64> {
    // Up to 19 digits cannot overflow a u64; longer runs (leading
    // zeros, or a genuine overflow) take the checked path.
    const UNCHECKED_DIGITS: usize = 19;
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = u64::from(b.wrapping_sub(b'0'));
        if d > 9 {
            None
        } else if digits.len() <= UNCHECKED_DIGITS {
            Some(n * 10 + d)
        } else {
            n.checked_mul(10)?.checked_add(d)
        }
    })
}

/// Writes `g` in the DIMACS-style format accepted by [`read_dimacs`].
///
/// Transit times are emitted only when some arc has a non-unit transit
/// time. A mutable reference to any `Write` may be passed.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_dimacs<W: Write>(writer: &mut W, g: &Graph) -> std::io::Result<()> {
    writeln!(writer, "p mcr {} {}", g.num_nodes(), g.num_arcs())?;
    let with_transit = !g.has_unit_transits();
    for a in g.arc_ids() {
        if with_transit {
            writeln!(
                writer,
                "a {} {} {} {}",
                g.source(a).index() + 1,
                g.target(a).index() + 1,
                g.weight(a),
                g.transit(a)
            )?;
        } else {
            writeln!(
                writer,
                "a {} {} {}",
                g.source(a).index() + 1,
                g.target(a).index() + 1,
                g.weight(a)
            )?;
        }
    }
    Ok(())
}

/// Renders `g` in Graphviz DOT syntax, labeling arcs with `weight` or
/// `weight/transit`.
///
/// ```
/// use mcr_graph::{graph::from_arc_list, io::to_dot};
/// let g = from_arc_list(2, &[(0, 1, 4)]);
/// let dot = to_dot(&g, "tiny");
/// assert!(dot.contains("digraph tiny"));
/// assert!(dot.contains("0 -> 1"));
/// ```
pub fn to_dot(g: &Graph, name: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let with_transit = !g.has_unit_transits();
    for a in g.arc_ids() {
        if with_transit {
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}/{}\"];",
                g.source(a).index(),
                g.target(a).index(),
                g.weight(a),
                g.transit(a)
            );
        } else {
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}\"];",
                g.source(a).index(),
                g.target(a).index(),
                g.weight(a)
            );
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_arc_list;

    #[test]
    fn roundtrip_unit_transit() {
        let g = from_arc_list(3, &[(0, 1, 5), (1, 2, -3), (2, 0, 7)]);
        let mut buf = Vec::new();
        write_dimacs(&mut buf, &g).expect("write");
        let h = read_dimacs(&mut buf.as_slice()).expect("parse");
        assert_eq!(h.num_nodes(), 3);
        assert_eq!(h.num_arcs(), 3);
        for a in g.arc_ids() {
            assert_eq!(g.source(a), h.source(a));
            assert_eq!(g.target(a), h.target(a));
            assert_eq!(g.weight(a), h.weight(a));
            assert_eq!(h.transit(a), 1);
        }
    }

    #[test]
    fn roundtrip_with_transits() {
        let mut b = GraphBuilder::new();
        let v = b.add_nodes(2);
        b.add_arc_with_transit(v[0], v[1], 10, 3);
        b.add_arc_with_transit(v[1], v[0], -2, 0);
        let g = b.build();
        let mut buf = Vec::new();
        write_dimacs(&mut buf, &g).expect("write");
        let h = read_dimacs(&mut buf.as_slice()).expect("parse");
        for a in g.arc_ids() {
            assert_eq!(g.transit(a), h.transit(a));
            assert_eq!(g.weight(a), h.weight(a));
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "c header\n\nc more\np mcr 1 1\nc inline\na 1 1 -4\n";
        let g = read_dimacs(&mut text.as_bytes()).expect("parse");
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.weight(crate::graph::ArcId::new(0)), -4);
    }

    #[test]
    fn errors_are_reported_with_line_numbers_and_kinds() {
        use ParseErrorKind as K;
        let cases = [
            ("a 1 2 3\n", "problem line", K::MissingHeader, 1),
            ("p mcr x 1\n", "node count", K::NonNumericField, 1),
            ("p mcr 2 1\na 1 3 1\n", "out of range", K::OutOfRangeEndpoint, 2),
            ("p mcr 2 1\na 1 2\n", "expected", K::MalformedArc, 2),
            ("p mcr 2 1\nq 1 2\n", "unknown line type", K::UnknownLineType, 2),
            ("p mcr 2 1\na 1 2 1 -1\n", "negative transit", K::NegativeTransit, 2),
            ("", "missing problem line", K::MissingHeader, 0),
            ("p mcr\n", "expected problem line", K::TruncatedHeader, 1),
            ("p mcr 2 2\np mcr 2 2\n", "duplicate", K::DuplicateHeader, 2),
        ];
        for (text, needle, kind, line) in cases {
            let err = read_dimacs(&mut text.as_bytes()).expect_err(text);
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "error for {text:?} was {msg:?}, expected to contain {needle:?}"
            );
            assert_eq!(err.kind(), kind, "kind for {text:?}");
            assert_eq!(err.line(), line, "line for {text:?}");
        }
    }

    #[test]
    fn absurd_header_counts_are_rejected_before_allocation() {
        // A mutated header declaring ~10^11 nodes must fail fast with a
        // typed error instead of attempting a multi-hundred-gigabyte
        // `with_capacity` (found by fuzzing the parser).
        for text in [
            "p mcr 99999999999 5\n",
            "p mcr 5 99999999999\n",
            "p mcr 4294967296 4294967296\n",
        ] {
            let err = read_dimacs(&mut text.as_bytes()).expect_err(text);
            assert_eq!(err.kind(), ParseErrorKind::HeaderCountOverflow, "{text:?}");
            assert_eq!(err.line(), 1, "{text:?}");
        }
        // The boundary itself (u32::MAX) is legal as a *declared* count;
        // the file just doesn't have to deliver that many arcs.
        let text = "p mcr 2 4294967295\na 1 2 1\n";
        assert!(read_dimacs(&mut text.as_bytes()).is_ok());
    }

    #[test]
    fn second_header_is_rejected_not_silently_replaced() {
        // Before the duplicate-header check, a second `p` line would
        // silently discard every arc parsed so far.
        let text = "p mcr 2 2\na 1 2 5\np mcr 9 9\na 2 1 3\n";
        let err = read_dimacs(&mut text.as_bytes()).expect_err("duplicate header");
        assert_eq!(err.kind(), ParseErrorKind::DuplicateHeader);
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn dot_contains_all_arcs() {
        let g = from_arc_list(3, &[(0, 1, 1), (1, 2, 2), (2, 0, 3)]);
        let dot = to_dot(&g, "g");
        assert_eq!(dot.matches("->").count(), 3);
    }

    use crate::graph::GraphBuilder;
}
