//! Differential test of the byte-level DIMACS reader against the
//! line-`String` reader it replaced.
//!
//! `oracle::read_dimacs` below is a verbatim copy of the previous
//! `read_dimacs` body (allocating one `String` and one `Vec` per line,
//! splitting with `str::split_whitespace`). Only its error type is a
//! local stand-in, since `ParseGraphError` has no public constructor,
//! and its chaos failpoint is dropped. On every input — proptest-
//! generated and hand-written — both readers must build arc-identical
//! graphs, or fail with the same kind and line and, except for `Io`
//! (whose text comes from std), the same message.

use mcr_graph::io::read_dimacs;
use mcr_graph::{Graph, ParseErrorKind};
use proptest::collection;
use proptest::prelude::*;

mod oracle {
    use mcr_graph::{Graph, GraphBuilder, GraphError, NodeId, ParseErrorKind};
    use std::io::BufRead;

    #[derive(Debug)]
    pub struct ParseGraphError {
        pub line: usize,
        pub kind: ParseErrorKind,
        pub message: String,
    }

    impl ParseGraphError {
        fn new(line: usize, kind: ParseErrorKind, message: impl Into<String>) -> Self {
            ParseGraphError {
                line,
                kind,
                message: message.into(),
            }
        }
    }

    pub fn read_dimacs<R: BufRead>(reader: &mut R) -> Result<Graph, ParseGraphError> {
        let mut builder: Option<GraphBuilder> = None;
        let mut num_nodes = 0usize;
        for (lineno, line) in reader.lines().enumerate() {
            let lineno = lineno + 1;
            let line = line.map_err(|e| {
                ParseGraphError::new(lineno, ParseErrorKind::Io, format!("io error: {e}"))
            })?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let Some((&kind, rest)) = fields.split_first() else {
                continue; // whitespace-only line
            };
            match kind {
                "p" => {
                    if builder.is_some() {
                        return Err(ParseGraphError::new(
                            lineno,
                            ParseErrorKind::DuplicateHeader,
                            "duplicate problem line: the graph was already declared",
                        ));
                    }
                    let ["mcr", nodes_field, arcs_field] = rest else {
                        return Err(ParseGraphError::new(
                            lineno,
                            ParseErrorKind::TruncatedHeader,
                            "expected problem line `p mcr <nodes> <arcs>`",
                        ));
                    };
                    num_nodes = nodes_field.parse().map_err(|_| {
                        ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid node count")
                    })?;
                    let declared_arcs: usize = arcs_field.parse().map_err(|_| {
                        ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid arc count")
                    })?;
                    if num_nodes > u32::MAX as usize || declared_arcs > u32::MAX as usize {
                        return Err(ParseGraphError::new(
                            lineno,
                            ParseErrorKind::HeaderCountOverflow,
                            "declared node/arc count exceeds the supported maximum (2^32 - 1)",
                        ));
                    }
                    const MAX_ARC_PREALLOC: usize = 1 << 20;
                    let mut b =
                        GraphBuilder::with_capacity(num_nodes, declared_arcs.min(MAX_ARC_PREALLOC));
                    b.add_nodes(num_nodes);
                    builder = Some(b);
                }
                "a" => {
                    let b = builder.as_mut().ok_or_else(|| {
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
                    let src: usize = src_field.parse().map_err(|_| {
                        ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid source")
                    })?;
                    let dst: usize = dst_field.parse().map_err(|_| {
                        ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid target")
                    })?;
                    let weight: i64 = weight_field.parse().map_err(|_| {
                        ParseGraphError::new(lineno, ParseErrorKind::NonNumericField, "invalid weight")
                    })?;
                    let transit: i64 = match transit_field {
                        Some(t) => t.parse().map_err(|_| {
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
                        format!("unknown line type `{other}`"),
                    ));
                }
            }
        }
        let builder = builder.ok_or_else(|| {
            ParseGraphError::new(
                0,
                ParseErrorKind::MissingHeader,
                "missing problem line `p mcr ...`",
            )
        })?;
        Ok(builder.build())
    }
}

/// Every node count and every arc field, in arc id order.
fn arcs_of(g: &Graph) -> (usize, Vec<(usize, usize, i64, i64)>) {
    let arcs = g
        .arc_ids()
        .map(|a| (g.source(a).index(), g.target(a).index(), g.weight(a), g.transit(a)))
        .collect();
    (g.num_nodes(), arcs)
}

/// Runs both readers on `text`; returns a description of the first
/// disagreement, or `None` when they agree.
fn disagreement(text: &[u8]) -> Option<String> {
    let new = read_dimacs(&mut &text[..]);
    let old = oracle::read_dimacs(&mut &text[..]);
    match (new, old) {
        (Ok(g), Ok(h)) => (arcs_of(&g) != arcs_of(&h)).then(|| "graphs differ".to_string()),
        (Err(e), Err(o)) => {
            let same = e.kind() == o.kind
                && e.line() == o.line
                && (e.kind() == ParseErrorKind::Io || e.message() == o.message);
            (!same).then(|| format!("new {:?}@{} {:?}, old {o:?}", e.kind(), e.line(), e.message()))
        }
        (Ok(_), Err(o)) => Some(format!("new accepted, old failed with {o:?}")),
        (Err(e), Ok(_)) => Some(format!("old accepted, new failed with {e}")),
    }
}

fn assert_agree(text: &[u8]) {
    if let Some(why) = disagreement(text) {
        panic!("readers disagree on {:?}: {why}", String::from_utf8_lossy(text));
    }
}

/// Checks that both readers accept `text` (so the case exercises the
/// accepting path) and agree on the graph.
fn assert_agree_ok(text: &[u8]) {
    assert_agree(text);
    assert!(
        read_dimacs(&mut &text[..]).is_ok(),
        "expected {:?} to parse",
        String::from_utf8_lossy(text)
    );
}

/// Checks that both readers reject `text` with `kind` on `line`.
fn assert_agree_err(text: &[u8], kind: ParseErrorKind, line: usize) {
    assert_agree(text);
    let err = read_dimacs(&mut &text[..]).expect_err("must fail");
    assert_eq!((err.kind(), err.line()), (kind, line), "{:?}", String::from_utf8_lossy(text));
}

#[test]
fn line_endings_and_ascii_separators() {
    assert_agree_ok(b"p mcr 2 2\r\na 1 2 5\r\na 2 1 -3 4\r\n");
    assert_agree_ok(b"p mcr 2 1\na 1\r2 5\n"); // a lone CR separates fields
    assert_agree_err(b"p mcr 2 2\ra 1 2 5\n", ParseErrorKind::TruncatedHeader, 1);
    assert_agree_ok(b"p\x0Bmcr\x0C2\t1\na\x0B1\x0C2\x0B\x0B7\x0C\n");
    assert_agree_ok(b"\t p mcr 2 1 \x0C\n \x0Ba 1 2 3\r\r\n");
    assert_agree_ok(b"p mcr 1 1\na 1 1 9"); // no trailing newline
    assert_agree_ok(b"p mcr 1 1\na 1 1 9\r"); // CR at end of input
    assert_agree_ok(b"\n \n\t\r\n\x0B\x0C\np mcr 1 1\n   \na 1 1 9\n\n");
}

#[test]
fn unicode_whitespace_separates_fields() {
    assert_agree_ok("p mcr 2 1\na\u{A0}1 2\u{3000}5\n".as_bytes());
    assert_agree_ok("\u{3000}p\u{2003}mcr 2 1\n\u{85}a 1 2 5\u{A0}\n".as_bytes());
    assert_agree_ok("\u{A0}c comment behind a no-break space\np mcr 1 0\n".as_bytes());
    // Not whitespace: the BOM stays glued to its field.
    assert_agree_err("\u{FEFF}p mcr 1 0\n".as_bytes(), ParseErrorKind::UnknownLineType, 1);
    assert_agree_err("p mcr 2 1\na 1 2 ５\n".as_bytes(), ParseErrorKind::NonNumericField, 2);
}

#[test]
fn invalid_utf8_fails_on_its_line() {
    for k in 1..=4 {
        let mut lines: Vec<Vec<u8>> =
            ["p mcr 2 2", "a 1 2 5", "c a comment", "a 2 1 3"].iter().map(|l| l.as_bytes().to_vec()).collect();
        lines[k - 1].extend_from_slice(b" \xff\xfe");
        let text = lines.join(&b'\n');
        assert_agree_err(&text, ParseErrorKind::Io, k);
    }
    assert_agree_err(b"p mcr 1 1\na 1 1 \xc3\n", ParseErrorKind::Io, 2); // truncated sequence
    assert_agree_err(b"p mcr 1 1\na 1 1 1\n\xed\xa0\x80\n", ParseErrorKind::Io, 3); // surrogate
}

#[test]
fn signed_zero_padded_and_overflowing_numbers() {
    assert_agree_ok(b"p mcr +2 +2\na +1 +2 +5\na 2 1 -0 +0\n");
    assert_agree_ok(b"p mcr 002 0000000000000000000000000001\na 0001 02 -007 00\n");
    assert_agree_ok(b"p mcr 1 1\na 1 1 9223372036854775807 9223372036854775807\n");
    assert_agree_ok(b"p mcr 1 1\na 1 1 -9223372036854775808\n");
    assert_agree_err(b"p mcr 1 1\na 1 1 9223372036854775808\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 1 1\na 1 1 -9223372036854775809\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 1 1\na 1 1 5 99999999999999999999\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 2 1\na -0 1 5\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 2 1\na 1 -1 5\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 2 1\na + 1 5\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 2 1\na 1 2 -\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 2 1\na 1 2 +-5\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 2 1\na 1 2 5x\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 2 1\na 1 2 1 -1\n", ParseErrorKind::NegativeTransit, 2);
    assert_agree_ok(b"p mcr 2 1\na 1 2 1 -0\n");
}

#[test]
fn comments_nul_bytes_and_line_types() {
    assert_agree_ok(b"cfoo\nc\n  cbar baz\np mcr 1 1\ncomment\na 1 1 2\n");
    assert_agree_err(b"p mcr 2 1\na 1 2 5\0\n", ParseErrorKind::NonNumericField, 2);
    assert_agree_err(b"p mcr 2 1\n\0a 1 2 5\n", ParseErrorKind::UnknownLineType, 2);
    assert_agree_err(b"p mcr 2 1\nab 1 2 5\n", ParseErrorKind::UnknownLineType, 2);
    assert_agree_err(b"p mcr 2 1\nA 1 2 5\n", ParseErrorKind::UnknownLineType, 2);
    assert_agree_err(b"a 1 2 5\n", ParseErrorKind::MissingHeader, 1);
    assert_agree_err(b"c only comments\n\n", ParseErrorKind::MissingHeader, 0);
    assert_agree_err(b"", ParseErrorKind::MissingHeader, 0);
    assert_agree_err(b"p mcr 2 1\na 1 2\n", ParseErrorKind::MalformedArc, 2);
    assert_agree_err(b"p mcr 2 1\na 1 2 3 4 5\n", ParseErrorKind::MalformedArc, 2);
    assert_agree_err(b"p mcr 2 1\na 1 2 3 4 5 6 7 8 9\n", ParseErrorKind::MalformedArc, 2);
    assert_agree_err(b"p mcr 2 1\na 1 2 x 4 5\n", ParseErrorKind::MalformedArc, 2);
    assert_agree_err(b"p mcr 2 1\na 3 1 5\n", ParseErrorKind::OutOfRangeEndpoint, 2);
    assert_agree_err(b"p mcr 2 1\na 0 1 5\n", ParseErrorKind::OutOfRangeEndpoint, 2);
}

#[test]
fn malformed_problem_lines() {
    use ParseErrorKind as K;
    assert_agree_err(b"p\n", K::TruncatedHeader, 1);
    assert_agree_err(b"p mcr\n", K::TruncatedHeader, 1);
    assert_agree_err(b"p mcr 2\n", K::TruncatedHeader, 1);
    assert_agree_err(b"p mcr 2 2 2\n", K::TruncatedHeader, 1);
    assert_agree_err(b"p sp 2 2\n", K::TruncatedHeader, 1);
    assert_agree_err(b"p MCR 2 2\n", K::TruncatedHeader, 1);
    assert_agree_err(b"p mcr two 2\n", K::NonNumericField, 1);
    assert_agree_err(b"p mcr 2 -2\n", K::NonNumericField, 1);
    assert_agree_err(b"p mcr 99999999999999999999 2\n", K::NonNumericField, 1);
    assert_agree_err(b"p mcr 4294967296 2\n", K::HeaderCountOverflow, 1);
    assert_agree_err(b"p mcr 2 4294967296\n", K::HeaderCountOverflow, 1);
    assert_agree_err(b"p mcr 2 1\np mcr 2 1\n", K::DuplicateHeader, 2);
    assert_agree_ok(b"p mcr 0 0\n");
    assert_agree_ok(b"p mcr 2 4294967295\na 1 2 1\n");
}

#[test]
fn agrees_on_the_bad_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/bad");
    for entry in std::fs::read_dir(dir).expect("corpus directory exists") {
        let path = entry.expect("readable entry").path();
        let text = std::fs::read(&path).expect("readable corpus file");
        assert!(read_dimacs(&mut &text[..]).is_err(), "{}", path.display());
        assert_agree(&text);
    }
}

/// Separator runs other than a single space: ASCII whitespace, Unicode
/// whitespace, and (the last three) bytes that only look like
/// separators.
const SEPARATORS: [&str; 13] = [
    "\t", "\x0B", "\x0C", "\r", "  ", " \t ", "\u{A0}", "\u{3000}", "\u{2028}", "\u{85}", "\0",
    "\x1F", "\u{FEFF}",
];

/// How many of [`SEPARATORS`] really separate fields.
const REAL_SEPARATORS: usize = 10;

/// Numeric edge cases for a field.
const EDGE_NUMBERS: [&str; 9] = [
    "-0",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "4294967295",
    "4294967296",
];

/// One separator run, usually a single space.
fn separator() -> impl Strategy<Value = String> {
    (0..2 * SEPARATORS.len()).prop_map(|i| SEPARATORS.get(i).unwrap_or(&" ").to_string())
}

/// One field: usually a small number, sometimes signed, zero-padded,
/// out of range, or not a number at all.
fn field() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u32..6).prop_map(|n| n.to_string()),
        (0u32..6).prop_map(|n| n.to_string()),
        (0u32..6).prop_map(|n| n.to_string()),
        (-5i64..5).prop_map(|n| n.to_string()),
        (0u32..6).prop_map(|n| format!("+{n}")),
        (0u32..6).prop_map(|n| format!("00{n}")),
        (0..EDGE_NUMBERS.len()).prop_map(|i| EDGE_NUMBERS[i].to_string()),
        "[-+0-9a-z]{1,4}",
    ]
}

/// One line: a problem line, an arc line, a comment, a blank line, or
/// an arbitrary token run, joined by arbitrary separators.
fn line() -> impl Strategy<Value = String> {
    let kind = prop_oneof![
        Just("p mcr".to_string()),
        Just("a".to_string()),
        Just("a".to_string()),
        Just("a".to_string()),
        Just("c".to_string()),
        Just("cfoo".to_string()),
        Just(String::new()),
        "[a-zA-Z]{1,3}",
    ];
    (
        separator(),
        kind,
        collection::vec((separator(), field()), 0..6),
        separator(),
    )
        .prop_map(|(lead, kind, fields, trail)| {
            let mut line = lead + &kind;
            for (sep, f) in fields {
                line.push_str(&sep);
                line.push_str(&f);
            }
            line + &trail
        })
}

/// A well-formed document whose fields are joined by any real
/// separator run and whose lines end in LF or CRLF.
fn valid_document() -> impl Strategy<Value = Vec<u8>> {
    let sep = || (0..2 * REAL_SEPARATORS).prop_map(|i| SEPARATORS[i % REAL_SEPARATORS]);
    (1usize..6).prop_flat_map(move |n| {
        let arc = ((1..=n, 1..=n, -1000i64..1000, -1i64..3), (sep(), sep(), sep()), 0..2usize);
        collection::vec(arc, 0..10).prop_map(move |arcs| {
            let mut text = format!("p mcr {n} {}\n", arcs.len());
            for ((src, dst, weight, transit), (s1, s2, s3), crlf) in arcs {
                text.push_str(&format!("a{s1}{src}{s2}{dst}{s3}{weight}"));
                if transit >= 0 {
                    text.push_str(&format!("{s1}{transit}"));
                }
                text.push_str(if crlf == 1 { "\r\n" } else { "\n" });
            }
            text.into_bytes()
        })
    })
}

/// A problem line followed by DIMACS-like lines with LF or CRLF
/// endings, with or without a final newline.
fn document() -> impl Strategy<Value = Vec<u8>> {
    (
        "p mcr [0-6] [0-9]{1,2}",
        collection::vec((line(), 0..2usize), 0..12),
        0..2usize,
    )
        .prop_map(|(header, lines, trailing_newline)| {
            let mut text = header + "\n";
            for (l, crlf) in lines {
                text.push_str(&l);
                text.push_str(if crlf == 1 { "\r\n" } else { "\n" });
            }
            if trailing_newline == 0 {
                text.pop();
            }
            text.into_bytes()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn agrees_on_valid_documents(text in valid_document()) {
        prop_assert!(read_dimacs(&mut &text[..]).is_ok());
        prop_assert_eq!(disagreement(&text), None);
    }

    #[test]
    fn agrees_on_dimacs_like_documents(text in document()) {
        prop_assert_eq!(disagreement(&text), None);
    }

    #[test]
    fn agrees_on_documents_with_corrupted_bytes(
        text in document(),
        edits in collection::vec((0usize..1 << 16, 0u8..=255), 1..4),
    ) {
        let mut text = text;
        let len = text.len().max(1);
        for (at, byte) in edits {
            if let Some(b) = text.get_mut(at % len) {
                *b = byte;
            }
        }
        prop_assert_eq!(disagreement(&text), None);
    }

    #[test]
    fn agrees_on_arbitrary_bytes(text in collection::vec(0u8..=255, 0..200)) {
        prop_assert_eq!(disagreement(&text), None);
    }
}
