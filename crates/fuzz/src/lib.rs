//! Fuzzing entry points shared by the cargo-fuzz targets (under the
//! workspace-excluded `fuzz/` scaffold) and the offline `fuzz-smoke`
//! binary that CI runs.
//!
//! Both harnesses feed arbitrary bytes into these functions; the
//! contract under test is **no panic, no hang, no unbounded
//! allocation** — errors are fine, that is what typed errors are for.
//! Keeping the bodies here means the libfuzzer targets stay one-line
//! delegations and the smoke harness exercises byte-identical code.

use mcr_core::{Algorithm, Budget, FallbackChain, SolveOptions};
use mcr_graph::graph::{from_arc_list, Graph};
use mcr_graph::io::{read_dimacs, write_dimacs};
use std::time::Duration;

/// Nodes above this are skipped by the harness: `read_dimacs` allocates
/// node storage from the header (the format declares nodes only there),
/// so a legal-but-huge count is an expensive allocation, not a bug.
/// Counts above `u32::MAX` are rejected by the parser itself.
const MAX_FUZZ_NODES: u64 = 100_000;

/// Fuzz the DIMACS parser: arbitrary bytes must either parse or return
/// a typed [`ParseGraphError`](mcr_graph::io::ParseGraphError) — never
/// panic. Inputs that do parse are round-tripped through
/// [`write_dimacs`] and must reparse to an arc-identical graph.
pub fn fuzz_dimacs(data: &[u8]) {
    if declared_nodes(data).is_some_and(|n| n > MAX_FUZZ_NODES) {
        return;
    }
    let Ok(g) = read_dimacs(&mut &data[..]) else {
        return;
    };
    let mut out = Vec::new();
    write_dimacs(&mut out, &g).expect("writing to a Vec cannot fail");
    let h = read_dimacs(&mut out.as_slice())
        .expect("a graph the writer produced must reparse");
    assert_eq!(g.num_nodes(), h.num_nodes(), "round-trip changed the node count");
    assert_eq!(g.num_arcs(), h.num_arcs(), "round-trip changed the arc count");
    for a in g.arc_ids() {
        assert_eq!(g.weight(a), h.weight(a), "round-trip changed a weight");
        assert_eq!(g.transit(a), h.transit(a), "round-trip changed a transit");
    }
}

/// Fuzz the solver front door: decode the bytes into a small graph,
/// solve every algorithm under a tight budget, and certify anything
/// that claims success. Wrong answers and panics are the bugs; budget
/// and numeric-range errors are expected outcomes.
pub fn fuzz_solve(data: &[u8]) {
    let Some(g) = decode_graph(data) else { return };
    let opts = SolveOptions::new()
        .budget(
            Budget::default()
                .max_iterations(2_000)
                .wall_time(Duration::from_millis(200)),
        )
        .fallback(FallbackChain::NONE);
    for alg in Algorithm::ALL {
        if let Ok(sol) = alg.solve_with_options(&g, &opts) {
            mcr_core::certify(&sol, &g).unwrap_or_else(|e| {
                panic!("{} returned an uncertifiable solution: {e}", alg.name())
            });
        }
    }
}

/// Fuzz the wire-frame codec and the request parser behind it:
/// arbitrary bytes are decoded as a stream of length-prefixed frames
/// until clean EOF or a typed error — truncated headers, oversize
/// lengths, and mid-frame EOF must all surface as errors, never as
/// panics or hangs. Every decoded payload must re-encode to the exact
/// bytes it was cut from, and is fed to
/// [`mcr_serve::protocol::parse_request`], whose failures must also
/// stay typed.
pub fn fuzz_frame(data: &[u8]) {
    use mcr_serve::frame::{read_frame, write_frame};
    let mut cursor = data;
    loop {
        let consumed_before = data.len() - cursor.len();
        match read_frame(&mut cursor) {
            Ok(None) | Err(_) => return,
            Ok(Some(payload)) => {
                let mut encoded = Vec::with_capacity(payload.len() + 4);
                write_frame(&mut encoded, &payload)
                    .expect("re-encoding a decoded frame cannot exceed the cap");
                let consumed_after = data.len() - cursor.len();
                assert_eq!(
                    encoded,
                    &data[consumed_before..consumed_after],
                    "decode → encode must reproduce the frame bytes exactly"
                );
                // The daemon parses every decoded payload; junk must
                // come back as a typed protocol error.
                let _ = mcr_serve::protocol::parse_request(&payload);
            }
        }
    }
}

/// Fuzz the wire JSON codec on its own: arbitrary bytes (lossily made
/// UTF-8, as [`mcr_serve::json::parse`] takes `&str`) must parse or
/// fail with an error whose offset lies inside the input — never panic.
/// Every string a successful parse yields, object keys included, must
/// round-trip exactly through [`mcr_serve::json::ObjWriter`] and back.
pub fn fuzz_json(data: &[u8]) {
    use mcr_serve::json::{parse, ObjWriter, Value};
    let text = String::from_utf8_lossy(data);
    let value = match parse(&text) {
        Ok(value) => value,
        Err(e) => {
            assert!(
                e.at <= text.len(),
                "error offset {} past the input's {} bytes",
                e.at,
                text.len()
            );
            return;
        }
    };
    let mut stack = vec![&value];
    let mut strings: Vec<&str> = Vec::new();
    while let Some(v) = stack.pop() {
        match v {
            Value::Str(s) => strings.push(s),
            Value::Arr(items) => stack.extend(items),
            Value::Obj(map) => {
                strings.extend(map.keys().map(String::as_str));
                stack.extend(map.values());
            }
            Value::Null | Value::Bool(_) | Value::Num(_) => {}
        }
    }
    for s in strings {
        let doc = ObjWriter::new().str("k", s).finish();
        let back = parse(&doc).expect("writer output must parse");
        assert_eq!(
            back.get("k").and_then(Value::as_str),
            Some(s),
            "string changed on round trip"
        );
    }
}

/// Deterministically decode fuzz bytes into a graph small enough that
/// every algorithm terminates quickly: the first byte picks `n` in
/// `2..=17`, then each subsequent 3-byte chunk becomes one arc
/// (endpoints mod `n`, weight centered signed byte).
fn decode_graph(data: &[u8]) -> Option<Graph> {
    let (&first, rest) = data.split_first()?;
    let n = 2 + (first as usize % 16);
    let mut arcs = Vec::with_capacity(rest.len() / 3);
    for chunk in rest.chunks_exact(3) {
        let u = chunk[0] as usize % n;
        let v = chunk[1] as usize % n;
        let w = chunk[2] as i64 - 128;
        arcs.push((u, v, w));
    }
    if arcs.is_empty() {
        return None;
    }
    Some(from_arc_list(n, &arcs))
}

/// Best-effort scan for the header's declared node count, used to skip
/// legal-but-enormous inputs before the parser allocates for them.
fn declared_nodes(data: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(data).ok()?;
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        if fields.next() == Some("p") {
            let _problem = fields.next();
            return fields.next()?.parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_seeds_run_clean() {
        for entry in std::fs::read_dir(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../graph/tests/data/bad"
        ))
        .expect("corpus dir")
        {
            let bytes = std::fs::read(entry.expect("entry").path()).expect("read");
            fuzz_dimacs(&bytes);
        }
    }

    #[test]
    fn valid_input_round_trips() {
        fuzz_dimacs(b"p mcr 3 3\na 1 2 5\na 2 3 -1 4\na 3 1 2\n");
    }

    #[test]
    fn decoded_graphs_solve_and_certify() {
        fuzz_solve(&[7, 0, 1, 200, 1, 2, 10, 2, 0, 90, 3, 3, 128]);
        fuzz_solve(&[0; 4]);
        fuzz_solve(&[255; 32]);
    }

    #[test]
    fn degenerate_inputs_are_ignored() {
        fuzz_solve(&[]);
        fuzz_solve(&[9]);
        fuzz_dimacs(&[]);
        fuzz_dimacs(b"p mcr 99999999999 1\n");
    }

    #[test]
    fn frame_streams_round_trip_and_junk_stays_typed() {
        // Two well-formed frames back to back.
        let mut stream = Vec::new();
        mcr_serve::frame::write_frame(&mut stream, b"{\"id\":1,\"op\":\"ping\"}")
            .expect("frame");
        mcr_serve::frame::write_frame(&mut stream, b"{not json").expect("frame");
        fuzz_frame(&stream);
        // Truncated header, oversize length, mid-frame EOF, empty.
        fuzz_frame(&[0, 0]);
        fuzz_frame(&[0xFF, 0xFF, 0xFF, 0xFF, b'x']);
        fuzz_frame(&[0, 0, 0, 100, b'p', b'a', b'r', b't']);
        fuzz_frame(&[]);
    }

    #[test]
    fn json_codec_absorbs_junk_and_round_trips_strings() {
        fuzz_json(b"{\"k\":[\"a\\n\\u00e9\",{\"\\t\":null}],\"n\":-1.5e3}");
        fuzz_json(b"\"\xff\xfe\"");
        fuzz_json(&[b'"', 0xC3]);
        fuzz_json(b"\"\\u12");
        fuzz_json(b"");
        let mut late_control = vec![b'"'];
        late_control.extend([b'x'; 5000]);
        late_control.extend(b"\x01\"");
        fuzz_json(&late_control);
    }
}
