//! Offline, deterministic fuzz smoke harness.
//!
//! The real coverage-guided targets live in the workspace-excluded
//! `fuzz/` scaffold and need libfuzzer from a registry; this binary is
//! what CI actually runs. It replays the checked-in corpus and then
//! mutates it with a fixed-seed LCG, so a failure reproduces exactly
//! from the printed run number:
//!
//! ```text
//! cargo run -p mcr-fuzz --bin fuzz-smoke --release -- -runs=10000
//! ```
//!
//! Accepts `-runs=N` / `--runs N` (default 10000) and `-seed=N`
//! (default 0x5EED). Exit code 0 means every input was absorbed without
//! a panic; any panic aborts the process with the offending run number
//! already printed.

use std::process::ExitCode;

const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../graph/tests/data/bad");

/// Valid seeds so mutation also explores the *accepting* paths of the
/// parser, not just its error ladder.
const VALID_SEEDS: &[&[u8]] = &[
    b"p mcr 3 3\na 1 2 5\na 2 3 -1\na 3 1 2\n",
    b"c comment\np mcr 2 2\na 1 2 5 3\na 2 1 -4 1\n",
    b"p mcr 1 1\na 1 1 7\n",
    // The byte tokenizer's accepting paths: CRLF endings, the other
    // ASCII separators, `+`-signed fields, and a Unicode separator
    // (U+00A0) that sends its line down the UTF-8 path.
    b"p mcr 2 2\r\na 1 2 5\r\na 2 1 -3 2\r\n",
    b"p\tmcr\t2\t2\na\x0B1\x0B2\x0B4\na\x0C2\x0C1\t-1\x0C3\n",
    b"p mcr +2 +2\na +1 +2 +5\na +2 +1 -0 +1\n",
    "p mcr 2 2\na\u{A0}1 2 5\na 2 1 3\n".as_bytes(),
];

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Knuth's MMIX multiplier — deterministic across platforms.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// One mutation pass: a handful of byte flips, insertions, deletions,
/// and truncations, plus an occasional splice of another corpus entry.
fn mutate(base: &[u8], corpus: &[Vec<u8>], rng: &mut Lcg) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..=rng.below(6) {
        match rng.below(5) {
            0 if !bytes.is_empty() => {
                let i = rng.below(bytes.len());
                bytes[i] = rng.next() as u8;
            }
            1 => {
                let i = rng.below(bytes.len() + 1);
                bytes.insert(i, rng.next() as u8);
            }
            2 if !bytes.is_empty() => {
                bytes.remove(rng.below(bytes.len()));
            }
            3 if !bytes.is_empty() => {
                bytes.truncate(rng.below(bytes.len()));
            }
            _ => {
                let donor = &corpus[rng.below(corpus.len())];
                if !donor.is_empty() {
                    let at = rng.below(bytes.len() + 1);
                    let from = rng.below(donor.len());
                    let splice: Vec<u8> = donor[from..].to_vec();
                    bytes.splice(at..at, splice);
                }
            }
        }
    }
    bytes
}

/// Well-formed wire frames seeding the codec fuzzer: mutation starts
/// from inputs that decode, so truncations and bit flips land in the
/// interesting positions (length prefix, frame boundary, payload).
fn framed_seeds() -> Vec<Vec<u8>> {
    [
        "{\"schema\":\"mcr-req v1\",\"id\":1,\"op\":\"ping\"}",
        "{\"schema\":\"mcr-req v1\",\"id\":2,\"op\":\"solve\",\"spec\":\"mcr\",\
         \"graph\":\"p mcr 2 2\\na 1 2 5\\na 2 1 -4\\n\"}",
        "{not json!!",
    ]
    .iter()
    .map(|payload| {
        let mut bytes = Vec::new();
        mcr_serve::frame::write_frame(&mut bytes, payload.as_bytes()).expect("framed seed");
        bytes
    })
    .collect()
}

/// Bare JSON seeds for the codec fuzzer: a request with escapes and
/// multi-byte text, and a long string whose control byte comes late,
/// the shape that once made decoding quadratic.
fn json_seeds() -> Vec<Vec<u8>> {
    let mut late_control = b"{\"graph\":\"".to_vec();
    late_control.extend(b"a 1 2 5\\n".repeat(1000));
    late_control.extend(b"\x01\"}");
    vec![
        "{\"schema\":\"mcr-req v1\",\"id\":3,\"op\":\"solve\",\"graph\":\"p mcr 1 1\\na 1 1 7\\n\",\
         \"note\":\"\\u00e9\\t\\\"é😀\",\"cycle\":[0,2],\"maximize\":true,\"deadline_ms\":null}"
            .as_bytes()
            .to_vec(),
        late_control,
    ]
}

fn load_corpus() -> Vec<Vec<u8>> {
    let mut corpus: Vec<Vec<u8>> = VALID_SEEDS.iter().map(|s| s.to_vec()).collect();
    corpus.extend(framed_seeds());
    corpus.extend(json_seeds());
    let mut entries: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .unwrap_or_else(|e| panic!("corpus dir {CORPUS_DIR}: {e}"))
        .map(|e| e.expect("corpus entry").path())
        .collect();
    entries.sort(); // deterministic ordering regardless of readdir order
    for path in entries {
        corpus.push(std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())));
    }
    corpus
}

fn parse_args() -> (u64, u64) {
    let (mut runs, mut seed) = (10_000u64, 0x5EEDu64);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let take = |prefix: &str| -> Option<String> {
            arg.strip_prefix(prefix).map(str::to_string)
        };
        if let Some(v) = take("-runs=").or_else(|| take("--runs=")) {
            runs = v.parse().expect("-runs=N takes an integer");
        } else if arg == "--runs" || arg == "-runs" {
            runs = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--runs takes an integer");
        } else if let Some(v) = take("-seed=").or_else(|| take("--seed=")) {
            seed = v.parse().expect("-seed=N takes an integer");
        } else {
            eprintln!("fuzz-smoke: unknown argument {arg}");
            std::process::exit(2);
        }
    }
    (runs, seed)
}

fn main() -> ExitCode {
    let (runs, seed) = parse_args();
    let corpus = load_corpus();
    println!(
        "fuzz-smoke: {} corpus entries, {runs} mutated runs, seed {seed:#x}",
        corpus.len()
    );

    // Replay the corpus verbatim first: a regression on a checked-in
    // crasher fails before any mutation happens.
    for (i, entry) in corpus.iter().enumerate() {
        eprint_on_panic(&format!("corpus entry {i}"), || {
            mcr_fuzz::fuzz_dimacs(entry);
            mcr_fuzz::fuzz_solve(entry);
            mcr_fuzz::fuzz_frame(entry);
            mcr_fuzz::fuzz_json(entry);
        });
    }

    let mut rng = Lcg(seed);
    for run in 0..runs {
        let base = &corpus[rng.below(corpus.len())];
        let input = mutate(base, &corpus, &mut rng);
        eprint_on_panic(&format!("run {run} (seed {seed:#x})"), || {
            mcr_fuzz::fuzz_dimacs(&input);
            mcr_fuzz::fuzz_solve(&input);
            mcr_fuzz::fuzz_frame(&input);
            mcr_fuzz::fuzz_json(&input);
        });
    }
    println!("fuzz-smoke: ok ({runs} runs clean)");
    ExitCode::SUCCESS
}

/// Prints which input crashed before the panic unwinds, so the failure
/// is reproducible from the run number + seed alone.
fn eprint_on_panic(label: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
    if let Err(payload) = std::panic::catch_unwind(f) {
        eprintln!("fuzz-smoke: FAILURE at {label}");
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::VALID_SEEDS;

    #[test]
    fn valid_seeds_parse() {
        for seed in VALID_SEEDS {
            let parsed = mcr_graph::io::read_dimacs(&mut &seed[..]);
            assert!(parsed.is_ok(), "{:?}: {parsed:?}", String::from_utf8_lossy(seed));
        }
    }
}
