//! Crash-recovery journal: every admitted request is durable before it
//! is queued, so a `kill -9` loses no accepted work.
//!
//! Layout under the journal directory:
//!
//! * `journal.jsonl` — append-only event log, one JSON object per
//!   line:
//!   - `{"kind":"accept","id":N,"req":"<original request JSON>"}`
//!     written (and fsynced) at admission, *before* the request enters
//!     the queue;
//!   - `{"kind":"done","id":N,"status":"ok"}` written after the
//!     response is sent;
//!   - `{"kind":"recovered","id":N,"status":"ok","lambda":"7/2"}`
//!     written when a *replayed* request finishes after a restart
//!     (counts as completion for any later replay).
//! * `ckpt-<id>.txt` — an `mcr-checkpoint v1` snapshot
//!   ([`mcr_core::Checkpoint::to_text`]) of a long solve's partial
//!   progress, rewritten atomically after each slice and removed on
//!   completion.
//!
//! On restart, [`Journal::recover`] reads the log once and returns the
//! accepted-but-unfinished requests in admission order plus the settled
//! outcomes; the server seeds its dedup log from the latter, re-queues
//! the former, and the worker resumes each from its checkpoint file if
//! one survived. A corrupt line (torn write from the crash) or an
//! injected `serve.journal.replay` fault skips that entry — recovery
//! degrades, it never panics or refuses to start.
//!
//! An `accept` line stores the request JSON as a string, so the request
//! is escaped once more on the way in and decoded once more on replay;
//! both are single linear passes of [`crate::json`].

// The journal reads back files written by a crashed process: every
// parse must fail soft.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::chaos;
use crate::json::{self, ObjWriter, Value};
use mcr_core::{Checkpoint, SolveStatus};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The event log's file name inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// The append-only event log plus its checkpoint sidecar files.
pub struct Journal {
    dir: PathBuf,
    file: Mutex<File>,
}

/// What [`Journal::recover`] reads back from the log at start-up.
#[derive(Default)]
pub struct Recovery {
    /// Accepted-but-unfinished requests, in admission order.
    pub pending: Vec<RecoveredRequest>,
    /// Every `done`/`recovered` entry's `(id, status, lambda)`, last
    /// write wins, ordered by the position of that last write. This is
    /// the duplicate-suppression base: a client re-send whose id
    /// appears here is answered from the journal instead of re-solved.
    pub settled: Vec<(u64, SolveStatus, Option<String>)>,
    /// Entries skipped from `pending` (corrupt lines, injected replay
    /// faults).
    pub skipped: u64,
}

/// One recovered request: the admission id and the original request
/// JSON, ready for [`crate::protocol::parse_request`] again.
pub struct RecoveredRequest {
    /// The id the crashed daemon assigned at admission.
    pub id: u64,
    /// The original request payload.
    pub payload: String,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`.
    pub fn open(dir: &Path) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL_FILE))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn append(&self, line: &str) -> io::Result<()> {
        if chaos::fail_hit("serve.journal.append") {
            return Err(io::Error::other("injected journal-append fault"));
        }
        let mut file = self
            .file
            .lock()
            .map_err(|_| io::Error::other("journal lock poisoned"))?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        // Durability is the whole point: the admission response must
        // imply the request survives a crash.
        file.sync_data()
    }

    /// Records an admission. Must succeed before the request is queued.
    pub fn accept(&self, id: u64, payload: &str) -> io::Result<()> {
        self.append(
            &ObjWriter::new()
                .str("kind", "accept")
                .u64("id", id)
                .str("req", payload)
                .finish(),
        )
    }

    /// Records a response sent for a live (non-recovered) request. The
    /// λ (when the solve produced one) makes the entry sufficient to
    /// answer a duplicate of the same id without re-solving.
    pub fn done(&self, id: u64, status: SolveStatus, lambda: Option<&str>) -> io::Result<()> {
        let mut w = ObjWriter::new()
            .str("kind", "done")
            .u64("id", id)
            .str("status", status.wire_name());
        if let Some(lambda) = lambda {
            w = w.str("lambda", lambda);
        }
        self.append(&w.finish())
    }

    /// Records completion of a replayed request, with the recovered λ
    /// when there is one (the restart audit trail the CI stage greps).
    pub fn recovered(&self, id: u64, status: SolveStatus, lambda: Option<&str>) -> io::Result<()> {
        let mut w = ObjWriter::new()
            .str("kind", "recovered")
            .u64("id", id)
            .str("status", status.wire_name());
        if let Some(lambda) = lambda {
            w = w.str("lambda", lambda);
        }
        self.append(&w.finish())
    }

    /// Reads and parses the log once and returns everything a restart
    /// needs: the accepted-but-unfinished requests, the settled
    /// outcomes, and the number of entries skipped. One pass over the
    /// log, `O(N log N)` in its entry count: the log is never compacted,
    /// so start-up must not be quadratic in it.
    pub fn recover(&self) -> Recovery {
        let text = match fs::read_to_string(self.dir.join(JOURNAL_FILE)) {
            Ok(text) => text,
            Err(_) => return Recovery::default(),
        };
        // Accepts in admission order; a `done`/`recovered` entry empties
        // the slots of every earlier accept of its id. Ids may repeat,
        // so one id can own several slots.
        let mut slots: Vec<Option<RecoveredRequest>> = Vec::new();
        let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        // id → (line of its latest settled entry, status, λ).
        let mut latest: BTreeMap<u64, (usize, SolveStatus, Option<String>)> = BTreeMap::new();
        let mut skipped = 0u64;
        for (line_no, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            // An injected replay fault drops the entry from `pending`
            // only; its settled outcome is still read.
            let fault = chaos::fail_hit("serve.journal.replay");
            let Ok(mut v) = json::parse(line) else {
                skipped += 1;
                continue;
            };
            let id = v.get("id").and_then(Value::as_u64);
            match (v.get("kind").and_then(Value::as_str), id) {
                (Some("accept"), Some(id)) if !fault => match v.take_str("req") {
                    Some(payload) => {
                        open.entry(id).or_default().push(slots.len());
                        slots.push(Some(RecoveredRequest { id, payload }));
                    }
                    None => skipped += 1,
                },
                (Some("done" | "recovered"), Some(id)) => {
                    if fault {
                        skipped += 1;
                    } else {
                        for slot in open.remove(&id).unwrap_or_default() {
                            if let Some(s) = slots.get_mut(slot) {
                                *s = None;
                            }
                        }
                    }
                    let status = v
                        .get("status")
                        .and_then(Value::as_str)
                        .and_then(|name| SolveStatus::ALL.iter().find(|s| s.wire_name() == name));
                    if let Some(&status) = status {
                        latest.insert(id, (line_no, status, v.take_str("lambda")));
                    }
                }
                _ => skipped += 1,
            }
        }
        let mut settled: Vec<_> = latest.into_iter().collect();
        settled.sort_unstable_by_key(|&(_, (line_no, _, _))| line_no);
        Recovery {
            pending: slots.into_iter().flatten().collect(),
            settled: settled
                .into_iter()
                .map(|(id, (_, status, lambda))| (id, status, lambda))
                .collect(),
            skipped,
        }
    }

    /// Path of the checkpoint sidecar for request `id`.
    pub fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{id}.txt"))
    }

    /// Atomically replaces request `id`'s checkpoint snapshot
    /// (write-to-temp + rename, so a crash mid-save leaves the previous
    /// snapshot intact).
    pub fn save_checkpoint(&self, id: u64, text: &str) -> io::Result<()> {
        let tmp = self.dir.join(format!("ckpt-{id}.tmp"));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, self.checkpoint_path(id))
    }

    /// Loads request `id`'s checkpoint, if a parseable one survives.
    pub fn load_checkpoint(&self, id: u64) -> Option<Checkpoint> {
        let text = fs::read_to_string(self.checkpoint_path(id)).ok()?;
        Checkpoint::from_text(&text).ok()
    }

    /// Removes request `id`'s checkpoint (solve finished).
    pub fn clear_checkpoint(&self, id: u64) {
        let _ = fs::remove_file(self.checkpoint_path(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcr-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn replay_returns_only_unfinished_accepts_in_order() {
        let dir = tmpdir("replay");
        let j = Journal::open(&dir).expect("open");
        j.accept(1, "{\"id\":1}").expect("accept");
        j.accept(2, "{\"id\":2}").expect("accept");
        j.accept(3, "{\"id\":3}").expect("accept");
        j.done(2, SolveStatus::Ok, Some("3/1")).expect("done");
        let rec = j.recover();
        assert_eq!(rec.skipped, 0);
        let ids: Vec<u64> = rec.pending.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(rec.pending[0].payload, "{\"id\":1}");
        // A second process completing the recovered work closes them.
        j.recovered(1, SolveStatus::Ok, Some("5/2")).expect("rec");
        j.recovered(3, SolveStatus::Cancelled, None).expect("rec");
        let rec = j.recover();
        assert!(rec.pending.is_empty());
        // And the settled scan reconstructs every outcome with its λ.
        let settled = rec.settled;
        assert_eq!(settled.len(), 3);
        let find = |id: u64| settled.iter().find(|&&(p, _, _)| p == id).expect("settled");
        assert_eq!(find(2), &(2, SolveStatus::Ok, Some("3/1".to_string())));
        assert_eq!(find(1), &(1, SolveStatus::Ok, Some("5/2".to_string())));
        assert_eq!(find(3), &(3, SolveStatus::Cancelled, None));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let dir = tmpdir("corrupt");
        let j = Journal::open(&dir).expect("open");
        j.accept(1, "{\"id\":1}").expect("accept");
        // Simulate a torn write from the crash.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL_FILE))
                .expect("reopen");
            f.write_all(b"{\"kind\":\"acc").expect("torn");
            f.write_all(b"\n{\"kind\":\"mystery\",\"id\":7}\n")
                .expect("junk");
        }
        let rec = j.recover();
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.skipped, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The pending scan as it was before [`Journal::recover`]: one
    /// `retain` per settled entry. Kept as the reference semantics.
    fn replay_reference(text: &str) -> (Vec<(u64, String)>, u64) {
        let mut pending: Vec<(u64, String)> = Vec::new();
        let mut skipped = 0u64;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = json::parse(line) else {
                skipped += 1;
                continue;
            };
            let id = v.get("id").and_then(Value::as_u64);
            match (v.get("kind").and_then(Value::as_str), id) {
                (Some("accept"), Some(id)) => match v.get("req").and_then(Value::as_str) {
                    Some(req) => pending.push((id, req.to_string())),
                    None => skipped += 1,
                },
                (Some("done" | "recovered"), Some(id)) => pending.retain(|&(p, _)| p != id),
                _ => skipped += 1,
            }
        }
        (pending, skipped)
    }

    /// The settled scan as it was before [`Journal::recover`]: last
    /// write wins, by `retain` + `push`. Kept as the reference semantics.
    fn settled_reference(text: &str) -> Vec<(u64, SolveStatus, Option<String>)> {
        let mut out: Vec<(u64, SolveStatus, Option<String>)> = Vec::new();
        for line in text.lines() {
            let Ok(v) = json::parse(line) else { continue };
            let (Some("done" | "recovered"), Some(id)) = (
                v.get("kind").and_then(Value::as_str),
                v.get("id").and_then(Value::as_u64),
            ) else {
                continue;
            };
            let Some(status) = v
                .get("status")
                .and_then(Value::as_str)
                .and_then(|name| SolveStatus::ALL.iter().find(|s| s.wire_name() == name))
            else {
                continue;
            };
            let lambda = v.get("lambda").and_then(Value::as_str).map(String::from);
            out.retain(|&(p, _, _)| p != id);
            out.push((id, *status, lambda));
        }
        out
    }

    /// A seeded 50k-entry journal that is never compacted: ids repeat
    /// (re-sent requests, several `done`/`recovered` per id), and torn,
    /// blank, unknown-kind, `req`-less and bad-status lines are mixed in.
    fn synthetic_journal(entries: usize) -> String {
        let mut state = 0x10_u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut text = String::new();
        let mut high = 0u64;
        for _ in 0..entries {
            // Mostly fresh ids settled soon after admission, with a long
            // tail of re-sends and late settles of old ids.
            let id = if next(4) == 0 {
                next(high + 1)
            } else {
                high.saturating_sub(next(8))
            };
            let line = match next(20) {
                0..=7 => {
                    // A re-sent request is admitted again under its old id.
                    let id = if next(10) == 0 {
                        id
                    } else {
                        high += 1;
                        high
                    };
                    ObjWriter::new()
                        .str("kind", "accept")
                        .u64("id", id)
                        .str(
                            "req",
                            &format!("{{\"id\":{id},\"graph\":\"p mcr 2 2\\n\"}}"),
                        )
                        .finish()
                }
                8..=15 => {
                    let kind = if next(3) == 0 { "recovered" } else { "done" };
                    let status = SolveStatus::ALL[next(SolveStatus::ALL.len() as u64) as usize];
                    let mut w = ObjWriter::new()
                        .str("kind", kind)
                        .u64("id", id)
                        .str("status", status.wire_name());
                    if next(2) == 0 {
                        w = w.str("lambda", &format!("{}/{}", next(100), 1 + next(9)));
                    }
                    w.finish()
                }
                16 => "{\"kind\":\"acc".to_string(),
                17 => ["", "   ", "{\"kind\":\"mystery\",\"id\":3}"][next(3) as usize].to_string(),
                18 => format!("{{\"kind\":\"accept\",\"id\":{id}}}"),
                _ => format!("{{\"kind\":\"done\",\"id\":{id},\"status\":\"bogus\"}}"),
            };
            text.push_str(&line);
            text.push('\n');
        }
        text
    }

    #[test]
    fn recover_matches_the_reference_scans_on_a_50k_entry_journal() {
        let dir = tmpdir("large");
        fs::create_dir_all(&dir).expect("mkdir");
        let text = synthetic_journal(50_000);
        fs::write(dir.join(JOURNAL_FILE), &text).expect("write journal");
        let rec = Journal::open(&dir).expect("open").recover();
        let (pending, skipped) = replay_reference(&text);
        let settled = settled_reference(&text);
        // The journal exercises every path: duplicates, settles and junk.
        assert!(pending.len() > 100 && settled.len() > 10_000 && skipped > 1_000);
        let mut ids: Vec<u64> = pending.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() < pending.len(), "some id is pending twice");
        let got: Vec<(u64, String)> = rec.pending.into_iter().map(|r| (r.id, r.payload)).collect();
        assert_eq!(got, pending, "pending requests in admission order");
        assert_eq!(rec.skipped, skipped, "corrupt-line skip count");
        assert_eq!(rec.settled, settled, "settled outcomes, last write wins");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_save_load_and_clear() {
        let dir = tmpdir("ckpt");
        let j = Journal::open(&dir).expect("open");
        assert!(j.load_checkpoint(9).is_none());
        let text = mcr_core::Checkpoint::default().to_text();
        j.save_checkpoint(9, &text).expect("save");
        assert!(j.load_checkpoint(9).is_some());
        j.save_checkpoint(9, "not a checkpoint").expect("save");
        assert!(j.load_checkpoint(9).is_none(), "corrupt parses to None");
        j.clear_checkpoint(9);
        assert!(!j.checkpoint_path(9).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
