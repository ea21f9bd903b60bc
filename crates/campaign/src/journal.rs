//! Write-ahead journal: the resume-time reader of campaign telemetry.
//!
//! The campaign's JSONL telemetry stream doubles as its write-ahead
//! journal: every job's terminal state is a `finished` event appended and
//! flushed before the fleet moves on, so the log on disk is always at most
//! one in-flight job behind reality. [`Journal::load`] replays that stream
//! and classifies each job for a resumed campaign:
//!
//! - `ok` → replay the recorded outcome, skip the work;
//! - `failed` with cause `error`/`panic` → deterministic, replay the
//!   failure instead of burning time on a rerun that will fail the same way;
//! - `failed` with cause `transient`, `timeout`, or no `finished` line at
//!   all (the job the crash interrupted) → run it again.
//!
//! Each line is decoded with `protocol::json`, the codec that wrote it. A
//! line that does not parse as one JSON object — the torn final line a
//! `kill -9` mid-append leaves, or any other damage — is counted and
//! ignored, never an error: the job it described simply reruns.

use protocol::json::{self, Json};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// What a resumed campaign should do with a journaled job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeAction {
    /// Finished successfully: replay the recorded outcome.
    ReplayOk,
    /// Failed deterministically (error/panic): replay the failure.
    ReplayFailed,
    /// Transient failure, timeout, or unknown status: run it again.
    Rerun,
}

/// The journaled terminal state of one job: its `status` plus every field
/// of the last `finished` event that named it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// `ok`, `failed`, or `timeout`.
    pub status: String,
    /// The whole decoded `finished` line, a [`Json::Obj`].
    pub fields: Json,
}

impl JobRecord {
    /// A string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.fields.get(key)?.as_str().map(String::as_str)
    }

    /// A whole-number field (see [`Json::as_u64`]).
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.fields.get(key)?.as_u64()
    }

    /// A number field. The writer renders shortest-roundtrip, so this
    /// recovers the original bits; a non-finite value was written as
    /// `null` and reads as `None`.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.fields.get(key)?.as_num()
    }

    /// A boolean field.
    pub fn bool(&self, key: &str) -> Option<bool> {
        self.fields.get(key)?.as_bool()
    }

    /// Was this job's trace recovered by segment salvage rather than
    /// captured to completion? Salvaged prefixes are legitimate `ok`
    /// evidence mid-campaign, but a resume should upgrade them.
    pub fn salvaged(&self) -> bool {
        self.bool("salvaged").unwrap_or(false)
    }

    /// The failure classification driving resume: deterministic outcomes
    /// are replayed, everything else reruns. An `ok` job whose trace was
    /// *salvaged* (a verified prefix recovered from a torn streamed
    /// capture) reruns too: the prefix was the best evidence available at
    /// the time, but a resume exists to finish the campaign properly.
    pub fn action(&self) -> ResumeAction {
        match self.status.as_str() {
            "ok" if self.salvaged() => ResumeAction::Rerun,
            "ok" => ResumeAction::ReplayOk,
            "failed" => match self.str("cause") {
                Some("transient") => ResumeAction::Rerun,
                _ => ResumeAction::ReplayFailed,
            },
            // `timeout` and anything unrecognised: give it another chance.
            _ => ResumeAction::Rerun,
        }
    }
}

/// The decoded journal: last-wins terminal state per job id.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    jobs: BTreeMap<String, JobRecord>,
    /// Lines that parsed as events.
    pub lines: usize,
    /// Unparsable lines (torn tails from a crash mid-append).
    pub torn: usize,
}

impl Journal {
    /// Load a journal from a JSONL telemetry log. A job that finished more
    /// than once (a log already extended by a resume) keeps its *last*
    /// record.
    pub fn load(path: &Path) -> io::Result<Journal> {
        Journal::load_with(path, |_| {})
    }

    /// [`Journal::load`], also handing every decoded event to `each` in log
    /// order, so a reader of other events (the server's lease lines) shares
    /// the one pass. Bytes that are not UTF-8 — a character torn by the
    /// crash — are decoded lossily and leave their line torn.
    pub fn load_with(path: &Path, each: impl FnMut(&Json)) -> io::Result<Journal> {
        let bytes = std::fs::read(path)?;
        Ok(Journal::decode(&String::from_utf8_lossy(&bytes), each))
    }

    /// Decode journal state from log text (see [`Journal::load`]).
    pub fn from_text(text: &str) -> Journal {
        Journal::decode(text, |_| {})
    }

    fn decode(text: &str, mut each: impl FnMut(&Json)) -> Journal {
        let mut journal = Journal::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(event @ Json::Obj(_)) = json::parse(line) else {
                journal.torn += 1;
                continue;
            };
            journal.lines += 1;
            each(&event);
            let field = |k| event.get(k).and_then(Json::as_str);
            let (Some("finished"), Some(job), Some(status)) = (
                field("event").map(String::as_str),
                field("job").cloned(),
                field("status").cloned(),
            ) else {
                continue;
            };
            journal.jobs.insert(
                job,
                JobRecord {
                    status,
                    fields: event,
                },
            );
        }
        journal
    }

    /// The journaled record for a job id, if it reached a terminal state.
    pub fn get(&self, job_id: &str) -> Option<&JobRecord> {
        self.jobs.get(job_id)
    }

    /// Iterate every journaled `(job_id, record)` pair, in job-id order.
    /// Long-running services use this to preload their job tables.
    pub fn jobs(&self) -> impl Iterator<Item = (&str, &JobRecord)> {
        self.jobs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of jobs with a journaled terminal state.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Is the journal empty of terminal states?
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "campaign-journal-test-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Shared in-memory sink: emit through the real Telemetry writer so
    /// the journal parser is tested against the real encoder.
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn captured(emit: impl FnOnce(&Telemetry)) -> String {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let t = Telemetry::to_writer(Box::new(Shared(Arc::clone(&buf))));
        emit(&t);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        text
    }

    #[test]
    fn decodes_what_telemetry_encodes() {
        let text = captured(|t| {
            t.emit(
                "finished",
                &[
                    ("job", "ring.n4.W.ideal.00000000".into()),
                    ("status", "ok".into()),
                    ("cached", false.into()),
                    ("t_app_ns", 123_456_789u64.into()),
                    ("err_pct", 1.625.into()),
                    ("error", "panic: \"boom\"\nline2\ttab\\\u{1}\r".into()),
                ],
            );
        });
        let journal = Journal::from_text(&text);
        let rec = journal.get("ring.n4.W.ideal.00000000").expect("decoded");
        assert_eq!(rec.str("event"), Some("finished"));
        assert_eq!(rec.bool("cached"), Some(false));
        assert_eq!(rec.u64("t_app_ns"), Some(123_456_789));
        assert_eq!(rec.f64("err_pct"), Some(1.625));
        assert_eq!(
            rec.str("error"),
            Some("panic: \"boom\"\nline2\ttab\\\u{1}\r")
        );
        // Typed accessors do not coerce: a bool is not a string.
        assert_eq!(rec.str("cached"), None);
    }

    #[test]
    fn float_fields_roundtrip_exactly() {
        // The writer renders shortest-roundtrip; the journal must recover
        // the original bits for awkward values too.
        for &f in &[
            0.1,
            1.0 / 3.0,
            1e-300,
            123456.789012345,
            f64::MIN_POSITIVE,
            -0.0,
        ] {
            let text = captured(|t| {
                t.emit(
                    "finished",
                    &[
                        ("job", "a".into()),
                        ("status", "ok".into()),
                        ("x", f.into()),
                    ],
                )
            });
            let x = Journal::from_text(&text)
                .get("a")
                .unwrap()
                .f64("x")
                .unwrap();
            assert_eq!(x.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn torn_tail_lines_are_counted_not_fatal() {
        let mut text = captured(|t| {
            t.emit("finished", &[("job", "a".into()), ("status", "ok".into())]);
            t.emit(
                "finished",
                &[("job", "b".into()), ("status", "failed".into())],
            );
        });
        // A kill mid-append leaves a prefix of the last line.
        text.truncate(text.len() - 25);
        let journal = Journal::from_text(&text);
        assert_eq!(journal.torn, 1);
        assert_eq!(journal.len(), 1);
        assert!(journal.get("a").is_some());
        assert!(journal.get("b").is_none(), "torn record must not count");
    }

    #[test]
    fn torn_line_ending_inside_a_string_is_rejected() {
        // Cut mid-string but after a brace-looking byte: still unparsable.
        for torn in [
            "{\"event\":\"finished\",\"job\":\"a\",\"status\":\"ok\",\"error\":\"bad}",
            "{\"event\":\"fini",
            "[\"not\",\"an\",\"object\"]",
            "17",
        ] {
            let journal = Journal::from_text(torn);
            assert_eq!(
                (journal.lines, journal.torn, journal.len()),
                (0, 1, 0),
                "{torn}"
            );
        }
        let journal = Journal::from_text("{}\n\n");
        assert_eq!((journal.lines, journal.torn), (1, 0));
    }

    #[test]
    fn last_finished_record_wins() {
        let text = captured(|t| {
            t.emit(
                "finished",
                &[
                    ("job", "a".into()),
                    ("status", "failed".into()),
                    ("cause", "transient".into()),
                ],
            );
            t.emit("queued", &[("job", "a".into())]);
            t.emit("finished", &[("job", "a".into()), ("status", "ok".into())]);
        });
        let journal = Journal::from_text(&text);
        assert_eq!(journal.get("a").unwrap().status, "ok");
        assert_eq!(journal.get("a").unwrap().action(), ResumeAction::ReplayOk);
    }

    #[test]
    fn failure_classification_drives_resume() {
        let rec = |status: &str, cause: Option<&str>| JobRecord {
            status: status.to_string(),
            fields: Json::Obj(
                cause
                    .map(|c| ("cause".to_string(), c.into()))
                    .into_iter()
                    .collect(),
            ),
        };
        assert_eq!(rec("ok", None).action(), ResumeAction::ReplayOk);
        assert_eq!(
            rec("failed", Some("error")).action(),
            ResumeAction::ReplayFailed
        );
        assert_eq!(
            rec("failed", Some("panic")).action(),
            ResumeAction::ReplayFailed
        );
        assert_eq!(
            rec("failed", Some("transient")).action(),
            ResumeAction::Rerun
        );
        assert_eq!(rec("timeout", None).action(), ResumeAction::Rerun);
        assert_eq!(rec("mystery", None).action(), ResumeAction::Rerun);
    }

    #[test]
    fn salvaged_ok_records_rerun_on_resume() {
        let rec = |salvaged: Option<bool>| JobRecord {
            status: "ok".to_string(),
            fields: Json::Obj(
                salvaged
                    .map(|v| ("salvaged".to_string(), v.into()))
                    .into_iter()
                    .collect(),
            ),
        };
        assert_eq!(rec(None).action(), ResumeAction::ReplayOk);
        assert_eq!(rec(Some(false)).action(), ResumeAction::ReplayOk);
        assert!(rec(Some(true)).salvaged());
        assert_eq!(
            rec(Some(true)).action(),
            ResumeAction::Rerun,
            "a salvaged prefix must be upgraded to a complete trace on resume"
        );
    }

    #[test]
    fn loading_a_missing_journal_is_an_error() {
        assert!(Journal::load(&temp_path("missing")).is_err());
    }
}
