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
//! A torn final line — the signature of a `kill -9` mid-append — is
//! counted and ignored, never an error: the job it described simply reruns.

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
    /// All fields of the `finished` line, as decoded strings.
    pub fields: BTreeMap<String, String>,
}

impl JobRecord {
    /// A raw field value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// A field parsed as `u64`.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse().ok()
    }

    /// A field parsed as `f64` (`Value::F` renders shortest-roundtrip, so
    /// this recovers the original bits).
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// Was this job's trace recovered by segment salvage rather than
    /// captured to completion? Salvaged prefixes are legitimate `ok`
    /// evidence mid-campaign, but a resume should upgrade them.
    pub fn salvaged(&self) -> bool {
        self.get("salvaged") == Some("true")
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
            "failed" => match self.get("cause") {
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
        let text = std::fs::read_to_string(path)?;
        Ok(Journal::from_text(&text))
    }

    /// Decode journal state from log text (see [`Journal::load`]).
    pub fn from_text(text: &str) -> Journal {
        let mut journal = Journal::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Some(fields) = parse_line(line) else {
                journal.torn += 1;
                continue;
            };
            journal.lines += 1;
            if fields.get("event").map(String::as_str) != Some("finished") {
                continue;
            }
            let (Some(job), Some(status)) = (fields.get("job"), fields.get("status")) else {
                continue;
            };
            journal.jobs.insert(
                job.clone(),
                JobRecord {
                    status: status.clone(),
                    fields: fields.clone(),
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

/// Parse one flat telemetry line (`{"k":v,...}`, no nesting) into decoded
/// string fields. Returns `None` — never panics — on anything malformed,
/// which is how torn tail lines are tolerated.
pub fn parse_line(line: &str) -> Option<BTreeMap<String, String>> {
    let inner = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let chars: Vec<char> = inner.chars().collect();
    let mut fields = BTreeMap::new();
    let mut i = 0;
    while i < chars.len() {
        let (key, after_key) = parse_string(&chars, i)?;
        i = after_key;
        if chars.get(i) != Some(&':') {
            return None;
        }
        i += 1;
        let value = if chars.get(i) == Some(&'"') {
            let (s, after) = parse_string(&chars, i)?;
            i = after;
            s
        } else {
            // Bare scalar (number / bool / null): runs to the next comma.
            let start = i;
            while i < chars.len() && chars[i] != ',' {
                i += 1;
            }
            if i == start {
                return None;
            }
            chars[start..i].iter().collect()
        };
        fields.insert(key, value);
        match chars.get(i) {
            None => break,
            Some(',') => i += 1,
            Some(_) => return None,
        }
    }
    Some(fields)
}

/// Decode the JSON string starting at `chars[start]` (which must be `"`);
/// returns the unescaped text and the index just past the closing quote.
fn parse_string(chars: &[char], start: usize) -> Option<(String, usize)> {
    if chars.get(start) != Some(&'"') {
        return None;
    }
    let mut out = String::new();
    let mut i = start + 1;
    while i < chars.len() {
        match chars[i] {
            '"' => return Some((out, i + 1)),
            '\\' => {
                i += 1;
                match chars.get(i)? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = chars.get(i + 1..i + 5)?.iter().collect();
                        let code = u32::from_str_radix(&hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        i += 4;
                    }
                    _ => return None,
                }
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    None // unterminated string: torn line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Telemetry, Value};
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
                    ("cached", Value::B(false)),
                    ("t_app_ns", Value::U(123_456_789)),
                    ("err_pct", Value::F(1.625)),
                    ("error", "panic: \"boom\"\nline2\ttab\\\u{1}".into()),
                ],
            );
        });
        let fields = parse_line(text.trim()).expect("parsable");
        assert_eq!(fields["event"], "finished");
        assert_eq!(fields["job"], "ring.n4.W.ideal.00000000");
        assert_eq!(fields["cached"], "false");
        assert_eq!(fields["t_app_ns"], "123456789");
        assert_eq!(fields["err_pct"].parse::<f64>().unwrap(), 1.625);
        assert_eq!(fields["error"], "panic: \"boom\"\nline2\ttab\\\u{1}");
    }

    #[test]
    fn float_fields_roundtrip_exactly() {
        // Value::F renders shortest-roundtrip; the journal must recover
        // the original bits for awkward values too.
        for &f in &[0.1, 1.0 / 3.0, 1e-300, 123456.789012345, f64::MIN_POSITIVE] {
            let text = captured(|t| t.emit("finished", &[("x", Value::F(f))]));
            let fields = parse_line(text.trim()).unwrap();
            assert_eq!(fields["x"].parse::<f64>().unwrap().to_bits(), f.to_bits());
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
        assert!(parse_line("{\"event\":\"finished\",\"error\":\"bad}").is_none());
        assert!(parse_line("{\"event\":\"fini").is_none());
        assert!(parse_line("").is_none());
        assert!(parse_line("{}").map(|f| f.len()) == Some(0));
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
        let rec = |status: &str, cause: Option<&str>| {
            let mut fields = BTreeMap::new();
            if let Some(c) = cause {
                fields.insert("cause".to_string(), c.to_string());
            }
            JobRecord {
                status: status.to_string(),
                fields,
            }
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
        let rec = |salvaged: Option<&str>| {
            let mut fields = BTreeMap::new();
            if let Some(v) = salvaged {
                fields.insert("salvaged".to_string(), v.to_string());
            }
            JobRecord {
                status: "ok".to_string(),
                fields,
            }
        };
        assert_eq!(rec(None).action(), ResumeAction::ReplayOk);
        assert_eq!(rec(Some("false")).action(), ResumeAction::ReplayOk);
        assert!(rec(Some("true")).salvaged());
        assert_eq!(
            rec(Some("true")).action(),
            ResumeAction::Rerun,
            "a salvaged prefix must be upgraded to a complete trace on resume"
        );
    }

    #[test]
    fn loading_a_missing_journal_is_an_error() {
        assert!(Journal::load(&temp_path("missing")).is_err());
    }
}
