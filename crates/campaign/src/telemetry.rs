//! Structured JSONL telemetry.
//!
//! One JSON object per line, written as each event happens (the writer
//! flushes per line, so a killed campaign still leaves a usable log). The
//! schema is flat — every value is a string, number, or bool (a non-finite
//! number is written as `null`):
//!
//! ```text
//! {"t_ms":0,"event":"queued","job":"lu.n8.S.ideal.1a2b3c4d","app":"lu","ranks":8,...}
//! {"t_ms":3,"event":"started","job":"...","attempt":1}
//! {"t_ms":5,"event":"cached","job":"...","trace_key":"44a2..."}
//! {"t_ms":9,"event":"retried","job":"...","attempt":1,"error":"...","delay_ms":100}
//! {"t_ms":42,"event":"finished","job":"...","status":"ok","cached":true,
//!  "t_app_us":123.4,"t_gen_us":125.0,"err_pct":1.3,"compression":41.0,
//!  "verify_errors":0,"wall_ms":17}
//! {"t_ms":50,"event":"finished","job":"...","status":"failed","cause":"error",
//!  "error":"simulation failed: operation budget exceeded ...","attempts":1,"wall_ms":3}
//! ```
//!
//! Logs from before the op budget may also hold `"status":"timeout"`
//! lines; a resume reruns those jobs.
//!
//! Every line is one [`Json`] object written by `protocol::json`, the
//! workspace's one JSON codec, and read back through the same codec by
//! [`crate::journal`].

use protocol::json::Json;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::sync::Mutex;
use std::time::Instant;

/// A JSONL event sink shared by the fleet's worker threads.
pub struct Telemetry {
    start: Instant,
    out: Mutex<Box<dyn Write + Send>>,
}

impl Telemetry {
    /// Write events to `path` (truncating any previous log).
    pub fn to_file(path: &std::path::Path) -> io::Result<Telemetry> {
        let file = std::fs::File::create(path)?;
        Ok(Telemetry::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Append events to `path`, creating it if needed. This is the resume
    /// mode: the log already on disk is the write-ahead journal of the
    /// interrupted campaign, and the resumed run extends it rather than
    /// erasing the history it is recovering from.
    pub fn append_file(path: &std::path::Path) -> io::Result<Telemetry> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Telemetry::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Write events to an arbitrary sink.
    pub fn to_writer(out: Box<dyn Write + Send>) -> Telemetry {
        Telemetry {
            start: Instant::now(),
            out: Mutex::new(out),
        }
    }

    /// Discard events (for tests and library callers without a log).
    pub fn sink() -> Telemetry {
        Telemetry::to_writer(Box::new(io::sink()))
    }

    /// Emit one event: a single-line object of `t_ms`, `event`, then
    /// `fields` in order.
    pub fn emit(&self, event: &str, fields: &[(&str, Json)]) {
        let mut members = Vec::with_capacity(fields.len() + 2);
        members.push((
            "t_ms".to_string(),
            (self.start.elapsed().as_millis() as u64).into(),
        ));
        members.push(("event".to_string(), event.into()));
        members.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
        let line = Json::Obj(members).to_compact();
        let mut out = self.out.lock().expect("telemetry writer poisoned");
        // Telemetry must never take the fleet down; drop the line on error.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    /// Force-flush the underlying writer. Workers call this before
    /// returning from a caught panic so that a crashing campaign process
    /// still leaves every event it witnessed on disk.
    pub fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// Thread-safe per-client counter registry, used by long-running services
/// (the commspec server) to account requests, rejections and replays
/// per tenant. Counter and client names are free-form;
/// [`Counters::snapshot`] returns everything name-sorted, so reports are
/// deterministic regardless of arrival order.
#[derive(Default)]
pub struct Counters {
    inner: Mutex<BTreeMap<String, BTreeMap<String, u64>>>,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Add `n` to `client`'s `counter`, returning the new value.
    pub fn add(&self, client: &str, counter: &str, n: u64) -> u64 {
        let mut inner = self.inner.lock().expect("counters poisoned");
        let slot = inner
            .entry(client.to_string())
            .or_default()
            .entry(counter.to_string())
            .or_default();
        *slot += n;
        *slot
    }

    /// Increment `client`'s `counter` by one, returning the new value.
    pub fn incr(&self, client: &str, counter: &str) -> u64 {
        self.add(client, counter, 1)
    }

    /// Current value of `client`'s `counter` (0 if never touched).
    pub fn get(&self, client: &str, counter: &str) -> u64 {
        let inner = self.inner.lock().expect("counters poisoned");
        inner
            .get(client)
            .and_then(|c| c.get(counter))
            .copied()
            .unwrap_or(0)
    }

    /// Every client's counters, both levels sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Vec<(String, u64)>)> {
        let inner = self.inner.lock().expect("counters poisoned");
        inner
            .iter()
            .map(|(client, counters)| {
                (
                    client.clone(),
                    counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                )
            })
            .collect()
    }

    /// Emit one `counters` telemetry event per client.
    pub fn emit_to(&self, telemetry: &Telemetry) {
        for (client, counters) in self.snapshot() {
            let mut fields: Vec<(&str, Json)> = vec![("client", client.as_str().into())];
            for (k, v) in &counters {
                fields.push((k.as_str(), (*v).into()));
            }
            telemetry.emit("counters", &fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Shared in-memory sink for asserting on emitted lines.
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture() -> (Telemetry, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let t = Telemetry::to_writer(Box::new(Shared(Arc::clone(&buf))));
        (t, buf)
    }

    #[test]
    fn emits_one_json_object_per_line() {
        let (t, buf) = capture();
        t.emit("queued", &[("job", "x.n4".into()), ("ranks", 4u64.into())]);
        t.emit("finished", &[("ok", true.into()), ("err_pct", 1.5.into())]);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t_ms\":"));
        assert!(lines[0].contains("\"event\":\"queued\""));
        assert!(lines[0].contains("\"job\":\"x.n4\""));
        assert!(lines[0].contains("\"ranks\":4"));
        assert!(lines[1].contains("\"ok\":true"));
        assert!(lines[1].contains("\"err_pct\":1.5"));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }

    #[test]
    fn escapes_strings_and_nulls_nonfinite_floats() {
        let (t, buf) = capture();
        t.emit(
            "finished",
            &[
                ("error", "panic: \"boom\"\nline2\ttab\\".into()),
                ("err_pct", f64::NAN.into()),
            ],
        );
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("panic: \\\"boom\\\"\\nline2\\u0009tab\\\\"));
        assert!(text.contains("\"err_pct\":null"));
    }

    #[test]
    fn flush_is_safe_and_idempotent() {
        let (t, buf) = capture();
        t.emit("queued", &[]);
        t.flush();
        t.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn counters_accumulate_per_client_and_snapshot_sorted() {
        let c = Counters::new();
        assert_eq!(c.get("cli", "requests"), 0);
        assert_eq!(c.incr("cli", "requests"), 1);
        assert_eq!(c.add("cli", "requests", 2), 3);
        c.incr("cli", "evictions");
        c.incr("batch", "rejections");
        assert_eq!(c.get("cli", "requests"), 3);
        assert_eq!(c.get("batch", "requests"), 0);
        let snap = c.snapshot();
        assert_eq!(
            snap,
            vec![
                ("batch".to_string(), vec![("rejections".to_string(), 1)]),
                (
                    "cli".to_string(),
                    vec![("evictions".to_string(), 1), ("requests".to_string(), 3)]
                ),
            ]
        );
    }

    #[test]
    fn counters_survive_concurrent_increments() {
        let c = Arc::new(Counters::new());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        c.incr(if i % 2 == 0 { "a" } else { "b" }, "requests");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get("a", "requests"), 400);
        assert_eq!(c.get("b", "requests"), 400);
    }

    #[test]
    fn counters_emit_one_event_per_client() {
        let (t, buf) = capture();
        let c = Counters::new();
        c.incr("cli", "requests");
        c.incr("ci", "rejections");
        c.emit_to(&t);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"client\":\"ci\"") && lines[0].contains("\"rejections\":1"));
        assert!(lines[1].contains("\"client\":\"cli\"") && lines[1].contains("\"requests\":1"));
    }

    #[test]
    fn concurrent_emitters_never_interleave_lines() {
        let (t, buf) = capture();
        let t = Arc::new(t);
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for j in 0..50u64 {
                        t.emit("tick", &[("worker", i.into()), ("n", j.into())]);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 400);
        for l in lines {
            assert!(
                l.starts_with("{\"t_ms\":") && l.ends_with('}'),
                "mangled: {l}"
            );
            assert_eq!(l.matches("\"event\"").count(), 1);
        }
    }
}
