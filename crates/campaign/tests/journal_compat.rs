//! Journals are read forever. `fixtures/journal_v1.jsonl` was written by
//! the telemetry writer that predates `protocol::json` as the one codec
//! (it spelled tab and carriage return as `\t` / `\r`), and
//! `fixtures/journal_v1.records` is what that era's reader decoded from it:
//! one line per job, every field as its raw token text. The log holds
//! runner `finished` lines for ok, failed/transient, failed/panic, timeout
//! and salvaged jobs, `chaos` and `resumed` lines, a NaN written as `null`,
//! a server `finished` line with `artifacts` / `fnv.*`, `lease` lines, and
//! a torn tail.

use campaign::journal::{JobRecord, Journal, ResumeAction};
use protocol::json::Json;
use std::path::Path;

const LOG: &str = include_str!("fixtures/journal_v1.jsonl");
const RECORDS: &str = include_str!("fixtures/journal_v1.records");

/// A record in the dump format of `journal_v1.records`: fields sorted by
/// key, strings as decoded, every other value as its token text — which,
/// for a number, is its shortest round-trip spelling, so equal text means
/// equal bits.
fn dump(job: &str, rec: &JobRecord) -> String {
    let Json::Obj(members) = &rec.fields else {
        panic!("{job}: record is not an object");
    };
    let mut fields: Vec<(&String, String)> = members
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => (k, s.clone()),
            other => (k, other.to_compact()),
        })
        .collect();
    fields.sort();
    let mut line = format!("{job}\t{}\t{:?}", rec.status, rec.action());
    for (k, v) in fields {
        line.push_str(&format!("\t{k}={v:?}"));
    }
    line
}

#[test]
fn an_old_journal_decodes_to_the_same_records_and_actions() {
    let journal = Journal::from_text(LOG);
    let mut expected = RECORDS.lines();
    let counts = format!("lines={} torn={}", journal.lines, journal.torn);
    assert_eq!(expected.next(), Some(counts.as_str()));
    let got: Vec<String> = journal.jobs().map(|(job, rec)| dump(job, rec)).collect();
    assert_eq!(got, expected.collect::<Vec<_>>());

    // The same facts through the typed accessors the runner and server use.
    let rec = |job: &str| journal.get(job).expect(job);
    let ring = rec("ring.n4.S.ideal.1a2b3c4d");
    assert_eq!(ring.action(), ResumeAction::ReplayOk);
    assert_eq!(ring.bool("cached"), Some(false), "the torn rerun line lost");
    assert_eq!(ring.u64("t_app_ns"), Some(123_456_789));
    assert_eq!(
        ring.f64("err_pct").map(f64::to_bits),
        Some((1.0f64 / 3.0).to_bits())
    );
    assert_eq!(
        ring.f64("t_app_us").map(f64::to_bits),
        Some(123456.789f64.to_bits())
    );
    let cg = rec("cg.n8.S.bgl.0badf00d");
    assert_eq!(cg.f64("err_pct").map(f64::to_bits), Some(1e-7f64.to_bits()));
    assert_eq!(
        cg.f64("compression").map(f64::to_bits),
        Some(1e21f64.to_bits())
    );
    assert_eq!(cg.u64("chaos_diverged"), Some(1));
    assert_eq!(cg.str("trace_key"), Some("9f86d081884c7d65"));
    assert!(rec("lu.n8.S.bgl.5eed5eed").salvaged());
    assert_eq!(rec("lu.n8.S.bgl.5eed5eed").action(), ResumeAction::Rerun);
    let flaky = rec("__flaky__.n4.S.ideal.feedface");
    assert_eq!(flaky.action(), ResumeAction::Rerun);
    assert_eq!(
        flaky.str("error"),
        Some("tab\there\rcr \u{1} \"quoted\" back\\slash\nnewline é 🦀")
    );
    assert_eq!(
        rec("__panic__.n4.S.ideal.deadbeef").action(),
        ResumeAction::ReplayFailed
    );
    assert_eq!(
        rec("__hang__.n4.S.ideal.cafebabe").action(),
        ResumeAction::Rerun
    );
    let nan = rec("ep.n4.S.ideal.00c0ffee");
    assert_eq!(nan.fields.get("err_pct"), Some(&Json::Null));
    assert_eq!(nan.f64("err_pct"), None, "NaN was written as null");
    let sim = rec("6a1f0c3e2b9d4587");
    assert_eq!(sim.str("kind"), Some("simulate"));
    assert_eq!(sim.bool("cached"), Some(true));
    assert_eq!(
        sim.str("artifacts"),
        Some("trace.st program.ncptl profile.mpip")
    );
    assert_eq!(sim.str("fnv.program.ncptl"), Some("af63bd4c8601b7df"));
    assert_eq!(rec("00000000000000aa").action(), ResumeAction::ReplayFailed);
}

#[test]
fn lease_events_reach_the_one_pass_reader() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_v1.jsonl");
    let mut leases = Vec::new();
    let journal = Journal::load_with(&path, |event| {
        if event
            .get("event")
            .and_then(Json::as_str)
            .is_some_and(|e| e == "lease")
        {
            let field = |k| event.get(k).and_then(Json::as_str).cloned();
            let attempt = event.get("attempt").and_then(Json::as_u64);
            leases.push((field("op"), field("worker"), attempt, field("cause")));
        }
    })
    .unwrap();
    assert_eq!(journal.len(), Journal::from_text(LOG).len());
    let s = |x: &str| Some(x.to_string());
    assert_eq!(
        leases,
        vec![
            (s("granted"), s("w1"), Some(1), None),
            (s("expired"), s("w1"), Some(1), s("disconnect")),
            (s("reassigned"), s("-"), Some(1), None),
            (s("granted"), s("w2"), Some(2), None),
            (s("completed"), s("w2"), Some(2), None),
            (s("expired"), s("w3"), Some(3), s("lease-timeout")),
        ]
    );
}

#[test]
fn the_one_writer_reproduces_every_old_line_but_two_escapes() {
    // Tab and carriage return are the only characters the old writer
    // escaped differently; everything else is byte-identical.
    let complete = LOG.lines().filter(|l| l.ends_with('}'));
    let mut n = 0;
    for line in complete {
        let rewritten = protocol::json::parse(line).unwrap().to_compact();
        let expected = line.replace("\\t", "\\u0009").replace("\\r", "\\u000d");
        assert_eq!(rewritten, expected);
        n += 1;
    }
    assert_eq!(n, LOG.lines().count() - 1, "every line but the torn tail");
}

#[test]
fn every_byte_prefix_decodes_to_records_or_torn_lines() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_v1.jsonl");
    let mut finished = Vec::new();
    Journal::load_with(&path, |event| {
        if event
            .get("event")
            .and_then(Json::as_str)
            .is_some_and(|e| e == "finished")
        {
            finished.push(event.clone());
        }
    })
    .unwrap();
    let bytes = LOG.as_bytes();
    for n in 0..=bytes.len() {
        // What `Journal::load` makes of a file cut after `n` bytes,
        // possibly inside a multi-byte character.
        let text = String::from_utf8_lossy(&bytes[..n]);
        let journal = Journal::from_text(&text);
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        assert_eq!(journal.lines + journal.torn, lines, "prefix {n}");
        assert!(journal.torn <= 1, "prefix {n}: only the cut line is torn");
        for (job, rec) in journal.jobs() {
            assert!(
                finished.contains(&rec.fields),
                "prefix {n}: {job} decoded to a record the whole log never wrote"
            );
        }
    }
}
