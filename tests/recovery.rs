//! Crash/recovery end-to-end tests: SIGKILL a live campaign and prove that
//! `commbench resume` converges to the uninterrupted run's outcomes, that
//! `commbench fsck` quarantines cache corruption which the next run then
//! regenerates, and that re-tracing a crashed run reproduces the run that
//! never crashed, mpiP profile included.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn commbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args(args)
        .output()
        .expect("commbench spawns")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "commspec-recovery-test-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// Final per-job outcome view of a JSONL journal: job id → the fields a
/// resume must reproduce. `cached` is deliberately excluded — a resumed
/// run legitimately serves traces from the cache the interrupted run
/// filled.
fn final_outcomes(log: &Path) -> std::collections::BTreeMap<String, Vec<(String, String)>> {
    let mut map = std::collections::BTreeMap::new();
    for line in std::fs::read_to_string(log).expect("log exists").lines() {
        if field(line, "event") != Some("finished") {
            continue;
        }
        let job = field(line, "job").expect("finished has job").to_string();
        let mut fields = Vec::new();
        for key in [
            "status",
            "t_app_ns",
            "t_gen_ns",
            "err_pct",
            "compression",
            "verify_errors",
            "cause",
        ] {
            if let Some(v) = field(line, key) {
                fields.push((key.to_string(), v.to_string()));
            }
        }
        map.insert(job, fields); // last finished record wins
    }
    map
}

fn count_events(log: &Path, event: &str) -> usize {
    std::fs::read_to_string(log)
        .unwrap_or_default()
        .lines()
        .filter(|l| field(l, "event") == Some(event))
        .count()
}

/// Serialised matrix: one worker, several independent jobs, so a kill
/// mid-run reliably leaves later jobs unfinished.
const RECOVERY_MATRIX: &str = "
    apps     = ring, cg, ep, lu
    ranks    = 4, 8
    classes  = S
    networks = ideal
    workers  = 1
    retries  = 1
";

#[test]
fn kill9_mid_campaign_then_resume_converges_to_uninterrupted_outcomes() {
    let dir = temp_dir("kill9");
    let matrix = dir.join("matrix.txt");
    std::fs::write(&matrix, RECOVERY_MATRIX).unwrap();

    // Reference: the run nothing interrupts.
    let ref_cache = dir.join("ref-cache");
    let ref_log = dir.join("ref.jsonl");
    let out = commbench(&[
        "--matrix",
        matrix.to_str().unwrap(),
        "--cache",
        ref_cache.to_str().unwrap(),
        "--log",
        ref_log.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    let reference = final_outcomes(&ref_log);
    assert_eq!(reference.len(), 8, "4 apps x 2 rank counts");

    // Victim: same matrix, fresh cache and log, SIGKILLed after the first
    // couple of jobs finish.
    let cache = dir.join("cache");
    let log = dir.join("campaign.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args([
            "--matrix",
            matrix.to_str().unwrap(),
            "--cache",
            cache.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim campaign spawns");
    let deadline = Instant::now() + Duration::from_secs(110);
    loop {
        if count_events(&log, "finished") >= 2 || child.try_wait().unwrap().is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "victim made no progress");
        // The whole campaign takes ~40 ms in a debug build: poll well
        // inside one job's time.
        std::thread::sleep(Duration::from_millis(2));
    }
    // SIGKILL: no atexit handlers, no flushes, no goodbye.
    let _ = child.kill();
    let _ = child.wait();
    let journaled_before = final_outcomes(&log).len();
    assert!(
        journaled_before < reference.len(),
        "the kill must interrupt the campaign for this test to mean anything"
    );

    // Resume from the journal. It must succeed and converge.
    let out = commbench(&[
        "resume",
        "--matrix",
        matrix.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    assert!(
        stderr(&out).contains("journaled outcome"),
        "{}",
        stderr(&out)
    );

    // The extended journal now holds the same terminal outcome — status,
    // exact simulated times, accuracy metrics, mpiP verification verdict —
    // for every job the uninterrupted run produced.
    let resumed = final_outcomes(&log);
    assert_eq!(resumed, reference, "resume must converge, bit for bit");

    // And it truly resumed: completed jobs were replayed, not rerun.
    assert_eq!(count_events(&log, "resumed"), journaled_before);
    let started = count_events(&log, "started");
    assert!(
        started < 2 * reference.len(),
        "resume reran everything ({started} started events)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_quarantines_corruption_and_the_next_run_regenerates() {
    let dir = temp_dir("fsck");
    let matrix = dir.join("matrix.txt");
    std::fs::write(&matrix, "apps = ring\nranks = 4\nworkers = 1\n").unwrap();
    let cache = dir.join("cache");

    // Populate the cache.
    let out = commbench(&[
        "--matrix",
        matrix.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--log",
        dir.join("run1.jsonl").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // A healthy cache passes.
    let out = commbench(&["fsck", "--cache", cache.to_str().unwrap()]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("1 ok"), "{}", stdout(&out));

    // Flip one byte in the stored trace.
    let entry = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "stbs"))
        .expect("campaign stored a trace");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).unwrap();

    // fsck detects, quarantines, and exits non-zero.
    let out = commbench(&["fsck", "--cache", cache.to_str().unwrap()]);
    assert!(!out.status.success(), "corruption must fail fsck");
    let report = stdout(&out);
    assert!(report.contains("1 quarantined"), "{report}");
    assert!(report.contains("checksum"), "{report}");
    assert!(!entry.exists(), "corrupt entry moved aside");
    assert!(
        entry.with_extension("stbs.quarantined").exists(),
        "wreckage kept for inspection"
    );

    // The next campaign run regenerates the entry (a miss, not a hit)...
    let log2 = dir.join("run2.jsonl");
    let out = commbench(&[
        "--matrix",
        matrix.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--log",
        log2.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(count_events(&log2, "cached"), 0, "no hit on quarantined");
    assert!(entry.exists(), "entry regenerated");

    // ... and the repaired cache is clean again.
    let out = commbench(&["fsck", "--cache", cache.to_str().unwrap()]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_a_journal_fails_with_a_hint() {
    let dir = temp_dir("nolog");
    let matrix = dir.join("matrix.txt");
    std::fs::write(&matrix, "apps = ring\nranks = 4\n").unwrap();
    let out = commbench(&[
        "resume",
        "--matrix",
        matrix.to_str().unwrap(),
        "--log",
        dir.join("never-written.jsonl").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--log"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL the commspec server mid-campaign, restart it on the same
/// state directory, and prove the journal makes completed jobs replays,
/// not reruns: the resubmitted trace job answers `replayed: true`, its
/// result is served from the journal with the original artifact bytes,
/// and no new `finished` line is appended for it.
#[test]
fn kill9_server_then_restart_replays_completed_jobs_from_the_journal() {
    use protocol::{JobParams, JobRef, Request, Response};
    use std::io::{BufRead, BufReader, Write};

    let dir = temp_dir("server-kill9");
    let state = dir.join("state");
    let journal = state.join("server.jsonl");

    let spawn_server = || {
        Command::new(env!("CARGO_BIN_EXE_commbench"))
            .args(["serve", "--stdio", "--state", state.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns")
    };
    let hello = Request::Hello {
        proto_version: protocol::PROTO_VERSION,
        client: "recovery".to_string(),
    };
    let read_resp = |reader: &mut BufReader<std::process::ChildStdout>| -> Response {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        Response::from_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"))
    };

    // Session 1: finish one trace job, then start a multi-job campaign
    // and SIGKILL the server while it runs.
    let mut child = spawn_server();
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());

    writeln!(stdin, "{}", hello.to_line()).unwrap();
    writeln!(
        stdin,
        "{}",
        Request::Trace {
            params: JobParams::new("ring", 4),
            tag: Some("t".into()),
        }
        .to_line()
    )
    .unwrap();
    writeln!(
        stdin,
        "{}",
        Request::Status {
            job: JobRef::Tag("t".into()),
            wait: true,
        }
        .to_line()
    )
    .unwrap();
    assert!(matches!(read_resp(&mut reader), Response::HelloOk { .. }));
    let trace_job = match read_resp(&mut reader) {
        Response::Submitted { job, replayed, .. } => {
            assert!(!replayed);
            job
        }
        other => panic!("expected submitted, got {other:?}"),
    };
    let first_result = match read_resp(&mut reader) {
        Response::JobStatus {
            state,
            result: Some(r),
            ..
        } => {
            assert_eq!(state, "done");
            r
        }
        other => panic!("expected done, got {other:?}"),
    };

    // The campaign the kill will interrupt (several jobs, one worker).
    writeln!(
        stdin,
        "{}",
        Request::Campaign {
            matrix: "apps = ring, cg, ep, lu\nranks = 4, 8\nworkers = 1\n".to_string(),
            tag: None,
        }
        .to_line()
    )
    .unwrap();
    assert!(matches!(read_resp(&mut reader), Response::Submitted { .. }));
    // SIGKILL with the campaign in flight: no flushes, no goodbye.
    let _ = child.kill();
    let _ = child.wait();

    let finished_for = |job: &str| {
        std::fs::read_to_string(&journal)
            .unwrap_or_default()
            .lines()
            .filter(|l| field(l, "event") == Some("finished") && field(l, "job") == Some(job))
            .count()
    };
    assert_eq!(finished_for(&trace_job), 1, "trace outcome journaled");

    // A kill mid-append leaves a torn tail; the restarted server must
    // shrug it off.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        write!(f, "{{\"t_ms\":99,\"event\":\"finished\",\"job\":\"torn").unwrap();
    }

    // Session 2: restart on the same state dir; the same submission must
    // be a replay with the original bytes, executing nothing.
    let mut child = spawn_server();
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    writeln!(stdin, "{}", hello.to_line()).unwrap();
    writeln!(
        stdin,
        "{}",
        Request::Trace {
            params: JobParams::new("ring", 4),
            tag: None,
        }
        .to_line()
    )
    .unwrap();
    writeln!(
        stdin,
        "{}",
        Request::Status {
            job: JobRef::Id(trace_job.clone()),
            wait: true,
        }
        .to_line()
    )
    .unwrap();
    writeln!(stdin, "{}", Request::Stats.to_line()).unwrap();
    writeln!(stdin, "{}", Request::Shutdown.to_line()).unwrap();
    drop(stdin);

    assert!(matches!(read_resp(&mut reader), Response::HelloOk { .. }));
    match read_resp(&mut reader) {
        Response::Submitted { job, replayed, .. } => {
            assert_eq!(job, trace_job, "content-hashed ids survive restarts");
            assert!(replayed, "journaled job must be served as a replay");
        }
        other => panic!("expected submitted, got {other:?}"),
    }
    match read_resp(&mut reader) {
        Response::JobStatus {
            state,
            result: Some(r),
            ..
        } => {
            assert_eq!(state, "done");
            assert_eq!(
                r.artifacts, first_result.artifacts,
                "replayed artifacts are the journaled bytes"
            );
            assert_eq!(r.t_app_ns, first_result.t_app_ns);
        }
        other => panic!("expected done, got {other:?}"),
    }
    match read_resp(&mut reader) {
        Response::Stats(stats) => {
            assert_eq!(stats.jobs_replayed, 1);
            assert_eq!(stats.jobs_done, 0, "nothing was executed after restart");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    assert!(matches!(read_resp(&mut reader), Response::Bye));
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());

    // Replay-not-rerun, as the journal itself records it: still exactly
    // one finished line for the trace job.
    assert_eq!(finished_for(&trace_job), 1, "replay must not re-journal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Last-wins journal decoding through the server restart path: when a
/// job id has several `finished` records (a journal extended across
/// runs), the restarted server serves the latest one.
#[test]
fn server_restart_honors_the_last_finished_record() {
    use protocol::{JobParams, JobRef, Request, Response};

    let dir = temp_dir("server-lastwins");
    let state = dir.join("state");

    let run_script = |script: &[Request]| -> Vec<Response> {
        let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
            .args(["serve", "--stdio", "--state", state.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns");
        {
            use std::io::Write;
            let mut stdin = child.stdin.take().unwrap();
            for req in script {
                writeln!(stdin, "{}", req.to_line()).unwrap();
            }
        }
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(|l| Response::from_line(l).unwrap())
            .collect()
    };
    let hello = Request::Hello {
        proto_version: protocol::PROTO_VERSION,
        client: "recovery".to_string(),
    };

    // Run one job to completion so the journal holds an `ok` record.
    let responses = run_script(&[
        hello.clone(),
        Request::Trace {
            params: JobParams::new("ring", 4),
            tag: Some("t".into()),
        },
        Request::Status {
            job: JobRef::Tag("t".into()),
            wait: true,
        },
        Request::Shutdown,
    ]);
    let trace_job = match &responses[1] {
        Response::Submitted { job, .. } => job.clone(),
        other => panic!("expected submitted, got {other:?}"),
    };

    // Append a *later* failed record for the same job — the last record
    // must win on restart, exactly as `commbench resume` treats its log.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(state.join("server.jsonl"))
            .unwrap();
        writeln!(
            f,
            "{{\"t_ms\":1,\"event\":\"finished\",\"job\":\"{trace_job}\",\
             \"status\":\"failed\",\"kind\":\"trace\",\"cause\":\"error\",\
             \"error\":\"injected-stale-record\"}}"
        )
        .unwrap();
    }

    let responses = run_script(&[
        hello,
        Request::Trace {
            params: JobParams::new("ring", 4),
            tag: None,
        },
        Request::Status {
            job: JobRef::Id(trace_job),
            wait: true,
        },
        Request::Shutdown,
    ]);
    assert!(matches!(
        responses[1],
        Response::Submitted { replayed: true, .. }
    ));
    match &responses[2] {
        Response::JobStatus { state, error, .. } => {
            assert_eq!(state, "failed", "the last finished record wins");
            assert_eq!(error.as_deref(), Some("injected-stale-record"));
        }
        other => panic!("expected job_status, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crashed trace needs no checkpoint to be recovered whole: the simulator
/// is bit-deterministic, so re-tracing under the crashed run's fault plan
/// stripped of its crash (`FaultPlan::without_crashes`) *is* the run that
/// never crashed — the same trace text and STBS bytes, the same per-rank
/// virtual times, and the same mpiP profile (the artifact the paper's E1
/// verification consumes).
#[test]
fn retrace_after_a_crash_equals_the_uncrashed_run() {
    use benchgen::verify::profile_of_trace;
    use mpisim::faults::FaultPlan;
    use mpisim::network;
    use mpisim::world::World;
    use scalatrace::stream::trace_to_bytes;
    use scalatrace::{text, trace_world, trace_world_partial};

    const N: usize = 4;
    let app = |ctx: &mut mpisim::Ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for _ in 0..6 {
            let r = ctx.irecv(
                mpisim::types::Src::Rank(left),
                mpisim::types::TagSel::Is(0),
                512,
                &w,
            );
            let s = ctx.isend(right, 0, 512, &w);
            ctx.waitall(&[r, s]);
            ctx.allreduce(128, &w);
        }
    };
    // Seeded jitter, skew and stragglers: every virtual time depends on the
    // plan, so the re-trace must reproduce its draws, not just the events.
    let timing = FaultPlan::differential(3, N);
    let world = |plan: FaultPlan| {
        World::new(N)
            .network(network::ethernet_cluster())
            .faults(plan)
    };
    let full = trace_world(world(timing.clone()), N, app).unwrap();

    let crashing = timing.crash_rank(1, 9);
    let crashed = trace_world_partial(world(crashing.clone()), N, app);
    assert!(!crashed.completed(), "the crash must fire");
    assert!(crashed.trace.concrete_event_count() < full.trace.concrete_event_count());

    let retraced = trace_world(world(crashing.without_crashes()), N, app).unwrap();
    assert_eq!(text::to_text(&retraced.trace), text::to_text(&full.trace));
    assert_eq!(trace_to_bytes(&retraced.trace), trace_to_bytes(&full.trace));
    assert_eq!(retraced.report.total_time, full.report.total_time);
    assert_eq!(retraced.report.per_rank_time, full.report.per_rank_time);

    let prof_full: Vec<_> = profile_of_trace(&full.trace).routines().collect();
    let prof_retraced: Vec<_> = profile_of_trace(&retraced.trace).routines().collect();
    assert_eq!(prof_full, prof_retraced, "mpiP profiles must be identical");
    assert!(!prof_full.is_empty());
}
