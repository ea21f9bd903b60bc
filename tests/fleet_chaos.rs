//! Chaos proof for the distributed campaign fleet: workers are
//! SIGKILLed mid-job, heartbeats are suppressed past the lease TTL,
//! duplicate completions are replayed, and the coordinator itself is
//! SIGKILLed and restarted — and in every case the campaign converges
//! to artifacts byte-identical to a single-process run, because every
//! executor calls the same deterministic library functions.
//!
//! The worker binary exposes chaos hooks as environment variables
//! (`COMMSPEC_WORKER_JOB_DELAY_MS`, `COMMSPEC_WORKER_NO_HEARTBEAT`,
//! `COMMSPEC_WORKER_DUP_COMPLETE`) so these tests can open precise
//! failure windows without patching the production code paths.

use protocol::Response;
use server::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "commspec-fleet-chaos-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drain a child's stderr into a shared buffer from a background thread
/// so the pipe never fills and the transcript is pollable.
fn capture_stderr(child: &mut Child, seed: String) -> Arc<Mutex<String>> {
    let stderr = child.stderr.take().expect("stderr piped");
    let buf = Arc::new(Mutex::new(seed));
    let sink = Arc::clone(&buf);
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            sink.lock().unwrap().push_str(&line);
            line.clear();
        }
    });
    buf
}

/// Poll `buf` until `needle` shows up; panics with the transcript so a
/// hung fleet is diagnosable from the test log.
fn wait_for(buf: &Arc<Mutex<String>>, needle: &str, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if buf.lock().unwrap().contains(needle) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what} ({needle:?}); transcript:\n{}",
            buf.lock().unwrap()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Start a TCP coordinator with no in-process workers, so every job goes
/// to the test's worker processes, and return it with its announced
/// ephemeral address and a live stderr transcript.
fn spawn_coordinator(state: &Path, flags: &[&str]) -> (Child, String, Arc<Mutex<String>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state",
            state.to_str().unwrap(),
            "--workers",
            "0",
        ])
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let mut early = String::new();
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            reader.read_line(&mut line).unwrap(),
            0,
            "coordinator exited before announcing its address:\n{early}"
        );
        early.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    let buf = Arc::new(Mutex::new(early));
    let sink = Arc::clone(&buf);
    std::thread::spawn(move || {
        let mut line = String::new();
        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            sink.lock().unwrap().push_str(&line);
            line.clear();
        }
    });
    (child, addr, buf)
}

fn spawn_worker(
    addr: &str,
    name: &str,
    state: &Path,
    envs: &[(&str, &str)],
) -> (Child, Arc<Mutex<String>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args([
            "worker",
            "--connect",
            addr,
            "--name",
            name,
            "--state",
            state.to_str().unwrap(),
            "--connect-retries",
            "8",
            "--connect-backoff-ms",
            "25",
        ])
        .envs(envs.iter().map(|(k, v)| (k.to_string(), v.to_string())))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker spawns");
    let buf = capture_stderr(&mut child, String::new());
    (child, buf)
}

fn connect(addr: &str, name: &str) -> Client {
    Client::connect_with(addr, name, 10, Duration::from_millis(50)).expect("client connects")
}

/// Submit one simulate job (ring × 4 ranks, the server defaults) and
/// block until it is terminal; returns `(artifacts by name, replayed)`.
fn run_simulate(client: &mut Client, tag: &str) -> (Vec<(String, String)>, bool) {
    let (job, replayed) = client
        .submit(
            "simulate",
            protocol::JobParams::new("ring", 4),
            Some(tag.to_string()),
        )
        .expect("submit accepted");
    match client.wait(&job).expect("status reply") {
        Response::JobStatus {
            state,
            error,
            result,
            ..
        } => {
            assert_eq!(state, "done", "job failed: {error:?}");
            let result = result.expect("terminal status carries the result");
            let mut artifacts: Vec<(String, String)> = result
                .artifacts
                .iter()
                .map(|a| (a.name.clone(), a.text.clone()))
                .collect();
            artifacts.sort();
            (artifacts, replayed)
        }
        other => panic!("expected job_status, got {other:?}"),
    }
}

fn fleet_stats(client: &mut Client) -> protocol::FleetStats {
    match client.request(&protocol::Request::Stats).expect("stats") {
        Response::Stats(s) => s.fleet,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Reference artifacts from the batch CLI — the bytes every fleet
/// execution must converge to.
fn batch_reference(dir: &Path) -> Vec<(String, String)> {
    let trace = dir.join("batch-trace.st");
    let prog = dir.join("batch-program.ncptl");
    let prof = dir.join("batch-profile.mpip");
    let out = Command::new(env!("CARGO_BIN_EXE_commgen"))
        .args([
            "--app",
            "ring",
            "--ranks",
            "4",
            "--class",
            "S",
            "--machine",
            "bgl",
            "--emit-trace",
            trace.to_str().unwrap(),
            "-o",
            prog.to_str().unwrap(),
            "--profile",
            prof.to_str().unwrap(),
        ])
        .output()
        .expect("commgen spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut artifacts = vec![
        (
            "trace.st".to_string(),
            std::fs::read_to_string(&trace).unwrap(),
        ),
        (
            "program.ncptl".to_string(),
            std::fs::read_to_string(&prog).unwrap(),
        ),
        (
            "profile.mpip".to_string(),
            std::fs::read_to_string(&prof).unwrap(),
        ),
    ];
    artifacts.sort();
    artifacts
}

#[test]
fn sigkilled_worker_job_is_reassigned_and_artifacts_match_the_batch_cli() {
    let dir = temp_dir("sigkill");
    let reference = batch_reference(&dir);
    let (mut coord, addr, _coord_log) = spawn_coordinator(
        &dir.join("state"),
        &["--lease-ttl-ms", "300", "--reassign-backoff-ms", "50"],
    );

    // Worker A stalls inside the job, opening a window to SIGKILL it
    // while it holds the lease.
    let (mut wa, log_a) = spawn_worker(
        &addr,
        "w-doomed",
        &dir.join("wa"),
        &[("COMMSPEC_WORKER_JOB_DELAY_MS", "60000")],
    );
    wait_for(&log_a, "registered", "worker A registration");

    let mut client = connect(&addr, "chaos");
    let (job, _) = client
        .submit(
            "simulate",
            protocol::JobParams::new("ring", 4),
            Some("s".to_string()),
        )
        .expect("submit accepted");
    wait_for(&log_a, &format!("job {job}"), "worker A taking the lease");
    wa.kill().expect("SIGKILL worker A");
    let _ = wa.wait();

    // Worker B arrives after the murder and inherits the reassigned job.
    let (mut wb, log_b) = spawn_worker(&addr, "w-heir", &dir.join("wb"), &[]);
    match client.wait(&job).expect("status reply") {
        Response::JobStatus {
            state,
            error,
            result,
            ..
        } => {
            assert_eq!(state, "done", "job failed: {error:?}");
            let mut artifacts: Vec<(String, String)> = result
                .expect("result present")
                .artifacts
                .iter()
                .map(|a| (a.name.clone(), a.text.clone()))
                .collect();
            artifacts.sort();
            assert_eq!(
                artifacts, reference,
                "reassigned execution must be byte-identical to the batch CLI"
            );
        }
        other => panic!("expected job_status, got {other:?}"),
    }
    wait_for(&log_b, "accepted=true", "worker B's completion");

    let fleet = fleet_stats(&mut client);
    assert!(fleet.leases_granted >= 2, "both workers held the job");
    assert!(fleet.leases_expired >= 1, "A's lease died with it");
    assert!(fleet.leases_reassigned >= 1, "the job was handed to B");
    assert_eq!(fleet.jobs_quarantined, 0, "one death is not poison");

    client.shutdown().expect("shutdown");
    assert!(wb.wait().expect("worker B exits").success());
    assert!(coord.wait().expect("coordinator exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn silent_worker_loses_its_lease_and_the_late_completion_is_discarded() {
    let dir = temp_dir("silent");
    let (mut coord, addr, _coord_log) = spawn_coordinator(
        &dir.join("state"),
        &["--lease-ttl-ms", "250", "--reassign-backoff-ms", "50"],
    );

    // Worker A never heartbeats and takes ~3s per job: its lease expires
    // by TTL while it keeps running, and its eventual completion must be
    // discarded as stale — after worker B already won the job.
    let (mut wa, log_a) = spawn_worker(
        &addr,
        "w-silent",
        &dir.join("wa"),
        &[
            ("COMMSPEC_WORKER_NO_HEARTBEAT", "1"),
            ("COMMSPEC_WORKER_JOB_DELAY_MS", "3000"),
        ],
    );
    wait_for(&log_a, "registered", "worker A registration");

    let mut client = connect(&addr, "chaos");
    let (job, _) = client
        .submit(
            "simulate",
            protocol::JobParams::new("ring", 4),
            Some("s".to_string()),
        )
        .expect("submit accepted");
    wait_for(&log_a, &format!("job {job}"), "worker A taking the lease");

    let (mut wb, log_b) = spawn_worker(&addr, "w-prompt", &dir.join("wb"), &[]);
    match client.wait(&job).expect("status reply") {
        Response::JobStatus { state, error, .. } => {
            assert_eq!(state, "done", "job failed: {error:?}")
        }
        other => panic!("expected job_status, got {other:?}"),
    }
    wait_for(&log_b, "accepted=true", "worker B's completion");
    wait_for(
        &log_a,
        "accepted=false",
        "worker A's late completion being discarded",
    );

    let fleet = fleet_stats(&mut client);
    assert!(fleet.leases_expired >= 1, "the silent lease timed out");
    assert!(
        fleet.completions_discarded >= 1,
        "the stale completion was dropped"
    );

    client.shutdown().expect("shutdown");
    assert!(wa.wait().expect("worker A exits").success());
    assert!(wb.wait().expect("worker B exits").success());
    assert!(coord.wait().expect("coordinator exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_completions_are_discarded_idempotently() {
    let dir = temp_dir("dup");
    let (mut coord, addr, _coord_log) = spawn_coordinator(&dir.join("state"), &[]);
    let (mut wa, log_a) = spawn_worker(
        &addr,
        "w-stutter",
        &dir.join("wa"),
        &[("COMMSPEC_WORKER_DUP_COMPLETE", "1")],
    );
    wait_for(&log_a, "registered", "worker registration");

    let mut client = connect(&addr, "chaos");
    let (artifacts, _) = run_simulate(&mut client, "s");
    assert_eq!(artifacts.len(), 3, "simulate yields all three artifacts");
    wait_for(&log_a, "accepted=true", "the first completion");
    wait_for(
        &log_a,
        "duplicate accepted=false",
        "the duplicate being rejected",
    );

    let fleet = fleet_stats(&mut client);
    assert!(
        fleet.completions_discarded >= 1,
        "the duplicate was accounted as discarded"
    );

    client.shutdown().expect("shutdown");
    assert!(wa.wait().expect("worker exits").success());
    assert!(coord.wait().expect("coordinator exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_sigkill_and_restart_replays_the_journal_without_reexecution() {
    let dir = temp_dir("coord-kill");
    let reference = batch_reference(&dir);
    let state = dir.join("state");
    let (mut coord, addr, _log) = spawn_coordinator(
        &state,
        &["--lease-ttl-ms", "300", "--reassign-backoff-ms", "50"],
    );

    // Round 1: a worker executes the job, then the coordinator is
    // SIGKILLed with the completion already journaled.
    let (mut wa, log_a) = spawn_worker(&addr, "w-one", &dir.join("wa"), &[]);
    wait_for(&log_a, "registered", "worker registration");
    let mut client = connect(&addr, "chaos");
    let (artifacts, replayed) = run_simulate(&mut client, "t1");
    assert!(!replayed, "first run is fresh");
    assert_eq!(artifacts, reference, "fleet run matches the batch CLI");
    wait_for(&log_a, "accepted=true", "the completion");
    drop(client);
    coord.kill().expect("SIGKILL coordinator");
    let _ = coord.wait();
    let _ = wa.wait(); // dies on the broken connection; exit code is its own business

    // Round 2: restart over the same state dir. The journal now holds
    // both the finished record and the lease transitions; replay must
    // restore the job as done and grant nothing.
    let (mut coord2, addr2, log2) = spawn_coordinator(&state, &[]);
    wait_for(&log2, "restored 1 journaled job", "journal replay");
    let mut client = connect(&addr2, "chaos");
    let (artifacts2, replayed2) = run_simulate(&mut client, "t2");
    assert!(replayed2, "the finished job must not be re-executed");
    assert_eq!(
        artifacts2, reference,
        "replayed artifacts are byte-identical to the original run"
    );
    let fleet = fleet_stats(&mut client);
    assert_eq!(
        fleet.leases_granted, 0,
        "a replayed job never reaches the fleet"
    );

    client.shutdown().expect("shutdown");
    assert!(coord2.wait().expect("coordinator exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_job_a_remote_worker_runs_on_a_cached_trace_counts_as_a_disk_hit() {
    let dir = temp_dir("disk-hits");
    let (mut coord, addr, _log) = spawn_coordinator(&dir.join("state"), &[]);
    let (mut worker, log) = spawn_worker(&addr, "w-cache", &dir.join("w"), &[]);
    wait_for(&log, "registered", "worker registration");

    let mut client = connect(&addr, "chaos");
    let mut run = |kind: &str| {
        let (job, _) = client
            .submit(kind, protocol::JobParams::new("ring", 4), None)
            .expect("submit accepted");
        match client.wait(&job).expect("status reply") {
            Response::JobStatus {
                state,
                result: Some(r),
                ..
            } if state == "done" => r.cached,
            other => panic!("expected a done job_status, got {other:?}"),
        }
    };
    assert!(!run("trace"), "the first trace fills the worker's cache");
    assert!(
        run("generate"),
        "generate loads the trace the worker cached"
    );
    match client.request(&protocol::Request::Stats).expect("stats") {
        Response::Stats(s) => {
            assert_eq!(s.jobs_done, 2);
            assert_eq!(s.disk_hits, 1, "the worker's cache hit is counted");
            assert_eq!(s.fleet.leases_granted, 2);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    assert!(worker.wait().expect("worker exits").success());
    assert!(coord.wait().expect("coordinator exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_exits_nonzero_after_exhausting_connection_retries() {
    // Port 1 is never listening; the CLI must retry, then fail cleanly.
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args([
            "client",
            "--addr",
            "127.0.0.1:1",
            "--stats",
            "--connect-retries",
            "3",
            "--connect-backoff-ms",
            "30",
        ])
        .output()
        .expect("client spawns");
    assert!(!out.status.success(), "refused connection is a failure");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("after 3 attempts"),
        "error names the retry budget: {err}"
    );
    // Two backoff gaps (30ms, 60ms) must actually have been slept.
    assert!(start.elapsed() >= Duration::from_millis(90), "{err}");
}
