//! The standalone fleet worker: connects to a coordinator (TCP or
//! stdio), pulls leases, executes jobs through the exact library calls
//! the in-process pool uses, and streams heartbeats from a background
//! thread.
//!
//! One connection carries everything. Both the main loop and the
//! heartbeat thread speak strict request/response pairs under a shared
//! lock, and job execution happens *outside* the lock, so heartbeats
//! keep flowing while a long job runs — which is the whole point of a
//! heartbeat.
//!
//! Artifacts are committed locally (atomic tmp+rename, checksums
//! computed first) before `job_complete` is sent; the coordinator is
//! still the authority on acceptance, and a completion that races a
//! lease expiry comes back `accepted: false` and is discarded here
//! without side effects. Executions are deterministic, so a discarded
//! duplicate is byte-identical to whatever the winning worker produced.
//!
//! ### Chaos hooks (tests and the CI smoke job)
//!
//! - `COMMSPEC_WORKER_JOB_DELAY_MS`: sleep inside job execution, opening
//!   a window to SIGKILL the worker mid-job.
//! - `COMMSPEC_WORKER_NO_HEARTBEAT=1`: suppress heartbeats so leases
//!   expire by TTL while the worker keeps running.
//! - `COMMSPEC_WORKER_DUP_COMPLETE=1`: send every successful completion
//!   twice; the duplicate must come back `accepted: false`.

use crate::jobs::{self, JobBody, JobKind};
use campaign::executor::{backoff_delay, JobError};
use campaign::{Telemetry, TraceCache};
use protocol::{JobResult, Request, Response, PROTO_VERSION};
use scalatrace::frame::write_atomic;
use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker process configuration.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Coordinator address; `None` speaks the protocol on stdin/stdout.
    pub addr: Option<String>,
    /// Worker identity (must be unique across the fleet).
    pub name: String,
    /// Worker-local scratch: trace cache and committed artifacts.
    pub state_dir: PathBuf,
    /// Connection attempts before giving up.
    pub connect_retries: u32,
    /// Base delay between attempts (doubles, capped at 5s).
    pub connect_backoff: Duration,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            addr: None,
            name: format!("worker-{}", std::process::id()),
            state_dir: PathBuf::from(".commspec-worker"),
            connect_retries: 5,
            connect_backoff: Duration::from_millis(100),
        }
    }
}

/// Connect to `addr` with capped exponential backoff. Shared by the
/// worker and the CLI client's `--connect-retries` flag.
pub fn connect_with_retries(
    addr: &str,
    retries: u32,
    backoff: Duration,
) -> Result<TcpStream, String> {
    let mut last = String::new();
    for attempt in 0..retries.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < retries.max(1) {
            std::thread::sleep(backoff_delay(backoff, attempt + 1, Duration::from_secs(5)));
        }
    }
    Err(format!(
        "cannot connect to {addr} after {} attempts: {last}",
        retries.max(1)
    ))
}

enum Transport {
    Tcp(BufReader<TcpStream>, TcpStream),
    Stdio,
}

/// One line-delimited connection; every exchange is a strict
/// request/response pair.
struct Conn {
    transport: Transport,
}

impl Conn {
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let line = req.to_line();
        let mut buf = String::new();
        match &mut self.transport {
            Transport::Tcp(reader, writer) => {
                writeln!(writer, "{line}").map_err(|e| format!("send failed: {e}"))?;
                writer.flush().map_err(|e| format!("send failed: {e}"))?;
                match reader.read_line(&mut buf) {
                    Ok(0) => return Err("coordinator closed the connection".to_string()),
                    Ok(_) => {}
                    Err(e) => return Err(format!("receive failed: {e}")),
                }
            }
            Transport::Stdio => {
                let stdout = io::stdout();
                let mut out = stdout.lock();
                writeln!(out, "{line}").map_err(|e| format!("send failed: {e}"))?;
                out.flush().map_err(|e| format!("send failed: {e}"))?;
                match io::stdin().read_line(&mut buf) {
                    Ok(0) => return Err("coordinator closed the connection".to_string()),
                    Ok(_) => {}
                    Err(e) => return Err(format!("receive failed: {e}")),
                }
            }
        }
        Response::from_line(&buf).map_err(|e| format!("bad response line: {e}"))
    }
}

fn call(conn: &Arc<Mutex<Conn>>, req: &Request) -> Result<Response, String> {
    crate::sync::lock(conn).call(req)
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn env_ms(name: &str) -> Option<Duration> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
}

/// Run the worker until the coordinator drains it (or the connection
/// dies). Returns the number of jobs executed.
pub fn run_worker(opts: WorkerOptions) -> Result<u64, String> {
    let transport = match &opts.addr {
        Some(addr) => {
            let stream = connect_with_retries(addr, opts.connect_retries, opts.connect_backoff)?;
            let reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| format!("cannot clone stream: {e}"))?,
            );
            Transport::Tcp(reader, stream)
        }
        None => Transport::Stdio,
    };
    let conn = Arc::new(Mutex::new(Conn { transport }));

    match call(
        &conn,
        &Request::Hello {
            proto_version: PROTO_VERSION,
            client: opts.name.clone(),
        },
    )? {
        Response::HelloOk { .. } => {}
        Response::Error { code, message } => {
            return Err(format!("hello refused ({code}): {message}"))
        }
        other => return Err(format!("unexpected hello reply: {other:?}")),
    }
    let ttl_ms = match call(
        &conn,
        &Request::WorkerRegister {
            worker: opts.name.clone(),
        },
    )? {
        Response::WorkerOk { lease_ttl_ms, .. } => lease_ttl_ms,
        Response::Error { code, message } => {
            return Err(format!("registration refused ({code}): {message}"))
        }
        other => return Err(format!("unexpected register reply: {other:?}")),
    };
    eprintln!("worker {} registered (lease ttl {ttl_ms} ms)", opts.name);

    let cache = TraceCache::open(opts.state_dir.join("cache"))
        .map_err(|e| format!("cannot open worker cache: {e}"))?;

    let held: Arc<Mutex<BTreeSet<String>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let lost: Arc<Mutex<BTreeSet<String>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let conn = Arc::clone(&conn);
        let held = Arc::clone(&held);
        let lost = Arc::clone(&lost);
        let stop = Arc::clone(&stop);
        let worker = opts.name.clone();
        let interval = Duration::from_millis((ttl_ms / 4).max(10));
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if stop.load(Ordering::SeqCst) {
                return;
            }
            if env_flag("COMMSPEC_WORKER_NO_HEARTBEAT") {
                continue;
            }
            let leases: Vec<String> = crate::sync::lock(&held).iter().cloned().collect();
            match call(
                &conn,
                &Request::Heartbeat {
                    worker: worker.clone(),
                    leases,
                },
            ) {
                Ok(Response::HeartbeatOk { expired, .. }) => {
                    if !expired.is_empty() {
                        crate::sync::lock(&lost).extend(expired);
                    }
                }
                // A dead connection ends the worker; the main loop will
                // hit the same error on its next call.
                _ => return,
            }
        })
    };

    let mut done = 0u64;
    let outcome = loop {
        match call(
            &conn,
            &Request::LeaseRequest {
                worker: opts.name.clone(),
            },
        ) {
            Ok(Response::LeaseGrant {
                lease,
                job,
                kind,
                params,
                matrix,
                ttl_ms: _,
            }) => {
                crate::sync::lock(&held).insert(lease.clone());
                eprintln!("worker {}: lease {lease} job {job}", opts.name);
                let result = execute(&kind, params, matrix, &cache);
                crate::sync::lock(&held).remove(&lease);
                done += 1;
                let known_lost = crate::sync::lock(&lost).remove(&lease);
                if known_lost {
                    eprintln!(
                        "worker {}: lease {lease} was expired by the coordinator; \
                         reporting anyway for idempotent discard",
                        opts.name
                    );
                }
                let report = match result {
                    Ok(result) => {
                        commit_local(&opts.state_dir, &job, &result);
                        Request::JobComplete {
                            worker: opts.name.clone(),
                            lease: lease.clone(),
                            job: job.clone(),
                            result,
                        }
                    }
                    Err(e) => Request::JobFail {
                        worker: opts.name.clone(),
                        lease: lease.clone(),
                        job: job.clone(),
                        error: e.message,
                        transient: e.transient,
                    },
                };
                match call(&conn, &report) {
                    Ok(Response::CompleteOk {
                        accepted, reason, ..
                    }) => {
                        eprintln!(
                            "worker {}: job {job} accepted={accepted}{}",
                            opts.name,
                            reason.map(|r| format!(" ({r})")).unwrap_or_default()
                        );
                    }
                    Ok(other) => break Err(format!("unexpected completion reply: {other:?}")),
                    Err(e) => break Err(e),
                }
                if env_flag("COMMSPEC_WORKER_DUP_COMPLETE") {
                    if let Request::JobComplete { .. } = &report {
                        match call(&conn, &report) {
                            Ok(Response::CompleteOk { accepted, .. }) => {
                                eprintln!(
                                    "worker {}: job {job} duplicate accepted={accepted}",
                                    opts.name
                                );
                            }
                            Ok(other) => {
                                break Err(format!("unexpected duplicate reply: {other:?}"))
                            }
                            Err(e) => break Err(e),
                        }
                    }
                }
            }
            Ok(Response::NoWork { retry_ms, draining }) => {
                if draining && crate::sync::lock(&held).is_empty() {
                    eprintln!("worker {}: coordinator draining; exiting", opts.name);
                    break Ok(done);
                }
                std::thread::sleep(Duration::from_millis(retry_ms.clamp(10, 1000)));
            }
            Ok(Response::Error { code, message }) => {
                break Err(format!("coordinator error ({code}): {message}"))
            }
            Ok(other) => break Err(format!("unexpected lease reply: {other:?}")),
            Err(e) => break Err(e),
        }
    };
    stop.store(true, Ordering::SeqCst);
    let _ = heartbeat.join();
    outcome
}

/// Execute one leased job exactly as the in-process pool would.
fn execute(
    kind: &str,
    params: Option<protocol::JobParams>,
    matrix: Option<String>,
    cache: &TraceCache,
) -> Result<JobResult, JobError> {
    if let Some(delay) = env_ms("COMMSPEC_WORKER_JOB_DELAY_MS") {
        std::thread::sleep(delay);
    }
    let body = match JobKind::from_label(kind) {
        None => return Err(JobError::fatal(format!("unknown job kind {kind}"))),
        Some(JobKind::Campaign) => {
            JobBody::Campaign(matrix.ok_or_else(|| JobError::fatal("lease_grant missing matrix"))?)
        }
        Some(kind) => JobBody::Single(
            kind,
            params.ok_or_else(|| JobError::fatal("lease_grant missing params"))?,
        ),
    };
    jobs::execute(&body, cache, Telemetry::sink)
}

/// Commit the result's artifacts to the worker-local scratch dir,
/// checksums first, each file an atomic tmp+rename. This happens before
/// `job_complete` is sent so a worker killed mid-commit leaves either
/// nothing or complete files — never a torn artifact blessed by a
/// completion message.
fn commit_local(state_dir: &std::path::Path, job_id: &str, result: &JobResult) {
    let dir = state_dir.join("artifacts").join(job_id);
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    for a in &result.artifacts {
        debug_assert_eq!(
            a.fnv,
            campaign::hash::hex(campaign::hash::fnv1a(a.text.as_bytes()))
        );
        let _ = write_atomic(&dir.join(&a.name), a.text.as_bytes());
    }
}
