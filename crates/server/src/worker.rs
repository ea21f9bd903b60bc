//! The fleet worker: connects to a coordinator, pulls leases, executes
//! jobs through [`jobs::execute`], and streams heartbeats from a
//! background thread. A standalone worker process speaks over TCP or
//! stdio; the server's own workers are threads on in-memory sockets
//! ([`crate::server::ServerOptions::workers`]). All three run this loop.
//!
//! One connection carries everything. Both the main loop and the
//! heartbeat thread speak strict request/response pairs under a shared
//! lock, and job execution happens *outside* the lock, so heartbeats
//! keep flowing while a long job runs — which is the whole point of a
//! heartbeat.
//!
//! A worker keeps only its trace cache (and a campaign job's telemetry)
//! in its state directory. Its result travels with per-artifact
//! checksums, and the coordinator alone commits it. A completion that
//! races a lease expiry comes back `accepted: false` and is discarded.
//! Executions are deterministic, so a discarded duplicate is
//! byte-identical to whatever the winning worker produced.
//!
//! ### Chaos hooks (tests and the CI smoke job)
//!
//! These reach every worker of the process, so the in-process workers of
//! a `serve` started with them set obey them too.
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
use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker process configuration.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Coordinator address; `None` speaks the protocol on stdin/stdout.
    pub addr: Option<String>,
    /// Worker identity (must be unique across the fleet).
    pub name: String,
    /// Worker-local state: the trace cache and campaign telemetry.
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

/// One line-delimited connection — TCP, stdio, or the in-memory socket an
/// in-process worker shares with its coordinator; every exchange is a
/// strict request/response pair.
struct Conn {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
}

impl Conn {
    fn new(reader: impl Read + Send + 'static, writer: impl Write + Send + 'static) -> Conn {
        Conn {
            reader: Box::new(BufReader::new(reader)),
            writer: Box::new(writer),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        writeln!(self.writer, "{}", req.to_line()).map_err(|e| format!("send failed: {e}"))?;
        self.writer
            .flush()
            .map_err(|e| format!("send failed: {e}"))?;
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => return Err("coordinator closed the connection".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("receive failed: {e}")),
        }
        Response::from_line(&buf).map_err(|e| format!("bad response line: {e}"))
    }
}

fn call(conn: &Mutex<Conn>, req: &Request) -> Result<Response, String> {
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
    let conn = match &opts.addr {
        Some(addr) => {
            let stream = connect_with_retries(addr, opts.connect_retries, opts.connect_backoff)?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?;
            Conn::new(reader, stream)
        }
        None => Conn::new(io::stdin(), io::stdout()),
    };
    work(conn, &opts, true)
}

/// Run an in-process worker on its half of an in-memory connection to
/// the coordinator. It logs nothing: the coordinator's journal and
/// `stats` already account for every lease it takes.
pub(crate) fn run_in_process(stream: UnixStream, opts: &WorkerOptions) -> Result<u64, String> {
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    work(Conn::new(reader, stream), opts, false)
}

/// The lease loop over an open connection: hello, register, then lease,
/// execute and report until the coordinator drains it.
fn work(conn: Conn, opts: &WorkerOptions, log: bool) -> Result<u64, String> {
    let conn = Arc::new(Mutex::new(conn));
    let say = |msg: String| {
        if log {
            eprintln!("{msg}");
        }
    };
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
    say(format!(
        "worker {} registered (lease ttl {ttl_ms} ms)",
        opts.name
    ));

    let cache = TraceCache::open(opts.state_dir.join("cache"))
        .map_err(|e| format!("cannot open worker cache: {e}"))?;

    let held: Arc<Mutex<BTreeSet<String>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let lost: Arc<Mutex<BTreeSet<String>>> = Arc::new(Mutex::new(BTreeSet::new()));
    // Dropping `stop` wakes the heartbeat thread at once, so a drained
    // worker exits without waiting out a heartbeat interval.
    let (stop, stopped) = mpsc::channel::<()>();
    let heartbeat = {
        let conn = Arc::clone(&conn);
        let held = Arc::clone(&held);
        let lost = Arc::clone(&lost);
        let worker = opts.name.clone();
        let interval = Duration::from_millis((ttl_ms / 4).max(10));
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
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
                say(format!("worker {}: lease {lease} job {job}", opts.name));
                let result = execute(&kind, params, matrix, &cache, || {
                    Telemetry::to_file(&opts.state_dir.join(format!("{job}.campaign.jsonl")))
                        .unwrap_or_else(|_| Telemetry::sink())
                });
                crate::sync::lock(&held).remove(&lease);
                done += 1;
                if crate::sync::lock(&lost).remove(&lease) {
                    say(format!(
                        "worker {}: lease {lease} was expired by the coordinator; \
                         reporting anyway for idempotent discard",
                        opts.name
                    ));
                }
                let report = match result {
                    Ok(result) => Request::JobComplete {
                        worker: opts.name.clone(),
                        lease: lease.clone(),
                        job: job.clone(),
                        result,
                    },
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
                    }) => say(format!(
                        "worker {}: job {job} accepted={accepted}{}",
                        opts.name,
                        reason.map(|r| format!(" ({r})")).unwrap_or_default()
                    )),
                    Ok(other) => break Err(format!("unexpected completion reply: {other:?}")),
                    Err(e) => break Err(e),
                }
                if env_flag("COMMSPEC_WORKER_DUP_COMPLETE") {
                    if let Request::JobComplete { .. } = &report {
                        match call(&conn, &report) {
                            Ok(Response::CompleteOk { accepted, .. }) => say(format!(
                                "worker {}: job {job} duplicate accepted={accepted}",
                                opts.name
                            )),
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
                    say(format!(
                        "worker {}: coordinator draining; exiting",
                        opts.name
                    ));
                    break Ok(done);
                }
                // The coordinator already waited on its queue before
                // answering, so `retry_ms` may be 0.
                std::thread::sleep(Duration::from_millis(retry_ms.min(1000)));
            }
            Ok(Response::Error { code, message }) => {
                break Err(format!("coordinator error ({code}): {message}"))
            }
            Ok(other) => break Err(format!("unexpected lease reply: {other:?}")),
            Err(e) => break Err(e),
        }
    };
    drop(stop);
    let _ = heartbeat.join();
    outcome
}

/// Execute one leased job: rebuild the job body the grant ships and run
/// it through [`jobs::execute`]. `campaign_log` opens a campaign job's
/// per-job telemetry.
fn execute(
    kind: &str,
    params: Option<protocol::JobParams>,
    matrix: Option<String>,
    cache: &TraceCache,
    campaign_log: impl FnOnce() -> Telemetry,
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
    jobs::execute(&body, cache, campaign_log)
}
