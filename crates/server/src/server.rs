//! The `commspec-server` daemon: connection handling, the job table,
//! the lease path every job runs through, and journal-backed durability.
//!
//! ## One job lifecycle
//!
//! Every job is leased to a fleet worker ([`crate::worker`]): granted,
//! heartbeated, completed or failed, journaled and counted by one path.
//! The server's own workers are fleet workers on in-memory connections
//! (`UnixStream::pair`), served by the same `handle_conn` as a remote
//! one; with [`ServerOptions::workers`] at 0 it is a coordinator that runs
//! nothing itself.
//!
//! ## Durability argument
//!
//! Every terminal job outcome is persisted *before* it becomes visible to
//! clients, in write-ahead order: artifact files land first (atomic
//! tmp+rename each), then the flushed JSONL `finished` line that names
//! them with their checksums, then the in-memory state clients can
//! observe. A SIGKILL between any two steps leaves either a job the
//! restarted server reruns (no journal line — artifacts without a
//! blessing line are dead weight, not lies) or a fully recorded outcome
//! it replays. On startup the journal is decoded with the campaign's
//! last-wins / torn-tail-tolerant reader and every record is verified
//! against its artifact files' FNV-1a checksums; anything incomplete or
//! corrupt is dropped and simply reruns on resubmission.
//!
//! Job ids are content hashes of the request ([`crate::jobs`]), so "the
//! same job" is a well-defined notion across restarts: a client that
//! resubmits after a server crash gets `replayed: true` and the recorded
//! result, with no pipeline execution.

use crate::fleet::{Actions, Completion, FailVerdict, Fleet, FleetConfig};
use crate::jobs::{self, JobBody, JobKind};
use crate::queue::{JobQueue, PopResult, QueueLimits};
use crate::worker::{self, WorkerOptions};
use campaign::journal::Journal;
use campaign::telemetry::Counters;
use campaign::Telemetry;
use protocol::json::Json;
use protocol::{
    ClientStats, JobParams, JobRef, JobResult, Request, Response, StatsReport, PROTO_VERSION,
};
use scalatrace::frame::write_atomic;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server identity string sent in `hello_ok`.
pub const SERVER_ID: &str = concat!("commspec-server/", env!("CARGO_PKG_VERSION"));

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// State directory: journal, artifact files, trace cache, campaign
    /// telemetry.
    pub state_dir: PathBuf,
    /// In-process fleet workers, each on an in-memory connection and
    /// sharing `state_dir` (and so its trace cache). 0 runs none: the
    /// server only coordinates remote workers.
    pub workers: usize,
    /// Per-client admission limits.
    pub limits: QueueLimits,
    /// Fleet coordinator tuning (lease TTL, backoff, poison threshold).
    pub fleet: FleetConfig,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            state_dir: PathBuf::from(".commspec-server"),
            workers: 2,
            limits: QueueLimits::default(),
            fleet: FleetConfig::default(),
        }
    }
}

/// Lifecycle of a job in the table.
#[derive(Clone, Debug)]
enum JobState {
    Queued,
    Running,
    Done(JobResult),
    Failed(String),
    Cancelled,
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

struct JobEntry {
    kind: JobKind,
    client: String,
    tag: Option<String>,
    state: JobState,
    body: Option<JobBody>,
    /// Served from the journal without (re-)execution.
    replayed: bool,
}

#[derive(Default)]
struct JobTable {
    jobs: HashMap<String, JobEntry>,
    /// Client-chosen tag → job id (latest submission wins).
    tags: HashMap<String, String>,
}

impl JobTable {
    fn resolve(&self, job: &JobRef) -> Option<String> {
        match job {
            JobRef::Id(id) => self.jobs.contains_key(id).then(|| id.clone()),
            // A tag mapping without a live job entry is treated as unknown
            // rather than trusted: indexing `jobs` with a dangling id would
            // panic while the table mutex is held, poisoning it.
            JobRef::Tag(tag) => self
                .tags
                .get(tag)
                .filter(|id| self.jobs.contains_key(*id))
                .cloned(),
        }
    }
}

#[derive(Default)]
struct ServerStats {
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    replayed: AtomicU64,
    /// Jobs completed this process on a trace loaded from a cache.
    cache_hits: AtomicU64,
}

struct State {
    opts: ServerOptions,
    queue: JobQueue,
    table: Mutex<JobTable>,
    table_cv: Condvar,
    counters: Counters,
    stats: ServerStats,
    fleet: Fleet,
    /// Append-only JSONL journal (flushed per line by `Telemetry`).
    journal: Telemetry,
    shutdown: AtomicBool,
}

impl State {
    fn journal_path(opts: &ServerOptions) -> PathBuf {
        opts.state_dir.join("server.jsonl")
    }

    fn artifact_dir(&self, job_id: &str) -> PathBuf {
        self.opts.state_dir.join("artifacts").join(job_id)
    }

    /// Persist a successful outcome in write-ahead order: artifacts, then
    /// the journal line naming them and their checksums.
    fn persist_done(&self, job_id: &str, kind: JobKind, result: &JobResult) {
        let dir = self.artifact_dir(job_id);
        let _ = std::fs::create_dir_all(&dir);
        for a in &result.artifacts {
            let _ = write_atomic(&dir.join(&a.name), a.text.as_bytes());
        }
        let names: Vec<&str> = result.artifacts.iter().map(|a| a.name.as_str()).collect();
        let mut fields: Vec<(&str, Json)> = vec![
            ("job", job_id.into()),
            ("status", "ok".into()),
            ("kind", kind.label().into()),
            ("cached", result.cached.into()),
            ("artifacts", names.join(" ").into()),
        ];
        let fnv_keys: Vec<String> = result
            .artifacts
            .iter()
            .map(|a| format!("fnv.{}", a.name))
            .collect();
        for (key, a) in fnv_keys.iter().zip(&result.artifacts) {
            fields.push((key.as_str(), a.fnv.as_str().into()));
        }
        let optional = [
            ("t_app_ns", result.t_app_ns.map(Json::from)),
            ("t_gen_ns", result.t_gen_ns.map(Json::from)),
            ("err_pct", result.err_pct.map(Json::from)),
            ("jobs_ok", result.ok.map(Json::from)),
            ("jobs_failed", result.failed.map(Json::from)),
            ("jobs_timed_out", result.timed_out.map(Json::from)),
            ("mape", result.mape.map(Json::from)),
        ];
        fields.extend(optional.into_iter().filter_map(|(k, v)| Some((k, v?))));
        self.journal.emit("finished", &fields);
        self.journal.flush();
    }

    fn persist_failed(&self, job_id: &str, kind: JobKind, error: &str) {
        self.journal.emit(
            "finished",
            &[
                ("job", job_id.into()),
                ("status", "failed".into()),
                ("kind", kind.label().into()),
                ("cause", "error".into()),
                ("error", error.into()),
            ],
        );
        self.journal.flush();
    }

    /// Move a job to a terminal state and wake status waiters.
    fn finish(&self, job_id: &str, client: &str, state: JobState) {
        {
            let mut table = crate::sync::lock(&self.table);
            if let Some(entry) = table.jobs.get_mut(job_id) {
                entry.state = state;
                entry.body = None;
            }
        }
        self.queue.release(client);
        self.table_cv.notify_all();
    }
}

/// Reconstruct a journaled outcome, verifying every artifact file against
/// its recorded checksum. `None` = incomplete or corrupt → rerun.
fn replay_record(
    state_dir: &Path,
    job_id: &str,
    rec: &campaign::journal::JobRecord,
) -> Option<JobEntry> {
    let kind = JobKind::from_label(rec.str("kind")?)?;
    let entry = |state: JobState| JobEntry {
        kind,
        client: String::new(),
        tag: None,
        state,
        body: None,
        replayed: true,
    };
    match rec.status.as_str() {
        "ok" => {
            let mut artifacts = Vec::new();
            let names = rec.str("artifacts")?;
            let dir = state_dir.join("artifacts").join(job_id);
            for name in names.split(' ').filter(|n| !n.is_empty()) {
                let text = std::fs::read_to_string(dir.join(name)).ok()?;
                let fnv = campaign::hash::hex(campaign::hash::fnv1a(text.as_bytes()));
                if rec.str(&format!("fnv.{name}")) != Some(fnv.as_str()) {
                    return None; // artifact corrupt on disk: rerun
                }
                artifacts.push(protocol::Artifact {
                    name: name.to_string(),
                    fnv,
                    text,
                });
            }
            Some(entry(JobState::Done(JobResult {
                kind: kind.label().to_string(),
                cached: rec.bool("cached").unwrap_or(false),
                t_app_ns: rec.u64("t_app_ns"),
                t_gen_ns: rec.u64("t_gen_ns"),
                err_pct: rec.f64("err_pct"),
                ok: rec.u64("jobs_ok"),
                failed: rec.u64("jobs_failed"),
                timed_out: rec.u64("jobs_timed_out"),
                mape: rec.f64("mape"),
                artifacts,
            })))
        }
        "failed" => Some(entry(JobState::Failed(rec.str("error")?.to_string()))),
        _ => None,
    }
}

/// How long an idle worker's `lease_request` waits on the queue before it
/// is answered `no_work`: a job submitted meanwhile starts at once.
const LEASE_WAIT: Duration = Duration::from_secs(1);

/// A running server: its in-process workers plus shared state.
/// Connections are served by [`Server::serve_stdio`],
/// [`Server::serve_tcp`], or (for in-process tests) [`Server::handle`].
pub struct Server {
    state: Arc<State>,
    /// In-process workers and the connection threads serving them.
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Fleet monitor: lease expiry, reassignment, quarantine.
    monitor: std::thread::JoinHandle<()>,
}

impl Server {
    /// Open the state directory, replay the journal, and start the
    /// in-process workers. Returns the server and how many journaled
    /// outcomes were restored.
    pub fn start(opts: ServerOptions) -> io::Result<(Server, usize)> {
        std::fs::create_dir_all(&opts.state_dir)?;
        let journal_path = State::journal_path(&opts);
        // One pass over the journal: `finished` records fill the job table
        // below; `lease` transitions rebuild per-job fleet health (poison
        // budgets). Leases themselves died with the old process — their
        // connections are gone — so only the budgets replay.
        let fleet = Fleet::new(opts.fleet);
        let journal = Journal::load_with(&journal_path, |event| {
            if event
                .get("event")
                .and_then(Json::as_str)
                .is_some_and(|e| e == "lease")
            {
                fleet.replay(event);
            }
        })
        .unwrap_or_default();

        let mut table = JobTable::default();
        let mut restored = 0;
        for (job_id, rec) in journal.jobs() {
            if let Some(entry) = replay_record(&opts.state_dir, job_id, rec) {
                table.jobs.insert(job_id.to_string(), entry);
                restored += 1;
            }
        }

        let state = Arc::new(State {
            queue: JobQueue::new(opts.limits),
            table: Mutex::new(table),
            table_cv: Condvar::new(),
            counters: Counters::new(),
            stats: ServerStats::default(),
            fleet,
            journal: Telemetry::append_file(&journal_path)?,
            shutdown: AtomicBool::new(false),
            opts,
        });

        let mut workers = Vec::new();
        for i in 0..state.opts.workers {
            let (ours, theirs) = UnixStream::pair()?;
            let reader = BufReader::new(ours.try_clone()?);
            let conn_state = Arc::clone(&state);
            workers.push(std::thread::spawn(move || {
                handle_conn(&conn_state, reader, ours);
            }));
            let opts = WorkerOptions {
                name: format!("local-{i}"),
                state_dir: state.opts.state_dir.clone(),
                ..WorkerOptions::default()
            };
            workers.push(std::thread::spawn(move || {
                // A worker whose connection dies leaves the rest running;
                // its leases expire and reassign like a remote one's.
                let _ = worker::run_in_process(theirs, &opts);
            }));
        }
        let monitor = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || monitor_loop(&state))
        };
        Ok((
            Server {
                state,
                workers,
                monitor,
            },
            restored,
        ))
    }

    /// Serve one connection on stdin/stdout (the test and CI mode), then
    /// shut down.
    pub fn serve_stdio(self) {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.handle(stdin.lock(), stdout.lock());
        self.shutdown();
    }

    /// Bind `addr` and serve connections until a client sends `shutdown`.
    /// The bound address is announced on stderr as `listening on <addr>`
    /// (ephemeral-port callers parse it).
    pub fn serve_tcp(self, addr: &str) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        eprintln!("listening on {}", listener.local_addr()?);
        let mut conns = Vec::new();
        while !self.state.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // A periodic read timeout lets the connection thread
                    // notice shutdown: without it, an idle-but-open client
                    // parks the thread in read_line forever and the join
                    // below never completes.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                    // A failed clone drops this connection, not the server.
                    let Ok(read_half) = stream.try_clone() else {
                        continue;
                    };
                    let state = Arc::clone(&self.state);
                    conns.push(std::thread::spawn(move || {
                        handle_conn(&state, BufReader::new(read_half), stream);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        for c in conns {
            let _ = c.join();
        }
        self.shutdown();
        Ok(())
    }

    /// Serve one connection over arbitrary byte streams (in-process use).
    pub fn handle(&self, reader: impl BufRead, writer: impl Write) {
        handle_conn(&self.state, reader, writer);
    }

    /// Drain the queue (including outstanding fleet leases), let the
    /// in-process workers leave, stop the monitor, and join them all.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.monitor.join();
        self.state.counters.emit_to(&self.state.journal);
    }
}

/// Lease housekeeping: expire overdue leases, reassign matured pen
/// entries, quarantine poison jobs. Runs until shutdown has fully
/// drained both the queue and the lease table.
fn monitor_loop(state: &Arc<State>) {
    loop {
        let actions = state.fleet.tick(Instant::now(), &state.journal);
        apply_fleet_actions(state, actions);
        if state.shutdown.load(Ordering::SeqCst)
            && state.queue.closed_and_drained()
            && state.fleet.outstanding() == 0
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Apply the fleet's verdicts to the job table and queue.
fn apply_fleet_actions(state: &Arc<State>, actions: Actions) {
    for job in actions.requeue {
        let requeue = {
            let mut table = crate::sync::lock(&state.table);
            match table.jobs.get_mut(&job.id) {
                Some(entry) if matches!(entry.state, JobState::Queued | JobState::Running) => {
                    entry.state = JobState::Queued;
                    true
                }
                // Terminal (e.g. completed by a racing worker) or gone:
                // nothing left to rerun.
                _ => false,
            }
        };
        if requeue {
            state.queue.requeue(job);
        }
    }
    for (job, reason) in actions.quarantine {
        let kind = {
            let table = crate::sync::lock(&state.table);
            table.jobs.get(&job.id).map(|e| e.kind)
        };
        let Some(kind) = kind else { continue };
        state.persist_failed(&job.id, kind, &reason);
        state.stats.failed.fetch_add(1, Ordering::Relaxed);
        state.finish(&job.id, &job.client, JobState::Failed(reason));
    }
}

/// Serve one client connection: line in, line out. If the connection
/// registered as a fleet worker, its death — clean or not — expires every
/// lease it holds so the jobs reassign immediately.
fn handle_conn(state: &Arc<State>, reader: impl BufRead, writer: impl Write) {
    let mut worker: Option<String> = None;
    handle_conn_inner(state, reader, writer, &mut worker);
    if let Some(w) = worker {
        let actions = state.fleet.disconnect(&w, Instant::now(), &state.journal);
        apply_fleet_actions(state, actions);
    }
}

fn handle_conn_inner(
    state: &Arc<State>,
    mut reader: impl BufRead,
    mut writer: impl Write,
    worker: &mut Option<String>,
) {
    let mut client: Option<String> = None;
    let mut line = String::new();
    loop {
        line.clear();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return, // EOF: client hung up
                Ok(_) => break,
                // Read timeout (set by serve_tcp): check for shutdown and
                // keep waiting. read_line appends, so a partially received
                // line survives the retry intact.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if state.shutdown.load(Ordering::SeqCst) {
                        // A worker connection drains first: cutting it here
                        // would expire its leases and bounce jobs that are
                        // about to complete. Plain clients drop right away.
                        if worker.is_none() || state.fleet.outstanding() == 0 {
                            return;
                        }
                    }
                    continue;
                }
                Err(_) => return,
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::from_line(&line) {
            Ok(r) => r,
            Err(e) => {
                if let Some(c) = &client {
                    state.counters.incr(c, "errors");
                }
                if write_line(
                    &mut writer,
                    &Response::Error {
                        code: e.code().to_string(),
                        message: e.to_string(),
                    },
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let (resp, bye) = dispatch(state, &mut client, worker, req);
        if write_line(&mut writer, &resp).is_err() {
            return;
        }
        if bye {
            return;
        }
    }
}

fn write_line(writer: &mut impl Write, resp: &Response) -> io::Result<()> {
    writeln!(writer, "{}", resp.to_line())?;
    writer.flush()
}

fn error(code: &str, message: impl Into<String>) -> Response {
    Response::Error {
        code: code.to_string(),
        message: message.into(),
    }
}

/// Process one request. Returns the response and whether the connection
/// (and for `shutdown`, the server) should wind down. `worker` records
/// that this connection registered as a fleet worker, for disconnect
/// cleanup.
fn dispatch(
    state: &Arc<State>,
    client: &mut Option<String>,
    worker: &mut Option<String>,
    req: Request,
) -> (Response, bool) {
    if let Some(c) = client.as_deref() {
        state.counters.incr(c, "requests");
    }
    match req {
        Request::Hello {
            proto_version,
            client: name,
        } => {
            if proto_version != PROTO_VERSION {
                return (
                    error(
                        "proto-version",
                        format!("server speaks proto {PROTO_VERSION}, client sent {proto_version}"),
                    ),
                    false,
                );
            }
            state.counters.incr(&name, "requests");
            *client = Some(name);
            (
                Response::HelloOk {
                    proto_version: PROTO_VERSION,
                    server: SERVER_ID.to_string(),
                },
                false,
            )
        }
        _ if client.is_none() => (
            error("hello-required", "first message must be `hello`"),
            false,
        ),
        Request::Trace { params, tag } => (
            submit_single(
                state,
                client.as_deref().unwrap(),
                JobKind::Trace,
                params,
                tag,
            ),
            false,
        ),
        Request::Generate { params, tag } => (
            submit_single(
                state,
                client.as_deref().unwrap(),
                JobKind::Generate,
                params,
                tag,
            ),
            false,
        ),
        Request::Simulate { params, tag } => (
            submit_single(
                state,
                client.as_deref().unwrap(),
                JobKind::Simulate,
                params,
                tag,
            ),
            false,
        ),
        Request::Campaign { matrix, tag } => (
            submit_campaign(state, client.as_deref().unwrap(), matrix, tag),
            false,
        ),
        Request::Status { job, wait } => (status(state, &job, wait), false),
        Request::CancelJob { job } => (cancel(state, client.as_deref().unwrap(), &job), false),
        Request::Stats => (Response::Stats(stats(state)), false),
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            state.queue.close();
            (Response::Bye, true)
        }
        Request::WorkerRegister { worker: name } => {
            state.fleet.register(&name, Instant::now());
            *worker = Some(name.clone());
            (
                Response::WorkerOk {
                    worker: name,
                    lease_ttl_ms: state.fleet.lease_ttl().as_millis() as u64,
                },
                false,
            )
        }
        Request::LeaseRequest { worker: name } => (grant_lease(state, &name), false),
        Request::Heartbeat {
            worker: name,
            leases,
        } => {
            let expired = state
                .fleet
                .heartbeat(&name, &leases, Instant::now(), &state.journal);
            (
                Response::HeartbeatOk {
                    ttl_ms: state.fleet.lease_ttl().as_millis() as u64,
                    expired,
                },
                false,
            )
        }
        Request::JobComplete {
            worker: name,
            lease,
            job,
            result,
        } => (worker_complete(state, &name, &lease, &job, result), false),
        Request::JobFail {
            worker: name,
            lease,
            job,
            error,
            transient,
        } => (
            worker_fail(state, &name, &lease, &job, error, transient),
            false,
        ),
    }
}

/// Hand the queue head to a polling worker as a fresh lease, waiting up to
/// [`LEASE_WAIT`] for one to arrive.
fn grant_lease(state: &Arc<State>, worker: &str) -> Response {
    loop {
        let queued = match state.queue.pop_timeout(LEASE_WAIT) {
            PopResult::Job(job) => job,
            // The wait already happened: ask again right away.
            PopResult::Empty => {
                return Response::NoWork {
                    retry_ms: 0,
                    draining: false,
                }
            }
            // Closed and drained. An expiring lease can still requeue a
            // job, so a worker may leave only once the fleet owes nothing.
            PopResult::Closed => {
                return Response::NoWork {
                    retry_ms: 50,
                    draining: state.fleet.outstanding() == 0,
                }
            }
        };
        // Claim Queued → Running; a job cancelled while queued has no body
        // and is skipped.
        let claimed = {
            let mut table = crate::sync::lock(&state.table);
            match table.jobs.get_mut(&queued.id) {
                Some(entry) if matches!(entry.state, JobState::Queued) => {
                    entry.state = JobState::Running;
                    entry.body.clone().map(|b| (entry.kind, b))
                }
                _ => None,
            }
        };
        let Some((kind, body)) = claimed else {
            continue;
        };
        let job_id = queued.id.clone();
        let (lease, ttl) = state
            .fleet
            .grant(worker, queued, Instant::now(), &state.journal);
        let (params, matrix) = match body {
            JobBody::Single(_, params) => (Some(params), None),
            JobBody::Campaign(matrix) => (None, Some(matrix)),
        };
        return Response::LeaseGrant {
            lease,
            job: job_id,
            kind: kind.label().to_string(),
            params,
            matrix,
            ttl_ms: ttl.as_millis() as u64,
        };
    }
}

/// Commit a worker's completion — or discard it idempotently if its lease
/// is no longer live (expired, reassigned, or from before a coordinator
/// restart).
fn worker_complete(
    state: &Arc<State>,
    worker: &str,
    lease: &str,
    job: &str,
    result: JobResult,
) -> Response {
    // Checksums first: a result whose artifacts do not match their own
    // FNVs was corrupted in flight and is retried as a transient failure,
    // never committed.
    for a in &result.artifacts {
        if a.fnv != campaign::hash::hex(campaign::hash::fnv1a(a.text.as_bytes())) {
            let reason = format!("artifact {} fails its checksum", a.name);
            let resp = worker_fail(state, worker, lease, job, reason.clone(), true);
            if let Response::CompleteOk { job, .. } = resp {
                return Response::CompleteOk {
                    job,
                    accepted: false,
                    reason: Some(reason),
                };
            }
            return resp;
        }
    }
    match state.fleet.complete(worker, lease, job, &state.journal) {
        Completion::Accepted { client } => {
            let kind = {
                let table = crate::sync::lock(&state.table);
                table.jobs.get(job).map(|e| e.kind)
            };
            let Some(kind) = kind else {
                return Response::CompleteOk {
                    job: job.to_string(),
                    accepted: false,
                    reason: Some("job vanished from the table".to_string()),
                };
            };
            state.persist_done(job, kind, &result);
            state.stats.done.fetch_add(1, Ordering::Relaxed);
            if result.cached {
                state.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            state.finish(job, &client, JobState::Done(result));
            Response::CompleteOk {
                job: job.to_string(),
                accepted: true,
                reason: None,
            }
        }
        Completion::Stale { reason } => Response::CompleteOk {
            job: job.to_string(),
            accepted: false,
            reason: Some(reason.to_string()),
        },
    }
}

/// Process a worker-reported failure: deterministic causes fail the job
/// for good, transient ones send it back through the backoff pen.
fn worker_fail(
    state: &Arc<State>,
    worker: &str,
    lease: &str,
    job: &str,
    error: String,
    transient: bool,
) -> Response {
    match state.fleet.fail(
        worker,
        lease,
        job,
        transient,
        Instant::now(),
        &state.journal,
    ) {
        FailVerdict::Fatal { client } => {
            let kind = {
                let table = crate::sync::lock(&state.table);
                table.jobs.get(job).map(|e| e.kind)
            };
            if let Some(kind) = kind {
                state.persist_failed(job, kind, &error);
            }
            state.stats.failed.fetch_add(1, Ordering::Relaxed);
            state.finish(job, &client, JobState::Failed(error));
            Response::CompleteOk {
                job: job.to_string(),
                accepted: true,
                reason: None,
            }
        }
        FailVerdict::Retry { delay } => {
            // The fleet penned the job; flip it back to Queued so the
            // matured requeue (or a cancel meanwhile) finds it claimable.
            {
                let mut table = crate::sync::lock(&state.table);
                if let Some(entry) = table.jobs.get_mut(job) {
                    if matches!(entry.state, JobState::Running) {
                        entry.state = JobState::Queued;
                    }
                }
            }
            Response::CompleteOk {
                job: job.to_string(),
                accepted: true,
                reason: Some(format!("transient; requeued in {}ms", delay.as_millis())),
            }
        }
        FailVerdict::Stale { reason } => Response::CompleteOk {
            job: job.to_string(),
            accepted: false,
            reason: Some(reason.to_string()),
        },
    }
}

/// Register a submission in the table (or recognise it), enforcing
/// admission control for genuinely new work.
fn admit(
    state: &Arc<State>,
    client: &str,
    job_id: String,
    kind: JobKind,
    body: JobBody,
    tag: Option<String>,
) -> Response {
    let mut table = crate::sync::lock(&state.table);
    if table.jobs.contains_key(&job_id) {
        // Known job: idempotent submit. A terminal entry is served as a
        // replay — from this process's run or from the journal of a
        // previous one — with no execution. Only a submission that carries
        // a tag retags the job; a tagless resubmit leaves the original tag
        // in place.
        if let Some(t) = &tag {
            let old = table.jobs[&job_id].tag.clone();
            if let Some(old) = old.filter(|o| o != t) {
                // Drop the superseded mapping, unless the tag has since
                // been claimed by a different job (latest submission wins).
                if table.tags.get(&old).map(String::as_str) == Some(job_id.as_str()) {
                    table.tags.remove(&old);
                }
            }
            table.tags.insert(t.clone(), job_id.clone());
        }
        let entry = table.jobs.get_mut(&job_id).expect("checked above");
        if let Some(t) = &tag {
            entry.tag = Some(t.clone());
        }
        let replayed = entry.state.terminal();
        if replayed {
            entry.replayed = true;
            state.stats.replayed.fetch_add(1, Ordering::Relaxed);
            state.counters.incr(client, "replayed");
        }
        return Response::Submitted {
            job: job_id,
            kind: kind.label().to_string(),
            tag,
            replayed,
        };
    }
    if state.shutdown.load(Ordering::SeqCst) {
        return error("shutting-down", "server is shutting down");
    }
    if let Err(reject) = state.queue.submit(client, &job_id) {
        state.counters.incr(client, "rejections");
        return error(
            reject.code(),
            format!("submission refused for client {client}"),
        );
    }
    // Register the tag only once the job entry actually exists: a mapping
    // created before admission control would dangle if the submission is
    // refused, and a later status/cancel by that tag would resolve to a
    // job id absent from the table.
    if let Some(t) = &tag {
        table.tags.insert(t.clone(), job_id.clone());
    }
    table.jobs.insert(
        job_id.clone(),
        JobEntry {
            kind,
            client: client.to_string(),
            tag: tag.clone(),
            state: JobState::Queued,
            body: Some(body),
            replayed: false,
        },
    );
    state.journal.emit(
        "submitted",
        &[
            ("job", job_id.as_str().into()),
            ("kind", kind.label().into()),
            ("client", client.into()),
        ],
    );
    Response::Submitted {
        job: job_id,
        kind: kind.label().to_string(),
        tag,
        replayed: false,
    }
}

fn submit_single(
    state: &Arc<State>,
    client: &str,
    kind: JobKind,
    params: JobParams,
    tag: Option<String>,
) -> Response {
    let spec = match jobs::spec_of(&params) {
        Ok(s) => s,
        Err(e) => {
            state.counters.incr(client, "errors");
            return error("bad-request", e);
        }
    };
    let job_id = jobs::single_job_id(kind, &spec);
    admit(
        state,
        client,
        job_id,
        kind,
        JobBody::Single(kind, params),
        tag,
    )
}

fn submit_campaign(
    state: &Arc<State>,
    client: &str,
    matrix: String,
    tag: Option<String>,
) -> Response {
    // Validate the matrix up front so a syntax error is a synchronous
    // `bad-request`, not a failed job discovered later.
    if let Err(e) = campaign::CampaignSpec::parse(&matrix) {
        state.counters.incr(client, "errors");
        return error("bad-request", format!("bad matrix: {e}"));
    }
    let job_id = jobs::campaign_job_id(&matrix);
    admit(
        state,
        client,
        job_id,
        JobKind::Campaign,
        JobBody::Campaign(matrix),
        tag,
    )
}

fn status(state: &Arc<State>, job: &JobRef, wait: bool) -> Response {
    let mut table = crate::sync::lock(&state.table);
    let Some(id) = table.resolve(job) else {
        return error("unknown-job", format!("no such job: {job:?}"));
    };
    if wait {
        // Bounded waits (instead of a bare cv.wait) so a waiter survives
        // lock poisoning and re-checks liveness rather than parking on a
        // notification that might never come.
        while table.jobs.get(&id).is_some_and(|e| !e.state.terminal()) {
            let (guard, _timed_out) =
                crate::sync::wait_timeout(&state.table_cv, table, Duration::from_millis(200));
            table = guard;
        }
    }
    let Some(entry) = table.jobs.get(&id) else {
        return error("unknown-job", format!("no such job: {job:?}"));
    };
    Response::JobStatus {
        job: id.clone(),
        state: entry.state.label().to_string(),
        tag: entry.tag.clone(),
        error: match &entry.state {
            JobState::Failed(e) => Some(e.clone()),
            _ => None,
        },
        result: match &entry.state {
            JobState::Done(r) => Some(r.clone()),
            _ => None,
        },
    }
}

fn cancel(state: &Arc<State>, client: &str, job: &JobRef) -> Response {
    let id = {
        let table = crate::sync::lock(&state.table);
        match table.resolve(job) {
            Some(id) => id,
            None => return error("unknown-job", format!("no such job: {job:?}")),
        }
    };
    match state.queue.cancel(&id) {
        Some(_) => {
            // Release the slot of the client that *owns* the job (which
            // may differ from the one cancelling it).
            let owner = {
                let table = crate::sync::lock(&state.table);
                table
                    .jobs
                    .get(&id)
                    .map(|e| e.client.clone())
                    .unwrap_or_default()
            };
            state.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            state.counters.incr(client, "cancelled");
            state.finish(&id, &owner, JobState::Cancelled);
            Response::Cancelled {
                job: id,
                ok: true,
                state: "cancelled".to_string(),
            }
        }
        None => {
            let table = crate::sync::lock(&state.table);
            let current = table
                .jobs
                .get(&id)
                .map(|e| e.state.label().to_string())
                .unwrap_or_else(|| "unknown".to_string());
            Response::Cancelled {
                job: id,
                ok: false,
                state: current,
            }
        }
    }
}

fn stats(state: &Arc<State>) -> StatsReport {
    let (queued, running) = {
        let table = crate::sync::lock(&state.table);
        let queued = table
            .jobs
            .values()
            .filter(|e| matches!(e.state, JobState::Queued))
            .count() as u64;
        let running = table
            .jobs
            .values()
            .filter(|e| matches!(e.state, JobState::Running))
            .count() as u64;
        (queued, running)
    };
    // The wire format keeps the counters of the memory layer that used to
    // sit in front of the trace cache; there is one cache now.
    StatsReport {
        jobs_queued: queued,
        jobs_running: running,
        jobs_done: state.stats.done.load(Ordering::Relaxed),
        jobs_failed: state.stats.failed.load(Ordering::Relaxed),
        jobs_cancelled: state.stats.cancelled.load(Ordering::Relaxed),
        jobs_replayed: state.stats.replayed.load(Ordering::Relaxed),
        mem_hits: 0,
        mem_misses: 0,
        disk_hits: state.stats.cache_hits.load(Ordering::Relaxed),
        evictions: 0,
        mem_entries: 0,
        mem_bytes: 0,
        fleet: state.fleet.snapshot(Instant::now()),
        clients: state
            .counters
            .snapshot()
            .into_iter()
            .map(|(client, counters)| ClientStats { client, counters })
            .collect(),
    }
}
