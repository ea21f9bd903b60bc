//! The versioned `commspec-server` wire protocol: typed request/response
//! enums and their line-delimited JSON encoding.
//!
//! Framing is one JSON object per `\n`-terminated line (strings escape
//! embedded newlines, so a value never spans lines). Every object carries a
//! `type` discriminator; the remaining fields are flat or shallowly nested.
//!
//! **Versioning and forward compatibility.** A connection opens with a
//! `hello` carrying `proto_version`; the server answers `hello_ok` with its
//! own version or an `error` with code `proto-version`. Within a version,
//! the compat rules are:
//!
//! * **Unknown fields are tolerated.** Decoders read the fields they know
//!   and ignore the rest, so a v1.x peer can add fields without breaking
//!   v1.0. Golden fixtures in `tests/wire_compat.rs` pin this.
//! * **Unknown variants are rejected.** A `type` value the decoder does not
//!   know is a [`WireError::UnknownVariant`], because a request whose
//!   *meaning* is unknown cannot be safely half-understood. The server
//!   answers with an `error` (code `unknown-variant`) and keeps the
//!   connection open.

use crate::json::{parse, Json};

/// Protocol version spoken by this build. Bumped only for changes that
/// break the rules above (removed fields, changed meanings).
pub const PROTO_VERSION: u32 = 1;

/// Decode failure for one wire line.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The line is not a JSON object (torn line, bad framing).
    Syntax(String),
    /// The `type` discriminator names a variant this decoder does not know.
    UnknownVariant(String),
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but has the wrong shape or an invalid value.
    Bad(&'static str, String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Syntax(e) => write!(f, "malformed wire line: {e}"),
            WireError::UnknownVariant(t) => write!(f, "unknown message type `{t}`"),
            WireError::Missing(k) => write!(f, "missing required field `{k}`"),
            WireError::Bad(k, e) => write!(f, "bad field `{k}`: {e}"),
        }
    }
}

impl WireError {
    /// Stable machine-readable code for the matching `error` response.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Syntax(_) => "syntax",
            WireError::UnknownVariant(_) => "unknown-variant",
            WireError::Missing(_) => "missing-field",
            WireError::Bad(..) => "bad-field",
        }
    }
}

/// Parameters of a single trace / generate / simulate job. Field meanings
/// mirror the batch CLI flags so the daemon's artifacts are byte-identical
/// to `commgen`'s for the same inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct JobParams {
    /// Application registry name.
    pub app: String,
    /// World size.
    pub ranks: u32,
    /// NPB problem class (`S|W|A|B|C`).
    pub class: String,
    /// Network model (`ideal|bgl|ethernet`).
    pub network: String,
    /// Iteration-count override (absent = class default).
    pub iterations: Option<u32>,
    /// Run Algorithm 1 (collective alignment) during generation.
    pub align: bool,
    /// Run Algorithm 2 (wildcard resolution) during generation.
    pub resolve: bool,
    /// Emit provenance comments in the generated program.
    pub comments: bool,
}

impl JobParams {
    /// Params for `app` at `ranks` with batch-CLI defaults (class S, bgl
    /// network, align+resolve on, comments off).
    pub fn new(app: impl Into<String>, ranks: u32) -> JobParams {
        JobParams {
            app: app.into(),
            ranks,
            class: "S".to_string(),
            network: "bgl".to_string(),
            iterations: None,
            align: true,
            resolve: true,
            comments: false,
        }
    }
}

/// How a request names a job: by server-assigned id, or by the
/// client-chosen tag sent with the submission.
#[derive(Clone, Debug, PartialEq)]
pub enum JobRef {
    /// The id returned in `submitted`.
    Id(String),
    /// The client's own `tag` from the submitting request.
    Tag(String),
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version negotiation; must be the first message on a connection.
    Hello {
        /// Protocol version the client speaks.
        proto_version: u32,
        /// Client identity for multi-tenant accounting (queue caps, rate
        /// limits, per-client counters).
        client: String,
    },
    /// Submit a trace job (produces the folded trace text).
    Trace {
        /// Job parameters.
        params: JobParams,
        /// Optional client-chosen handle for later `status` requests.
        tag: Option<String>,
    },
    /// Submit a generate job (produces the coNCePTuaL program text).
    Generate {
        /// Job parameters.
        params: JobParams,
        /// Optional client-chosen handle.
        tag: Option<String>,
    },
    /// Submit a simulate job (executes the generated benchmark; produces
    /// the mpiP profile and timing metrics).
    Simulate {
        /// Job parameters.
        params: JobParams,
        /// Optional client-chosen handle.
        tag: Option<String>,
    },
    /// Submit a whole campaign matrix (the text of a matrix file).
    Campaign {
        /// Matrix document, as `commbench --matrix` would read it.
        matrix: String,
        /// Optional client-chosen handle.
        tag: Option<String>,
    },
    /// Query a job's state (and result once terminal).
    Status {
        /// Which job.
        job: JobRef,
        /// Block until the job reaches a terminal state before answering.
        wait: bool,
    },
    /// Cancel a queued job (running jobs cannot be interrupted).
    CancelJob {
        /// Which job.
        job: JobRef,
    },
    /// Request server-wide and per-client statistics.
    Stats,
    /// Ask the server to finish in-flight work and exit cleanly.
    Shutdown,
    /// Worker plane: register this connection's peer as a fleet worker.
    /// The server answers `worker_ok` with the assigned worker id and the
    /// lease TTL the worker must heartbeat within.
    WorkerRegister {
        /// Worker-chosen name (the server suffixes it into a unique id).
        worker: String,
    },
    /// Worker plane: ask for one job lease. Non-blocking — the server
    /// answers `lease_grant` or `no_work`; the worker polls.
    LeaseRequest {
        /// Assigned worker id from `worker_ok`.
        worker: String,
    },
    /// Worker plane: the combined heartbeat / lease renewal. Refreshes
    /// the worker's liveness window and renews every listed lease; the
    /// `heartbeat_ok` answer names the leases that are no longer held.
    Heartbeat {
        /// Assigned worker id.
        worker: String,
        /// Leases the worker believes it holds.
        leases: Vec<String>,
    },
    /// Worker plane: report a finished lease. The result carries the
    /// per-artifact FNV checksums the coordinator verifies before
    /// accepting (a stale or duplicate report is discarded, not an error).
    JobComplete {
        /// Assigned worker id.
        worker: String,
        /// The lease being completed.
        lease: String,
        /// The job the lease covered.
        job: String,
        /// Terminal payload, artifacts checksummed.
        result: JobResult,
    },
    /// Worker plane: report a failed lease, classified by the worker as
    /// transient (worth a retry elsewhere) or deterministic.
    JobFail {
        /// Assigned worker id.
        worker: String,
        /// The lease being failed.
        lease: String,
        /// The job the lease covered.
        job: String,
        /// Failure message.
        error: String,
        /// Worker's classification: true = transient (retry), false =
        /// deterministic (fail the job).
        transient: bool,
    },
}

/// One named artifact of a finished job, checksummed for end-to-end
/// integrity (`fnv` is the 16-hex-digit FNV-1a of `text`).
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// Artifact name (`trace.st`, `program.ncptl`, `profile.mpip`): a
    /// plain file name, which decoding enforces.
    pub name: String,
    /// FNV-1a checksum of `text`, 16 lowercase hex digits.
    pub fnv: String,
    /// The artifact body.
    pub text: String,
}

/// The terminal payload of a successful job.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct JobResult {
    /// Job kind (`trace|generate|simulate|campaign`).
    pub kind: String,
    /// Was the trace served from a cache (memory or disk)?
    pub cached: bool,
    /// Simulated wall-clock of the traced application, in ns.
    pub t_app_ns: Option<u64>,
    /// Simulated wall-clock of the generated benchmark, in ns.
    pub t_gen_ns: Option<u64>,
    /// Timing accuracy `|t_gen - t_app| / t_app` in percent.
    pub err_pct: Option<f64>,
    /// Campaign summary: successful jobs.
    pub ok: Option<u64>,
    /// Campaign summary: failed jobs.
    pub failed: Option<u64>,
    /// Campaign summary: timed-out jobs; always `Some(0)` now that an op
    /// budget bounds each job (one past it counts as failed).
    pub timed_out: Option<u64>,
    /// Campaign summary: mean absolute timing error (percent).
    pub mape: Option<f64>,
    /// Checksummed artifacts.
    pub artifacts: Vec<Artifact>,
}

/// Counters for one client, name-sorted.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ClientStats {
    /// Client identity (from `hello`).
    pub client: String,
    /// `(counter, count)` pairs, sorted by counter name.
    pub counters: Vec<(String, u64)>,
}

/// Fleet-coordination counters (the worker plane). All zero until a
/// worker registers; the stats encoding omits the `fleet` object while it
/// is all-default, so a fleet-less server's stats bytes are unchanged from
/// v1.0 and a v1.0 stats line decodes to default counters.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FleetStats {
    /// Worker registrations since startup.
    pub workers_seen: u64,
    /// Workers currently inside their liveness window.
    pub workers_live: u64,
    /// Leases granted since startup.
    pub leases_granted: u64,
    /// Lease renewals (heartbeats over held leases).
    pub leases_renewed: u64,
    /// Leases expired on missed heartbeats or worker disconnect.
    pub leases_expired: u64,
    /// Jobs requeued for another worker after a lease expired.
    pub leases_reassigned: u64,
    /// Jobs quarantined after killing too many distinct workers.
    pub jobs_quarantined: u64,
    /// Stale or duplicate completion reports discarded idempotently.
    pub completions_discarded: u64,
}

/// Server-wide statistics.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct StatsReport {
    /// Jobs currently queued.
    pub jobs_queued: u64,
    /// Jobs currently running.
    pub jobs_running: u64,
    /// Jobs finished successfully since startup (replays included).
    pub jobs_done: u64,
    /// Jobs finished in failure since startup.
    pub jobs_failed: u64,
    /// Jobs cancelled since startup.
    pub jobs_cancelled: u64,
    /// Jobs served from the journal without re-execution.
    pub jobs_replayed: u64,
    /// In-memory trace-cache hits.
    pub mem_hits: u64,
    /// In-memory misses that fell through to disk.
    pub mem_misses: u64,
    /// Disk-cache hits (loaded and promoted to memory).
    pub disk_hits: u64,
    /// LRU evictions from the in-memory cache.
    pub evictions: u64,
    /// Entries resident in the in-memory cache.
    pub mem_entries: u64,
    /// Bytes resident in the in-memory cache.
    pub mem_bytes: u64,
    /// Fleet-coordination counters (zero while no worker has registered).
    pub fleet: FleetStats,
    /// Per-client counters.
    pub clients: Vec<ClientStats>,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Successful version negotiation.
    HelloOk {
        /// Protocol version the server speaks.
        proto_version: u32,
        /// Server identity string.
        server: String,
    },
    /// A submission was accepted (or served straight from the journal).
    Submitted {
        /// Server-assigned job id (stable across resubmission and restart).
        job: String,
        /// Job kind.
        kind: String,
        /// Echo of the client's tag, if any.
        tag: Option<String>,
        /// The job's terminal state was replayed from the journal; no work
        /// was scheduled.
        replayed: bool,
    },
    /// Answer to `status`.
    JobStatus {
        /// Job id.
        job: String,
        /// `queued|running|done|failed|cancelled`.
        state: String,
        /// Echo of the submission tag, if any.
        tag: Option<String>,
        /// Failure message when `state` is `failed`.
        error: Option<String>,
        /// Result payload when `state` is `done`.
        result: Option<JobResult>,
    },
    /// Answer to `cancel_job`.
    Cancelled {
        /// Job id.
        job: String,
        /// Did the cancellation take effect (job was still queued)?
        ok: bool,
        /// The job's state after the attempt.
        state: String,
    },
    /// Answer to `stats`.
    Stats(StatsReport),
    /// Any request-level failure.
    Error {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable description.
        message: String,
    },
    /// Acknowledgement of `shutdown`; the last line the server writes.
    Bye,
    /// Successful `worker_register`.
    WorkerOk {
        /// Server-assigned worker id (echo this in every worker-plane
        /// request).
        worker: String,
        /// Lease TTL in milliseconds: a lease not renewed within this
        /// window expires and its job is reassigned.
        lease_ttl_ms: u64,
    },
    /// Answer to `lease_request`: run the enclosed job and report within
    /// the TTL.
    LeaseGrant {
        /// Lease id (unique per coordinator process).
        lease: String,
        /// Content-hashed job id.
        job: String,
        /// Job kind (`trace|generate|simulate|campaign`).
        kind: String,
        /// Parameters for single-pipeline kinds.
        params: Option<JobParams>,
        /// Matrix document for campaign jobs.
        matrix: Option<String>,
        /// Lease TTL in milliseconds.
        ttl_ms: u64,
    },
    /// Answer to `lease_request` when nothing is leasable.
    NoWork {
        /// Suggested poll delay in milliseconds.
        retry_ms: u64,
        /// The server is shutting down: finish held leases and exit.
        draining: bool,
    },
    /// Answer to `heartbeat`: the renewed TTL plus any listed leases the
    /// worker no longer holds (expired or reassigned — abandon them).
    HeartbeatOk {
        /// Lease TTL in milliseconds, from now.
        ttl_ms: u64,
        /// Leases from the request that are no longer held.
        expired: Vec<String>,
    },
    /// Answer to `job_complete` / `job_fail`.
    CompleteOk {
        /// The job the report named.
        job: String,
        /// Whether the report was accepted. A stale lease, duplicate
        /// report, or checksum mismatch is discarded idempotently with
        /// `accepted: false` — never an `error`.
        accepted: bool,
        /// Why a report was discarded, when it was.
        reason: Option<String>,
    },
}

// --------------------------------------------------------------- encoding

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn u(v: u64) -> Json {
    Json::Num(v as f64)
}

fn push_opt(members: &mut Vec<(&str, Json)>, key: &'static str, v: &Option<String>) {
    if let Some(v) = v {
        members.push((key, s(v)));
    }
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|x| s(x)).collect())
}

fn params_fields(members: &mut Vec<(&str, Json)>, p: &JobParams) {
    members.push(("app", s(&p.app)));
    members.push(("ranks", u(p.ranks as u64)));
    members.push(("class", s(&p.class)));
    members.push(("network", s(&p.network)));
    if let Some(i) = p.iterations {
        members.push(("iterations", u(i as u64)));
    }
    members.push(("align", Json::Bool(p.align)));
    members.push(("resolve", Json::Bool(p.resolve)));
    members.push(("comments", Json::Bool(p.comments)));
}

fn job_ref_fields(members: &mut Vec<(&str, Json)>, job: &JobRef) {
    match job {
        JobRef::Id(id) => members.push(("job", s(id))),
        JobRef::Tag(tag) => members.push(("tag", s(tag))),
    }
}

impl Request {
    /// The `type` discriminator this request encodes with.
    pub fn type_name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Trace { .. } => "trace",
            Request::Generate { .. } => "generate",
            Request::Simulate { .. } => "simulate",
            Request::Campaign { .. } => "campaign",
            Request::Status { .. } => "status",
            Request::CancelJob { .. } => "cancel_job",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::WorkerRegister { .. } => "worker_register",
            Request::LeaseRequest { .. } => "lease_request",
            Request::Heartbeat { .. } => "heartbeat",
            Request::JobComplete { .. } => "job_complete",
            Request::JobFail { .. } => "job_fail",
        }
    }

    /// Encode as a JSON value (`type` first, then the variant's fields).
    pub fn to_json(&self) -> Json {
        let mut m: Vec<(&str, Json)> = vec![("type", s(self.type_name()))];
        match self {
            Request::Hello {
                proto_version,
                client,
            } => {
                m.push(("proto_version", u(*proto_version as u64)));
                m.push(("client", s(client)));
            }
            Request::Trace { params, tag }
            | Request::Generate { params, tag }
            | Request::Simulate { params, tag } => {
                params_fields(&mut m, params);
                push_opt(&mut m, "tag", tag);
            }
            Request::Campaign { matrix, tag } => {
                m.push(("matrix", s(matrix)));
                push_opt(&mut m, "tag", tag);
            }
            Request::Status { job, wait } => {
                job_ref_fields(&mut m, job);
                m.push(("wait", Json::Bool(*wait)));
            }
            Request::CancelJob { job } => job_ref_fields(&mut m, job),
            Request::Stats | Request::Shutdown => {}
            Request::WorkerRegister { worker } | Request::LeaseRequest { worker } => {
                m.push(("worker", s(worker)));
            }
            Request::Heartbeat { worker, leases } => {
                m.push(("worker", s(worker)));
                m.push(("leases", str_arr(leases)));
            }
            Request::JobComplete {
                worker,
                lease,
                job,
                result,
            } => {
                m.push(("worker", s(worker)));
                m.push(("lease", s(lease)));
                m.push(("job", s(job)));
                m.push(("result", encode_result(result)));
            }
            Request::JobFail {
                worker,
                lease,
                job,
                error,
                transient,
            } => {
                m.push(("worker", s(worker)));
                m.push(("lease", s(lease)));
                m.push(("job", s(job)));
                m.push(("error", s(error)));
                m.push(("transient", Json::Bool(*transient)));
            }
        }
        obj(m)
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_compact()
    }

    /// Decode one wire line.
    pub fn from_line(line: &str) -> Result<Request, WireError> {
        let v = parse(line.trim()).map_err(WireError::Syntax)?;
        Request::from_json(&v)
    }

    /// Decode from a JSON value. Unknown fields are ignored; an unknown
    /// `type` is rejected.
    pub fn from_json(v: &Json) -> Result<Request, WireError> {
        let t = req_str(v, "type")?;
        match t.as_str() {
            "hello" => Ok(Request::Hello {
                proto_version: req_u64(v, "proto_version")? as u32,
                client: req_str(v, "client")?,
            }),
            "trace" => Ok(Request::Trace {
                params: decode_params(v)?,
                tag: opt_str(v, "tag")?,
            }),
            "generate" => Ok(Request::Generate {
                params: decode_params(v)?,
                tag: opt_str(v, "tag")?,
            }),
            "simulate" => Ok(Request::Simulate {
                params: decode_params(v)?,
                tag: opt_str(v, "tag")?,
            }),
            "campaign" => Ok(Request::Campaign {
                matrix: req_str(v, "matrix")?,
                tag: opt_str(v, "tag")?,
            }),
            "status" => Ok(Request::Status {
                job: decode_job_ref(v)?,
                wait: opt_bool(v, "wait")?.unwrap_or(false),
            }),
            "cancel_job" => Ok(Request::CancelJob {
                job: decode_job_ref(v)?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "worker_register" => Ok(Request::WorkerRegister {
                worker: req_str(v, "worker")?,
            }),
            "lease_request" => Ok(Request::LeaseRequest {
                worker: req_str(v, "worker")?,
            }),
            "heartbeat" => Ok(Request::Heartbeat {
                worker: req_str(v, "worker")?,
                leases: opt_str_arr(v, "leases")?,
            }),
            "job_complete" => Ok(Request::JobComplete {
                worker: req_str(v, "worker")?,
                lease: req_str(v, "lease")?,
                job: req_str(v, "job")?,
                result: decode_result(v.get("result").ok_or(WireError::Missing("result"))?)?,
            }),
            "job_fail" => Ok(Request::JobFail {
                worker: req_str(v, "worker")?,
                lease: req_str(v, "lease")?,
                job: req_str(v, "job")?,
                error: req_str(v, "error")?,
                transient: opt_bool(v, "transient")?.unwrap_or(false),
            }),
            other => Err(WireError::UnknownVariant(other.to_string())),
        }
    }
}

impl Response {
    /// The `type` discriminator this response encodes with.
    pub fn type_name(&self) -> &'static str {
        match self {
            Response::HelloOk { .. } => "hello_ok",
            Response::Submitted { .. } => "submitted",
            Response::JobStatus { .. } => "job_status",
            Response::Cancelled { .. } => "cancelled",
            Response::Stats(_) => "stats",
            Response::Error { .. } => "error",
            Response::Bye => "bye",
            Response::WorkerOk { .. } => "worker_ok",
            Response::LeaseGrant { .. } => "lease_grant",
            Response::NoWork { .. } => "no_work",
            Response::HeartbeatOk { .. } => "heartbeat_ok",
            Response::CompleteOk { .. } => "complete_ok",
        }
    }

    /// Encode as a JSON value.
    pub fn to_json(&self) -> Json {
        let mut m: Vec<(&str, Json)> = vec![("type", s(self.type_name()))];
        match self {
            Response::HelloOk {
                proto_version,
                server,
            } => {
                m.push(("proto_version", u(*proto_version as u64)));
                m.push(("server", s(server)));
            }
            Response::Submitted {
                job,
                kind,
                tag,
                replayed,
            } => {
                m.push(("job", s(job)));
                m.push(("kind", s(kind)));
                push_opt(&mut m, "tag", tag);
                m.push(("replayed", Json::Bool(*replayed)));
            }
            Response::JobStatus {
                job,
                state,
                tag,
                error,
                result,
            } => {
                m.push(("job", s(job)));
                m.push(("state", s(state)));
                push_opt(&mut m, "tag", tag);
                push_opt(&mut m, "error", error);
                if let Some(r) = result {
                    m.push(("result", encode_result(r)));
                }
            }
            Response::Cancelled { job, ok, state } => {
                m.push(("job", s(job)));
                m.push(("ok", Json::Bool(*ok)));
                m.push(("state", s(state)));
            }
            Response::Stats(r) => encode_stats(&mut m, r),
            Response::Error { code, message } => {
                m.push(("code", s(code)));
                m.push(("message", s(message)));
            }
            Response::Bye => {}
            Response::WorkerOk {
                worker,
                lease_ttl_ms,
            } => {
                m.push(("worker", s(worker)));
                m.push(("lease_ttl_ms", u(*lease_ttl_ms)));
            }
            Response::LeaseGrant {
                lease,
                job,
                kind,
                params,
                matrix,
                ttl_ms,
            } => {
                m.push(("lease", s(lease)));
                m.push(("job", s(job)));
                m.push(("kind", s(kind)));
                if let Some(p) = params {
                    params_fields(&mut m, p);
                }
                push_opt(&mut m, "matrix", matrix);
                m.push(("ttl_ms", u(*ttl_ms)));
            }
            Response::NoWork { retry_ms, draining } => {
                m.push(("retry_ms", u(*retry_ms)));
                m.push(("draining", Json::Bool(*draining)));
            }
            Response::HeartbeatOk { ttl_ms, expired } => {
                m.push(("ttl_ms", u(*ttl_ms)));
                m.push(("expired", str_arr(expired)));
            }
            Response::CompleteOk {
                job,
                accepted,
                reason,
            } => {
                m.push(("job", s(job)));
                m.push(("accepted", Json::Bool(*accepted)));
                push_opt(&mut m, "reason", reason);
            }
        }
        obj(m)
    }

    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_compact()
    }

    /// Decode one wire line.
    pub fn from_line(line: &str) -> Result<Response, WireError> {
        let v = parse(line.trim()).map_err(WireError::Syntax)?;
        Response::from_json(&v)
    }

    /// Decode from a JSON value (same compat rules as requests).
    pub fn from_json(v: &Json) -> Result<Response, WireError> {
        let t = req_str(v, "type")?;
        match t.as_str() {
            "hello_ok" => Ok(Response::HelloOk {
                proto_version: req_u64(v, "proto_version")? as u32,
                server: req_str(v, "server")?,
            }),
            "submitted" => Ok(Response::Submitted {
                job: req_str(v, "job")?,
                kind: req_str(v, "kind")?,
                tag: opt_str(v, "tag")?,
                replayed: opt_bool(v, "replayed")?.unwrap_or(false),
            }),
            "job_status" => Ok(Response::JobStatus {
                job: req_str(v, "job")?,
                state: req_str(v, "state")?,
                tag: opt_str(v, "tag")?,
                error: opt_str(v, "error")?,
                result: match v.get("result") {
                    Some(r) => Some(decode_result(r)?),
                    None => None,
                },
            }),
            "cancelled" => Ok(Response::Cancelled {
                job: req_str(v, "job")?,
                ok: opt_bool(v, "ok")?.unwrap_or(false),
                state: req_str(v, "state")?,
            }),
            "stats" => Ok(Response::Stats(decode_stats(v)?)),
            "error" => Ok(Response::Error {
                code: req_str(v, "code")?,
                message: req_str(v, "message")?,
            }),
            "bye" => Ok(Response::Bye),
            "worker_ok" => Ok(Response::WorkerOk {
                worker: req_str(v, "worker")?,
                lease_ttl_ms: req_u64(v, "lease_ttl_ms")?,
            }),
            "lease_grant" => Ok(Response::LeaseGrant {
                lease: req_str(v, "lease")?,
                job: req_str(v, "job")?,
                kind: req_str(v, "kind")?,
                // Single-pipeline grants carry flat params (an `app` field,
                // like the submit requests); campaign grants carry `matrix`.
                params: match v.get("app") {
                    Some(_) => Some(decode_params(v)?),
                    None => None,
                },
                matrix: opt_str(v, "matrix")?,
                ttl_ms: req_u64(v, "ttl_ms")?,
            }),
            "no_work" => Ok(Response::NoWork {
                retry_ms: opt_u64(v, "retry_ms")?.unwrap_or(0),
                draining: opt_bool(v, "draining")?.unwrap_or(false),
            }),
            "heartbeat_ok" => Ok(Response::HeartbeatOk {
                ttl_ms: req_u64(v, "ttl_ms")?,
                expired: opt_str_arr(v, "expired")?,
            }),
            "complete_ok" => Ok(Response::CompleteOk {
                job: req_str(v, "job")?,
                accepted: opt_bool(v, "accepted")?.unwrap_or(false),
                reason: opt_str(v, "reason")?,
            }),
            other => Err(WireError::UnknownVariant(other.to_string())),
        }
    }
}

fn encode_result(r: &JobResult) -> Json {
    let mut m: Vec<(&str, Json)> = vec![("kind", s(&r.kind)), ("cached", Json::Bool(r.cached))];
    let opt_u = |m: &mut Vec<(&str, Json)>, k: &'static str, v: Option<u64>| {
        if let Some(v) = v {
            m.push((k, u(v)));
        }
    };
    let opt_f = |m: &mut Vec<(&str, Json)>, k: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            m.push((k, Json::Num(v)));
        }
    };
    opt_u(&mut m, "t_app_ns", r.t_app_ns);
    opt_u(&mut m, "t_gen_ns", r.t_gen_ns);
    opt_f(&mut m, "err_pct", r.err_pct);
    opt_u(&mut m, "ok", r.ok);
    opt_u(&mut m, "failed", r.failed);
    opt_u(&mut m, "timed_out", r.timed_out);
    opt_f(&mut m, "mape", r.mape);
    m.push((
        "artifacts",
        Json::Arr(
            r.artifacts
                .iter()
                .map(|a| {
                    obj(vec![
                        ("name", s(&a.name)),
                        ("fnv", s(&a.fnv)),
                        ("text", s(&a.text)),
                    ])
                })
                .collect(),
        ),
    ));
    obj(m)
}

fn decode_result(v: &Json) -> Result<JobResult, WireError> {
    let mut artifacts = Vec::new();
    if let Some(items) = v.get("artifacts").and_then(Json::as_arr) {
        for a in items {
            artifacts.push(Artifact {
                name: plain_file_name(req_str(a, "name")?)?,
                fnv: req_str(a, "fnv")?,
                text: req_str(a, "text")?,
            });
        }
    }
    Ok(JobResult {
        kind: req_str(v, "kind")?,
        cached: opt_bool(v, "cached")?.unwrap_or(false),
        t_app_ns: opt_u64(v, "t_app_ns")?,
        t_gen_ns: opt_u64(v, "t_gen_ns")?,
        err_pct: opt_f64(v, "err_pct")?,
        ok: opt_u64(v, "ok")?,
        failed: opt_u64(v, "failed")?,
        timed_out: opt_u64(v, "timed_out")?,
        mape: opt_f64(v, "mape")?,
        artifacts,
    })
}

/// Both ends write an artifact to `dir.join(name)`, and the name comes from
/// the peer: anything but a plain file name could land outside `dir`.
fn plain_file_name(name: String) -> Result<String, WireError> {
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\', '\0']) {
        return Err(WireError::Bad(
            "name",
            format!("{name:?} is not a plain file name"),
        ));
    }
    Ok(name)
}

fn encode_stats(m: &mut Vec<(&str, Json)>, r: &StatsReport) {
    m.push((
        "jobs",
        obj(vec![
            ("queued", u(r.jobs_queued)),
            ("running", u(r.jobs_running)),
            ("done", u(r.jobs_done)),
            ("failed", u(r.jobs_failed)),
            ("cancelled", u(r.jobs_cancelled)),
            ("replayed", u(r.jobs_replayed)),
        ]),
    ));
    m.push((
        "cache",
        obj(vec![
            ("mem_hits", u(r.mem_hits)),
            ("mem_misses", u(r.mem_misses)),
            ("disk_hits", u(r.disk_hits)),
            ("evictions", u(r.evictions)),
            ("mem_entries", u(r.mem_entries)),
            ("mem_bytes", u(r.mem_bytes)),
        ]),
    ));
    // Omitted while all-default so a fleet-less server's stats line is
    // byte-identical to v1.0's (additive v1.x field, tolerated either way).
    if r.fleet != FleetStats::default() {
        m.push((
            "fleet",
            obj(vec![
                ("workers_seen", u(r.fleet.workers_seen)),
                ("workers_live", u(r.fleet.workers_live)),
                ("leases_granted", u(r.fleet.leases_granted)),
                ("leases_renewed", u(r.fleet.leases_renewed)),
                ("leases_expired", u(r.fleet.leases_expired)),
                ("leases_reassigned", u(r.fleet.leases_reassigned)),
                ("jobs_quarantined", u(r.fleet.jobs_quarantined)),
                ("completions_discarded", u(r.fleet.completions_discarded)),
            ]),
        ));
    }
    m.push((
        "clients",
        Json::Arr(
            r.clients
                .iter()
                .map(|c| {
                    obj(vec![
                        ("client", s(&c.client)),
                        (
                            "counters",
                            Json::Obj(c.counters.iter().map(|(k, v)| (k.clone(), u(*v))).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
}

fn decode_stats(v: &Json) -> Result<StatsReport, WireError> {
    let jobs = v.get("jobs").ok_or(WireError::Missing("jobs"))?;
    let cache = v.get("cache").ok_or(WireError::Missing("cache"))?;
    let sub = |o: &Json, k: &'static str| -> Result<u64, WireError> {
        o.get(k).and_then(Json::as_u64).ok_or(WireError::Missing(k))
    };
    let mut clients = Vec::new();
    if let Some(items) = v.get("clients").and_then(Json::as_arr) {
        for c in items {
            let mut counters = Vec::new();
            if let Some(Json::Obj(members)) = c.get("counters") {
                for (k, count) in members {
                    counters.push((
                        k.clone(),
                        count
                            .as_u64()
                            .ok_or(WireError::Bad("counters", format!("{count}")))?,
                    ));
                }
            }
            clients.push(ClientStats {
                client: req_str(c, "client")?,
                counters,
            });
        }
    }
    // A v1.0 stats line has no `fleet` object: default counters.
    let fleet = match v.get("fleet") {
        Some(f) => {
            let fsub = |k: &'static str| f.get(k).and_then(Json::as_u64).unwrap_or(0);
            FleetStats {
                workers_seen: fsub("workers_seen"),
                workers_live: fsub("workers_live"),
                leases_granted: fsub("leases_granted"),
                leases_renewed: fsub("leases_renewed"),
                leases_expired: fsub("leases_expired"),
                leases_reassigned: fsub("leases_reassigned"),
                jobs_quarantined: fsub("jobs_quarantined"),
                completions_discarded: fsub("completions_discarded"),
            }
        }
        None => FleetStats::default(),
    };
    Ok(StatsReport {
        jobs_queued: sub(jobs, "queued")?,
        jobs_running: sub(jobs, "running")?,
        jobs_done: sub(jobs, "done")?,
        jobs_failed: sub(jobs, "failed")?,
        jobs_cancelled: sub(jobs, "cancelled")?,
        jobs_replayed: sub(jobs, "replayed")?,
        mem_hits: sub(cache, "mem_hits")?,
        mem_misses: sub(cache, "mem_misses")?,
        disk_hits: sub(cache, "disk_hits")?,
        evictions: sub(cache, "evictions")?,
        mem_entries: sub(cache, "mem_entries")?,
        mem_bytes: sub(cache, "mem_bytes")?,
        fleet,
        clients,
    })
}

// --------------------------------------------------------------- decoding

fn req_str(v: &Json, key: &'static str) -> Result<String, WireError> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(other) => Err(WireError::Bad(key, format!("expected string, got {other}"))),
        None => Err(WireError::Missing(key)),
    }
}

fn opt_str(v: &Json, key: &'static str) -> Result<Option<String>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(WireError::Bad(key, format!("expected string, got {other}"))),
    }
}

fn opt_str_arr(v: &Json, key: &'static str) -> Result<Vec<String>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|x| match x {
                Json::Str(s) => Ok(s.clone()),
                other => Err(WireError::Bad(key, format!("expected string, got {other}"))),
            })
            .collect(),
        Some(other) => Err(WireError::Bad(key, format!("expected array, got {other}"))),
    }
}

fn req_u64(v: &Json, key: &'static str) -> Result<u64, WireError> {
    match v.get(key) {
        Some(n @ Json::Num(_)) => n
            .as_u64()
            .ok_or_else(|| WireError::Bad(key, format!("expected unsigned integer, got {n}"))),
        Some(other) => Err(WireError::Bad(key, format!("expected number, got {other}"))),
        None => Err(WireError::Missing(key)),
    }
}

/// `n` as a `u32`; a value that does not fit is refused, never truncated.
fn to_u32(key: &'static str, n: u64) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| WireError::Bad(key, format!("{n} does not fit in 32 bits")))
}

fn opt_u64(v: &Json, key: &'static str) -> Result<Option<u64>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => req_u64(v, key).map(Some),
    }
}

fn opt_f64(v: &Json, key: &'static str) -> Result<Option<f64>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(x)) => Ok(Some(*x)),
        Some(other) => Err(WireError::Bad(key, format!("expected number, got {other}"))),
    }
}

fn opt_bool(v: &Json, key: &'static str) -> Result<Option<bool>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(WireError::Bad(key, format!("expected bool, got {other}"))),
    }
}

fn decode_params(v: &Json) -> Result<JobParams, WireError> {
    Ok(JobParams {
        app: req_str(v, "app")?,
        ranks: to_u32("ranks", req_u64(v, "ranks")?)?,
        class: opt_str(v, "class")?.unwrap_or_else(|| "S".to_string()),
        network: opt_str(v, "network")?.unwrap_or_else(|| "bgl".to_string()),
        iterations: opt_u64(v, "iterations")?
            .map(|i| to_u32("iterations", i))
            .transpose()?,
        align: opt_bool(v, "align")?.unwrap_or(true),
        resolve: opt_bool(v, "resolve")?.unwrap_or(true),
        comments: opt_bool(v, "comments")?.unwrap_or(false),
    })
}

fn decode_job_ref(v: &Json) -> Result<JobRef, WireError> {
    match (opt_str(v, "job")?, opt_str(v, "tag")?) {
        (Some(id), _) => Ok(JobRef::Id(id)),
        (None, Some(tag)) => Ok(JobRef::Tag(tag)),
        (None, None) => Err(WireError::Missing("job")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_roundtrip() {
        let reqs = vec![
            Request::Hello {
                proto_version: PROTO_VERSION,
                client: "cli".into(),
            },
            Request::Trace {
                params: JobParams::new("ring", 4),
                tag: Some("t1".into()),
            },
            Request::Generate {
                params: JobParams {
                    iterations: Some(3),
                    comments: true,
                    ..JobParams::new("lu", 8)
                },
                tag: None,
            },
            Request::Simulate {
                params: JobParams::new("cg", 16),
                tag: Some("s".into()),
            },
            Request::Campaign {
                matrix: "apps = ring\nranks = 4\n".into(),
                tag: None,
            },
            Request::Status {
                job: JobRef::Id("trace.abc".into()),
                wait: true,
            },
            Request::Status {
                job: JobRef::Tag("t1".into()),
                wait: false,
            },
            Request::CancelJob {
                job: JobRef::Id("x".into()),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'), "framing: {line}");
            assert_eq!(Request::from_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn response_lines_roundtrip() {
        let resps = vec![
            Response::HelloOk {
                proto_version: 1,
                server: "commspec-server/0.1.0".into(),
            },
            Response::Submitted {
                job: "trace.0011223344556677".into(),
                kind: "trace".into(),
                tag: Some("t1".into()),
                replayed: true,
            },
            Response::JobStatus {
                job: "sim.1".into(),
                state: "done".into(),
                tag: None,
                error: None,
                result: Some(JobResult {
                    kind: "simulate".into(),
                    cached: true,
                    t_app_ns: Some(123_456_789),
                    t_gen_ns: Some(123_000_000),
                    err_pct: Some(0.375),
                    artifacts: vec![Artifact {
                        name: "profile.mpip".into(),
                        fnv: "00000000deadbeef".into(),
                        text: "routine calls\nMPI_Send 2\n".into(),
                    }],
                    ..JobResult::default()
                }),
            },
            Response::JobStatus {
                job: "x".into(),
                state: "failed".into(),
                tag: Some("t".into()),
                error: Some("unknown app nosuch".into()),
                result: None,
            },
            Response::Cancelled {
                job: "x".into(),
                ok: false,
                state: "running".into(),
            },
            Response::Stats(StatsReport {
                jobs_done: 3,
                mem_hits: 2,
                clients: vec![ClientStats {
                    client: "cli".into(),
                    counters: vec![("requests".into(), 9)],
                }],
                ..StatsReport::default()
            }),
            Response::Error {
                code: "unknown-variant".into(),
                message: "unknown message type `frobnicate`".into(),
            },
            Response::Bye,
        ];
        for r in resps {
            let line = r.to_line();
            assert!(!line.contains('\n'), "framing: {line}");
            assert_eq!(Response::from_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn worker_plane_lines_roundtrip() {
        let reqs = vec![
            Request::WorkerRegister {
                worker: "w1".into(),
            },
            Request::LeaseRequest {
                worker: "w1#3".into(),
            },
            Request::Heartbeat {
                worker: "w1#3".into(),
                leases: vec!["lease.1".into(), "lease.2".into()],
            },
            Request::Heartbeat {
                worker: "idle".into(),
                leases: vec![],
            },
            Request::JobComplete {
                worker: "w1#3".into(),
                lease: "lease.1".into(),
                job: "trace.00de53a67e8e0472".into(),
                result: JobResult {
                    kind: "trace".into(),
                    artifacts: vec![Artifact {
                        name: "trace.st".into(),
                        fnv: "0123456789abcdef".into(),
                        text: "trace nranks=4\n".into(),
                    }],
                    ..JobResult::default()
                },
            },
            Request::JobFail {
                worker: "w1#3".into(),
                lease: "lease.2".into(),
                job: "simulate.f18d02e8e17d3abf".into(),
                error: "panic: boom".into(),
                transient: false,
            },
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'), "framing: {line}");
            assert_eq!(Request::from_line(&line).unwrap(), r, "{line}");
        }
        let resps = vec![
            Response::WorkerOk {
                worker: "w1#3".into(),
                lease_ttl_ms: 10_000,
            },
            Response::LeaseGrant {
                lease: "lease.1".into(),
                job: "simulate.f18d02e8e17d3abf".into(),
                kind: "simulate".into(),
                params: Some(JobParams::new("ring", 4)),
                matrix: None,
                ttl_ms: 10_000,
            },
            Response::LeaseGrant {
                lease: "lease.2".into(),
                job: "campaign.1122334455667788".into(),
                kind: "campaign".into(),
                params: None,
                matrix: Some("apps = ring\nranks = 4\n".into()),
                ttl_ms: 500,
            },
            Response::NoWork {
                retry_ms: 50,
                draining: true,
            },
            Response::HeartbeatOk {
                ttl_ms: 10_000,
                expired: vec!["lease.1".into()],
            },
            Response::CompleteOk {
                job: "trace.00de53a67e8e0472".into(),
                accepted: false,
                reason: Some("lease expired".into()),
            },
        ];
        for r in resps {
            let line = r.to_line();
            assert!(!line.contains('\n'), "framing: {line}");
            assert_eq!(Response::from_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn fleet_stats_are_omitted_while_default_and_decode_when_absent() {
        // Byte-compat with v1.0: a fleet-less stats report encodes exactly
        // as before the worker plane existed...
        let plain = Response::Stats(StatsReport {
            jobs_done: 3,
            ..StatsReport::default()
        });
        assert!(!plain.to_line().contains("fleet"));
        // ...and a v1.0 line (no fleet object) decodes to default counters.
        assert_eq!(Response::from_line(&plain.to_line()).unwrap(), plain);
        // Once a worker has registered, the counters ride along and survive
        // the round-trip.
        let fleet = Response::Stats(StatsReport {
            fleet: FleetStats {
                workers_seen: 2,
                workers_live: 1,
                leases_granted: 9,
                leases_renewed: 30,
                leases_expired: 3,
                leases_reassigned: 2,
                jobs_quarantined: 1,
                completions_discarded: 4,
            },
            ..StatsReport::default()
        });
        let line = fleet.to_line();
        assert!(line.contains("\"fleet\""), "{line}");
        assert_eq!(Response::from_line(&line).unwrap(), fleet);
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let line =
            "{\"type\":\"status\",\"job\":\"j\",\"wait\":true,\"novel_v2_field\":{\"deep\":[1,2]}}";
        assert_eq!(
            Request::from_line(line).unwrap(),
            Request::Status {
                job: JobRef::Id("j".into()),
                wait: true
            }
        );
    }

    #[test]
    fn unknown_variants_are_rejected() {
        let err = Request::from_line("{\"type\":\"frobnicate\"}").unwrap_err();
        assert_eq!(err, WireError::UnknownVariant("frobnicate".into()));
        assert_eq!(err.code(), "unknown-variant");
        let err = Response::from_line("{\"type\":\"frobnicate\"}").unwrap_err();
        assert_eq!(err, WireError::UnknownVariant("frobnicate".into()));
    }

    #[test]
    fn malformed_and_incomplete_lines_are_structured_errors() {
        assert_eq!(Request::from_line("not json").unwrap_err().code(), "syntax");
        assert_eq!(
            Request::from_line("{\"type\":\"hello\",\"proto_version\":1}").unwrap_err(),
            WireError::Missing("client")
        );
        assert_eq!(
            Request::from_line("{\"type\":\"trace\",\"app\":\"ring\"}").unwrap_err(),
            WireError::Missing("ranks")
        );
        assert_eq!(
            Request::from_line("{\"type\":\"trace\",\"app\":\"ring\",\"ranks\":\"four\"}")
                .unwrap_err()
                .code(),
            "bad-field"
        );
        assert_eq!(
            Request::from_line("{\"type\":\"status\",\"wait\":true}").unwrap_err(),
            WireError::Missing("job")
        );
        // Counts past 32 bits are refused, not truncated: 2^32 + 4 ranks
        // once decoded as a 4-rank job, 2^32 + 2 iterations as 2.
        for (field, line) in [
            (
                "ranks",
                "{\"type\":\"simulate\",\"app\":\"ring\",\"ranks\":4294967300}",
            ),
            (
                "iterations",
                "{\"type\":\"simulate\",\"app\":\"ring\",\"ranks\":4,\"iterations\":4294967298}",
            ),
            (
                "iterations",
                "{\"type\":\"simulate\",\"app\":\"ring\",\"ranks\":4,\"iterations\":1000000000000}",
            ),
        ] {
            match Request::from_line(line).unwrap_err() {
                WireError::Bad(key, why) => {
                    assert_eq!(key, field, "{line}");
                    assert!(why.ends_with("does not fit in 32 bits"), "{why}");
                }
                other => panic!("{line}: {other:?}"),
            }
        }
        let max = "{\"type\":\"simulate\",\"app\":\"ring\",\"ranks\":4294967295}";
        match Request::from_line(max).unwrap() {
            Request::Simulate { params, .. } => assert_eq!(params.ranks, u32::MAX),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn params_defaults_match_the_batch_cli() {
        // Decoding a minimal submission fills in the commgen defaults, so a
        // terse client and the batch CLI produce the same artifacts.
        let line = "{\"type\":\"generate\",\"app\":\"ring\",\"ranks\":4}";
        match Request::from_line(line).unwrap() {
            Request::Generate { params, tag } => {
                assert_eq!(params, JobParams::new("ring", 4));
                assert!(tag.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn artifact_names_must_be_plain_file_names() {
        let result = |name: &str| JobResult {
            kind: "trace".into(),
            artifacts: vec![Artifact {
                name: name.into(),
                fnv: "0000000000000000".into(),
                text: String::new(),
            }],
            ..JobResult::default()
        };
        // What a worker sends the server, and what the server sends a client.
        let complete = |name: &str| Request::JobComplete {
            worker: "w".into(),
            lease: "lease.1".into(),
            job: "trace.1".into(),
            result: result(name),
        };
        let status = |name: &str| Response::JobStatus {
            job: "trace.1".into(),
            state: "done".into(),
            tag: None,
            error: None,
            result: Some(result(name)),
        };
        for name in [
            "",
            ".",
            "..",
            "../escape",
            "../../x",
            "/abs/path",
            "a/b",
            "..\\escape",
            "nul\0byte",
        ] {
            // Encoding does not judge; the receiving end does, both ways.
            let err = Request::from_line(&complete(name).to_line()).unwrap_err();
            assert_eq!(err.code(), "bad-field", "{name:?}");
            assert!(err.to_string().contains("plain file name"), "{err}");
            let err = Response::from_line(&status(name).to_line()).unwrap_err();
            assert!(matches!(err, WireError::Bad("name", _)), "{name:?}: {err}");
        }
        for name in ["trace.st", "program.ncptl", "profile.mpip", "..st", "a..b"] {
            assert_eq!(
                Request::from_line(&complete(name).to_line()).unwrap(),
                complete(name)
            );
            assert_eq!(
                Response::from_line(&status(name).to_line()).unwrap(),
                status(name)
            );
        }
    }

    #[test]
    fn wire_error_messages_name_the_problem() {
        assert!(WireError::Missing("job").to_string().contains("job"));
        assert!(WireError::UnknownVariant("x".into())
            .to_string()
            .contains('x'));
        assert!(WireError::Syntax("trailing".into())
            .to_string()
            .contains("trailing"));
        assert!(WireError::Bad("ranks", "nope".into())
            .to_string()
            .contains("ranks"));
    }
}
