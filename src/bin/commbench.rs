#![forbid(unsafe_code)]
//! `commbench` — campaign fleet runner: execute a declarative experiment
//! matrix (apps × ranks × classes × networks) through the full
//! trace → generate → execute → verify pipeline, in parallel, with trace
//! caching and JSONL telemetry.
//!
//! ```text
//! commbench --matrix sweep.txt                      # run a campaign
//! commbench --matrix sweep.txt --print-matrix       # expand without running
//! commbench --matrix sweep.txt --cache /tmp/cc      # trace cache location
//! commbench --matrix sweep.txt --log fleet.jsonl    # telemetry location
//! commbench --matrix sweep.txt --workers 8 --retries 2
//! ```
//!
//! The `chaos` subcommand runs the differential fault-injection campaign
//! over the miniapp registry: each app is traced once, then re-run under
//! `--seeds` seeded fault plans (latency jitter, link skew, delivery
//! reordering, slow ranks, stall windows) and the timing-independent
//! invariants are checked — identical mpiP profile, and an identical
//! resolved benchmark or a structured divergence record:
//!
//! ```text
//! commbench chaos --seeds 8                         # full registry, 8 plans each
//! commbench chaos --apps lu,cg --ranks 4 --network bgl
//! ```
//!
//! The `perf` subcommand runs the standing micro suite (compression, merge
//! and streaming-capture microbenches plus the cache-routed trace →
//! generate → execute pipeline over the registry) with warmup + median-of-N
//! timing, and writes `BENCH_pipeline.json`; `--check` gates the exact
//! counters and same-run ratios of a committed report, which transfer
//! across machines, and no wall time:
//!
//! ```text
//! commbench perf                                    # full suite
//! commbench perf --smoke --out /tmp/perf.json --check BENCH_pipeline.json  # the CI gate
//! ```
//!
//! The `resume` subcommand restarts an interrupted campaign from its JSONL
//! log (the write-ahead journal): jobs with a recorded terminal outcome
//! are replayed without rerunning, transient failures and the job the
//! crash cut short run again, and the log is extended in place:
//!
//! ```text
//! commbench resume --matrix sweep.txt --log fleet.jsonl
//! ```
//!
//! The `fsck` subcommand sweeps the trace cache for corruption (checksum
//! mismatches, orphaned sidecars, stranded tmp files), quarantines what it
//! finds so the next run regenerates it, and exits non-zero if anything
//! was condemned. With `--stream` it instead scans a streaming-capture
//! segment directory (see `capture`), verifying every STBS segment's
//! checksum and quarantining torn writes and unreachable segments:
//!
//! ```text
//! commbench fsck --cache .commbench-cache
//! commbench fsck --stream /tmp/capture.d
//! ```
//!
//! The `capture` subcommand traces one registry app with bounded-memory
//! streaming capture: compressed trace segments are sealed to `--dir`
//! *during* the run (so a `kill -9` loses at most the unsealed tail), and
//! the trace is reassembled from the segment files afterwards. `salvage`
//! performs that reassembly on its own — after a crash it recovers the
//! longest checksum-verified prefix. `convert` translates a whole trace
//! between the text format (`.st`) and the STBS binary (`.stbs`):
//!
//! ```text
//! commbench capture --app lu --ranks 4 --dir /tmp/capture.d --budget 4096
//! commbench salvage --dir /tmp/capture.d --out recovered.st
//! commbench convert trace.st trace.stbs
//! commbench convert trace.stbs trace.st
//! ```
//!
//! Exit status is success iff every expanded job succeeded.

use campaign::matrix::MAX_WORKERS;
use campaign::{
    resume_campaign, run_campaign, run_jobs, CampaignSpec, FleetOptions, JobSpec, Journal,
    SpecError, Telemetry, TraceCache,
};
use commspec::cli::{read_trace, trace_path, write_trace, Argv};
use commspec::perf::{self, PerfConfig};
use miniapps::{registry, Class};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    matrix: String,
    print_matrix: bool,
    common: Common,
}

/// Flags shared by both modes.
struct Common {
    cache_dir: PathBuf,
    log: PathBuf,
    workers: Option<usize>,
    retries: Option<u32>,
}

impl Common {
    fn new() -> Common {
        Common {
            cache_dir: PathBuf::from(".commbench-cache"),
            log: PathBuf::from("campaign.jsonl"),
            workers: None,
            retries: None,
        }
    }
}

struct ChaosArgs {
    seeds: usize,
    apps: Vec<String>,
    ranks: usize,
    network: String,
    iterations: usize,
    common: Common,
}

struct FsckArgs {
    cache_dir: PathBuf,
    stream_dir: Option<PathBuf>,
}

struct ConvertArgs {
    input: PathBuf,
    output: PathBuf,
}

struct CaptureArgs {
    app: String,
    ranks: usize,
    iterations: Option<usize>,
    dir: PathBuf,
    budget: usize,
    max_window: Option<usize>,
    network: String,
    event_delay_us: u64,
    out: Option<PathBuf>,
}

impl CaptureArgs {
    /// The job these flags describe; captures run class S.
    fn job(&self) -> JobSpec {
        JobSpec {
            iterations: self.iterations,
            ..JobSpec::new(&self.app, self.ranks, Class::S, &self.network)
        }
    }
}

struct SalvageArgs {
    dir: PathBuf,
    out: Option<PathBuf>,
}

struct ServeArgs {
    stdio: bool,
    addr: String,
    state_dir: PathBuf,
    workers: usize,
    rate: f64,
    burst: f64,
    inflight: usize,
    lease_ttl_ms: u64,
    reassign_backoff_ms: u64,
    poison: u32,
}

struct ClientArgs {
    addr: String,
    name: String,
    submit: Option<String>,
    app: String,
    ranks: u32,
    class: String,
    network: String,
    iterations: Option<u32>,
    matrix: Option<String>,
    tag: Option<String>,
    out: Option<PathBuf>,
    stats: bool,
    shutdown: bool,
    connect_retries: u32,
    connect_backoff_ms: u64,
}

struct WorkerArgs {
    stdio: bool,
    addr: Option<String>,
    name: Option<String>,
    state_dir: PathBuf,
    connect_retries: u32,
    connect_backoff_ms: u64,
}

enum Cmd {
    Matrix(Args),
    Resume(Args),
    Chaos(ChaosArgs),
    Perf(PerfConfig),
    Fsck(FsckArgs),
    Convert(ConvertArgs),
    Capture(CaptureArgs),
    Salvage(SalvageArgs),
    Serve(ServeArgs),
    Client(ClientArgs),
    Worker(WorkerArgs),
}

fn parse_args() -> Result<Cmd, String> {
    parse_argv(std::env::args().skip(1).collect())
}

/// One subcommand: the word [`parse_argv`] dispatches on, its usage line —
/// what its own `--help` and the top-level help both print — and its
/// parser.
struct Verb {
    name: &'static str,
    usage: &'static str,
    parse: fn(&[String]) -> Result<Cmd, String>,
}

const MATRIX_USAGE: &str = "commbench --matrix FILE [--print-matrix] [--cache DIR] \
     [--log FILE.jsonl] [--workers N] [--retries N]";
const SERVE_USAGE: &str = "commbench serve [--stdio | --addr HOST:PORT] [--state DIR] \
     [--workers N] [--rate PER_SEC] [--burst N] [--inflight N] \
     [--lease-ttl-ms MS] [--reassign-backoff-ms MS] [--poison N]";
const CLIENT_USAGE: &str = "commbench client --addr HOST:PORT [--name ID] \
     [--submit trace|generate|simulate [--app A] [--ranks N] [--class S|W|A|B|C] \
     [--network ideal|bgl|ethernet] [--iterations N] [--tag T] [--out DIR]] \
     [--matrix FILE] [--stats] [--shutdown] [--connect-retries N] \
     [--connect-backoff-ms MS]";
const WORKER_USAGE: &str = "commbench worker (--connect HOST:PORT | --stdio) [--name ID] \
     [--state DIR] [--connect-retries N] [--connect-backoff-ms MS]";
const CHAOS_USAGE: &str = "commbench chaos [--seeds N] [--apps A,B] [--ranks N] \
     [--network ideal|bgl|ethernet] [--iterations N] [--cache DIR] [--log FILE.jsonl] \
     [--workers N] [--retries N]";
const PERF_USAGE: &str = "commbench perf [--smoke] [--reps N] [--warmup N] [--cache DIR] \
     [--out FILE.json] [--check BASELINE.json] [--threads N]";
const RESUME_USAGE: &str = "commbench resume --matrix FILE [--cache DIR] [--log FILE.jsonl] \
     [--workers N] [--retries N]";
const FSCK_USAGE: &str = "commbench fsck [--cache DIR | --stream SEGMENT_DIR]";
const CONVERT_USAGE: &str = "commbench convert INPUT OUTPUT \
     (formats inferred from extensions: .st text, .stbs binary; \
     any STBS version is read, the newest is written)";
const CAPTURE_USAGE: &str = "commbench capture --app NAME [--ranks N] [--iterations N] \
     [--dir DIR] [--budget NODES] [--max-window N] [--network ideal|bgl|ethernet] \
     [--event-delay-us N] [--out TRACE.st|.stbs]";
const SALVAGE_USAGE: &str = "commbench salvage [--dir SEGMENT_DIR] [--out TRACE.st|.stbs]";

const VERBS: &[Verb] = &[
    Verb {
        name: "serve",
        usage: SERVE_USAGE,
        parse: |argv| parse_serve(argv).map(Cmd::Serve),
    },
    Verb {
        name: "client",
        usage: CLIENT_USAGE,
        parse: |argv| parse_client(argv).map(Cmd::Client),
    },
    Verb {
        name: "worker",
        usage: WORKER_USAGE,
        parse: |argv| parse_worker(argv).map(Cmd::Worker),
    },
    Verb {
        name: "chaos",
        usage: CHAOS_USAGE,
        parse: |argv| parse_chaos(argv).map(Cmd::Chaos),
    },
    Verb {
        name: "perf",
        usage: PERF_USAGE,
        parse: |argv| parse_perf(argv).map(Cmd::Perf),
    },
    Verb {
        name: "resume",
        usage: RESUME_USAGE,
        parse: |argv| parse_matrix(argv).map(Cmd::Resume),
    },
    Verb {
        name: "fsck",
        usage: FSCK_USAGE,
        parse: |argv| parse_fsck(argv).map(Cmd::Fsck),
    },
    Verb {
        name: "convert",
        usage: CONVERT_USAGE,
        parse: |argv| parse_convert(argv).map(Cmd::Convert),
    },
    Verb {
        name: "capture",
        usage: CAPTURE_USAGE,
        parse: |argv| parse_capture(argv).map(Cmd::Capture),
    },
    Verb {
        name: "salvage",
        usage: SALVAGE_USAGE,
        parse: |argv| parse_salvage(argv).map(Cmd::Salvage),
    },
];

/// `commbench --help`: matrix mode, then every verb's own usage line.
fn help() -> String {
    let mut text = format!("usage: {MATRIX_USAGE}");
    for verb in VERBS {
        text.push_str("\nor:    ");
        text.push_str(verb.usage);
    }
    text
}

fn parse_argv(argv: Vec<String>) -> Result<Cmd, String> {
    match argv.first().map(String::as_str) {
        // A word that is not a flag is a subcommand. A misspelled one is
        // rejected with a usage pointer instead of silently treated as
        // matrix mode (which would report the confusing "--matrix is
        // required").
        Some(word) if !word.starts_with('-') => match VERBS.iter().find(|v| v.name == word) {
            Some(verb) => (verb.parse)(&argv[1..]),
            None => {
                let names: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
                let (last, rest) = names.split_last().expect("there are verbs");
                Err(format!(
                    "unknown subcommand {word} (expected {}, or {last}, or --matrix to \
                     run a campaign; try --help)",
                    rest.join(", ")
                ))
            }
        },
        _ => parse_matrix(&argv).map(Cmd::Matrix),
    }
}

/// Parse a flag shared by both modes; returns false if `flag` is not one.
fn parse_common(common: &mut Common, flag: &str, argv: &mut Argv) -> Result<bool, String> {
    match flag {
        "--cache" => common.cache_dir = argv.path()?,
        "--log" => common.log = argv.path()?,
        "--workers" => {
            let n = argv.parsed()?;
            // The same range a matrix's `workers` key is held to.
            if !(1..=MAX_WORKERS).contains(&n) {
                return Err(format!("--workers must be 1 to {MAX_WORKERS}"));
            }
            common.workers = Some(n);
        }
        "--retries" => common.retries = Some(argv.parsed()?),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_serve(argv: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        stdio: false,
        addr: "127.0.0.1:0".to_string(),
        state_dir: PathBuf::from(".commspec-server"),
        workers: 2,
        rate: 50.0,
        burst: 100.0,
        inflight: 16,
        lease_ttl_ms: 10_000,
        reassign_backoff_ms: 100,
        poison: 3,
    };
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        match flag {
            "--stdio" => args.stdio = true,
            "--addr" => args.addr = argv.value()?,
            "--state" => args.state_dir = argv.path()?,
            "--workers" => args.workers = argv.parsed()?,
            "--rate" => args.rate = argv.parsed()?,
            "--burst" => args.burst = argv.parsed()?,
            "--inflight" => args.inflight = argv.parsed()?,
            "--lease-ttl-ms" => args.lease_ttl_ms = argv.parsed()?,
            "--reassign-backoff-ms" => args.reassign_backoff_ms = argv.parsed()?,
            "--poison" => args.poison = argv.parsed()?,
            "--help" | "-h" => return Err(format!("usage: {SERVE_USAGE}")),
            _ => return Err(argv.unknown()),
        }
    }
    if args.inflight == 0 {
        return Err("--inflight must be at least 1".to_string());
    }
    if args.lease_ttl_ms == 0 {
        return Err("--lease-ttl-ms must be at least 1".to_string());
    }
    if args.poison == 0 {
        return Err("--poison must be at least 1".to_string());
    }
    Ok(args)
}

fn parse_worker(argv: &[String]) -> Result<WorkerArgs, String> {
    let mut args = WorkerArgs {
        stdio: false,
        addr: None,
        name: None,
        state_dir: PathBuf::from(".commspec-worker"),
        connect_retries: 5,
        connect_backoff_ms: 100,
    };
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        match flag {
            "--stdio" => args.stdio = true,
            "--connect" => args.addr = Some(argv.value()?),
            "--name" => args.name = Some(argv.value()?),
            "--state" => args.state_dir = argv.path()?,
            "--connect-retries" => args.connect_retries = argv.parsed()?,
            "--connect-backoff-ms" => args.connect_backoff_ms = argv.parsed()?,
            "--help" | "-h" => return Err(format!("usage: {WORKER_USAGE}")),
            _ => return Err(argv.unknown()),
        }
    }
    if args.stdio == args.addr.is_some() {
        return Err("exactly one of --connect or --stdio is required (try --help)".to_string());
    }
    if args.connect_retries == 0 {
        return Err("--connect-retries must be at least 1".to_string());
    }
    Ok(args)
}

fn parse_client(argv: &[String]) -> Result<ClientArgs, String> {
    let mut args = ClientArgs {
        addr: String::new(),
        name: "commbench".to_string(),
        submit: None,
        app: "ring".to_string(),
        ranks: 4,
        class: "S".to_string(),
        network: "bgl".to_string(),
        iterations: None,
        matrix: None,
        tag: None,
        out: None,
        stats: false,
        shutdown: false,
        connect_retries: 1,
        connect_backoff_ms: 100,
    };
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        match flag {
            "--addr" => args.addr = argv.value()?,
            "--name" => args.name = argv.value()?,
            "--submit" => args.submit = Some(argv.value()?),
            "--app" => args.app = argv.value()?,
            "--ranks" => args.ranks = argv.parsed()?,
            "--class" => args.class = argv.value()?,
            "--network" => args.network = argv.value()?,
            "--iterations" => args.iterations = Some(argv.parsed()?),
            "--matrix" => args.matrix = Some(argv.value()?),
            "--tag" => args.tag = Some(argv.value()?),
            "--out" => args.out = Some(argv.path()?),
            "--stats" => args.stats = true,
            "--shutdown" => args.shutdown = true,
            "--connect-retries" => args.connect_retries = argv.parsed()?,
            "--connect-backoff-ms" => args.connect_backoff_ms = argv.parsed()?,
            "--help" | "-h" => return Err(format!("usage: {CLIENT_USAGE}")),
            _ => return Err(argv.unknown()),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required (try --help)".to_string());
    }
    if args.connect_retries == 0 {
        return Err("--connect-retries must be at least 1".to_string());
    }
    if let Some(kind) = &args.submit {
        if !["trace", "generate", "simulate"].contains(&kind.as_str()) {
            return Err(format!(
                "bad --submit {kind} (expected trace, generate, or simulate)"
            ));
        }
    }
    if args.submit.is_none() && args.matrix.is_none() && !args.stats && !args.shutdown {
        return Err("nothing to do: pass --submit, --matrix, --stats, or --shutdown".to_string());
    }
    Ok(args)
}

fn parse_fsck(argv: &[String]) -> Result<FsckArgs, String> {
    let mut args = FsckArgs {
        cache_dir: PathBuf::from(".commbench-cache"),
        stream_dir: None,
    };
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        match flag {
            "--cache" => args.cache_dir = argv.path()?,
            "--stream" => args.stream_dir = Some(argv.path()?),
            "--help" | "-h" => return Err(format!("usage: {FSCK_USAGE}")),
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

fn parse_convert(argv: &[String]) -> Result<ConvertArgs, String> {
    let mut paths = Vec::new();
    let mut argv = Argv::new(argv);
    while let Some(arg) = argv.flag() {
        match arg {
            "--help" | "-h" => return Err(format!("usage: {CONVERT_USAGE}")),
            flag if flag.starts_with('-') => return Err(argv.unknown()),
            path => paths.push(trace_path(PathBuf::from(path))?),
        }
    }
    let [input, output] = <[PathBuf; 2]>::try_from(paths)
        .map_err(|_| format!("convert takes exactly two paths; usage: {CONVERT_USAGE}"))?;
    Ok(ConvertArgs { input, output })
}

fn parse_capture(argv: &[String]) -> Result<CaptureArgs, String> {
    let mut args = CaptureArgs {
        app: String::new(),
        ranks: 4,
        iterations: None,
        dir: PathBuf::from(".commbench-stream"),
        budget: 4096,
        max_window: None,
        network: "ideal".to_string(),
        event_delay_us: 0,
        out: None,
    };
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        match flag {
            "--app" => args.app = argv.value()?,
            "--ranks" => args.ranks = argv.parsed()?,
            "--iterations" => args.iterations = Some(argv.parsed()?),
            "--dir" => args.dir = argv.path()?,
            "--budget" => args.budget = argv.parsed()?,
            "--max-window" => args.max_window = Some(argv.parsed()?),
            "--network" => args.network = argv.value()?,
            "--event-delay-us" => args.event_delay_us = argv.parsed()?,
            "--out" => args.out = Some(trace_path(argv.path()?)?),
            "--help" | "-h" => return Err(format!("usage: {CAPTURE_USAGE}")),
            _ => return Err(argv.unknown()),
        }
    }
    if args.app.is_empty() {
        return Err("--app is required (try --help)".to_string());
    }
    if args.ranks == 0 {
        return Err("--ranks must be at least 1".to_string());
    }
    if args.max_window == Some(0) {
        return Err("--max-window must be at least 1".to_string());
    }
    args.job().validate()?;
    Ok(args)
}

fn parse_salvage(argv: &[String]) -> Result<SalvageArgs, String> {
    let mut args = SalvageArgs {
        dir: PathBuf::from(".commbench-stream"),
        out: None,
    };
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        match flag {
            "--dir" => args.dir = argv.path()?,
            "--out" => args.out = Some(trace_path(argv.path()?)?),
            "--help" | "-h" => return Err(format!("usage: {SALVAGE_USAGE}")),
            _ => return Err(argv.unknown()),
        }
    }
    Ok(args)
}

fn parse_matrix(argv: &[String]) -> Result<Args, String> {
    let mut matrix = None;
    let mut args = Args {
        matrix: String::new(),
        print_matrix: false,
        common: Common::new(),
    };
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        if parse_common(&mut args.common, flag, &mut argv)? {
            continue;
        }
        match flag {
            "--matrix" => matrix = Some(argv.value()?),
            "--print-matrix" => args.print_matrix = true,
            "--help" | "-h" => return Err(help()),
            _ => return Err(argv.unknown()),
        }
    }
    args.matrix = matrix.ok_or("--matrix is required (try --help)")?;
    Ok(args)
}

fn parse_chaos(argv: &[String]) -> Result<ChaosArgs, String> {
    let mut args = ChaosArgs {
        seeds: 4,
        apps: Vec::new(),
        ranks: 4,
        // Chaos needs a network with real transit times: on `ideal` (zero
        // latency) jitter and skew degenerate to no-ops.
        network: "bgl".to_string(),
        iterations: 3,
        common: Common::new(),
    };
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        if parse_common(&mut args.common, flag, &mut argv)? {
            continue;
        }
        match flag {
            "--seeds" => args.seeds = argv.parsed()?,
            "--apps" => {
                args.apps = argv
                    .value()?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--ranks" => args.ranks = argv.parsed()?,
            "--network" => args.network = argv.value()?,
            "--iterations" => args.iterations = argv.parsed()?,
            "--help" | "-h" => return Err(format!("usage: {CHAOS_USAGE}")),
            _ => return Err(argv.unknown()),
        }
    }
    if args.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    if args.ranks == 0 {
        return Err("--ranks must be at least 1".to_string());
    }
    // A rank count one app rejects only skips that app (see `chaos_jobs`);
    // anything else wrong with a job is wrong with the invocation.
    for job in chaos_candidates(&args) {
        match job.validate() {
            Ok(()) | Err(SpecError::InvalidRanks { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(args)
}

/// One job per requested app (default: the whole registry) at the
/// requested rank count, with the chaos differential step enabled.
fn chaos_candidates(args: &ChaosArgs) -> Vec<JobSpec> {
    let apps: Vec<&str> = if args.apps.is_empty() {
        registry::all().iter().map(|a| a.name).collect()
    } else {
        args.apps.iter().map(String::as_str).collect()
    };
    apps.into_iter()
        .map(|app| JobSpec {
            iterations: Some(args.iterations),
            chaos_seeds: args.seeds,
            ..JobSpec::new(app, args.ranks, Class::S, &args.network)
        })
        .collect()
}

/// Build the chaos job list. Apps whose decomposition rejects the rank
/// count are skipped.
fn chaos_jobs(args: &ChaosArgs) -> (Vec<JobSpec>, Vec<String>) {
    let mut jobs = Vec::new();
    let mut skipped = Vec::new();
    for job in chaos_candidates(args) {
        match job.validate() {
            Ok(()) => jobs.push(job),
            Err(e) => skipped.push(e.into()),
        }
    }
    (jobs, skipped)
}

fn parse_perf(argv: &[String]) -> Result<PerfConfig, String> {
    let mut cfg = PerfConfig::new();
    let mut argv = Argv::new(argv);
    while let Some(flag) = argv.flag() {
        match flag {
            "--smoke" => cfg.smoke = true,
            "--reps" => cfg.reps = Some(argv.parsed()?),
            "--warmup" => cfg.warmup = Some(argv.parsed()?),
            "--cache" => cfg.cache_dir = argv.path()?,
            "--out" => cfg.out = argv.path()?,
            "--check" => cfg.check = Some(argv.path()?),
            "--threads" => cfg.threads = Some(argv.parsed()?),
            "--help" | "-h" => return Err(format!("usage: {PERF_USAGE}")),
            _ => return Err(argv.unknown()),
        }
    }
    if cfg.reps == Some(0) {
        return Err("--reps must be at least 1".to_string());
    }
    if cfg.threads == Some(0) {
        return Err("--threads must be at least 1".to_string());
    }
    Ok(cfg)
}

/// What a verb made of its invocation. `Ok(false)`: it ran and its own
/// output says what is wrong (a failed job, a quarantined file). `Err`: it
/// could not; `main` prints the message.
type Verdict = Result<bool, String>;

fn main() -> ExitCode {
    let verdict = parse_args().and_then(|cmd| match cmd {
        Cmd::Matrix(args) => main_matrix(args),
        Cmd::Resume(args) => main_resume(args),
        Cmd::Chaos(args) => main_chaos(args),
        Cmd::Perf(cfg) => main_perf(cfg),
        Cmd::Fsck(args) => main_fsck(args),
        Cmd::Convert(args) => main_convert(args),
        Cmd::Capture(args) => main_capture(args),
        Cmd::Salvage(args) => main_salvage(args),
        Cmd::Serve(args) => main_serve(args),
        Cmd::Client(args) => main_client(args),
        Cmd::Worker(args) => main_worker(args),
    });
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// `path` made absolute through its directory, so a file that does not
/// exist yet still compares equal to the file it would become.
fn resolve(path: &Path) -> PathBuf {
    if let Ok(p) = path.canonicalize() {
        return p;
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    match (dir.canonicalize(), path.file_name()) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => path.to_path_buf(),
    }
}

fn main_perf(cfg: PerfConfig) -> Verdict {
    // The baseline is read before anything runs, and never from the file
    // this run writes: a run graded against its own output always passes.
    let baseline = match &cfg.check {
        Some(path) if resolve(path) == resolve(&cfg.out) => {
            return Err(format!(
                "perf: --check {} is also the --out file; pass --out elsewhere",
                path.display()
            ))
        }
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let json = perf::parse_json(&text)
                .map_err(|e| format!("bad baseline {}: {e}", path.display()))?;
            Some((path, json))
        }
        None => None,
    };
    let report = perf::run(&cfg).map_err(|msg| format!("perf suite failed: {msg}"))?;
    print!("{}", report.table());
    let text = format!("{}\n", report.to_json());
    std::fs::write(&cfg.out, &text)
        .map_err(|e| format!("cannot write {}: {e}", cfg.out.display()))?;
    eprintln!("perf: wrote {}", cfg.out.display());
    if let Some((baseline_path, committed)) = baseline {
        let errors = perf::check_regressions(&report, &committed);
        for e in &errors {
            eprintln!("perf check: {e}");
        }
        if !errors.is_empty() {
            return Ok(false);
        }
        eprintln!(
            "perf: no counter rose and no ratio rose >{:.0}% vs {}",
            perf::CHECK_TOLERANCE * 100.0,
            baseline_path.display()
        );
    }
    Ok(true)
}

fn open_cache(dir: &Path) -> Result<TraceCache, String> {
    TraceCache::open(dir).map_err(|e| format!("cannot open cache {}: {e}", dir.display()))
}

fn open_cache_and_log(common: &Common) -> Result<(TraceCache, Telemetry), String> {
    let cache = open_cache(&common.cache_dir)?;
    let telemetry = Telemetry::to_file(&common.log)
        .map_err(|e| format!("cannot open log {}: {e}", common.log.display()))?;
    Ok((cache, telemetry))
}

fn main_serve(args: ServeArgs) -> Verdict {
    let opts = server::ServerOptions {
        state_dir: args.state_dir.clone(),
        workers: args.workers,
        limits: server::QueueLimits {
            max_inflight: args.inflight,
            rate_per_sec: args.rate,
            burst: args.burst,
        },
        fleet: server::FleetConfig {
            lease_ttl: Duration::from_millis(args.lease_ttl_ms),
            reassign_backoff: Duration::from_millis(args.reassign_backoff_ms),
            poison_threshold: args.poison,
            ..server::FleetConfig::default()
        },
    };
    let (srv, restored) = server::Server::start(opts)
        .map_err(|e| format!("cannot start server in {}: {e}", args.state_dir.display()))?;
    if restored > 0 {
        eprintln!(
            "serve: restored {restored} journaled job(s) from {}",
            args.state_dir.display()
        );
    }
    if args.stdio {
        srv.serve_stdio();
    } else {
        srv.serve_tcp(&args.addr)
            .map_err(|e| format!("serve failed on {}: {e}", args.addr))?;
    }
    Ok(true)
}

fn unexpected(reply: &protocol::Response) -> String {
    format!("unexpected reply: {}", reply.type_name())
}

/// Wait for `job` and print its result, or write its artifacts under `out`.
fn wait_and_report(client: &mut server::Client, job: &str, out: &Option<PathBuf>) -> Verdict {
    let (state, error, result) = match client.wait(job)? {
        protocol::Response::JobStatus {
            state,
            error,
            result,
            ..
        } => (state, error, result),
        other => return Err(unexpected(&other)),
    };
    if let Some(e) = error {
        return Err(format!("{job}: {state}: {e}"));
    }
    let Some(r) = result else {
        eprintln!("{job}: {state}");
        return Ok(state == "done");
    };
    println!("{job}: {state} (cached: {})", r.cached);
    for a in &r.artifacts {
        let Some(dir) = out else {
            println!("  {} fnv {} ({} bytes)", a.name, a.fnv, a.text.len());
            continue;
        };
        let path = dir.join(&a.name);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, &a.text))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(state == "done")
}

fn client_submit(client: &mut server::Client, args: &ClientArgs, kind: &str) -> Verdict {
    let mut params = protocol::JobParams::new(&args.app, args.ranks);
    params.class = args.class.clone();
    params.network = args.network.clone();
    params.iterations = args.iterations;
    let (job, replayed) = client.submit(kind, params, args.tag.clone())?;
    eprintln!(
        "submitted {job}{}",
        if replayed { " (replayed)" } else { "" }
    );
    wait_and_report(client, &job, &args.out)
}

fn client_campaign(client: &mut server::Client, args: &ClientArgs, path: &str) -> Verdict {
    use protocol::{Request, Response};
    let matrix = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let tag = args.tag.clone();
    match client.request(&Request::Campaign { matrix, tag })? {
        Response::Submitted { job, replayed, .. } => {
            eprintln!(
                "submitted {job}{}",
                if replayed { " (replayed)" } else { "" }
            );
            wait_and_report(client, &job, &args.out)
        }
        Response::Error { code, message } => Err(format!("{code}: {message}")),
        other => Err(unexpected(&other)),
    }
}

fn client_stats(client: &mut server::Client) -> Verdict {
    let s = match client.request(&protocol::Request::Stats)? {
        protocol::Response::Stats(s) => s,
        other => return Err(unexpected(&other)),
    };
    println!(
        "jobs: {} queued, {} running, {} done, {} failed, {} cancelled, {} replayed",
        s.jobs_queued,
        s.jobs_running,
        s.jobs_done,
        s.jobs_failed,
        s.jobs_cancelled,
        s.jobs_replayed
    );
    println!("cache: {} hits", s.disk_hits);
    println!(
        "fleet: {} workers ({} live), {} leases granted, {} renewed, \
         {} expired, {} reassigned, {} quarantined, {} dup completions discarded",
        s.fleet.workers_seen,
        s.fleet.workers_live,
        s.fleet.leases_granted,
        s.fleet.leases_renewed,
        s.fleet.leases_expired,
        s.fleet.leases_reassigned,
        s.fleet.jobs_quarantined,
        s.fleet.completions_discarded
    );
    for c in &s.clients {
        let counters: Vec<String> = c.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("client {}: {}", c.client, counters.join(" "));
    }
    Ok(true)
}

fn main_client(args: ClientArgs) -> Verdict {
    let mut client = server::Client::connect_with(
        &args.addr,
        &args.name,
        args.connect_retries,
        Duration::from_millis(args.connect_backoff_ms),
    )?;
    eprintln!("connected to {}", client.server);

    // Every requested action runs, whatever became of the one before it.
    let settle = |step: Verdict| {
        step.unwrap_or_else(|e| {
            eprintln!("{e}");
            false
        })
    };
    let mut ok = true;
    if let Some(kind) = &args.submit {
        ok &= settle(client_submit(&mut client, &args, kind));
    }
    if let Some(path) = &args.matrix {
        ok &= settle(client_campaign(&mut client, &args, path));
    }
    if args.stats {
        ok &= settle(client_stats(&mut client));
    }
    if args.shutdown {
        ok &= settle(client.shutdown().map(|()| true));
    }
    Ok(ok)
}

fn main_worker(args: WorkerArgs) -> Verdict {
    let defaults = server::WorkerOptions::default();
    let opts = server::WorkerOptions {
        addr: args.addr,
        name: args.name.unwrap_or(defaults.name),
        state_dir: args.state_dir,
        connect_retries: args.connect_retries,
        connect_backoff: Duration::from_millis(args.connect_backoff_ms),
    };
    let done = server::run_worker(opts).map_err(|e| format!("worker failed: {e}"))?;
    eprintln!("worker exiting after {done} job(s)");
    Ok(true)
}

/// Read, parse, and flag-override the campaign spec named by `args`.
fn load_spec(args: &Args) -> Result<CampaignSpec, String> {
    let text = std::fs::read_to_string(&args.matrix)
        .map_err(|e| format!("cannot read {}: {e}", args.matrix))?;
    let mut spec =
        CampaignSpec::parse(&text).map_err(|e| format!("bad matrix {}: {e}", args.matrix))?;
    if let Some(w) = args.common.workers {
        spec.workers = w;
    }
    if let Some(r) = args.common.retries {
        spec.retries = r;
    }
    Ok(spec)
}

/// `why`, then one `skipped:` line per skip.
fn nothing_to_run(why: String, skipped: &[String]) -> String {
    skipped
        .iter()
        .fold(why, |msg, s| format!("{msg}\nskipped: {s}"))
}

fn main_matrix(args: Args) -> Verdict {
    let spec = load_spec(&args)?;
    let (jobs, skipped) = spec.expand();
    if args.print_matrix {
        for job in &jobs {
            println!("{}", job.id());
        }
        for s in &skipped {
            eprintln!("skipped: {s}");
        }
        return Ok(true);
    }
    if jobs.is_empty() {
        return Err(nothing_to_run(
            "matrix expands to no jobs (all combinations skipped)".to_string(),
            &skipped,
        ));
    }
    let (cache, telemetry) = open_cache_and_log(&args.common)?;
    eprintln!(
        "campaign: {} jobs on {} workers (cache {}, log {})",
        jobs.len(),
        spec.workers,
        args.common.cache_dir.display(),
        args.common.log.display()
    );
    let report = run_campaign(&spec, cache, telemetry);
    print!("{report}");
    Ok(report.all_ok())
}

fn main_resume(args: Args) -> Verdict {
    let spec = load_spec(&args)?;
    let log = &args.common.log;
    let journal = Journal::load(log).map_err(|e| {
        format!(
            "cannot read journal {}: {e}\n\
             (resume needs the JSONL log of the interrupted run — pass it with --log)",
            log.display()
        )
    })?;
    let cache = open_cache(&args.common.cache_dir)?;
    // Append, don't truncate: the log on disk is the journal being resumed.
    let telemetry = Telemetry::append_file(log)
        .map_err(|e| format!("cannot append to log {}: {e}", log.display()))?;

    eprintln!(
        "resume: {} journaled outcome(s){} in {}",
        journal.len(),
        if journal.torn > 0 {
            format!(" ({} torn line(s) ignored)", journal.torn)
        } else {
            String::new()
        },
        log.display()
    );
    let report = resume_campaign(&spec, cache, telemetry, &journal);
    print!("{report}");
    Ok(report.all_ok())
}

/// A sweep that condemned something exits non-zero so scripts notice; the
/// condemned files are already quarantined and regenerate on the next run.
fn main_fsck(args: FsckArgs) -> Verdict {
    if let Some(stream_dir) = &args.stream_dir {
        let report = scalatrace::stream::fsck_dir(stream_dir)
            .map_err(|e| format!("fsck failed on {}: {e}", stream_dir.display()))?;
        println!(
            "fsck {}: {} segment(s) ok, {} file(s) quarantined",
            stream_dir.display(),
            report.ok,
            report.quarantined.len()
        );
        for (path, reason) in &report.quarantined {
            println!("quarantined {}: {reason}", path.display());
        }
        return Ok(report.clean());
    }
    let report = open_cache(&args.cache_dir)?
        .fsck()
        .map_err(|e| format!("fsck failed on {}: {e}", args.cache_dir.display()))?;
    print!("fsck {}: {report}", args.cache_dir.display());
    Ok(report.clean())
}

/// Commit a recovered trace before its report touches stdout: if the
/// report's reader has gone away (`capture ... | head` closing the pipe
/// kills us), the trace must already be on disk.
fn write_recovered(out: &Option<PathBuf>, trace: &scalatrace::Trace) -> Result<(), String> {
    if let Some(out) = out {
        write_trace(out, trace)?;
        eprintln!("wrote {}", out.display());
    }
    Ok(())
}

/// Converting is also the upgrade path of the binary format: any version
/// is read, the newest is written, and both sides' sizes are reported.
fn main_convert(args: ConvertArgs) -> Verdict {
    let (trace, from) = read_trace(&args.input)?;
    let to = write_trace(&args.output, &trace)?;
    eprintln!(
        "converted {from} -> {to} ({} ranks, {} events)",
        trace.nranks,
        trace.concrete_event_count()
    );
    Ok(true)
}

fn main_capture(args: CaptureArgs) -> Verdict {
    let job = args.job();
    let (run_fn, params) = (job.app()?.run, job.params());
    let mut cfg = scalatrace::StreamConfig::new(&args.dir, args.budget);
    if let Some(w) = args.max_window {
        cfg = cfg.with_max_window(w);
    }
    if args.event_delay_us > 0 {
        cfg = cfg.with_event_delay(Duration::from_micros(args.event_delay_us));
    }
    let world = mpisim::world::World::new(args.ranks)
        .network(job.network_model()?)
        .op_budget(benchgen::OP_BUDGET);
    let streamed =
        scalatrace::trace_world_streamed(world, args.ranks, &cfg, move |ctx| run_fn(ctx, &params))
            .map_err(|e| format!("capture failed: {e}"))?;
    write_recovered(&args.out, &streamed.run.trace)?;
    let mut total = scalatrace::StreamCounters::default();
    for c in &streamed.counters {
        total.absorb(c);
    }
    println!(
        "captured {} on {} ranks into {}: {} events, {} segment(s) sealed, \
         {} reload(s), peak {} resident nodes (budget {}), {} seal error(s)",
        args.app,
        args.ranks,
        args.dir.display(),
        total.events,
        total.segments_sealed,
        total.segments_reloaded,
        total.peak_resident,
        cfg.budget(),
        total.seal_errors
    );
    print!("{}", streamed.salvage);
    if let Some(err) = &streamed.run.error {
        eprintln!("run ended early: {err}");
    }
    Ok(streamed.run.error.is_none() && streamed.salvage.complete() && total.seal_errors == 0)
}

fn main_salvage(args: SalvageArgs) -> Verdict {
    let (trace, report) = scalatrace::salvage_dir(&args.dir)
        .map_err(|e| format!("salvage failed on {}: {e}", args.dir.display()))?;
    write_recovered(&args.out, &trace)?;
    print!("{report}");
    // A partial prefix is still a successful salvage: the report says
    // which ranks stopped short, and the recovered trace is verified.
    Ok(true)
}

fn main_chaos(args: ChaosArgs) -> Verdict {
    let (jobs, skipped) = chaos_jobs(&args);
    if jobs.is_empty() {
        return Err(nothing_to_run(
            format!("no chaos jobs: every app rejected {} ranks", args.ranks),
            &skipped,
        ));
    }
    let (cache, telemetry) = open_cache_and_log(&args.common)?;

    let fleet = FleetOptions {
        workers: args.common.workers.unwrap_or(4),
        retries: args.common.retries.unwrap_or(1),
        ..FleetOptions::default()
    };
    eprintln!(
        "chaos: {} apps x {} seeds on {} ranks over {} ({} workers)",
        jobs.len(),
        args.seeds,
        args.ranks,
        args.network,
        fleet.workers
    );
    let report = run_jobs(jobs, skipped, &fleet, cache, telemetry);
    print!("{report}");
    Ok(report.all_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn matrix_args(s: &str) -> Args {
        match parse_argv(argv(s)).unwrap() {
            Cmd::Matrix(a) => a,
            _ => panic!("expected matrix mode"),
        }
    }

    fn chaos_args(s: &str) -> ChaosArgs {
        match parse_argv(argv(s)).unwrap() {
            Cmd::Chaos(a) => a,
            _ => panic!("expected chaos mode"),
        }
    }

    #[test]
    fn parses_typical_invocations() {
        let a = matrix_args("--matrix m.txt");
        assert_eq!(a.matrix, "m.txt");
        assert_eq!(a.common.cache_dir, PathBuf::from(".commbench-cache"));
        assert!(!a.print_matrix);

        let a = matrix_args("--matrix m.txt --cache /tmp/c --log f.jsonl --workers 8 --retries 2");
        assert_eq!(a.common.workers, Some(8));
        assert_eq!(a.common.retries, Some(2));
        assert_eq!(a.common.log, PathBuf::from("f.jsonl"));

        assert!(matrix_args("--matrix m.txt --print-matrix").print_matrix);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_argv(argv("")).is_err(), "matrix is required");
        assert!(parse_argv(argv("--matrix")).is_err(), "missing value");
        assert!(parse_argv(argv("--matrix m --workers 0")).is_err());
        assert!(parse_argv(argv("--matrix m --workers 9")).is_err());
        assert!(parse_argv(argv("resume --matrix m --workers 9")).is_err());
        assert_eq!(
            matrix_args("--matrix m --workers 8").common.workers,
            Some(8)
        );
        // No wall-clock knob: an op budget bounds every job.
        assert!(parse_argv(argv("--matrix m --timeout 120")).is_err());
        assert!(parse_argv(argv("--frobnicate")).is_err());
        assert!(
            parse_argv(argv("--help")).is_err(),
            "help surfaces as a message"
        );
    }

    #[test]
    fn parses_resume_and_fsck_invocations() {
        let a = match parse_argv(argv("resume --matrix m.txt --log old.jsonl --workers 2")).unwrap()
        {
            Cmd::Resume(a) => a,
            _ => panic!("expected resume mode"),
        };
        assert_eq!(a.matrix, "m.txt");
        assert_eq!(a.common.log, PathBuf::from("old.jsonl"));
        assert_eq!(a.common.workers, Some(2));
        assert!(
            parse_argv(argv("resume")).is_err(),
            "resume still requires --matrix"
        );

        let f = match parse_argv(argv("fsck --cache /tmp/cc")).unwrap() {
            Cmd::Fsck(f) => f,
            _ => panic!("expected fsck mode"),
        };
        assert_eq!(f.cache_dir, PathBuf::from("/tmp/cc"));
        let f = match parse_argv(argv("fsck")).unwrap() {
            Cmd::Fsck(f) => f,
            _ => panic!("expected fsck mode"),
        };
        assert_eq!(f.cache_dir, PathBuf::from(".commbench-cache"));
        assert!(f.stream_dir.is_none());
        let f = match parse_argv(argv("fsck --stream /tmp/seg.d")).unwrap() {
            Cmd::Fsck(f) => f,
            _ => panic!("expected fsck mode"),
        };
        assert_eq!(f.stream_dir, Some(PathBuf::from("/tmp/seg.d")));
        assert!(parse_argv(argv("fsck --matrix m.txt")).is_err());
        assert!(parse_argv(argv("fsck --cache")).is_err(), "missing value");
        assert!(parse_argv(argv("fsck --stream")).is_err(), "missing value");
        assert!(parse_argv(argv("fsck --help")).is_err());
    }

    #[test]
    fn parses_convert_invocations() {
        let c = match parse_argv(argv("convert in.st out.stbs")).unwrap() {
            Cmd::Convert(c) => c,
            _ => panic!("expected convert mode"),
        };
        assert_eq!(c.input, PathBuf::from("in.st"));
        assert_eq!(c.output, PathBuf::from("out.stbs"));
        let c = match parse_argv(argv("convert a.stbs b.st")).unwrap() {
            Cmd::Convert(c) => c,
            _ => panic!("expected convert mode"),
        };
        assert_eq!(c.input, PathBuf::from("a.stbs"));
        assert_eq!(c.output, PathBuf::from("b.st"));
        assert!(parse_argv(argv("convert")).is_err(), "two paths required");
        assert!(parse_argv(argv("convert only.st")).is_err());
        assert!(parse_argv(argv("convert a.st b.st c.st")).is_err());
        assert!(
            parse_argv(argv("convert a.st b.json")).is_err(),
            "unknown extension must be rejected"
        );
        assert!(parse_argv(argv("convert --frobnicate a.st b.st")).is_err());
        assert!(parse_argv(argv("convert --help")).is_err());
    }

    #[test]
    fn parses_capture_invocations() {
        let c = match parse_argv(argv(
            "capture --app ring --ranks 8 --iterations 5 --dir /tmp/seg.d \
             --budget 128 --network bgl --event-delay-us 250 --out t.stbs",
        ))
        .unwrap()
        {
            Cmd::Capture(c) => c,
            _ => panic!("expected capture mode"),
        };
        assert_eq!(c.app, "ring");
        assert_eq!(c.ranks, 8);
        assert_eq!(c.iterations, Some(5));
        assert_eq!(c.dir, PathBuf::from("/tmp/seg.d"));
        assert_eq!(c.budget, 128);
        assert_eq!(c.network, "bgl");
        assert_eq!(c.event_delay_us, 250);
        assert_eq!(c.out, Some(PathBuf::from("t.stbs")));
        let c = match parse_argv(argv("capture --app ring")).unwrap() {
            Cmd::Capture(c) => c,
            _ => panic!("expected capture mode"),
        };
        assert_eq!(c.ranks, 4);
        assert!(c.out.is_none());
        assert!(parse_argv(argv("capture")).is_err(), "--app is required");
        assert!(parse_argv(argv("capture --app nosuchapp")).is_err());
        assert!(parse_argv(argv("capture --app ring --ranks 0")).is_err());
        assert!(parse_argv(argv("capture --app ring --max-window 0")).is_err());
        assert!(parse_argv(argv("capture --app bt --ranks 3")).is_err());
        assert!(parse_argv(argv("capture --app ring --network myrinet")).is_err());
        assert!(parse_argv(argv("capture --app ring --out t.json")).is_err());
        assert!(parse_argv(argv("capture --help")).is_err());
    }

    #[test]
    fn parses_salvage_invocations() {
        let s = match parse_argv(argv("salvage --dir /tmp/seg.d --out t.st")).unwrap() {
            Cmd::Salvage(s) => s,
            _ => panic!("expected salvage mode"),
        };
        assert_eq!(s.dir, PathBuf::from("/tmp/seg.d"));
        assert_eq!(s.out, Some(PathBuf::from("t.st")));
        let s = match parse_argv(argv("salvage")).unwrap() {
            Cmd::Salvage(s) => s,
            _ => panic!("expected salvage mode"),
        };
        assert_eq!(s.dir, PathBuf::from(".commbench-stream"));
        assert!(parse_argv(argv("salvage --dir")).is_err(), "missing value");
        assert!(parse_argv(argv("salvage --out t.json")).is_err());
        assert!(parse_argv(argv("salvage --help")).is_err());
    }

    #[test]
    fn parses_chaos_invocations() {
        let a = chaos_args("chaos");
        assert_eq!(a.seeds, 4);
        assert!(a.apps.is_empty(), "defaults to the whole registry");
        assert_eq!(a.network, "bgl", "chaos needs real transit times");

        let a = chaos_args(
            "chaos --seeds 8 --apps lu,cg --ranks 4 --network ethernet \
             --iterations 2 --workers 2 --log c.jsonl",
        );
        assert_eq!(a.seeds, 8);
        assert_eq!(a.apps, vec!["lu", "cg"]);
        assert_eq!(a.ranks, 4);
        assert_eq!(a.network, "ethernet");
        assert_eq!(a.iterations, 2);
        assert_eq!(a.common.workers, Some(2));
        assert_eq!(a.common.log, PathBuf::from("c.jsonl"));
    }

    #[test]
    fn rejects_bad_chaos_invocations() {
        assert!(parse_argv(argv("chaos --seeds 0")).is_err());
        assert!(parse_argv(argv("chaos --workers 0")).is_err());
        assert!(parse_argv(argv("chaos --workers 9")).is_err());
        assert!(parse_argv(argv("chaos --workers 8")).is_ok());
        assert!(parse_argv(argv("chaos --ranks 0")).is_err());
        assert!(parse_argv(argv("chaos --network myrinet")).is_err());
        assert!(parse_argv(argv("chaos --apps nosuchapp")).is_err());
        assert!(parse_argv(argv("chaos --matrix m.txt")).is_err());
        assert!(parse_argv(argv("chaos --help")).is_err());
    }

    #[test]
    fn parses_perf_invocations() {
        let perf = |s: &str| match parse_argv(argv(s)).unwrap() {
            Cmd::Perf(cfg) => cfg,
            _ => panic!("expected perf mode"),
        };
        let cfg = perf("perf");
        assert!(!cfg.smoke);
        assert_eq!(cfg.out, PathBuf::from("BENCH_pipeline.json"));
        assert!(cfg.check.is_none());

        let cfg = perf(
            "perf --smoke --reps 7 --warmup 3 --cache /tmp/c \
             --out o.json --check BENCH_pipeline.json --threads 4",
        );
        assert!(cfg.smoke);
        assert_eq!(cfg.reps, Some(7));
        assert_eq!(cfg.warmup, Some(3));
        assert_eq!(cfg.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(cfg.out, PathBuf::from("o.json"));
        assert_eq!(cfg.check, Some(PathBuf::from("BENCH_pipeline.json")));
        assert_eq!(cfg.threads, Some(4));

        assert!(parse_argv(argv("perf --reps 0")).is_err());
        assert!(parse_argv(argv("perf --reps lots")).is_err());
        assert!(parse_argv(argv("perf --threads 0")).is_err());
        assert!(parse_argv(argv("perf --threads many")).is_err());
        assert!(parse_argv(argv("perf --baseline")).is_err());
        assert!(parse_argv(argv("perf --parallel-suites")).is_err());
        assert!(parse_argv(argv("perf --matrix m.txt")).is_err());
        assert!(parse_argv(argv("perf --help")).is_err());
    }

    #[test]
    fn unknown_subcommands_are_rejected_with_usage() {
        let err_of = |s: &str| match parse_argv(argv(s)) {
            Err(e) => e,
            Ok(_) => panic!("{s} should be rejected"),
        };
        let err = err_of("serv --stdio");
        assert!(err.contains("unknown subcommand serv"), "{err}");
        assert!(
            err.contains("serve, client, worker, chaos"),
            "points at valid ones"
        );
        let err = err_of("status");
        assert!(err.contains("unknown subcommand status"), "{err}");
        // Flags still reach matrix mode.
        assert!(matches!(
            parse_argv(argv("--matrix m.txt")),
            Ok(Cmd::Matrix(_))
        ));
    }

    #[test]
    fn top_level_help_carries_every_verbs_own_usage() {
        let err_of = |s: &str| parse_argv(argv(s)).err().expect("help is an error");
        let help = err_of("--help");
        assert!(
            help.starts_with(&format!("usage: {MATRIX_USAGE}")),
            "{help}"
        );
        let unknown = err_of("frobnicate");
        for verb in VERBS {
            assert!(
                verb.usage.starts_with(&format!("commbench {} ", verb.name)),
                "{}",
                verb.usage
            );
            assert!(
                help.contains(verb.usage),
                "{} missing from --help",
                verb.name
            );
            // The verb's own --help is the same line, reached through the
            // same table parse_argv dispatches on.
            let own = err_of(&format!("{} --help", verb.name));
            assert!(own.contains(verb.usage), "{}: {own}", verb.name);
            assert!(unknown.contains(verb.name), "{unknown}");
            // What usage says of names and class letters is what parses.
            if verb.usage.contains("--network") {
                let names = campaign::matrix::NETWORKS.join("|");
                assert!(verb.usage.contains(&names), "{}", verb.usage);
            }
            if verb.usage.contains("--class") {
                assert!(verb.usage.contains("S|W|A|B|C"), "{}", verb.usage);
            }
        }
        assert!(FSCK_USAGE.contains("--stream"));
    }

    #[test]
    fn parses_serve_invocations() {
        let a = match parse_argv(argv("serve --stdio --state /tmp/s --workers 3")).unwrap() {
            Cmd::Serve(a) => a,
            _ => panic!("expected serve mode"),
        };
        assert!(a.stdio);
        assert_eq!(a.state_dir, PathBuf::from("/tmp/s"));
        assert_eq!(a.workers, 3);

        let a = match parse_argv(argv(
            "serve --addr 127.0.0.1:7777 --rate 5 --burst 10 --inflight 2",
        ))
        .unwrap()
        {
            Cmd::Serve(a) => a,
            _ => panic!("expected serve mode"),
        };
        assert!(!a.stdio);
        assert_eq!(a.addr, "127.0.0.1:7777");
        assert_eq!(a.rate, 5.0);
        assert_eq!(a.burst, 10.0);
        assert_eq!(a.inflight, 2);

        // A server with no in-process workers is a pure coordinator.
        assert!(matches!(
            parse_argv(argv("serve --workers 0")),
            Ok(Cmd::Serve(ServeArgs { workers: 0, .. }))
        ));
        assert!(parse_argv(argv("serve --inflight 0")).is_err());
        assert!(parse_argv(argv("serve --frobnicate")).is_err());
        assert!(parse_argv(argv("serve --help")).is_err());
    }

    #[test]
    fn parses_serve_fleet_flags() {
        let a = match parse_argv(argv(
            "serve --stdio --lease-ttl-ms 500 --reassign-backoff-ms 50 --poison 2",
        ))
        .unwrap()
        {
            Cmd::Serve(a) => a,
            _ => panic!("expected serve mode"),
        };
        assert_eq!(a.lease_ttl_ms, 500);
        assert_eq!(a.reassign_backoff_ms, 50);
        assert_eq!(a.poison, 2);

        let a = match parse_argv(argv("serve --stdio")).unwrap() {
            Cmd::Serve(a) => a,
            _ => panic!("expected serve mode"),
        };
        assert_eq!(a.lease_ttl_ms, 10_000, "default TTL is 10s");
        assert_eq!(a.poison, 3, "default poison threshold");

        assert!(parse_argv(argv("serve --lease-ttl-ms 0")).is_err());
        assert!(parse_argv(argv("serve --poison 0")).is_err());
        assert!(parse_argv(argv("serve --lease-ttl-ms soon")).is_err());
    }

    #[test]
    fn parses_worker_invocations() {
        let a = match parse_argv(argv(
            "worker --connect 127.0.0.1:7777 --name w1 --state /tmp/w \
             --connect-retries 9 --connect-backoff-ms 20",
        ))
        .unwrap()
        {
            Cmd::Worker(a) => a,
            _ => panic!("expected worker mode"),
        };
        assert_eq!(a.addr.as_deref(), Some("127.0.0.1:7777"));
        assert_eq!(a.name.as_deref(), Some("w1"));
        assert_eq!(a.state_dir, PathBuf::from("/tmp/w"));
        assert_eq!(a.connect_retries, 9);
        assert_eq!(a.connect_backoff_ms, 20);

        let a = match parse_argv(argv("worker --stdio")).unwrap() {
            Cmd::Worker(a) => a,
            _ => panic!("expected worker mode"),
        };
        assert!(a.stdio && a.addr.is_none());
        assert_eq!(a.connect_retries, 5, "default retry budget");

        assert!(
            parse_argv(argv("worker")).is_err(),
            "a transport is required"
        );
        assert!(
            parse_argv(argv("worker --stdio --connect :1")).is_err(),
            "transports are mutually exclusive"
        );
        assert!(parse_argv(argv("worker --connect :1 --connect-retries 0")).is_err());
        assert!(parse_argv(argv("worker --frobnicate")).is_err());
        assert!(parse_argv(argv("worker --help")).is_err());
    }

    #[test]
    fn parses_client_retry_flags() {
        let a = match parse_argv(argv(
            "client --addr :7777 --stats --connect-retries 4 --connect-backoff-ms 250",
        ))
        .unwrap()
        {
            Cmd::Client(a) => a,
            _ => panic!("expected client mode"),
        };
        assert_eq!(a.connect_retries, 4);
        assert_eq!(a.connect_backoff_ms, 250);

        let a = match parse_argv(argv("client --addr :7777 --stats")).unwrap() {
            Cmd::Client(a) => a,
            _ => panic!("expected client mode"),
        };
        assert_eq!(a.connect_retries, 1, "no retries unless asked");

        assert!(parse_argv(argv("client --addr :1 --stats --connect-retries 0")).is_err());
        assert!(parse_argv(argv("client --addr :1 --stats --connect-backoff-ms soon")).is_err());
    }

    #[test]
    fn parses_client_invocations() {
        let a = match parse_argv(argv(
            "client --addr 127.0.0.1:7777 --submit simulate --app lu --ranks 8 \
             --class W --network ethernet --tag t1 --out /tmp/art",
        ))
        .unwrap()
        {
            Cmd::Client(a) => a,
            _ => panic!("expected client mode"),
        };
        assert_eq!(a.addr, "127.0.0.1:7777");
        assert_eq!(a.submit.as_deref(), Some("simulate"));
        assert_eq!(a.app, "lu");
        assert_eq!(a.ranks, 8);
        assert_eq!(a.class, "W");
        assert_eq!(a.network, "ethernet");
        assert_eq!(a.tag.as_deref(), Some("t1"));
        assert_eq!(a.out, Some(PathBuf::from("/tmp/art")));

        let a = match parse_argv(argv("client --addr :7777 --stats --shutdown")).unwrap() {
            Cmd::Client(a) => a,
            _ => panic!("expected client mode"),
        };
        assert!(a.stats && a.shutdown && a.submit.is_none());

        assert!(parse_argv(argv("client --stats")).is_err(), "addr required");
        assert!(
            parse_argv(argv("client --addr :1")).is_err(),
            "an action is required"
        );
        assert!(parse_argv(argv("client --addr :1 --submit frobnicate")).is_err());
        assert!(parse_argv(argv("client --help")).is_err());
    }

    #[test]
    fn chaos_jobs_cover_the_registry_and_respect_decompositions() {
        let args = chaos_args("chaos --seeds 2 --ranks 4");
        let (jobs, _) = chaos_jobs(&args);
        assert_eq!(jobs.len(), registry::all().len(), "4 ranks suits every app");
        assert!(jobs.iter().all(|j| j.chaos_seeds == 2));
        assert!(jobs.iter().all(|j| j.network == "bgl"));

        // A rank count some decompositions reject produces skips, not jobs.
        let args = chaos_args("chaos --ranks 7");
        let (jobs7, skipped7) = chaos_jobs(&args);
        assert!(jobs7.len() < registry::all().len());
        assert!(!skipped7.is_empty());
    }
}
