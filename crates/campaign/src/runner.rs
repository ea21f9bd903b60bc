//! The campaign runner: drives every job through the full paper pipeline
//! (trace → generate → execute → verify) on the fault-isolated fleet,
//! with trace caching and JSONL telemetry.

use crate::cache::TraceCache;
use crate::executor::{self, ExecEvent, FailureCause, FleetOptions, JobError, Outcome};
use crate::hash;
use crate::journal::{JobRecord, Journal, ResumeAction};
use crate::matrix::{CampaignSpec, JobSpec, JobTrace, SpecError};
use crate::telemetry::Telemetry;
use benchgen::chaos;
use benchgen::generate;
use benchgen::verify::{
    compare_profiles, execute_profiled, expected_profile, profile_of_trace, timing_error_pct,
};
use miniapps::App;
use mpisim::time::SimTime;
use mpisim::SimError;
use protocol::json::Json;
use std::sync::Arc;

/// Relative byte-volume tolerance for size-averaged routines in the E1
/// profile comparison (matches the §5.2 experiment binary).
const VERIFY_TOL: f64 = 0.02;

/// Summary of a job's chaos differential step (see [`benchgen::chaos`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Fault plans exercised.
    pub seeds: usize,
    /// Seeds whose run was fully invariant.
    pub invariant: usize,
    /// Seeds with a structured wildcard divergence (legal nondeterminism).
    pub diverged: usize,
}

impl std::fmt::Display for ChaosSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.invariant, self.seeds)?;
        if self.diverged > 0 {
            write!(f, "+{}d", self.diverged)?;
        }
        Ok(())
    }
}

/// Measurements from one successful job.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Was the trace served from the cache?
    pub cached: bool,
    /// Did the trace come from a salvaged prefix of an interrupted
    /// streamed capture (a cache entry stored via
    /// [`TraceCache::store_salvaged`])? Recorded in the journal so a
    /// resume reruns the job instead of replaying the partial evidence.
    pub salvaged: bool,
    /// Trace-cache key (shared by jobs differing only in generation flags).
    pub trace_key: u64,
    /// Simulated wall-clock time of the original application.
    pub t_app: SimTime,
    /// Simulated wall-clock time of the generated benchmark.
    pub t_gen: SimTime,
    /// Timing accuracy: `|t_gen - t_app| / t_app` in percent (the paper's
    /// §5.3 metric).
    pub err_pct: f64,
    /// Trace compression ratio (concrete events per trace node).
    pub compression: f64,
    /// E1 verification mismatches (empty = verified).
    pub verify_errors: Vec<String>,
    /// Chaos differential summary (`None` when `chaos_seeds = 0`).
    pub chaos: Option<ChaosSummary>,
}

/// One row of the final report: the job plus its outcome.
#[derive(Clone, Debug)]
pub struct JobRow {
    /// The job.
    pub job: JobSpec,
    /// Its outcome.
    pub outcome: Outcome<JobOutput>,
}

/// Aggregate result of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Per-job rows, in matrix order.
    pub rows: Vec<JobRow>,
    /// Matrix combinations that were skipped (invalid rank counts).
    pub skipped: Vec<String>,
}

impl CampaignReport {
    /// Successful jobs.
    pub fn ok(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Done(_)))
            .count()
    }

    /// Failed jobs (panics and errors).
    pub fn failed(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Failed { .. }))
            .count()
    }

    /// Successful jobs whose trace came from the cache.
    pub fn cache_hits(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(&r.outcome, Outcome::Done(o) if o.cached))
            .count()
    }

    /// Successful jobs that passed E1 verification.
    pub fn verified(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(&r.outcome, Outcome::Done(o) if o.verify_errors.is_empty()))
            .count()
    }

    /// Mean absolute timing error over successful jobs (percent).
    pub fn mape(&self) -> f64 {
        let errs: Vec<f64> = self
            .rows
            .iter()
            .filter_map(|r| match &r.outcome {
                Outcome::Done(o) => Some(o.err_pct),
                _ => None,
            })
            .collect();
        if errs.is_empty() {
            return 0.0;
        }
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    /// Did every job succeed?
    pub fn all_ok(&self) -> bool {
        self.ok() == self.rows.len()
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<30} {:>7} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8}",
            "job", "cached", "T_app(us)", "T_gen(us)", "err%", "comp", "verify", "chaos"
        )?;
        for row in &self.rows {
            match &row.outcome {
                Outcome::Done(o) => writeln!(
                    f,
                    "{:<30} {:>7} {:>12.1} {:>12.1} {:>8.2} {:>8.1} {:>8} {:>8}",
                    row.job.id(),
                    if o.cached { "hit" } else { "miss" },
                    o.t_app.as_usecs_f64(),
                    o.t_gen.as_usecs_f64(),
                    o.err_pct,
                    o.compression,
                    if o.verify_errors.is_empty() {
                        "pass".to_string()
                    } else {
                        format!("FAIL({})", o.verify_errors.len())
                    },
                    match &o.chaos {
                        Some(c) => c.to_string(),
                        None => "-".to_string(),
                    },
                )?,
                Outcome::Failed {
                    error,
                    attempts,
                    cause,
                } => writeln!(
                    f,
                    "{:<30} FAILED ({}) after {} attempt(s): {}",
                    row.job.id(),
                    cause.label(),
                    attempts,
                    error.lines().next().unwrap_or(""),
                )?,
            }
        }
        for s in &self.skipped {
            writeln!(f, "skipped: {s}")?;
        }
        // The summary keeps its "0 timed out" field: the server ships this
        // text as its report.txt artifact, which clients compare by bytes.
        writeln!(
            f,
            "{} ok ({} cached, {} verified), {} failed, 0 timed out; MAPE {:.2}%",
            self.ok(),
            self.cache_hits(),
            self.verified(),
            self.failed(),
            self.mape(),
        )
    }
}

fn sim_err(e: SimError) -> JobError {
    JobError::fatal(format!("simulation failed: {e}"))
}

fn spec_err(e: SpecError) -> JobError {
    JobError::fatal(e.to_string())
}

/// Resolve the application body for a job, honouring the fault-injection
/// pseudo-apps: `__panic__` panics, and `__flaky__` fails transiently on
/// its first attempt before behaving like `ring`.
fn resolve_app(job: &JobSpec, attempt: u32) -> Result<&'static App, JobError> {
    match job.app.as_str() {
        "__panic__" => panic!("injected panic (fault-injection app __panic__)"),
        "__flaky__" => {
            if attempt == 1 {
                return Err(JobError::transient(
                    "injected transient failure (fault-injection app __flaky__, attempt 1)",
                ));
            }
            JobSpec::new("ring", job.ranks, job.class, &job.network).app()
        }
        _ => job.app(),
    }
    .map_err(spec_err)
}

/// Run one job end to end. This is the unit of fault isolation: anything
/// that panics or errors in here fails only this job.
fn run_one(
    job: &JobSpec,
    attempt: u32,
    cache: &TraceCache,
    telemetry: &Telemetry,
) -> Result<JobOutput, JobError> {
    let app = resolve_app(job, attempt)?;
    let model = job.network_model().map_err(spec_err)?;
    let trace_key = job.trace_key();

    // 1. Trace: cache hit, or run the application and fill the cache.
    let JobTrace {
        trace,
        t_app,
        cached,
        salvaged,
    } = job
        .trace_cached(cache, trace_key, app, model.clone())
        .map_err(sim_err)?;
    if cached {
        telemetry.emit(
            "cached",
            &[
                ("job", job.id().into()),
                ("trace_key", hash::hex(trace_key).into()),
                ("salvaged", salvaged.into()),
            ],
        );
    }

    // 2. Generate the executable specification.
    let generated = generate(&trace, &job.gen_options())
        .map_err(|e| JobError::fatal(format!("generation failed: {e}")))?;

    // 3. Execute the generated benchmark under an mpiP hook: one run yields
    //    both T_gen and the profile for E1.
    let (report, gen_prof) =
        execute_profiled(&Arc::new(generated.program), &trace, model.clone()).map_err(sim_err)?;
    let t_gen = report.total_time;

    // 4. Verify (E1): the generated benchmark's profile must match the
    //    Table-1 image of the original's — reconstructed from the trace, so
    //    cache hits verify without re-running the application.
    let orig_prof = profile_of_trace(&trace);
    let verify_errors = compare_profiles(
        &expected_profile(&orig_prof, job.ranks),
        &gen_prof,
        VERIFY_TOL,
    );

    // 5. Chaos differential (optional): re-run under seeded fault plans
    //    and check the timing-independent invariants. Hard violations
    //    (profile drift, failed runs, failed generation) fail the job;
    //    benchmark divergences are recorded per seed in telemetry.
    let chaos_summary = if job.chaos_seeds > 0 {
        let (run, params) = (app.run, job.params());
        let plans = chaos::differential_plans(job.chaos_seeds, job.ranks);
        let report = chaos::differential(
            &trace,
            job.ranks,
            model,
            move |ctx| run(ctx, &params),
            &plans,
        )
        .map_err(|e| JobError::fatal(format!("chaos baseline failed: {e}")))?;
        for o in &report.outcomes {
            telemetry.emit(
                "chaos",
                &[
                    ("job", job.id().into()),
                    ("seed", o.seed.into()),
                    ("verdict", o.verdict.label().into()),
                    ("detail", o.verdict.detail().into()),
                ],
            );
        }
        if !report.passed() {
            let first = &report.violations()[0];
            return Err(JobError::fatal(format!(
                "chaos invariant violated ({report}); seed {}: {}",
                first.seed,
                first.verdict.detail()
            )));
        }
        Some(ChaosSummary {
            seeds: report.outcomes.len(),
            invariant: report.invariant(),
            diverged: report.divergences().len(),
        })
    } else {
        None
    };

    // 6. Metrics.
    let err_pct = timing_error_pct(t_app, t_gen);
    let compression = scalatrace::stats::stats(&trace).compression_ratio();

    Ok(JobOutput {
        cached,
        salvaged,
        trace_key,
        t_app,
        t_gen,
        err_pct,
        compression,
        verify_errors,
        chaos: chaos_summary,
    })
}

fn job_fields(job: &JobSpec) -> Vec<(&'static str, Json)> {
    vec![
        ("job", job.id().into()),
        ("app", job.app.clone().into()),
        ("ranks", Json::from(job.ranks as u64)),
        ("class", job.class.name().into()),
        ("network", job.network.clone().into()),
    ]
}

/// Run a whole campaign: expand the matrix, execute the fleet, emit
/// telemetry, and aggregate the report.
pub fn run_campaign(
    spec: &CampaignSpec,
    cache: TraceCache,
    telemetry: Telemetry,
) -> CampaignReport {
    let (jobs, skipped) = spec.expand();
    let fleet = FleetOptions {
        workers: spec.workers,
        retries: spec.retries,
        ..FleetOptions::default()
    };
    run_jobs(jobs, skipped, &fleet, cache, telemetry)
}

/// Reconstruct a terminal outcome from its journaled `finished` record.
/// `None` means the record is incomplete (a log from an older schema, or
/// hand-edited): the caller falls back to rerunning the job, which is
/// always safe.
fn replay_outcome(rec: &JobRecord) -> Option<Outcome<JobOutput>> {
    match rec.status.as_str() {
        "ok" => {
            let verify_errors = rec.u64("verify_errors")? as usize;
            let chaos = match rec.u64("chaos_seeds") {
                Some(seeds) => Some(ChaosSummary {
                    seeds: seeds as usize,
                    invariant: rec.u64("chaos_invariant")? as usize,
                    diverged: rec.u64("chaos_diverged")? as usize,
                }),
                None => None,
            };
            Some(Outcome::Done(JobOutput {
                cached: rec.bool("cached")?,
                salvaged: rec.salvaged(),
                trace_key: u64::from_str_radix(rec.str("trace_key")?, 16).ok()?,
                t_app: SimTime::from_nanos(rec.u64("t_app_ns")?),
                t_gen: SimTime::from_nanos(rec.u64("t_gen_ns")?),
                err_pct: rec.f64("err_pct")?,
                compression: rec.f64("compression")?,
                verify_errors: vec![
                    "mismatch recorded before resume (see original log)".to_string();
                    verify_errors
                ],
                chaos,
            }))
        }
        "failed" => Some(Outcome::Failed {
            error: rec.str("error")?.to_string(),
            attempts: rec.u64("attempts")? as u32,
            cause: match rec.str("cause")? {
                "panic" => FailureCause::Panic,
                "transient" => FailureCause::Transient,
                _ => FailureCause::Fatal,
            },
        }),
        _ => None,
    }
}

/// Resume an interrupted campaign from its write-ahead journal: jobs with
/// a journaled terminal outcome are *replayed* (successes and
/// deterministic failures alike — rerunning a job that panicked
/// deterministically would only reproduce the panic, and rerunning one
/// over its op budget would only exhaust it again), while transient
/// failures, jobs an older log journaled as timed out, and the jobs the
/// crash cut short run again. The
/// returned report covers the full matrix, replayed rows included, in
/// matrix order.
pub fn resume_campaign(
    spec: &CampaignSpec,
    cache: TraceCache,
    telemetry: Telemetry,
    journal: &Journal,
) -> CampaignReport {
    let (jobs, skipped) = spec.expand();
    let mut to_run = Vec::new();
    let mut replayed: Vec<JobRow> = Vec::new();
    for job in &jobs {
        let outcome = journal.get(&job.id()).and_then(|rec| match rec.action() {
            ResumeAction::Rerun => {
                if rec.salvaged() {
                    // The journaled success leaned on a salvaged prefix.
                    // Drop the cache entry so the rerun re-traces the
                    // application and stores the complete capture instead
                    // of re-serving the same prefix forever.
                    cache.evict(job.trace_key());
                }
                None
            }
            ResumeAction::ReplayOk | ResumeAction::ReplayFailed => replay_outcome(rec),
        });
        match outcome {
            Some(outcome) => {
                telemetry.emit(
                    "resumed",
                    &[
                        ("job", job.id().into()),
                        (
                            "status",
                            match &outcome {
                                Outcome::Done(_) => "ok".into(),
                                _ => "failed".into(),
                            },
                        ),
                        ("replayed", true.into()),
                    ],
                );
                replayed.push(JobRow {
                    job: job.clone(),
                    outcome,
                });
            }
            None => to_run.push(job.clone()),
        }
    }
    telemetry.emit(
        "resume",
        &[
            ("jobs", Json::from(jobs.len() as u64)),
            ("replayed", Json::from(replayed.len() as u64)),
            ("rerun", Json::from(to_run.len() as u64)),
        ],
    );

    let fleet = FleetOptions {
        workers: spec.workers,
        retries: spec.retries,
        ..FleetOptions::default()
    };
    let ran = run_jobs(to_run, skipped.clone(), &fleet, cache, telemetry);

    // Stitch replayed and fresh rows back into matrix order.
    let mut by_id: std::collections::HashMap<String, JobRow> = replayed
        .into_iter()
        .chain(ran.rows)
        .map(|row| (row.job.id(), row))
        .collect();
    CampaignReport {
        rows: jobs
            .iter()
            .filter_map(|job| by_id.remove(&job.id()))
            .collect(),
        skipped,
    }
}

/// Does `workers * pipeline_threads` exceed the 2x-cores oversubscription
/// threshold? Only an explicit width (> 1) triggers the warning — the
/// default defers to the ambient `par` configuration.
fn oversubscribed(workers: usize, pipeline_threads: usize, cores: usize) -> bool {
    pipeline_threads > 1 && workers * pipeline_threads > 2 * cores
}

/// Run an explicit job list on the fleet (the matrix-free entry point used
/// by `commbench chaos`, which builds its own jobs over the registry).
pub fn run_jobs(
    jobs: Vec<JobSpec>,
    skipped: Vec<String>,
    fleet: &FleetOptions,
    cache: TraceCache,
    telemetry: Telemetry,
) -> CampaignReport {
    let telemetry = Arc::new(telemetry);
    for s in &skipped {
        telemetry.emit("skipped", &[("reason", s.as_str().into())]);
    }
    for job in &jobs {
        telemetry.emit("queued", &job_fields(job));
    }

    // Apply the jobs' analysis pool width (merge / alignment / wildcard
    // resolution) for the fleet's duration. The matrix expands one value to
    // every job; for hand-built job lists the widest wins. Thread count
    // never changes any stage's output, so this is purely a resource knob:
    // total demand is workers * pipeline_threads, and exceeding twice the
    // core count is worth a telemetry warning before the run drowns in
    // context switches. The default (1) leaves the ambient width —
    // COMMSPEC_THREADS or the core count — untouched.
    let pipeline_threads = jobs.iter().map(|j| j.pipeline_threads).max().unwrap_or(1);
    let _threads_guard = (pipeline_threads > 1).then(|| {
        let cores = par::available_cores();
        if oversubscribed(fleet.workers, pipeline_threads, cores) {
            telemetry.emit(
                "oversubscription",
                &[
                    ("workers", Json::from(fleet.workers as u64)),
                    ("pipeline_threads", Json::from(pipeline_threads as u64)),
                    ("cores", Json::from(cores as u64)),
                    (
                        "hint",
                        "keep workers * pipeline_threads <= 2 * cores".into(),
                    ),
                ],
            );
        }
        par::scoped_threads(pipeline_threads)
    });

    let jobs_for_observer = jobs.clone();
    let cache = Arc::new(cache);
    let tele_work = Arc::clone(&telemetry);
    let cache_work = Arc::clone(&cache);
    let outcomes = executor::run_fleet(
        jobs.clone(),
        fleet,
        move |job: &JobSpec, attempt| run_one(job, attempt, &cache_work, &tele_work),
        |index, event| {
            let job = &jobs_for_observer[index];
            match event {
                ExecEvent::Started { attempt } => telemetry.emit(
                    "started",
                    &[
                        ("job", job.id().into()),
                        ("attempt", Json::from(attempt as u64)),
                    ],
                ),
                ExecEvent::Retried {
                    attempt,
                    error,
                    delay,
                } => telemetry.emit(
                    "retried",
                    &[
                        ("job", job.id().into()),
                        ("attempt", Json::from(attempt as u64)),
                        ("cause", "transient".into()),
                        ("error", error.into()),
                        ("delay_ms", Json::from(delay.as_millis() as u64)),
                    ],
                ),
                ExecEvent::Finished { outcome, wall } => {
                    let mut fields = vec![("job", Json::from(job.id()))];
                    let failed = match outcome {
                        Outcome::Done(o) => {
                            fields.push(("status", "ok".into()));
                            fields.push(("cached", o.cached.into()));
                            if o.salvaged {
                                // A resume keys off this marker to rerun
                                // the job rather than replay the prefix.
                                fields.push(("salvaged", true.into()));
                            }
                            fields.push(("trace_key", hash::hex(o.trace_key).into()));
                            fields.push(("t_app_us", Json::from(o.t_app.as_usecs_f64())));
                            fields.push(("t_gen_us", Json::from(o.t_gen.as_usecs_f64())));
                            // Exact integer times alongside the lossy
                            // human-friendly microsecond floats: the resume
                            // journal replays outcomes from these.
                            fields.push(("t_app_ns", Json::from(o.t_app.as_nanos())));
                            fields.push(("t_gen_ns", Json::from(o.t_gen.as_nanos())));
                            fields.push(("err_pct", o.err_pct.into()));
                            fields.push(("compression", o.compression.into()));
                            fields
                                .push(("verify_errors", Json::from(o.verify_errors.len() as u64)));
                            if let Some(c) = &o.chaos {
                                fields.push(("chaos_seeds", Json::from(c.seeds as u64)));
                                fields.push(("chaos_invariant", Json::from(c.invariant as u64)));
                                fields.push(("chaos_diverged", Json::from(c.diverged as u64)));
                            }
                            false
                        }
                        Outcome::Failed {
                            error,
                            attempts,
                            cause,
                        } => {
                            fields.push(("status", "failed".into()));
                            fields.push(("cause", cause.label().into()));
                            fields.push(("error", error.as_str().into()));
                            fields.push(("attempts", Json::from(*attempts as u64)));
                            true
                        }
                    };
                    fields.push(("wall_ms", Json::from(wall.as_millis() as u64)));
                    telemetry.emit("finished", &fields);
                    if failed {
                        // The worker is about to return from a caught panic
                        // (or give up on the job): make sure the log hit disk
                        // while the process is still guaranteed alive.
                        telemetry.flush();
                    }
                }
            }
        },
    );

    CampaignReport {
        rows: jobs
            .into_iter()
            .zip(outcomes)
            .map(|(job, outcome)| JobRow { job, outcome })
            .collect(),
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "campaign-runner-test-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(matrix: &str) -> CampaignSpec {
        CampaignSpec::parse(matrix).unwrap()
    }

    #[test]
    fn oversubscription_warns_only_past_twice_the_cores() {
        // Default width never warns, whatever the fleet size.
        assert!(!oversubscribed(64, 1, 1));
        // At the boundary (workers * threads == 2 * cores) we stay quiet.
        assert!(!oversubscribed(4, 4, 8));
        // One past the boundary warns.
        assert!(oversubscribed(4, 5, 8));
        assert!(oversubscribed(2, 8, 4));
    }

    #[test]
    fn campaign_survives_injected_faults_and_caches_on_rerun() {
        let dir = temp_dir("e2e");
        let matrix = "
            apps = ring, __panic__, __flaky__
            ranks = 2, 4
            workers = 3
            retries = 1
        ";
        let cache = TraceCache::open(&dir).unwrap();
        let report = run_campaign(&spec(matrix), cache, Telemetry::sink());
        assert_eq!(report.rows.len(), 6);
        // ring x2 ok; __flaky__ x2 ok after one retry; __panic__ x2 failed.
        assert_eq!(report.ok(), 4);
        assert_eq!(report.failed(), 2);
        assert_eq!(report.cache_hits(), 0);
        assert_eq!(report.verified(), 4, "all successful jobs pass E1");
        for row in &report.rows {
            if row.job.app == "__panic__" {
                match &row.outcome {
                    Outcome::Failed { error, .. } => {
                        assert!(error.contains("injected panic"), "{error}")
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
        let display = report.to_string();
        assert!(display.contains("FAILED"));
        assert!(display.contains("2 failed"));

        // Second run: every previously successful trace comes from cache.
        let cache = TraceCache::open(&dir).unwrap();
        let report2 = run_campaign(&spec(matrix), cache, Telemetry::sink());
        assert_eq!(report2.ok(), 4);
        assert_eq!(report2.cache_hits(), 4);
        assert_eq!(report2.verified(), 4, "verification works from cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_mistyped_network_fails_the_job_instead_of_running_on_ideal() {
        let dir = temp_dir("etherent");
        let jobs = vec![
            JobSpec::new("ring", 2, miniapps::Class::S, "etherent"),
            JobSpec::new("ring", 2, miniapps::Class::S, "ethernet"),
        ];
        let fleet = FleetOptions {
            workers: 1,
            retries: 0,
            ..FleetOptions::default()
        };
        let cache = TraceCache::open(&dir).unwrap();
        let report = run_jobs(jobs, Vec::new(), &fleet, cache, Telemetry::sink());
        match &report.rows[0].outcome {
            Outcome::Failed { error, cause, .. } => {
                assert!(error.starts_with("unknown network etherent"), "{error}");
                assert_eq!(*cause, FailureCause::Fatal);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(report.rows[1].outcome, Outcome::Done(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_step_runs_and_is_summarised_in_the_report() {
        let dir = temp_dir("chaos");
        let matrix = "
            apps = ring
            ranks = 4
            networks = bgl
            iterations = 3
            chaos_seeds = 2
            workers = 1
        ";
        let cache = TraceCache::open(&dir).unwrap();
        let report = run_campaign(&spec(matrix), cache, Telemetry::sink());
        assert_eq!(report.ok(), 1, "{report}");
        match &report.rows[0].outcome {
            Outcome::Done(o) => {
                let chaos = o.chaos.expect("chaos step ran");
                assert_eq!(chaos.seeds, 2);
                assert_eq!(chaos.invariant + chaos.diverged, 2, "{chaos}");
            }
            other => panic!("{other:?}"),
        }
        assert!(report.to_string().contains("chaos"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_terminal_outcomes_and_reruns_the_rest() {
        let dir = temp_dir("resume");
        let matrix = "
            apps = ring, __panic__
            ranks = 2, 4
            workers = 2
            retries = 0
        ";
        let log_path = {
            let cache = TraceCache::open(&dir).unwrap();
            let log_path = dir.join("campaign.jsonl");
            let tele = Telemetry::to_file(&log_path).unwrap();
            let report = run_campaign(&spec(matrix), cache, tele);
            assert_eq!(report.ok(), 2);
            assert_eq!(report.failed(), 2);
            log_path
        };
        let log = std::fs::read_to_string(&log_path).unwrap();
        let original = {
            let journal = Journal::from_text(&log);
            assert_eq!(journal.len(), 4);
            journal
        };

        // Complete journal: every row replays (including the deterministic
        // panics — rerunning those would only panic again), nothing runs.
        let replayed = resume_campaign(
            &spec(matrix),
            TraceCache::open(&dir).unwrap(),
            Telemetry::sink(),
            &original,
        );
        assert_eq!(replayed.rows.len(), 4);
        assert_eq!(replayed.ok(), 2);
        assert_eq!(replayed.failed(), 2);
        for row in &replayed.rows {
            match (&row.job.app[..], &row.outcome) {
                ("__panic__", Outcome::Failed { error, cause, .. }) => {
                    assert!(error.contains("injected panic"), "{error}");
                    assert_eq!(cause.label(), "panic");
                }
                ("ring", Outcome::Done(o)) => {
                    let rec = original.get(&row.job.id()).unwrap();
                    assert_eq!(o.t_app.as_nanos(), rec.u64("t_app_ns").unwrap());
                    assert_eq!(o.t_gen.as_nanos(), rec.u64("t_gen_ns").unwrap());
                    assert_eq!(o.err_pct.to_bits(), rec.f64("err_pct").unwrap().to_bits());
                    assert!(o.verify_errors.is_empty());
                }
                other => panic!("unexpected row {other:?}"),
            }
        }

        // Prune one success from the journal (the job the crash would have
        // cut short): exactly that job reruns — served from the cache the
        // interrupted run already filled — and the stitched report matches.
        let pruned: String = log
            .lines()
            .filter(|l| !(l.contains("\"event\":\"finished\"") && l.contains("ring.n4")))
            .map(|l| format!("{l}\n"))
            .collect();
        let journal = Journal::from_text(&pruned);
        assert_eq!(journal.len(), 3);
        let resumed = resume_campaign(
            &spec(matrix),
            TraceCache::open(&dir).unwrap(),
            Telemetry::sink(),
            &journal,
        );
        assert_eq!(resumed.rows.len(), 4, "report covers the whole matrix");
        assert_eq!(resumed.ok(), 2);
        assert_eq!(resumed.failed(), 2);
        assert_eq!(resumed.cache_hits(), 1, "the rerun trace comes from cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvaged_cache_entries_flag_the_journal_and_rerun_on_resume() {
        let dir = temp_dir("salvage");
        let matrix = "apps = ring\nranks = 2\nworkers = 1\nretries = 0";
        let job = spec(matrix).expand().0.remove(0);

        // Seed the cache the way a salvage operation would: the trace
        // recovered from an interrupted streamed capture, stored under the
        // job's trace key with the salvaged marker.
        let cache = TraceCache::open(&dir).unwrap();
        let traced = job
            .trace(job.app().unwrap(), job.network_model().unwrap())
            .unwrap();
        cache
            .store_salvaged(
                job.trace_key(),
                &traced.trace,
                traced.report.total_time,
                &job.trace_pairs(),
            )
            .unwrap();
        assert!(cache.load(job.trace_key()).unwrap().salvaged);

        // The campaign serves the salvaged entry (legitimate evidence
        // mid-campaign) but records the fact on the finished line.
        let log_path = dir.join("campaign.jsonl");
        let report = run_campaign(
            &spec(matrix),
            TraceCache::open(&dir).unwrap(),
            Telemetry::to_file(&log_path).unwrap(),
        );
        assert_eq!(report.ok(), 1);
        assert_eq!(report.cache_hits(), 1);
        match &report.rows[0].outcome {
            Outcome::Done(o) => assert!(o.salvaged, "salvaged trace must be flagged"),
            other => panic!("{other:?}"),
        }
        let journal = Journal::from_text(&std::fs::read_to_string(&log_path).unwrap());
        let rec = journal.get(&job.id()).unwrap();
        assert!(rec.salvaged());
        assert_eq!(rec.action(), ResumeAction::Rerun);

        // Resume upgrades rather than replays: the salvaged entry is
        // evicted, the job re-traces the application, and the cache ends
        // up holding a complete (unflagged) capture of the same trace.
        let resumed = resume_campaign(
            &spec(matrix),
            TraceCache::open(&dir).unwrap(),
            Telemetry::sink(),
            &journal,
        );
        assert_eq!(resumed.ok(), 1);
        match &resumed.rows[0].outcome {
            Outcome::Done(o) => {
                assert!(!o.cached, "the prefix must not be re-served");
                assert!(!o.salvaged);
            }
            other => panic!("{other:?}"),
        }
        let upgraded = TraceCache::open(&dir)
            .unwrap()
            .load(job.trace_key())
            .unwrap();
        assert!(!upgraded.salvaged, "the rerun replaces the salvaged entry");
        assert_eq!(upgraded.trace, traced.trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_and_timeouts_rerun_on_resume() {
        let dir = temp_dir("resume-transient");
        let matrix = "apps = __flaky__\nranks = 2\nworkers = 1\nretries = 1";
        // Forge a journal where the job died transiently (as if the process
        // was killed before its retry) plus one that an older log records
        // as timed out: both must rerun, and the flaky app succeeds on its
        // retry attempt.
        let id = spec(matrix).expand().0[0].id();
        let forged = format!(
            "{{\"t_ms\":1,\"event\":\"finished\",\"job\":\"{id}\",\"status\":\"failed\",\"cause\":\"transient\",\"error\":\"x\",\"attempts\":1}}\n\
             {{\"t_ms\":2,\"event\":\"finished\",\"job\":\"nosuch.n2\",\"status\":\"timeout\",\"budget_ms\":1,\"attempts\":1}}\n"
        );
        let journal = Journal::from_text(&forged);
        let report = resume_campaign(
            &spec(matrix),
            TraceCache::open(&dir).unwrap(),
            Telemetry::sink(),
            &journal,
        );
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.ok(), 1, "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_over_budget_job_fails_for_good_and_resume_replays_it() {
        let dir = temp_dir("budget");
        let matrix = "apps = ring\nranks = 2\nworkers = 1\nretries = 2";
        let job = spec(matrix).expand().0.remove(0);

        // Plant ring's trace with its loop count raised to 10^11: the
        // program generates, and its closed-form event count is far past
        // the op budget.
        let mut traced = job
            .trace(job.app().unwrap(), job.network_model().unwrap())
            .unwrap();
        let mut loops = 0;
        for node in &mut traced.trace.nodes {
            if let scalatrace::TraceNode::Loop(p) = node {
                p.count = 100_000_000_000;
                loops += 1;
            }
        }
        assert!(loops > 0, "ring's trace has a top-level loop");
        let cache = TraceCache::open(&dir).unwrap();
        cache
            .store(
                job.trace_key(),
                &traced.trace,
                traced.report.total_time,
                &job.trace_pairs(),
            )
            .unwrap();

        // The execute stage refuses it before any rank starts: a permanent
        // error on the first attempt, never retried.
        let log_path = dir.join("campaign.jsonl");
        let report = run_campaign(
            &spec(matrix),
            TraceCache::open(&dir).unwrap(),
            Telemetry::to_file(&log_path).unwrap(),
        );
        let refused = match &report.rows[0].outcome {
            Outcome::Failed {
                error,
                attempts,
                cause,
            } => {
                assert!(
                    error.contains("operation budget exceeded before the run"),
                    "{error}"
                );
                assert_eq!(*attempts, 1, "a budget is not retried");
                assert_eq!(*cause, FailureCause::Fatal);
                error.clone()
            }
            other => panic!("{other:?}"),
        };
        let journal = Journal::from_text(&std::fs::read_to_string(&log_path).unwrap());
        let rec = journal.get(&job.id()).unwrap();
        assert_eq!(rec.str("cause"), Some("error"));
        assert_eq!(rec.action(), ResumeAction::ReplayFailed);

        // Resume replays the failure from the journal: nothing starts.
        let resume_log = dir.join("resume.jsonl");
        let resumed = resume_campaign(
            &spec(matrix),
            TraceCache::open(&dir).unwrap(),
            Telemetry::to_file(&resume_log).unwrap(),
            &journal,
        );
        match &resumed.rows[0].outcome {
            Outcome::Failed { error, .. } => assert_eq!(*error, refused),
            other => panic!("{other:?}"),
        }
        let events = std::fs::read_to_string(&resume_log).unwrap();
        assert!(events.contains("\"replayed\":true"), "{events}");
        assert!(!events.contains("\"event\":\"started\""), "{events}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gen_option_variants_share_one_cache_entry() {
        let dir = temp_dir("share");
        let cache = TraceCache::open(&dir).unwrap();
        let mut s = spec("apps = ring\nranks = 4\nworkers = 1");
        let r1 = run_campaign(&s, TraceCache::open(&dir).unwrap(), Telemetry::sink());
        assert_eq!(r1.cache_hits(), 0);
        // Same trace config, different generation flags: cache still hits.
        s.comments = true;
        let r2 = run_campaign(&s, cache, Telemetry::sink());
        assert_eq!(r2.cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
