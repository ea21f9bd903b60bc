//! Job identity and execution: the bridge from wire-level requests to the
//! paper pipeline (trace → generate → execute → verify).
//!
//! Job ids are content hashes of the request parameters, so resubmitting
//! the same work yields the same id — which is what makes the journal a
//! durability layer: a restarted server recognises a completed job by its
//! id and serves the recorded result instead of re-executing.
//!
//! Execution calls the exact library functions the batch CLI calls
//! ([`JobSpec::trace`], `benchgen::generate`, `conceptual::printer::print`,
//! `benchgen::verify::execute_profiled`), so every artifact — folded trace
//! text, program text, mpiP profile — is byte-identical to `commgen`'s
//! output for the same inputs.

use benchgen::verify::{execute_profiled, timing_error_pct};
use campaign::executor::{isolate, JobError};
use campaign::hash;
use campaign::matrix::{CampaignSpec, JobSpec};
use campaign::{run_campaign, Telemetry, TraceCache};
use protocol::{Artifact, JobParams, JobResult};
use std::sync::Arc;

/// What a job does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Produce the folded trace text.
    Trace,
    /// Produce the generated program text.
    Generate,
    /// Execute the generated benchmark: profile plus timing metrics.
    Simulate,
    /// Run a whole campaign matrix.
    Campaign,
}

impl JobKind {
    /// Wire and journal label.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Trace => "trace",
            JobKind::Generate => "generate",
            JobKind::Simulate => "simulate",
            JobKind::Campaign => "campaign",
        }
    }

    /// Inverse of [`JobKind::label`].
    pub fn from_label(s: &str) -> Option<JobKind> {
        match s {
            "trace" => Some(JobKind::Trace),
            "generate" => Some(JobKind::Generate),
            "simulate" => Some(JobKind::Simulate),
            "campaign" => Some(JobKind::Campaign),
            _ => None,
        }
    }
}

/// Validate wire parameters into a concrete [`JobSpec`]. The spec carries
/// batch defaults for the knobs the wire protocol does not expose
/// (`compute_scale`, `chaos_seeds`, `pipeline_threads`), so its
/// `trace_key` matches the one a `commbench` campaign over the same
/// configuration would use — the two front ends share cache entries.
pub fn spec_of(p: &JobParams) -> Result<JobSpec, String> {
    if p.ranks == 0 {
        return Err("ranks must be at least 1".to_string());
    }
    let spec = JobSpec {
        align: p.align,
        resolve: p.resolve,
        comments: p.comments,
        iterations: p.iterations.map(|i| i as usize),
        ..JobSpec::new(&p.app, p.ranks as usize, p.class.parse()?, &p.network)
    };
    spec.validate()?;
    Ok(spec)
}

/// Deterministic id of a single-pipeline job: kind label plus the hash of
/// the full job configuration.
pub fn single_job_id(kind: JobKind, spec: &JobSpec) -> String {
    let mut pairs = spec.config_pairs();
    pairs.push(("kind".into(), kind.label().into()));
    format!("{}.{}", kind.label(), hash::hex(hash::hash_pairs(&pairs)))
}

/// Deterministic id of a campaign job: hash of the matrix document itself.
pub fn campaign_job_id(matrix: &str) -> String {
    format!("campaign.{}", hash::hex(hash::fnv1a(matrix.as_bytes())))
}

/// Build a checksummed artifact.
pub fn artifact(name: &str, text: String) -> Artifact {
    Artifact {
        name: name.to_string(),
        fnv: hash::hex(hash::fnv1a(text.as_bytes())),
        text,
    }
}

/// What a fleet worker — in-process or a separate process — needs to
/// execute a job: exactly what a `lease_grant` ships.
#[derive(Clone, Debug)]
pub enum JobBody {
    /// A trace / generate / simulate job with its wire parameters.
    Single(JobKind, JobParams),
    /// A campaign job with its matrix document.
    Campaign(String),
}

/// Execute a job body behind the panic-isolation boundary: a panicking
/// job fails the job, not the worker running it. `campaign_log` opens the per-job telemetry of a campaign job.
pub fn execute(
    body: &JobBody,
    cache: &TraceCache,
    campaign_log: impl FnOnce() -> Telemetry,
) -> Result<JobResult, JobError> {
    isolate(|| {
        match body {
            JobBody::Single(kind, params) => {
                spec_of(params).and_then(|spec| run_single(*kind, &spec, cache))
            }
            JobBody::Campaign(matrix) => run_campaign_job(matrix, cache.clone(), campaign_log()),
        }
        .map_err(JobError::fatal)
    })
}

/// Run a trace / generate / simulate job. `spec` must come from
/// [`spec_of`] (so the app and rank count are already validated).
pub fn run_single(kind: JobKind, spec: &JobSpec, cache: &TraceCache) -> Result<JobResult, String> {
    let model = spec.network_model()?;

    // 1. Trace: the shared cache, or a fresh application run.
    let src = spec
        .trace_cached(cache, spec.trace_key(), spec.app()?, model.clone())
        .map_err(|e| format!("tracing failed: {e}"))?;
    let trace_st = || artifact("trace.st", scalatrace::text::to_text(&src.trace));

    let mut result = JobResult {
        kind: kind.label().to_string(),
        cached: src.cached,
        t_app_ns: Some(src.t_app.as_nanos()),
        ..JobResult::default()
    };
    if kind == JobKind::Trace {
        result.artifacts.push(trace_st());
        return Ok(result);
    }

    // 2. Generate the executable specification.
    let generated = benchgen::generate(&src.trace, &spec.gen_options())
        .map_err(|e| format!("generation failed: {e}"))?;
    let program_text = conceptual::printer::print(&generated.program);
    if kind == JobKind::Generate {
        result
            .artifacts
            .push(artifact("program.ncptl", program_text));
        return Ok(result);
    }

    // 3. Execute under an mpiP hook: one run yields T_gen and the profile.
    let (report, profile) = execute_profiled(&Arc::new(generated.program), &src.trace, model)
        .map_err(|e| format!("generated benchmark failed: {e}"))?;
    let t_gen = report.total_time;

    result.t_gen_ns = Some(t_gen.as_nanos());
    result.err_pct = Some(timing_error_pct(src.t_app, t_gen));
    result.artifacts.push(trace_st());
    result
        .artifacts
        .push(artifact("program.ncptl", program_text));
    result
        .artifacts
        .push(artifact("profile.mpip", profile.to_string()));
    Ok(result)
}

/// Run a campaign job over a matrix document. The campaign runner works
/// on the same cache the single jobs use and journals its per-job
/// telemetry to `telemetry`.
pub fn run_campaign_job(
    matrix: &str,
    cache: TraceCache,
    telemetry: Telemetry,
) -> Result<JobResult, String> {
    let spec = CampaignSpec::parse(matrix).map_err(|e| format!("bad matrix: {e}"))?;
    let report = run_campaign(&spec, cache, telemetry);
    Ok(JobResult {
        kind: JobKind::Campaign.label().to_string(),
        cached: false,
        ok: Some(report.ok() as u64),
        failed: Some(report.failed() as u64),
        // Kept on the wire for the clients that read it. An op budget, not
        // a clock, bounds a job, so none times out.
        timed_out: Some(0),
        mape: Some(report.mape()),
        artifacts: vec![artifact("report.txt", report.to_string())],
        ..JobResult::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "server-jobs-test-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cache(tag: &str) -> TraceCache {
        TraceCache::open(temp_dir(tag)).unwrap()
    }

    #[test]
    fn job_ids_are_deterministic_and_kind_qualified() {
        let p = JobParams::new("ring", 4);
        let spec = spec_of(&p).unwrap();
        let a = single_job_id(JobKind::Trace, &spec);
        let b = single_job_id(JobKind::Trace, &spec_of(&p).unwrap());
        assert_eq!(a, b, "same request, same id");
        assert!(a.starts_with("trace."));
        assert_ne!(a, single_job_id(JobKind::Simulate, &spec));
        let mut p2 = p.clone();
        p2.ranks = 8;
        assert_ne!(a, single_job_id(JobKind::Trace, &spec_of(&p2).unwrap()));
        assert_eq!(
            campaign_job_id("apps = ring\n"),
            campaign_job_id("apps = ring\n")
        );
        assert_ne!(
            campaign_job_id("apps = ring\n"),
            campaign_job_id("apps = cg\n")
        );
    }

    #[test]
    fn spec_of_validates_app_ranks_network_class() {
        assert!(spec_of(&JobParams::new("ring", 4)).is_ok());
        assert!(spec_of(&JobParams::new("nosuch", 4))
            .unwrap_err()
            .contains("unknown app"));
        assert!(spec_of(&JobParams::new("ring", 0))
            .unwrap_err()
            .contains("at least 1"));
        let mut p = JobParams::new("ring", 4);
        p.network = "myrinet".to_string();
        assert!(spec_of(&p).unwrap_err().contains("unknown network"));
        let mut p = JobParams::new("ring", 4);
        p.class = "Z".to_string();
        assert!(spec_of(&p).is_err());
        // Injected fault apps are a campaign-internal facility, not a
        // service surface.
        assert!(spec_of(&JobParams::new("__panic__", 4)).is_err());
    }

    #[test]
    fn trace_generate_simulate_share_one_cache_entry() {
        let cache = cache("pipeline");
        let spec = spec_of(&JobParams::new("ring", 4)).unwrap();

        let traced = run_single(JobKind::Trace, &spec, &cache).unwrap();
        assert!(!traced.cached, "first touch traces the app");
        assert_eq!(traced.artifacts.len(), 1);
        assert_eq!(traced.artifacts[0].name, "trace.st");

        let generated = run_single(JobKind::Generate, &spec, &cache).unwrap();
        assert!(generated.cached, "trace came from the cache");
        assert_eq!(generated.artifacts[0].name, "program.ncptl");
        assert!(!generated.artifacts[0].text.is_empty());

        let simulated = run_single(JobKind::Simulate, &spec, &cache).unwrap();
        assert!(simulated.cached);
        let names: Vec<&str> = simulated
            .artifacts
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["trace.st", "program.ncptl", "profile.mpip"]);
        assert!(simulated.t_gen_ns.is_some());
        assert!(simulated.err_pct.is_some());

        // The simulate job's trace and program artifacts are byte-identical
        // to the dedicated jobs' (one pipeline, one truth).
        assert_eq!(simulated.artifacts[0].text, traced.artifacts[0].text);
        assert_eq!(simulated.artifacts[1].text, generated.artifacts[1 - 1].text);
        // And every artifact checksum verifies.
        for a in &simulated.artifacts {
            assert_eq!(a.fnv, hash::hex(hash::fnv1a(a.text.as_bytes())));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn execute_runs_either_body_and_reports_failures_as_job_errors() {
        let cache = cache("execute");
        let body = JobBody::Single(JobKind::Trace, JobParams::new("ring", 4));
        let ok = execute(&body, &cache, Telemetry::sink).unwrap();
        assert_eq!(ok.artifacts[0].name, "trace.st");

        // A worker re-validates what the lease shipped.
        let body = JobBody::Single(JobKind::Trace, JobParams::new("nosuch", 4));
        let e = execute(&body, &cache, Telemetry::sink).unwrap_err();
        assert!(e.message.contains("unknown app") && !e.transient, "{e:?}");
        let e = execute(&JobBody::Campaign("nonsense ===".into()), &cache, || {
            panic!("telemetry blew up")
        })
        .unwrap_err();
        assert_eq!(e.message, "panic: telemetry blew up");
        assert_eq!(e.cause, campaign::FailureCause::Panic);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn campaign_job_runs_a_matrix_end_to_end() {
        let disk = TraceCache::open(temp_dir("campaign")).unwrap();
        let dir = disk.dir().to_path_buf();
        let out = run_campaign_job(
            "apps = ring\nranks = 4\nworkers = 1\n",
            disk,
            Telemetry::sink(),
        )
        .unwrap();
        assert_eq!(out.ok, Some(1));
        assert_eq!(out.failed, Some(0));
        assert_eq!(out.artifacts[0].name, "report.txt");
        assert!(out.artifacts[0].text.contains("1 ok"));
        assert!(run_campaign_job(
            "nonsense ===",
            TraceCache::open(&dir).unwrap(),
            Telemetry::sink()
        )
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
