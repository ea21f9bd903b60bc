//! Campaign matrix: a declarative job grid and its expansion.
//!
//! A matrix file is a small line-based `key = value` document (no external
//! parser dependencies are available offline):
//!
//! ```text
//! # sweep the paper suite's small corner on two networks
//! apps     = lu, cg, ep
//! ranks    = 8, 16
//! classes  = S, W
//! networks = ideal, bgl
//! align    = true
//! resolve  = true
//! comments = false
//! compute_scale = 1.0
//! workers  = 4
//! retries  = 1
//! ```
//!
//! `expand` forms the cartesian product `apps x ranks x classes x networks`,
//! dropping combinations the application's domain decomposition cannot run
//! (e.g. BT on a non-square rank count) and reporting them as skips. A
//! matrix may come over the wire, so what multiplies its work is capped.

use crate::cache::TraceCache;
use crate::hash;
use benchgen::GenOptions;
use miniapps::{registry, App, AppParams, Class};
use mpisim::network::{self, NetworkModel};
use mpisim::time::SimTime;
use mpisim::world::World;
use mpisim::SimError;
use scalatrace::trace::Trace;
use scalatrace::TracedRun;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Fault-injection pseudo-apps resolved by the campaign runner itself
/// rather than the miniapp registry.
pub const INJECTED_APPS: &[&str] = &["__panic__", "__flaky__"];

/// Is `name` one of the fault-injection pseudo-apps?
pub fn is_injected(name: &str) -> bool {
    INJECTED_APPS.contains(&name)
}

/// Networks a job may select.
pub const NETWORKS: &[&str] = network::NAMES;

/// The largest iteration override. Every registry app spends at least one
/// engine op per rank per iteration, so more would exhaust
/// [`benchgen::OP_BUDGET`] anyway; refusing it answers at once.
pub const MAX_ITERATIONS: usize = benchgen::OP_BUDGET as usize;

/// The widest fleet a matrix may ask for, which is the widest any caller
/// uses (`commbench --workers 8`). Each worker runs one world at a time,
/// and mg class S at [`benchgen::MAX_RANKS`] peaks at 255 MB resident, so
/// a submitted matrix can hold at most 8 × 255 MB ≈ 2.0 GB at once.
pub const MAX_WORKERS: usize = 8;

/// The most chaos seeds per matrix job, which is the most any caller uses
/// (`commbench chaos --seeds 8`). Each seed is one more traced world under
/// [`benchgen::OP_BUDGET`], which stops within 6.0 s, so one job's chaos
/// leg ends within 8 × 6.0 s = 48 s.
pub const MAX_CHAOS_SEEDS: usize = 8;

/// Why a [`JobSpec`] cannot run. `Display` is the one wording of each
/// diagnostic: the matrix expander turns [`SpecError::InvalidRanks`] into a
/// skip, every other front end prints the error as it is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The registry has no application of that name.
    UnknownApp(String),
    /// The application's domain decomposition rejects the rank count.
    InvalidRanks {
        /// Application registry name.
        app: String,
        /// The rejected world size.
        ranks: usize,
    },
    /// No network model of that name (see [`NETWORKS`]).
    UnknownNetwork(String),
    /// `(what, value, cap)`: a rank count over [`benchgen::MAX_RANKS`] or
    /// an iteration override over [`MAX_ITERATIONS`].
    OverCap(&'static str, usize, usize),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownApp(app) => {
                let names: Vec<&str> = registry::all().iter().map(|a| a.name).collect();
                write!(f, "unknown app {app}; available: {}", names.join(", "))
            }
            SpecError::InvalidRanks { app, ranks } => {
                write!(f, "{app} cannot run on {ranks} ranks")
            }
            SpecError::UnknownNetwork(name) => write!(
                f,
                "unknown network {name} (expected one of {})",
                NETWORKS.join("|")
            ),
            SpecError::OverCap(what, n, cap) => write!(f, "{n} {what} exceed the cap of {cap}"),
        }
    }
}

impl From<SpecError> for String {
    fn from(e: SpecError) -> String {
        e.to_string()
    }
}

fn lookup_app(name: &str) -> Result<&'static App, SpecError> {
    registry::lookup(name).ok_or_else(|| SpecError::UnknownApp(name.to_string()))
}

/// The registry entry for `name`, provided its decomposition accepts
/// `ranks`.
fn runnable_app(name: &str, ranks: usize) -> Result<&'static App, SpecError> {
    let app = lookup_app(name)?;
    if !(app.valid_ranks)(ranks) {
        return Err(SpecError::InvalidRanks {
            app: name.to_string(),
            ranks,
        });
    }
    Ok(app)
}

fn lookup_network(name: &str) -> Result<Arc<dyn NetworkModel>, SpecError> {
    network::by_name(name).ok_or_else(|| SpecError::UnknownNetwork(name.to_string()))
}

/// Are `ranks` and `iterations` within the caps every job is held to?
fn check_caps(ranks: usize, iterations: Option<usize>) -> Result<(), SpecError> {
    match iterations {
        _ if ranks > benchgen::MAX_RANKS => {
            Err(SpecError::OverCap("ranks", ranks, benchgen::MAX_RANKS))
        }
        Some(n) if n > MAX_ITERATIONS => Err(SpecError::OverCap("iterations", n, MAX_ITERATIONS)),
        _ => Ok(()),
    }
}

/// The trace a pipeline run starts from, and where it came from: what
/// [`JobSpec::trace_cached`] returns.
#[derive(Clone, Debug)]
pub struct JobTrace {
    /// The application's trace.
    pub trace: Trace,
    /// Simulated wall-clock time of the traced run.
    pub t_app: SimTime,
    /// Did the trace come from the cache (no application run)?
    pub cached: bool,
    /// Is it a salvaged prefix (see [`TraceCache::store_salvaged`])? Only
    /// a cache entry can be.
    pub salvaged: bool,
}

/// One fully concrete experiment: everything needed to trace an
/// application and generate + verify its benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Application registry name (or an `INJECTED_APPS` entry).
    pub app: String,
    /// World size.
    pub ranks: usize,
    /// NPB problem class.
    pub class: Class,
    /// Network model name (see `NETWORKS`).
    pub network: String,
    /// Run Algorithm 1 (collective alignment) during generation.
    pub align: bool,
    /// Run Algorithm 2 (wildcard resolution) during generation.
    pub resolve: bool,
    /// Emit provenance comments in the generated program.
    pub comments: bool,
    /// Compute-time scale factor (the §5.4 what-if knob).
    pub compute_scale: f64,
    /// Iteration-count override.
    pub iterations: Option<usize>,
    /// Seeded chaos perturbations to run after verification (0 = off).
    pub chaos_seeds: usize,
    /// Pool width for the intra-job analysis stages (merge, alignment,
    /// wildcard resolution); 1 = hard sequential. Thread count never
    /// changes any stage's output, so this lives in
    /// [`Self::config_pairs`] only and trace-cache keys are unaffected.
    pub pipeline_threads: usize,
}

impl JobSpec {
    /// A job with the batch defaults for everything a front end may not
    /// expose: both algorithms on, no comments, unscaled compute, class
    /// iteration counts, no chaos step, sequential analysis stages.
    pub fn new(app: &str, ranks: usize, class: Class, network: &str) -> JobSpec {
        JobSpec {
            app: app.to_string(),
            ranks,
            class,
            network: network.to_string(),
            align: true,
            resolve: true,
            comments: false,
            compute_scale: 1.0,
            iterations: None,
            chaos_seeds: 0,
            pipeline_threads: 1,
        }
    }

    /// The application this job traces: a registry entry whose
    /// decomposition accepts `ranks`. (The fault-injection pseudo-apps are
    /// not applications; the campaign runner resolves those itself.)
    pub fn app(&self) -> Result<&'static App, SpecError> {
        runnable_app(&self.app, self.ranks)
    }

    /// The network model this job runs on.
    pub fn network_model(&self) -> Result<Arc<dyn NetworkModel>, SpecError> {
        lookup_network(&self.network)
    }

    /// Can this job run? Every front end asks here, once, before it traces
    /// anything. The rank count is checked last, so a caller that turns
    /// [`SpecError::InvalidRanks`] into a skip knows the rest is sound.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.network_model()?;
        check_caps(self.ranks, self.iterations)?;
        self.app()?;
        Ok(())
    }

    /// The application run parameters.
    pub fn params(&self) -> AppParams {
        AppParams {
            class: self.class,
            iterations: self.iterations,
            compute_scale: self.compute_scale,
        }
    }

    /// The generator options.
    pub fn gen_options(&self) -> GenOptions {
        GenOptions {
            align_collectives: self.align,
            resolve_wildcards: self.resolve,
            emit_comments: self.comments,
            ..GenOptions::default()
        }
    }

    /// Stage one of the pipeline: run `app` under the tracer. `app` and
    /// `model` are what [`Self::app`] and [`Self::network_model`] resolved.
    pub fn trace(&self, app: &App, model: Arc<dyn NetworkModel>) -> Result<TracedRun, SimError> {
        let (run, params) = (app.run, self.params());
        let world = World::new(self.ranks)
            .network(model)
            .op_budget(benchgen::OP_BUDGET);
        scalatrace::trace_world(world, self.ranks, move |ctx| run(ctx, &params))
    }

    /// Stage one behind the trace cache, for every caller that has one:
    /// the entry under `key` if it loads, else [`Self::trace`] and a
    /// best-effort store (a read-only cache directory must not fail the
    /// job). A hit never writes. `key` is [`Self::trace_key`] unless the
    /// caller needs entries of its own.
    pub fn trace_cached(
        &self,
        cache: &TraceCache,
        key: u64,
        app: &App,
        model: Arc<dyn NetworkModel>,
    ) -> Result<JobTrace, SimError> {
        if let Some(hit) = cache.load(key) {
            return Ok(JobTrace {
                trace: hit.trace,
                t_app: hit.t_app,
                cached: true,
                salvaged: hit.salvaged,
            });
        }
        let traced = self.trace(app, model)?;
        let t_app = traced.report.total_time;
        let _ = cache.store(key, &traced.trace, t_app, &self.trace_pairs());
        Ok(JobTrace {
            trace: traced.trace,
            t_app,
            cached: false,
            salvaged: false,
        })
    }

    /// `key=value` pairs that determine the *trace* — the fields the traced
    /// application run depends on. Generation flags are deliberately
    /// excluded so jobs differing only in `GenOptions` share a cache entry.
    pub fn trace_pairs(&self) -> Vec<(String, String)> {
        vec![
            ("app".into(), self.app.clone()),
            ("ranks".into(), self.ranks.to_string()),
            ("class".into(), self.class.name().into()),
            ("network".into(), self.network.clone()),
            ("compute_scale".into(), format!("{:?}", self.compute_scale)),
            (
                "iterations".into(),
                match self.iterations {
                    Some(i) => i.to_string(),
                    None => "default".into(),
                },
            ),
        ]
    }

    /// The trace-cache key: order-independent hash of [`Self::trace_pairs`].
    pub fn trace_key(&self) -> u64 {
        hash::hash_pairs(&self.trace_pairs())
    }

    /// All `key=value` pairs, including generation flags — the job identity.
    /// `chaos_seeds` lives here (not in [`Self::trace_pairs`]): chaos runs
    /// re-trace under fault plans but never change the baseline trace, so
    /// jobs differing only in chaos depth still share a cache entry.
    pub fn config_pairs(&self) -> Vec<(String, String)> {
        let mut pairs = self.trace_pairs();
        pairs.push(("align".into(), self.align.to_string()));
        pairs.push(("resolve".into(), self.resolve.to_string()));
        pairs.push(("comments".into(), self.comments.to_string()));
        pairs.push(("chaos_seeds".into(), self.chaos_seeds.to_string()));
        pairs.push(("pipeline_threads".into(), self.pipeline_threads.to_string()));
        pairs
    }

    /// Stable job identifier: human-readable prefix plus a hash
    /// discriminator, e.g. `lu.n8.S.ideal.1a2b3c4d`.
    pub fn id(&self) -> String {
        let h = hash::hash_pairs(&self.config_pairs());
        format!(
            "{}.n{}.{}.{}.{}",
            self.app,
            self.ranks,
            self.class.name(),
            self.network,
            &hash::hex(h)[..8]
        )
    }
}

/// A parsed campaign matrix plus fleet-level settings.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Applications to sweep.
    pub apps: Vec<String>,
    /// Rank counts to sweep.
    pub ranks: Vec<usize>,
    /// Problem classes to sweep.
    pub classes: Vec<Class>,
    /// Network models to sweep.
    pub networks: Vec<String>,
    /// Algorithm 1 on/off for every job.
    pub align: bool,
    /// Algorithm 2 on/off for every job.
    pub resolve: bool,
    /// Provenance comments on/off for every job.
    pub comments: bool,
    /// Compute-time scale factor for every job.
    pub compute_scale: f64,
    /// Iteration override for every job.
    pub iterations: Option<usize>,
    /// Chaos-depth axis: one job per entry, each running that many seeded
    /// fault plans after verification (0 = no chaos step). A first-class
    /// matrix dimension like `ranks` or `classes`, so a single matrix can
    /// sweep fault depth across workload classes.
    pub chaos_seeds: Vec<usize>,
    /// Pool width for the intra-job analysis stages of every job (see
    /// [`JobSpec::pipeline_threads`]). Composes with `workers`: total
    /// thread demand is `workers * pipeline_threads`, and the runner warns
    /// in telemetry when that exceeds twice the core count.
    pub pipeline_threads: usize,
    /// Worker threads in the fleet.
    pub workers: usize,
    /// Retry budget for transient failures.
    pub retries: u32,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            apps: Vec::new(),
            ranks: Vec::new(),
            classes: vec![Class::S],
            networks: vec!["ideal".to_string()],
            align: true,
            resolve: true,
            comments: false,
            compute_scale: 1.0,
            iterations: None,
            chaos_seeds: vec![0],
            pipeline_threads: 1,
            workers: 4,
            retries: 1,
        }
    }
}

fn parse_bool(key: &str, s: &str) -> Result<bool, String> {
    match s {
        "true" | "yes" | "on" => Ok(true),
        "false" | "no" | "off" => Ok(false),
        other => Err(format!("bad {key}: {other} (expected true|false)")),
    }
}

fn split_list(v: &str) -> Vec<&str> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn parsed<T>(key: &str, value: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: fmt::Display,
{
    value.parse().map_err(|e| format!("bad {key}: {e}"))
}

fn parsed_list<T>(what: &str, value: &str) -> Result<Vec<T>, String>
where
    T: FromStr,
    T::Err: fmt::Display,
{
    split_list(value)
        .iter()
        .map(|s| s.parse().map_err(|e| format!("bad {what} {s}: {e}")))
        .collect()
}

impl CampaignSpec {
    /// Parse a matrix document. Blank lines and `#` comments are ignored;
    /// unknown keys are errors (they are invariably typos).
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let mut spec = CampaignSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "apps" => spec.apps = split_list(value).iter().map(|s| s.to_string()).collect(),
                "ranks" => spec.ranks = parsed_list("rank", value).map_err(&at)?,
                "classes" => {
                    spec.classes = split_list(value)
                        .iter()
                        .map(|s| s.parse::<Class>().map_err(&at))
                        .collect::<Result<_, _>>()?
                }
                "networks" => {
                    let nets = split_list(value);
                    for n in &nets {
                        lookup_network(n).map_err(|e| at(e.into()))?;
                    }
                    spec.networks = nets.iter().map(|s| s.to_string()).collect();
                }
                "align" => spec.align = parse_bool(key, value).map_err(&at)?,
                "resolve" => spec.resolve = parse_bool(key, value).map_err(&at)?,
                "comments" => spec.comments = parse_bool(key, value).map_err(&at)?,
                "compute_scale" => spec.compute_scale = parsed(key, value).map_err(&at)?,
                "iterations" => spec.iterations = Some(parsed(key, value).map_err(&at)?),
                "chaos_seeds" => spec.chaos_seeds = parsed_list(key, value).map_err(&at)?,
                "pipeline_threads" => spec.pipeline_threads = parsed(key, value).map_err(&at)?,
                "workers" => spec.workers = parsed(key, value).map_err(&at)?,
                "retries" => spec.retries = parsed(key, value).map_err(&at)?,
                other => return Err(at(format!("unknown key {other}"))),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if self.apps.is_empty() {
            return Err("matrix lists no apps".to_string());
        }
        if self.ranks.is_empty() {
            return Err("matrix lists no rank counts".to_string());
        }
        if self.ranks.contains(&0) {
            return Err("rank count 0 is invalid".to_string());
        }
        if self.chaos_seeds.is_empty() {
            return Err("chaos_seeds lists no values (use 0 to disable chaos)".to_string());
        }
        if !(1..=MAX_WORKERS).contains(&self.workers) {
            return Err(format!("workers must be 1 to {MAX_WORKERS}"));
        }
        if self.chaos_seeds.iter().any(|&n| n > MAX_CHAOS_SEEDS) {
            return Err(format!("chaos_seeds must be at most {MAX_CHAOS_SEEDS}"));
        }
        for &ranks in &self.ranks {
            check_caps(ranks, self.iterations)?;
        }
        if self.pipeline_threads == 0 {
            return Err("pipeline_threads must be at least 1".to_string());
        }
        for app in &self.apps {
            if !is_injected(app) {
                lookup_app(app)?;
            }
        }
        Ok(())
    }

    /// Expand the matrix into the concrete job list, in matrix order.
    /// Combinations invalid for an app's decomposition are returned as
    /// human-readable skips rather than jobs.
    pub fn expand(&self) -> (Vec<JobSpec>, Vec<String>) {
        let mut jobs = Vec::new();
        let mut skipped = Vec::new();
        for app in &self.apps {
            for &ranks in &self.ranks {
                if !is_injected(app) {
                    if let Err(e) = runnable_app(app, ranks) {
                        skipped.push(e.into());
                        continue;
                    }
                }
                for &class in &self.classes {
                    for network in &self.networks {
                        for &chaos_seeds in &self.chaos_seeds {
                            jobs.push(JobSpec {
                                app: app.clone(),
                                ranks,
                                class,
                                network: network.clone(),
                                align: self.align,
                                resolve: self.resolve,
                                comments: self.comments,
                                compute_scale: self.compute_scale,
                                iterations: self.iterations,
                                chaos_seeds,
                                pipeline_threads: self.pipeline_threads,
                            });
                        }
                    }
                }
            }
        }
        (jobs, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MATRIX: &str = "
        # demo matrix
        apps     = ring, lu   # trailing comment
        ranks    = 4, 8
        classes  = S
        networks = ideal, bgl
        workers  = 2
        retries  = 2
    ";

    #[test]
    fn parses_and_expands() {
        let spec = CampaignSpec::parse(MATRIX).unwrap();
        assert_eq!(spec.apps, vec!["ring", "lu"]);
        assert_eq!(spec.ranks, vec![4, 8]);
        assert_eq!(spec.workers, 2);
        assert_eq!(spec.retries, 2);
        let (jobs, skipped) = spec.expand();
        // ring and lu both accept 4 and 8 ranks: 2 apps x 2 ranks x 1 class
        // x 2 networks.
        assert_eq!(jobs.len(), 8);
        assert!(skipped.is_empty());
        assert!(jobs.iter().all(|j| j.align && j.resolve && !j.comments));
    }

    #[test]
    fn invalid_rank_combinations_are_skipped() {
        let spec = CampaignSpec::parse("apps = bt\nranks = 4, 7").unwrap();
        let (jobs, skipped) = spec.expand();
        // bt needs a square rank count: 4 runs, 7 is skipped.
        assert_eq!(jobs.len(), 1);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].contains("bt"));
        assert!(skipped[0].contains('7'));
    }

    #[test]
    fn rejects_malformed_matrices() {
        assert!(CampaignSpec::parse("").is_err(), "no apps");
        assert!(CampaignSpec::parse("apps = ring").is_err(), "no ranks");
        assert!(CampaignSpec::parse("apps = nosuch\nranks = 4").is_err());
        assert!(CampaignSpec::parse("apps = ring\nranks = 0").is_err());
        assert!(CampaignSpec::parse("apps = ring\nranks = 4\nnetworks = myrinet").is_err());
        assert!(CampaignSpec::parse("apps = ring\nranks = 4\nfrobnicate = 1").is_err());
        assert!(CampaignSpec::parse("apps = ring\nranks = 4\nalign = maybe").is_err());
        assert!(CampaignSpec::parse("just some text").is_err());
        let err = CampaignSpec::parse("apps = ring\nranks = x").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn job_validation_names_what_is_wrong() {
        let job = JobSpec::new("bt", 4, Class::S, "bgl");
        assert_eq!(job.validate(), Ok(()));
        assert_eq!(job.app().unwrap().name, "bt");
        let bad = |job: JobSpec| job.validate().unwrap_err();
        assert_eq!(
            bad(JobSpec::new("nosuch", 4, Class::S, "bgl")),
            SpecError::UnknownApp("nosuch".into())
        );
        assert_eq!(
            bad(JobSpec {
                ranks: 7,
                ..job.clone()
            })
            .to_string(),
            "bt cannot run on 7 ranks"
        );
        assert_eq!(
            bad(JobSpec::new("bt", 4, Class::S, "etherent")).to_string(),
            "unknown network etherent (expected one of ideal|bgl|ethernet)"
        );
        // The pseudo-apps are the runner's business, not applications.
        assert!(JobSpec::new("__panic__", 4, Class::S, "bgl").app().is_err());
    }

    #[test]
    fn caps_refuse_oversized_jobs_and_matrices_before_anything_runs() {
        let job = JobSpec::new("ring", benchgen::MAX_RANKS, Class::S, "ideal");
        assert_eq!(job.validate(), Ok(()));
        let bad = |job: JobSpec| job.validate().unwrap_err().to_string();
        assert_eq!(
            bad(JobSpec {
                ranks: 4097,
                ..job.clone()
            }),
            "4097 ranks exceed the cap of 4096"
        );
        assert_eq!(
            bad(JobSpec {
                iterations: Some(MAX_ITERATIONS + 1),
                ..job.clone()
            }),
            "8388609 iterations exceed the cap of 8388608"
        );

        // A matrix names the same sentence, and caps the values that
        // multiply a campaign's work; the parser refuses them, so no fleet
        // thread ever starts.
        let parse = |extra: &str| CampaignSpec::parse(&format!("apps = ring\nranks = 4\n{extra}"));
        assert_eq!(
            CampaignSpec::parse("apps = ring\nranks = 4, 4097").unwrap_err(),
            "4097 ranks exceed the cap of 4096"
        );
        assert_eq!(
            parse("iterations = 1000000000000").unwrap_err(),
            "1000000000000 iterations exceed the cap of 8388608"
        );
        assert_eq!(
            parse(&format!("workers = {}", usize::MAX)).unwrap_err(),
            "workers must be 1 to 8"
        );
        // 64 workers on 4 096-rank worlds would hold ~33 GB at once.
        assert_eq!(
            CampaignSpec::parse("apps = ring\nranks = 4096\nworkers = 64").unwrap_err(),
            "workers must be 1 to 8"
        );
        assert_eq!(
            parse("chaos_seeds = 0, 1000000").unwrap_err(),
            "chaos_seeds must be at most 8"
        );
        assert_eq!(
            parse("chaos_seeds = 9").unwrap_err(),
            "chaos_seeds must be at most 8"
        );
        assert!(parse("workers = 8\nchaos_seeds = 8").is_ok());
        // The wall-clock knob is gone: an old matrix naming it is refused.
        assert_eq!(
            parse("timeout_secs = 60").unwrap_err(),
            "line 3: unknown key timeout_secs"
        );
    }

    #[test]
    fn every_iteration_costs_each_rank_at_least_one_engine_op() {
        // What MAX_ITERATIONS rests on: an override above OP_BUDGET would
        // exhaust the budget, because each iteration adds at least one op
        // per rank.
        for app in registry::all() {
            let ranks = (1..=16).find(|&n| (app.valid_ranks)(n)).unwrap();
            let ops = |iterations| {
                let params = AppParams {
                    iterations: Some(iterations),
                    ..AppParams::class(Class::S)
                };
                let run = app.run;
                World::new(ranks)
                    .run(move |ctx| run(ctx, &params))
                    .unwrap()
                    .stats
                    .operations
            };
            let per_iteration = ops(3) - ops(2);
            assert!(
                per_iteration >= ranks as u64,
                "{} r{ranks}: {per_iteration} ops per iteration",
                app.name
            );
        }
    }

    #[test]
    fn job_conversions_carry_every_field() {
        let job = JobSpec {
            align: false,
            comments: true,
            compute_scale: 0.5,
            iterations: Some(7),
            ..JobSpec::new("ring", 4, Class::W, "ideal")
        };
        let params = job.params();
        assert_eq!(params.class, Class::W);
        assert_eq!(params.iterations, Some(7));
        assert_eq!(params.compute_scale, 0.5);
        let opts = job.gen_options();
        assert!(!opts.align_collectives && opts.resolve_wildcards && opts.emit_comments);
        let traced = job
            .trace(job.app().unwrap(), job.network_model().unwrap())
            .unwrap();
        assert_eq!(traced.trace.nranks, 4);
    }

    #[test]
    fn trace_cached_traces_once_and_a_hit_never_writes() {
        let dir = std::env::temp_dir().join(format!("campaign-matrix-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::open(&dir).unwrap();
        let job = JobSpec::new("ring", 2, Class::S, "ideal");
        let (app, model) = (job.app().unwrap(), job.network_model().unwrap());
        let key = job.trace_key();

        let cold = job.trace_cached(&cache, key, app, model.clone()).unwrap();
        assert!(!cold.cached && !cold.salvaged);
        let warm = job.trace_cached(&cache, key, app, model.clone()).unwrap();
        assert!(warm.cached && !warm.salvaged);
        assert_eq!((warm.trace, warm.t_app), (cold.trace.clone(), cold.t_app));

        // A salvaged prefix is served and reported as one — runner resume
        // reruns on that flag — and stays one: a store on the hit would
        // have replaced the marker with a complete capture's sidecar.
        cache
            .store_salvaged(key, &cold.trace, cold.t_app, &job.trace_pairs())
            .unwrap();
        let hit = job.trace_cached(&cache, key, app, model).unwrap();
        assert!(hit.cached && hit.salvaged);
        assert!(cache.load(key).unwrap().salvaged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_apps_expand_without_registry_entries() {
        let spec = CampaignSpec::parse("apps = __panic__, __flaky__\nranks = 4").unwrap();
        let (jobs, skipped) = spec.expand();
        assert_eq!(jobs.len(), 2);
        assert!(skipped.is_empty());
    }

    #[test]
    fn job_ids_are_stable_and_distinct() {
        let spec = CampaignSpec::parse(MATRIX).unwrap();
        let (jobs, _) = spec.expand();
        let ids: std::collections::BTreeSet<String> = jobs.iter().map(|j| j.id()).collect();
        assert_eq!(ids.len(), jobs.len(), "job ids collide");
        // Same job -> same id, independently of how it was constructed.
        assert_eq!(jobs[0].id(), jobs[0].clone().id());
    }

    #[test]
    fn trace_key_ignores_generation_flags() {
        let (jobs, _) = CampaignSpec::parse("apps = ring\nranks = 4")
            .unwrap()
            .expand();
        let mut other = jobs[0].clone();
        other.align = false;
        other.comments = true;
        assert_eq!(jobs[0].trace_key(), other.trace_key());
        assert_ne!(jobs[0].id(), other.id());
        // Chaos depth re-traces under fault plans but never changes the
        // baseline trace, so it must not split the cache either.
        let mut chaotic = jobs[0].clone();
        chaotic.chaos_seeds = 8;
        assert_eq!(jobs[0].trace_key(), chaotic.trace_key());
        assert_ne!(jobs[0].id(), chaotic.id());
    }

    #[test]
    fn chaos_seeds_parse_and_flow_into_jobs() {
        let spec = CampaignSpec::parse("apps = ring\nranks = 4\nchaos_seeds = 6").unwrap();
        assert_eq!(spec.chaos_seeds, vec![6]);
        let (jobs, _) = spec.expand();
        assert!(jobs.iter().all(|j| j.chaos_seeds == 6));
        assert!(CampaignSpec::parse("apps = ring\nranks = 4\nchaos_seeds = lots").is_err());
        assert!(CampaignSpec::parse("apps = ring\nranks = 4\nchaos_seeds = ").is_err());
    }

    #[test]
    fn chaos_seeds_is_a_matrix_axis_over_classes() {
        // The satellite shape: chaos depth crossed with W/A workload
        // classes, every combination its own job with its own identity —
        // but all sharing one trace-cache entry per (app, ranks, class,
        // network), because chaos depth never changes the baseline trace.
        let spec =
            CampaignSpec::parse("apps = ring\nranks = 4\nclasses = W, A\nchaos_seeds = 0, 3")
                .unwrap();
        let (jobs, skipped) = spec.expand();
        assert!(skipped.is_empty());
        assert_eq!(jobs.len(), 4);
        let combos: Vec<(char, usize)> = jobs
            .iter()
            .map(|j| (j.class.name().chars().next().unwrap(), j.chaos_seeds))
            .collect();
        assert_eq!(combos, vec![('W', 0), ('W', 3), ('A', 0), ('A', 3)]);
        let ids: std::collections::BTreeSet<String> = jobs.iter().map(|j| j.id()).collect();
        assert_eq!(ids.len(), 4, "chaos depth must split job identity");
        assert_eq!(jobs[0].trace_key(), jobs[1].trace_key());
        assert_ne!(jobs[0].trace_key(), jobs[2].trace_key());
    }

    #[test]
    fn pipeline_threads_parses_and_never_splits_the_trace_cache() {
        let spec = CampaignSpec::parse("apps = ring\nranks = 4\npipeline_threads = 8\nworkers = 2")
            .unwrap();
        assert_eq!(spec.pipeline_threads, 8);
        let (jobs, _) = spec.expand();
        assert!(jobs.iter().all(|j| j.pipeline_threads == 8));
        // Thread count never changes a stage's output, so it must not split
        // the trace cache — only the job identity.
        let mut sequential = jobs[0].clone();
        sequential.pipeline_threads = 1;
        assert_eq!(jobs[0].trace_key(), sequential.trace_key());
        assert_ne!(jobs[0].id(), sequential.id());
        assert!(CampaignSpec::parse("apps = ring\nranks = 4\npipeline_threads = 0").is_err());
        assert!(CampaignSpec::parse("apps = ring\nranks = 4\npipeline_threads = four").is_err());
    }

    #[test]
    fn config_hash_is_independent_of_pair_order_and_matches_golden() {
        let (jobs, _) = CampaignSpec::parse("apps = ring\nranks = 4")
            .unwrap()
            .expand();
        let job = &jobs[0];
        let mut pairs = job.config_pairs();
        pairs.reverse();
        assert_eq!(
            crate::hash::hash_pairs(&job.config_pairs()),
            crate::hash::hash_pairs(&pairs)
        );
        // Golden value: guards the canonical rendering (field names, bool
        // and float formatting) against accidental change, which would
        // silently invalidate every existing cache entry.
        assert_eq!(crate::hash::hex(job.trace_key()), "c5732d7ab4231e91");
    }
}
