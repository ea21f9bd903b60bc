//! What every workload shares: the layer boundary (`Layers`), the per-job
//! record (`JobOutcome` → `Recorder`), and the pass loop that turns a
//! workload into end-to-end and per-layer numbers.

use crate::spans::{self_times, SpanLog};
use crate::speed::Speedometer;
use crate::stats::{geomean, median, p95, quartiles, Rng};
use benchgen::{GenOptions, GeneratedBenchmark};
use campaign::hash::fnv1a;
use conceptual::ast::{Program, Stmt};
use conceptual::interp::run_rank;
use miniapps::{App, AppParams};
use mpisim::network::NetworkModel;
use mpisim::profile::MpiP;
use mpisim::world::{RunReport, World};
use scalatrace::trace::{CommTable, Trace};
use scalatrace::{MergeStrategy, TracedRun, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pass number carried by spans recorded outside any timed pass (probes).
pub const PROBE_PASS: u32 = 0xffff;

/// Deterministic counts observed at layer boundaries, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// The boundary between the benchmark and the layers it measures.
///
/// With tracing off each method makes the one call a user of the library
/// would make (`trace_app`, `generate`, …). With tracing on the same work is
/// done by calling each layer separately (`run_hooked(Tracer)` then the
/// merge; Algorithm 1, Algorithm 2 and code generation one by one) inside
/// spans, with counts taken at the same boundaries. Both paths must produce
/// byte-identical artifacts; the recorder's pass-1 digests enforce that.
pub struct Layers {
    pub tracing: bool,
    /// One log per driver thread; `service_mix` uses two.
    pub logs: Vec<SpanLog>,
    /// Counts of the current traced pass.
    pub counts: Counts,
    pub speed: Speedometer,
}

/// One thread's view of [`Layers`] while a job runs.
pub struct Lane<'a> {
    pub tracing: bool,
    pub log: &'a mut SpanLog,
    pub counts: &'a mut Counts,
    /// The single driver samples the machine's speed between its jobs;
    /// `service_mix`'s client threads leave that to the pass loop.
    pub speed: Option<&'a mut Speedometer>,
}

impl Layers {
    pub fn new(epoch: Instant, threads: usize) -> Layers {
        Layers {
            tracing: false,
            logs: (0..threads).map(|_| SpanLog::new(epoch)).collect(),
            counts: Counts::new(),
            speed: Speedometer::new(epoch),
        }
    }

    /// The single-driver view (every workload but `service_mix`).
    pub fn lane(&mut self) -> Lane<'_> {
        Lane {
            tracing: self.tracing,
            log: &mut self.logs[0],
            counts: &mut self.counts,
            speed: Some(&mut self.speed),
        }
    }
}

fn sim_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Lane<'_> {
    pub fn enter(&mut self, name: &'static str) -> Option<u32> {
        self.tracing.then(|| self.log.enter(name))
    }

    pub fn exit(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.log.exit(id);
        }
    }

    /// Run `f` inside a span named `name` (a plain call when tracing is off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.tracing {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }

    /// Tag the spans that follow with `pass` and `cell` (1-based; 0 = the
    /// pass itself).
    pub fn set_job(&mut self, pass: u32, cell: u32) {
        self.log.set_job(pass << 16 | cell);
    }

    /// One pass of a single-driver workload: `visit` every cell in `order`
    /// inside a `cell` span, note when each job ran, and let the
    /// speedometer tick between jobs.
    pub fn visit_cells(
        &mut self,
        pass: u32,
        order: &[usize],
        mut visit: impl FnMut(usize, &mut Lane<'_>) -> JobOutcome,
    ) -> Vec<JobOutcome> {
        // `visit` leaves `cell` and `ran_ns` of its outcome to this loop.
        order
            .iter()
            .map(|&i| {
                self.set_job(pass, i as u32 + 1);
                let t0_ns = self.log.now();
                let id = self.enter("cell");
                let mut out = visit(i, self);
                self.exit(id);
                out.cell = i;
                out.ran_ns = (t0_ns, self.log.now());
                if let Some(speed) = self.speed.as_deref_mut() {
                    speed.tick();
                }
                out
            })
            .collect()
    }

    /// A plain, unhooked run of the application: what `mpisim` alone costs.
    /// Only probes call this; no timed pass does.
    pub fn app_run(
        &mut self,
        app: &'static App,
        n: usize,
        params: AppParams,
        model: Arc<dyn NetworkModel>,
    ) -> Result<RunReport, String> {
        let run = app.run;
        let report = self
            .span("mpisim.app_run", || {
                World::new(n)
                    .network(model)
                    .run(move |ctx| run(ctx, &params))
            })
            .map_err(|e| sim_err("plain run", e))?;
        self.count("mpisim.ops", report.stats.operations as f64);
        self.count("mpisim.messages", report.stats.messages as f64);
        self.count("mpisim.collectives", report.stats.collectives as f64);
        self.count(
            "mpisim.unexpected_messages",
            report.stats.unexpected_messages as f64,
        );
        self.count(
            "mpisim.flow_control_stalls",
            report.stats.flow_control_stalls as f64,
        );
        Ok(report)
    }

    /// Run the application under the ScalaTrace hook and merge the per-rank
    /// sequences into one trace.
    pub fn capture(
        &mut self,
        app: &'static App,
        n: usize,
        params: AppParams,
        model: Arc<dyn NetworkModel>,
    ) -> Result<TracedRun, String> {
        let run = app.run;
        let body = move |ctx: &mut mpisim::Ctx| run(ctx, &params);
        if !self.tracing {
            return scalatrace::trace_app(n, model, body).map_err(|e| sim_err("capture", e));
        }
        let (report, tracers) = self
            .span("scalatrace.capture.run", || {
                World::new(n)
                    .network(model)
                    .run_hooked(move |r| Tracer::new(r, n), body)
            })
            .map_err(|e| sim_err("capture", e))?;
        let trace = self.merge_tracers(tracers);
        Ok(TracedRun { trace, report })
    }

    /// `scalatrace::merge::merge_tracers`, taken apart so the merge is
    /// timed alone and its phase counters are read.
    pub fn merge_tracers(&mut self, tracers: Vec<Tracer>) -> Trace {
        if !self.tracing {
            return scalatrace::merge::merge_tracers(tracers);
        }
        let nranks = tracers[0].nranks();
        let events: u64 = tracers.iter().map(|t| t.events_seen).sum();
        let nodes: usize = tracers.iter().map(|t| t.nodes().len()).sum();
        self.count("scalatrace.capture.events", events as f64);
        self.count("scalatrace.capture.rank_nodes", nodes as f64);
        self.count("scalatrace.capture.ranks", nranks as f64);
        let id = self.enter("scalatrace.merge");
        let mut comms = CommTable::world(nranks);
        let mut seqs = Vec::with_capacity(tracers.len());
        for t in tracers {
            let (seq, c) = t.into_parts();
            comms.absorb(c);
            seqs.push(seq);
        }
        let nodes = self.merge_counted(seqs, nranks);
        self.exit(id);
        Trace {
            nranks,
            nodes,
            comms,
        }
    }

    /// The leaf merge itself. Traced, it goes through
    /// `merge_sequences_stats` with the arguments `merge_sequences` would
    /// pass, so the phase counters come from the measured call.
    pub fn merge_sequences(
        &mut self,
        seqs: Vec<Vec<scalatrace::TraceNode>>,
        world: usize,
    ) -> Vec<scalatrace::TraceNode> {
        if !self.tracing {
            return scalatrace::merge::merge_sequences(seqs, world);
        }
        let id = self.enter("scalatrace.merge");
        let out = self.merge_counted(seqs, world);
        self.exit(id);
        out
    }

    fn merge_counted(
        &mut self,
        seqs: Vec<Vec<scalatrace::TraceNode>>,
        world: usize,
    ) -> Vec<scalatrace::TraceNode> {
        self.count("scalatrace.merge.ranks_in", seqs.len() as f64);
        let (out, stats) = scalatrace::merge::merge_sequences_stats(
            seqs,
            world,
            par::threads(),
            MergeStrategy::default(),
        );
        let nodes_out: usize = out.iter().map(|n| n.node_count()).sum();
        self.count("scalatrace.merge.nodes_out", nodes_out as f64);
        self.count("scalatrace.merge.classes", stats.classes as f64);
        self.count("scalatrace.merge.rep_merges", stats.rep_merges as f64);
        self.count("scalatrace.merge.lcs_cells", stats.lcs_cells as f64);
        self.count("scalatrace.merge.zip_merges", stats.zip_merges as f64);
        self.count("scalatrace.merge.collisions", stats.collisions as f64);
        out
    }

    /// Trace → benchmark. Traced, the three stages run one by one in
    /// `benchgen::generate`'s order behind its pre-checks. `header` caches
    /// the provenance header `generate` builds (the one piece of it that is
    /// private), filled by the untraced call the warm-up pass always makes.
    pub fn generate(
        &mut self,
        trace: &Trace,
        header: &mut Option<Vec<String>>,
    ) -> Result<GeneratedBenchmark, String> {
        let opts = GenOptions::default();
        if !self.tracing {
            let g = benchgen::generate(trace, &opts).map_err(|e| sim_err("generate", e))?;
            *header = Some(g.program.header.clone());
            return Ok(g);
        }
        let outer = self.enter("benchgen.generate");
        let staged = self.generate_staged(trace, &opts, header);
        self.exit(outer);
        staged
    }

    fn generate_staged(
        &mut self,
        trace: &Trace,
        opts: &GenOptions,
        header: &Option<Vec<String>>,
    ) -> Result<GeneratedBenchmark, String> {
        let mut work: Trace;
        let mut current = trace;
        let mut aligned = false;
        if current.has_unaligned_collectives() {
            work = self
                .span("benchgen.align", || benchgen::align_collectives(current))
                .map_err(|e| sim_err("align", e))?;
            aligned = true;
            current = &work;
            self.count("benchgen.align.ran", 1.0);
        }
        let mut wildcards_resolved = 0;
        if current.has_wildcard_recv() {
            let outcome = self
                .span("benchgen.wildcard", || benchgen::resolve_wildcards(current))
                .map_err(|e| sim_err("resolve", e))?;
            wildcards_resolved = outcome.resolved;
            work = outcome.trace;
            current = &work;
            self.count("benchgen.wildcard.resolved", wildcards_resolved as f64);
        }
        let (mut program, notes) = self.span("benchgen.codegen", || {
            benchgen::codegen::program_of_with(current, opts.compute_threshold, opts.emit_comments)
        });
        program.header = header
            .clone()
            .ok_or("traced generate before any untraced one")?;
        while matches!(program.stmts.first(), Some(Stmt::Comment(_))) {
            program.stmts.remove(0);
        }
        self.count("benchgen.codegen.stmts", program.stmt_count() as f64);
        Ok(GeneratedBenchmark {
            program,
            aligned,
            wildcards_resolved,
            notes,
        })
    }

    pub fn print(&mut self, program: &Program) -> String {
        let text = self.span("conceptual.print", || conceptual::printer::print(program));
        self.count("conceptual.print.program_bytes", text.len() as f64);
        text
    }

    pub fn parse(&mut self, text: &str) -> Result<Program, String> {
        self.span("conceptual.parse", || conceptual::parser::parse(text))
            .map_err(|e| sim_err("parse", e))
    }

    /// Execute a generated program under the mpiP hook: one run yields the
    /// virtual time and the profile the output checks need.
    pub fn execute(
        &mut self,
        program: Arc<Program>,
        n: usize,
        model: Arc<dyn NetworkModel>,
    ) -> Result<(RunReport, MpiP), String> {
        let (report, hooks) = self
            .span("conceptual.interp.run", || {
                World::new(n)
                    .network(model)
                    .run_hooked(|_| MpiP::new(), move |ctx| run_rank(ctx, &program))
            })
            .map_err(|e| sim_err("execute", e))?;
        self.count("conceptual.interp.ops", report.stats.operations as f64);
        Ok((report, MpiP::merge_all(hooks.iter())))
    }

    /// The §5.2 check: the generated run's profile against the Table-1
    /// image of the profile reconstructed from the trace, and its call
    /// count against that image's.
    pub fn verify_profile(&mut self, trace: &Trace, generated: &MpiP) -> Result<(), String> {
        let errors = self.span("benchgen.verify", || {
            let original = benchgen::verify::profile_of_trace(trace);
            let expected = benchgen::verify::expected_profile(&original, trace.nranks);
            let mut errors = benchgen::verify::compare_profiles(&expected, generated, 0.05);
            if expected.total_calls() != generated.total_calls() {
                errors.push(format!(
                    "event count {} (trace, through Table 1) vs {} (generated run)",
                    expected.total_calls(),
                    generated.total_calls()
                ));
            }
            errors
        });
        self.count("benchgen.verify.profile_mismatches", errors.len() as f64);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

/// `100 · |T_gen − T_app| / T_app` in virtual time.
pub fn time_error_pct(t_app_ns: u64, t_gen_ns: u64) -> f64 {
    if t_app_ns == 0 {
        return 0.0;
    }
    100.0 * (t_gen_ns as f64 - t_app_ns as f64).abs() / t_app_ns as f64
}

/// What one job (one cell visit, one request) produced.
#[derive(Clone, Debug, Default)]
pub struct JobOutcome {
    pub cell: usize,
    /// Latency of the timed part of the job.
    pub ms: f64,
    /// When the job ran (ns since process start), to find the speedometer
    /// samples taken beside it.
    pub ran_ns: (u64, u64),
    /// Bytes of the artifacts the job produced.
    pub bytes: u64,
    /// FNV-1a over the artifacts and virtual times, compared with the
    /// cell's first visit. `None` for jobs whose output legitimately differs
    /// between visits (unique requests of `service_mix`).
    pub digest: Option<u64>,
    pub err_pct: Option<f64>,
    /// First failed output check, if any.
    pub fail: Option<String>,
}

/// Fold artifacts into one digest, length-prefixed so boundaries count.
pub fn digest_of(parts: &[&[u8]]) -> u64 {
    let mut acc = Vec::with_capacity(parts.len() * 16);
    for p in parts {
        acc.extend_from_slice(&(p.len() as u64).to_le_bytes());
        acc.extend_from_slice(&fnv1a(p).to_le_bytes());
    }
    fnv1a(&acc)
}

#[derive(Default)]
pub struct Cell {
    pub name: String,
    /// Latencies of the timed visits: wall time, and reference time (see
    /// [`crate::speed`]).
    pub samples_ms: Vec<f64>,
    pub ref_ms: Vec<f64>,
    first_digest: Option<u64>,
    /// Virtual-time error and artifact bytes of the cell's first visit. The
    /// first visit's inputs depend on the seed alone, so both repeat exactly
    /// however many passes the time budget allows.
    pub err_pct: Option<f64>,
    pub bytes: Option<u64>,
}

/// Everything a run records about its jobs.
#[derive(Default)]
pub struct Recorder {
    pub cells: Vec<Cell>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Latency of every timed job, in arrival order: wall and reference.
    pub job_ms: Vec<f64>,
    pub job_ref_ms: Vec<f64>,
    pub pass_s: Vec<f64>,
    pub pass_ref_s: Vec<f64>,
}

/// When a pass ran and what it cost.
pub struct PassTiming {
    pub ran_ns: (u64, u64),
    /// Wall and process-CPU seconds, the speedometer's own share removed.
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl PassTiming {
    /// Scale factor for a stretch of this pass: the share of the pass the
    /// process spent on a CPU is scaled by the machine's speed beside the
    /// stretch; the share it spent waiting is not.
    fn factor(&self, speed: &Speedometer, ran_ns: (u64, u64)) -> f64 {
        let busy = (self.cpu_s / self.wall_s).clamp(0.0, 1.0);
        1.0 - busy + busy * speed.factor(ran_ns.0, ran_ns.1)
    }
}

impl Recorder {
    pub fn new(cell_names: Vec<String>) -> Recorder {
        Recorder {
            cells: cell_names
                .into_iter()
                .map(|name| Cell {
                    name,
                    ..Cell::default()
                })
                .collect(),
            ..Recorder::default()
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Record one pass's jobs; `timed` passes also feed the latency samples.
    pub fn absorb(
        &mut self,
        outcomes: Vec<JobOutcome>,
        pass: &PassTiming,
        speed: &Speedometer,
        timed: bool,
    ) {
        for o in outcomes {
            self.attempted += 1;
            let cell = &mut self.cells[o.cell];
            let mut fail = o.fail;
            if let Some(d) = o.digest {
                match cell.first_digest {
                    None => cell.first_digest = Some(d),
                    Some(first) if first != d && fail.is_none() => {
                        fail = Some("artifacts differ from the cell's first visit".to_string());
                    }
                    Some(_) => {}
                }
            }
            cell.err_pct = cell.err_pct.or(o.err_pct);
            cell.bytes = cell.bytes.or(Some(o.bytes));
            if timed && fail.is_none() {
                let ref_ms = o.ms * pass.factor(speed, o.ran_ns);
                cell.samples_ms.push(o.ms);
                cell.ref_ms.push(ref_ms);
                self.job_ms.push(o.ms);
                self.job_ref_ms.push(ref_ms);
            }
            if let Some(why) = fail {
                let name = cell.name.clone();
                self.fail(format!("{name}: {why}"));
            }
        }
        if timed {
            self.pass_s.push(pass.wall_s);
            self.pass_ref_s
                .push(pass.wall_s * pass.factor(speed, pass.ran_ns));
        }
    }

    /// Bytes of the artifacts one pass produces.
    pub fn artifact_bytes(&self) -> u64 {
        self.cells.iter().filter_map(|c| c.bytes).sum()
    }

    /// Geometric mean over cells of each cell's median latency, in wall
    /// and in reference time.
    pub fn cell_geomean_ms(&self) -> (f64, f64) {
        let of = |pick: fn(&Cell) -> &Vec<f64>| {
            let medians: Vec<f64> = self
                .cells
                .iter()
                .map(pick)
                .filter(|samples| !samples.is_empty())
                .map(|samples| median(samples))
                .collect();
            geomean(&medians)
        };
        (of(|c| &c.samples_ms), of(|c| &c.ref_ms))
    }

    /// Mean over the cells that executed a generated program.
    pub fn time_error_pct(&self) -> f64 {
        let errs: Vec<f64> = self.cells.iter().filter_map(|c| c.err_pct).collect();
        if errs.is_empty() {
            0.0
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        }
    }
}

/// How a run was asked to behave.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One pass over the r16 cells only.
    pub smoke: bool,
    /// Scratch directory of this run, inside the build directory.
    pub scratch: PathBuf,
}

/// One of the four workloads. `setup` is the set-up; it must derive every
/// input from the seed and leave nothing behind but `scratch`.
pub trait Workload {
    fn cell_names(&self) -> Vec<String>;
    /// Driver threads (and span logs) the workload uses.
    fn driver_threads(&self) -> usize {
        1
    }
    /// Untimed work between passes (cloning inputs the next pass consumes).
    fn prepare(&mut self, _layers: &mut Layers) {}
    /// Visit every cell once, in `order`.
    fn pass(&mut self, pass: u32, order: &[usize], layers: &mut Layers) -> Vec<JobOutcome>;
    /// Untimed output checks after the timed passes.
    fn verify(&mut self, _layers: &mut Layers, _rec: &mut Recorder) {}
    /// Trace-only measurements outside any pass; returns per-layer metrics
    /// that are not span sums.
    fn probes(&mut self, _layers: &mut Layers, _rec: &mut Recorder) -> Counts {
        Counts::new()
    }
    /// Stop whatever the set-up started.
    fn teardown(self: Box<Self>) {}
}

/// A workload's set-up, as the pass loop calls it.
pub type Setup<'a> = &'a dyn Fn(&RunConfig) -> Result<Box<dyn Workload>, String>;

/// The numbers a run ends with.
pub struct RunResult {
    pub rec: Recorder,
    pub setup_s: Vec<f64>,
    pub layer: Counts,
    pub traced_pass_s: Vec<f64>,
    pub logs: Vec<SpanLog>,
    /// Median reference-kernel time over the run.
    pub kernel_ms: f64,
}

fn run_pass(
    w: &mut dyn Workload,
    pass: u32,
    rng: &mut Rng,
    layers: &mut Layers,
) -> (Vec<JobOutcome>, PassTiming) {
    let mut order: Vec<usize> = (0..w.cell_names().len()).collect();
    rng.shuffle(&mut order);
    w.prepare(layers);
    layers.counts.clear();
    for log in &mut layers.logs {
        log.set_job(pass << 16);
    }
    // One sample on either side of every pass, whatever ticks inside it.
    layers.speed.sample();
    let sampling = layers.speed.spent();
    let cpu0 = crate::sys::process_cpu_s();
    let t0_ns = layers.logs[0].now();
    let root = layers.tracing.then(|| layers.logs[0].enter("pass"));
    let t0 = Instant::now();
    let outcomes = w.pass(pass, &order, layers);
    let wall = t0.elapsed();
    if let Some(id) = root {
        layers.logs[0].set_job(pass << 16);
        layers.logs[0].exit(id);
    }
    let ran_ns = (t0_ns, layers.logs[0].now());
    let cpu_s = crate::sys::process_cpu_s() - cpu0;
    let sampling_s = (layers.speed.spent() - sampling).as_secs_f64();
    layers.speed.sample();
    let timing = PassTiming {
        ran_ns,
        wall_s: wall.as_secs_f64() - sampling_s,
        cpu_s: cpu_s - sampling_s,
    };
    (outcomes, timing)
}

/// Set up (several times, keeping the last), measure for `cfg.seconds`,
/// verify, tear down.
pub fn run_workload(
    cfg: &RunConfig,
    process_start: Instant,
    setup: Setup<'_>,
) -> Result<RunResult, String> {
    // setup_s is the median of several full set-ups, so that one slow page
    // cache miss does not read as a regression. A traced run reports no
    // setup_s and sets up once.
    let setups = if cfg.trace || cfg.smoke { 1 } else { 3 };
    let mut rng = Rng::new(cfg.seed);
    let mut setup_s = Vec::new();
    let mut current: Option<(Box<dyn Workload>, Recorder, Layers)> = None;
    let before_first = process_start.elapsed().as_secs_f64();
    for _ in 0..setups {
        if let Some((old, _, _)) = current.take() {
            old.teardown();
        }
        let t0 = Instant::now();
        let mut w = setup(cfg)?;
        let mut rec = Recorder::new(w.cell_names());
        let mut layers = Layers::new(process_start, w.driver_threads());
        if !cfg.smoke {
            // Warm-up: thread stacks, allocator arenas and the page cache
            // reach their steady state; the pass also records each cell's
            // reference digest and provenance header.
            let (outcomes, timing) = run_pass(w.as_mut(), 0, &mut rng, &mut layers);
            rec.absorb(outcomes, &timing, &layers.speed, false);
        }
        setup_s.push(before_first + t0.elapsed().as_secs_f64());
        current = Some((w, rec, layers));
    }
    let (mut w, mut rec, mut layers) = current.expect("at least one set-up");

    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut traced_pass_s = Vec::new();
    let mut pass = 1;
    loop {
        let (outcomes, timing) = run_pass(w.as_mut(), pass, &mut rng, &mut layers);
        rec.absorb(outcomes, &timing, &layers.speed, true);
        pass += 1;
        if cfg.trace {
            layers.tracing = true;
            let (outcomes, timing) = run_pass(w.as_mut(), pass, &mut rng, &mut layers);
            layers.tracing = false;
            rec.absorb(outcomes, &timing, &layers.speed, false);
            traced_pass_s.push(timing.wall_s);
            pass += 1;
        }
        if cfg.smoke || start.elapsed() >= budget {
            break;
        }
    }

    // Probes and the verify phase run outside any pass; traced, their spans
    // carry PROBE_PASS and their counts join the last traced pass's.
    let mut layer = std::mem::take(&mut layers.counts);
    layers.tracing = cfg.trace;
    for log in &mut layers.logs {
        log.set_job(PROBE_PASS << 16);
    }
    let extra = if cfg.trace {
        w.probes(&mut layers, &mut rec)
    } else {
        Counts::new()
    };
    let t0 = Instant::now();
    w.verify(&mut layers, &mut rec);
    layer.insert("bench.verify_s", t0.elapsed().as_secs_f64());
    layers.tracing = false;
    layer.append(&mut layers.counts);
    layer.extend(extra);
    w.teardown();
    Ok(RunResult {
        rec,
        setup_s,
        layer,
        traced_pass_s,
        kernel_ms: layers.speed.median_ms(),
        logs: layers.logs,
    })
}

/// Per traced pass, the summed self time of the spans of each name; then the
/// median over passes. Probe spans form a pass of their own, reported as is.
pub fn span_seconds(logs: &[SpanLog]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut per_pass: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
    let mut accounted = 0.0;
    let mut pass_total = 0.0;
    for log in logs {
        let selfs = self_times(&log.spans);
        for (s, &ns) in log.spans.iter().zip(&selfs) {
            let pass = s.job >> 16;
            *per_pass.entry((s.name, pass)).or_insert(0.0) += ns as f64 / 1e9;
            if pass != PROBE_PASS {
                match s.name {
                    "pass" => pass_total += (s.end_ns - s.start_ns) as f64 / 1e9,
                    name if name == "cell" || name.starts_with("bench.") => {}
                    _ => accounted += ns as f64 / 1e9,
                }
            }
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), s) in per_pass {
        by_name.entry(name).or_default().push(s);
    }
    let medians = by_name.into_iter().map(|(k, v)| (k, median(&v))).collect();
    let ratio = if pass_total > 0.0 {
        accounted / pass_total
    } else {
        0.0
    };
    (medians, ratio)
}

/// The end-to-end summary of a run. The three timing metrics come in
/// reference time (the contract metrics) and in plain wall time.
pub struct EndToEnd {
    pub setup_s: f64,
    pub pass_ref_s: f64,
    pub pass_s: f64,
    pub pass_quartiles: (f64, f64),
    pub passes: usize,
    pub cell_geomean_ref_ms: f64,
    pub cell_geomean_ms: f64,
    pub job_p95_ref_ms: f64,
    pub job_p95_ms: f64,
    pub p95_beyond: usize,
    pub peak_rss_mb: f64,
    pub artifact_bytes: u64,
    pub time_error_pct: f64,
}

impl EndToEnd {
    pub fn of(result: &RunResult) -> EndToEnd {
        let rec = &result.rec;
        let (job_p95_ms, p95_beyond) = p95(&rec.job_ms);
        let (cell_geomean_ms, cell_geomean_ref_ms) = rec.cell_geomean_ms();
        EndToEnd {
            setup_s: median(&result.setup_s),
            pass_ref_s: median(&rec.pass_ref_s),
            pass_s: median(&rec.pass_s),
            pass_quartiles: quartiles(&rec.pass_s),
            passes: rec.pass_s.len(),
            cell_geomean_ref_ms,
            cell_geomean_ms,
            job_p95_ref_ms: p95(&rec.job_ref_ms).0,
            job_p95_ms,
            p95_beyond,
            peak_rss_mb: crate::sys::peak_rss_mb().unwrap_or(0.0),
            artifact_bytes: rec.artifact_bytes(),
            time_error_pct: rec.time_error_pct(),
        }
    }
}
