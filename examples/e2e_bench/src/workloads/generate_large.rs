//! `generate_large` — the paper's contribution doing all the work and
//! `mpisim` none: traces captured once in set-up, then decode → Algorithm 1
//! / Algorithm 2 / code generation → print → parse in the timed region.
//!
//! The cells are the traces that make the generator work hardest: CG at 256
//! ranks (its program does not fold across iterations and is hundreds of
//! KB), LU at 1024 ranks (thousands of wildcard receives for Algorithm 2),
//! Sweep3D at 256 ranks (collectives from different call sites for
//! Algorithm 1), and class A at 64 ranks. It is the bypass workload for
//! simulator changes and the exercise workload for generator changes.
//! After timing, a verify phase executes each program once.
//!
//! Iteration counts are cut so that three set-ups fit the run-time cap;
//! every iteration of these applications has the same structure, so the
//! generator's work per event is unchanged.

use crate::harness::{
    digest_of, time_error_pct, Counts, JobOutcome, Lane, Layers, Recorder, RunConfig, Workload,
    PROBE_PASS,
};
use crate::stats::Rng;
use crate::workloads::seeded_scale;
use conceptual::ast::Program;
use miniapps::{registry, App, AppParams, Class};
use mpisim::network;
use scalatrace::stream::{trace_from_bytes, trace_to_bytes};
use std::sync::Arc;
use std::time::Instant;

/// `(app, ranks, class, iterations)`.
const CELLS: [(&str, usize, Class, usize); 7] = [
    ("cg", 256, Class::S, 8),
    ("lu", 1024, Class::S, 2),
    ("sweep3d", 256, Class::S, 1),
    ("cg", 64, Class::A, 15),
    ("lu", 64, Class::A, 25),
    ("mg", 64, Class::A, 4),
    ("sweep3d", 64, Class::A, 1),
];

const SMOKE_CELLS: [(&str, usize, Class, usize); 4] = [
    ("cg", 16, Class::S, 15),
    ("lu", 16, Class::S, 5),
    ("sweep3d", 16, Class::S, 2),
    ("mg", 16, Class::S, 4),
];

struct Cell {
    name: String,
    app: &'static App,
    ranks: usize,
    params: AppParams,
    /// The captured trace as STBS bytes: what the timed region starts from.
    stbs: Vec<u8>,
    t_app_ns: u64,
    header: Option<Vec<String>>,
    /// The program of the latest visit, for the verify phase.
    program: Option<Arc<Program>>,
}

pub struct GenerateLarge {
    cells: Vec<Cell>,
}

impl GenerateLarge {
    pub fn setup(cfg: &RunConfig) -> Result<Box<dyn Workload>, String> {
        let mut rng = Rng::new(cfg.seed ^ (2 << 32));
        let table: &[_] = if cfg.smoke { &SMOKE_CELLS } else { &CELLS };
        let mut cells = Vec::new();
        for &(name, ranks, class, iterations) in table {
            let app = registry::lookup(name).ok_or(format!("no app {name}"))?;
            let params = AppParams {
                class,
                iterations: Some(iterations),
                compute_scale: seeded_scale(&mut rng),
            };
            let run = app.run;
            let traced = scalatrace::trace_app(ranks, network::ethernet_cluster(), move |ctx| {
                run(ctx, &params)
            })
            .map_err(|e| format!("set-up capture of {name} r{ranks}: {e}"))?;
            cells.push(Cell {
                name: format!("{name}_r{ranks}_{}", class.name()),
                app,
                ranks,
                params,
                stbs: trace_to_bytes(&traced.trace),
                t_app_ns: traced.report.total_time.as_nanos(),
                header: None,
                program: None,
            });
        }
        Ok(Box::new(GenerateLarge { cells }))
    }
}

fn visit(cell: &mut Cell, lane: &mut Lane<'_>) -> JobOutcome {
    let mut out = JobOutcome::default();
    let t0 = Instant::now();
    let run = (|| {
        let trace = lane
            .span("scalatrace.codec.stbs_decode", || {
                trace_from_bytes(&cell.stbs)
            })
            .map_err(|e| format!("decode: {e}"))?;
        let generated = lane.generate(&trace, &mut cell.header)?;
        let text = lane.print(&generated.program);
        let parsed = lane.parse(&text)?;
        Ok::<_, String>((generated, text, parsed))
    })();
    out.ms = t0.elapsed().as_secs_f64() * 1e3;
    match run {
        Ok((generated, text, parsed)) => {
            let check = lane.enter("bench.check");
            lane.count("scalatrace.codec.stbs_bytes", cell.stbs.len() as f64);
            out.bytes = (cell.stbs.len() + text.len()) as u64;
            out.digest = Some(digest_of(&[text.as_bytes()]));
            if parsed != generated.program {
                out.fail = Some("parse(print(p)) != p".to_string());
            }
            cell.program = Some(Arc::new(parsed));
            lane.exit(check);
        }
        Err(why) => out.fail = Some(why),
    }
    out
}

impl Workload for GenerateLarge {
    fn cell_names(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.name.clone()).collect()
    }

    fn pass(&mut self, pass: u32, order: &[usize], layers: &mut Layers) -> Vec<JobOutcome> {
        layers
            .lane()
            .visit_cells(pass, order, |i, lane| visit(&mut self.cells[i], lane))
    }

    /// What a plain run of each cell's application costs: the base of
    /// `conceptual.interp.overhead_ratio`.
    fn probes(&mut self, layers: &mut Layers, _rec: &mut Recorder) -> Counts {
        let mut lane = layers.lane();
        for (i, cell) in self.cells.iter().enumerate() {
            lane.set_job(PROBE_PASS, i as u32 + 1);
            if let Err(why) = lane.app_run(
                cell.app,
                cell.ranks,
                cell.params,
                network::ethernet_cluster(),
            ) {
                eprintln!("probe: {}: {why}", cell.name);
            }
        }
        Counts::new()
    }

    /// Execute every generated program once: profile against the trace,
    /// virtual time against the application's.
    fn verify(&mut self, layers: &mut Layers, rec: &mut Recorder) {
        let mut lane = layers.lane();
        for (i, cell) in self.cells.iter().enumerate() {
            lane.set_job(PROBE_PASS, i as u32 + 1);
            rec.attempted += 1;
            let checked = (|| {
                let program = cell.program.clone().ok_or("no program was generated")?;
                let (report, profile) =
                    lane.execute(program, cell.ranks, network::ethernet_cluster())?;
                let trace = trace_from_bytes(&cell.stbs).map_err(|e| format!("decode: {e}"))?;
                lane.verify_profile(&trace, &profile)?;
                Ok::<_, String>(report.total_time.as_nanos())
            })();
            match checked {
                Ok(t_gen_ns) => {
                    rec.cells[i].err_pct = Some(time_error_pct(cell.t_app_ns, t_gen_ns))
                }
                Err(why) => rec.fail(format!("{} (verify): {why}", cell.name)),
            }
        }
    }
}
