//! `pipeline_npb` — the user's path, `commgen --app X --run`, at the paper's
//! Figure 6 scales: every registry application at 16 and 64 ranks, class S,
//! on the Ethernet-cluster model, through capture → generate → print →
//! parse → execute.
//!
//! `mpisim` does more than 95 % of the work here, half under the tracer and
//! half under the interpreter, so a simulator or interpreter change shows
//! on this workload and a generator change does not.

use crate::harness::{
    digest_of, time_error_pct, Counts, JobOutcome, Lane, Layers, Recorder, RunConfig, Workload,
};
use crate::stats::Rng;
use crate::workloads::seeded_scale;
use miniapps::{registry, App, AppParams, Class};
use mpisim::network;
use scalatrace::stream::trace_to_bytes;
use std::sync::Arc;
use std::time::Instant;

struct Cell {
    app: &'static App,
    ranks: usize,
    params: AppParams,
    /// The provenance header `benchgen::generate` gave this cell's program.
    header: Option<Vec<String>>,
}

pub struct PipelineNpb {
    cells: Vec<Cell>,
}

impl PipelineNpb {
    pub fn setup(cfg: &RunConfig) -> Result<Box<dyn Workload>, String> {
        let mut rng = Rng::new(cfg.seed ^ (1 << 32));
        let rank_counts: &[usize] = if cfg.smoke { &[16] } else { &[16, 64] };
        let mut cells = Vec::new();
        for app in registry::all() {
            for &ranks in rank_counts {
                if !(app.valid_ranks)(ranks) {
                    return Err(format!("{} cannot run on {ranks} ranks", app.name));
                }
                cells.push(Cell {
                    app,
                    ranks,
                    params: AppParams {
                        class: Class::S,
                        iterations: None,
                        compute_scale: seeded_scale(&mut rng),
                    },
                    header: None,
                });
            }
        }
        Ok(Box::new(PipelineNpb { cells }))
    }
}

/// One cell visit: the timed pipeline, then the output checks.
fn visit(cell: &mut Cell, lane: &mut Lane<'_>) -> JobOutcome {
    let mut out = JobOutcome::default();
    let model = network::ethernet_cluster();
    let n = cell.ranks;
    let t0 = Instant::now();
    let run = (|| {
        let traced = lane.capture(cell.app, n, cell.params, model.clone())?;
        let generated = lane.generate(&traced.trace, &mut cell.header)?;
        let text = lane.print(&generated.program);
        let parsed = lane.parse(&text)?;
        let program = Arc::new(parsed);
        let (report, profile) = lane.execute(program.clone(), n, model.clone())?;
        Ok::<_, String>((traced, generated, text, program, report, profile))
    })();
    out.ms = t0.elapsed().as_secs_f64() * 1e3;
    let (traced, generated, text, program, report, profile) = match run {
        Ok(parts) => parts,
        Err(why) => {
            out.fail = Some(why);
            return out;
        }
    };

    let check = lane.enter("bench.check");
    let stbs = trace_to_bytes(&traced.trace);
    let t_app = traced.report.total_time.as_nanos();
    let t_gen = report.total_time.as_nanos();
    out.bytes = (stbs.len() + text.len()) as u64;
    out.digest = Some(digest_of(&[
        &stbs,
        text.as_bytes(),
        &t_app.to_le_bytes(),
        &t_gen.to_le_bytes(),
    ]));
    out.err_pct = Some(time_error_pct(t_app, t_gen));
    if *program != generated.program {
        out.fail = Some("parse(print(p)) != p".to_string());
    } else if let Err(why) = lane.verify_profile(&traced.trace, &profile) {
        out.fail = Some(why);
    }
    lane.exit(check);
    out
}

impl Workload for PipelineNpb {
    fn cell_names(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|c| format!("{}_r{}", c.app.name, c.ranks))
            .collect()
    }

    fn pass(&mut self, pass: u32, order: &[usize], layers: &mut Layers) -> Vec<JobOutcome> {
        layers
            .lane()
            .visit_cells(pass, order, |i, lane| visit(&mut self.cells[i], lane))
    }

    /// What `mpisim` alone costs on the same cells (a plain `World::run`),
    /// and what leaving the run unpinned costs.
    fn probes(&mut self, layers: &mut Layers, _rec: &mut Recorder) -> Counts {
        let mut extra = Counts::new();
        let mut lane = layers.lane();
        let mut ops = 0.0;
        let t0 = Instant::now();
        for cell in &self.cells {
            match lane.app_run(
                cell.app,
                cell.ranks,
                cell.params,
                network::ethernet_cluster(),
            ) {
                Ok(report) => ops += report.stats.operations as f64,
                Err(why) => eprintln!("probe: {} r{}: {why}", cell.app.name, cell.ranks),
            }
        }
        let pinned_s = t0.elapsed().as_secs_f64();
        if ops > 0.0 {
            extra.insert("mpisim.us_per_op", pinned_s * 1e6 / ops);
        }
        // The same plain runs unpinned: the placement effect pinning removes.
        lane.tracing = false;
        let unpinned_s = crate::unpinned(|| {
            let t0 = Instant::now();
            for cell in &self.cells {
                let _ = lane.app_run(
                    cell.app,
                    cell.ranks,
                    cell.params,
                    network::ethernet_cluster(),
                );
            }
            t0.elapsed().as_secs_f64()
        });
        if let Some(s) = unpinned_s {
            extra.insert("mpisim.unpinned_ratio", s / pinned_s);
        }
        extra
    }
}
