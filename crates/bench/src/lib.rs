#![forbid(unsafe_code)]
//! # bench-suite — experiment harness
//!
//! Shared machinery for the binaries that regenerate the paper's tables and
//! figures (see DESIGN.md §4 for the experiment index):
//!
//! | binary               | paper artifact |
//! |----------------------|----------------|
//! | `sec52_correctness`  | §5.2 event-count/volume and semantic equivalence (E1/E2) |
//! | `fig6`               | Figure 6 — time accuracy per app × rank count (E3) |
//! | `fig7`               | Figure 7 — BT what-if compute scaling (E4) |
//! | `table1`             | Table 1 — collective mapping check (E5) |
//! | `scalability`        | §2 — trace/benchmark size vs ranks & events (E6) |
//! | `complexity`         | §4.3/§4.4 — events Algorithms 1 and 2 walk vs p·e (E7) |

use benchgen::verify::timing_error_pct;
use benchgen::{generate, GenOptions, GeneratedBenchmark};
use commspec::cli::Argv;
use conceptual::interp::run_program;
use miniapps::{App, AppParams};
use mpisim::error::SimError;
use mpisim::network::NetworkModel;
use mpisim::time::SimTime;
use mpisim::types::{CollKind, TagSel};
use scalatrace::params::{CommParam, RankParam, SrcParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{OpTemplate, Prsd, Rsd, TraceNode};
use scalatrace::{trace_app, Trace};
use std::process::exit;
use std::sync::Arc;

/// One end-to-end measurement: original application vs generated benchmark
/// on the same simulated machine.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    pub app: &'static str,
    pub ranks: usize,
    /// Original application total time.
    pub t_app: SimTime,
    /// Generated benchmark total time.
    pub t_gen: SimTime,
}

impl AccuracyRow {
    /// The paper's error metric: `100% * |T_gen - T_app| / T_app`.
    pub fn err_pct(&self) -> f64 {
        timing_error_pct(self.t_app, self.t_gen)
    }
}

/// Trace, generate, and re-run one application configuration.
pub fn measure_accuracy(
    app: &'static App,
    ranks: usize,
    params: AppParams,
    network: Arc<dyn NetworkModel>,
) -> Result<(AccuracyRow, GeneratedBenchmark), String> {
    let traced = trace_of(app, ranks, params, Arc::clone(&network))
        .map_err(|e| format!("{}@{ranks}: trace failed: {e}", app.name))?;
    let generated = generate(&traced.trace, &GenOptions::default())
        .map_err(|e| format!("{}@{ranks}: generation failed: {e}", app.name))?;
    let outcome = run_program(&generated.program, ranks, network)
        .map_err(|e| format!("{}@{ranks}: generated benchmark failed: {e}", app.name))?;
    Ok((
        AccuracyRow {
            app: app.name,
            ranks,
            t_app: traced.report.total_time,
            t_gen: outcome.total_time,
        },
        generated,
    ))
}

/// Trace an application only.
pub fn trace_of(
    app: &'static App,
    ranks: usize,
    params: AppParams,
    network: Arc<dyn NetworkModel>,
) -> Result<scalatrace::TracedRun, SimError> {
    trace_app(ranks, network, move |ctx| (app.run)(ctx, &params))
}

/// Mean absolute percentage error over a set of rows (the paper's summary
/// statistic: 2.9% across all of Figure 6).
pub fn mape(rows: &[AccuracyRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(AccuracyRow::err_pct).sum::<f64>() / rows.len() as f64
}

/// Compressed/uncompressed size summary of a trace:
/// `(trace nodes, concrete events, serialised bytes)`.
pub fn size_summary(trace: &Trace) -> (usize, u64, usize) {
    (
        trace.node_count(),
        trace.concrete_event_count(),
        scalatrace::text::serialized_size(trace),
    )
}

/// Print a fixed-width table: header then rows of equal arity.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Read a harness binary's flags with the one argv reader. `apply` sets
/// one flag from `argv` and says whether it knew it. `--help` prints
/// `usage` and exits 0; a bad, missing or unknown value prints its
/// diagnostic and exits 2.
pub fn read_flags(usage: &str, mut apply: impl FnMut(&str, &mut Argv) -> Result<bool, String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut argv = Argv::new(&args);
    while let Some(flag) = argv.flag() {
        if matches!(flag, "--help" | "-h") {
            println!("Usage: {usage}");
            exit(0);
        }
        let refusal = match apply(flag, &mut argv) {
            Ok(true) => continue,
            Ok(false) => argv.unknown(),
            Err(msg) => msg,
        };
        eprintln!("{refusal}");
        exit(2);
    }
}

/// E7's cells as `(ranks, iterations)`: iterations 10 … 160 at 16 ranks,
/// then 8 … 128 ranks at 25 iterations.
pub fn complexity_cells() -> impl Iterator<Item = (usize, u64)> {
    let iterations = [10, 20, 40, 80, 160].map(|i| (16, i));
    let ranks = [8, 16, 32, 64, 128].map(|p| (p, 25));
    iterations.into_iter().chain(ranks)
}

/// E7's synthetic trace: `iterations` iterations on `p` ranks of a
/// wildcard receive, a ring send, a wait and a barrier issued from two
/// call sites (one per rank parity), so both Algorithm 1 and Algorithm 2
/// have work. `looped` makes the iterations one loop, whose repeated
/// periods the algorithms skip; otherwise they are unrolled and nothing
/// repeats.
pub fn synthetic_trace(p: usize, iterations: u64, looped: bool) -> Trace {
    let mut t = Trace::new(p);
    if looped {
        t.nodes.push(TraceNode::Loop(Prsd {
            count: iterations,
            body: iteration(p),
        }));
    } else {
        for _ in 0..iterations {
            t.nodes.extend(iteration(p));
        }
    }
    t
}

/// One iteration of the synthetic trace: four events on every rank.
fn iteration(p: usize) -> Vec<TraceNode> {
    let event = |ranks, sig, op| {
        TraceNode::Event(Rsd {
            ranks,
            sig,
            op,
            compute: TimeStats::new(),
        })
    };
    let recv = OpTemplate::Recv {
        from: SrcParam::Any,
        tag: TagSel::Is(0),
        bytes: ValParam::Const(512),
        comm: CommParam::Const(0),
        blocking: false,
    };
    let send = OpTemplate::Send {
        to: RankParam::OffsetMod {
            offset: 1,
            modulus: p,
        },
        tag: 0,
        bytes: ValParam::Const(512),
        comm: CommParam::Const(0),
        blocking: false,
    };
    let wait = OpTemplate::Wait {
        count: ValParam::Const(2),
    };
    let barrier = OpTemplate::Coll {
        kind: CollKind::Barrier,
        root: None,
        bytes: ValParam::Const(0),
        comm: CommParam::Const(0),
    };
    vec![
        event(RankSet::all(p), 1, recv),
        event(RankSet::all(p), 2, send),
        event(RankSet::all(p), 3, wait),
        event(RankSet::from_ranks((0..p).step_by(2)), 4, barrier.clone()),
        event(RankSet::from_ranks((1..p).step_by(2)), 5, barrier),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::align::align_collectives_walked;
    use benchgen::wildcard::resolve_wildcards_walked;
    use miniapps::registry;
    use mpisim::network;

    #[test]
    fn accuracy_row_math() {
        let row = AccuracyRow {
            app: "x",
            ranks: 4,
            t_app: SimTime::from_nanos(1_000),
            t_gen: SimTime::from_nanos(1_100),
        };
        assert!((row.err_pct() - 10.0).abs() < 1e-9);
        let rows = vec![
            row.clone(),
            AccuracyRow {
                t_gen: SimTime::from_nanos(900),
                ..row
            },
        ];
        assert!((mape(&rows) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn e7_walks_are_exact() {
        // Flat, nothing repeats: both algorithms walk every event. Looped,
        // both stop after two iterations, at any loop count and any p.
        for (p, iterations) in complexity_cells() {
            let e = 4 * p as u64 * iterations;
            for (looped, walked) in [(false, e), (true, 8 * p as u64)] {
                let trace = synthetic_trace(p, iterations, looped);
                assert_eq!(trace.concrete_event_count(), e);
                let (_, align) = align_collectives_walked(&trace).expect("aligns");
                let (_, resolve) = resolve_wildcards_walked(&trace).expect("resolves");
                assert_eq!(
                    (align, resolve),
                    (walked, walked),
                    "p {p}, {iterations} iterations, looped {looped}"
                );
            }
        }
    }

    #[test]
    fn measure_accuracy_runs_end_to_end() {
        let app = registry::lookup("ring").unwrap();
        let (row, generated) =
            measure_accuracy(app, 4, AppParams::quick(), network::ethernet_cluster()).unwrap();
        assert!(row.t_app.as_nanos() > 0);
        assert!(row.t_gen.as_nanos() > 0);
        assert!(generated.program.stmt_count() > 0);
        // generated ring should track the original closely
        assert!(row.err_pct() < 15.0, "ring error {:.1}%", row.err_pct());
    }
}
