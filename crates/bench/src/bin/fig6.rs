#![forbid(unsafe_code)]
//! **Figure 6 (E3)** — time accuracy of generated benchmarks.
//!
//! For every application of the paper's suite and every rank count in its
//! sweep: run the original on the simulated Blue Gene/L, generate its
//! coNCePTuaL benchmark, run the benchmark on the same machine, and report
//! both total times plus the per-point and mean absolute percentage error
//! (the paper reports 2.9% MAPE overall, with LU@256 at 22% and SP@16 at
//! 10% as the only points above 10%).
//!
//! With `--replay`, a ScalaReplay column is added: the trace replayed
//! directly (the paper's baseline execution vehicle) vs. the generated
//! benchmark, separating trace-level from generation-level error.
//!
//! Usage: `fig6 [--class S|W|A|B|C] [--max-ranks N] [--replay]`

use bench_suite::{mape, measure_accuracy, print_table, read_flags, AccuracyRow};
use miniapps::{registry, AppParams, Class};
use mpisim::network;

fn main() {
    let mut class = Class::A;
    let mut max_ranks: usize = 64;
    let mut with_replay = false;
    read_flags(
        "fig6 [--class S|W|A|B|C] [--max-ranks N] [--replay]",
        |flag, argv| {
            match flag {
                "--class" => class = argv.parsed()?,
                "--max-ranks" => max_ranks = argv.parsed()?,
                "--replay" => with_replay = true,
                _ => return Ok(false),
            }
            Ok(true)
        },
    );

    println!("Figure 6 reproduction: time accuracy for generated benchmarks");
    println!("network: BlueGene/L (simulated); class {}\n", class.name());

    let network = network::blue_gene_l();
    let mut rows: Vec<AccuracyRow> = Vec::new();
    let mut printable: Vec<Vec<String>> = Vec::new();
    for app in registry::paper_suite() {
        for &ranks in app.fig6_ranks {
            if ranks > max_ranks {
                continue;
            }
            let params = AppParams::class(class);
            match measure_accuracy(app, ranks, params, network.clone()) {
                Ok((row, generated)) => {
                    let mut cells = vec![
                        row.app.to_string(),
                        row.ranks.to_string(),
                        format!("{:.4}", row.t_app.as_secs_f64()),
                        format!("{:.4}", row.t_gen.as_secs_f64()),
                        format!("{:.2}", row.err_pct()),
                        generated.program.stmt_count().to_string(),
                    ];
                    if with_replay {
                        let traced = bench_suite::trace_of(app, ranks, params, network.clone())
                            .expect("traced above already");
                        let replayed = scalatrace::replay::replay(&traced.trace, network.clone())
                            .expect("replays");
                        cells.insert(4, format!("{:.4}", replayed.total_time.as_secs_f64()));
                    }
                    printable.push(cells);
                    rows.push(row);
                }
                Err(e) => {
                    eprintln!("SKIP {e}");
                }
            }
        }
    }
    if with_replay {
        print_table(
            &[
                "app",
                "ranks",
                "T_app [s]",
                "T_gen [s]",
                "T_replay [s]",
                "err %",
                "stmts",
            ],
            &printable,
        );
    } else {
        print_table(
            &["app", "ranks", "T_app [s]", "T_gen [s]", "err %", "stmts"],
            &printable,
        );
    }
    println!(
        "\nmean absolute percentage error: {:.2}%  (paper: 2.9%)",
        mape(&rows)
    );
    let worst = rows
        .iter()
        .max_by(|a, b| a.err_pct().total_cmp(&b.err_pct()));
    if let Some(w) = worst {
        println!(
            "worst point: {} @ {} ranks: {:.2}%  (paper: LU@256 at 22%)",
            w.app,
            w.ranks,
            w.err_pct()
        );
    }
}
