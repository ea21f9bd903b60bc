#![forbid(unsafe_code)]
//! **E7** — the complexity claim of §4.3/§4.4: Algorithms 1 (collective
//! alignment) and 2 (wildcard resolution) are O(p·e), with O(r)
//! pre-checks.
//!
//! A synthetic trace lets p and the iteration count vary apart (see
//! `bench_suite::synthetic_trace`): four events per rank per iteration, so
//! e = 4·p·iterations. Every cell runs both algorithms on the trace
//! unrolled (`flat`) and as one loop (`looped`), and prints the events each
//! walked, an exact count that is the same on any machine, beside r (the
//! trace nodes the pre-checks visit) and a median wall time. Unrolled,
//! nothing repeats and the walk is all e events. Looped, the walk stops
//! once the state repeats, after two iterations (8·p events), and skips
//! the rest; the wall time still grows with the loop count because the
//! skipped periods are re-appended to the output node by node (ROADMAP
//! item 12(d)).
//!
//! Exits 1 if either algorithm walks more than e events in any cell.
//!
//! Usage: `complexity`

use bench_suite::{complexity_cells, print_table, synthetic_trace};
use benchgen::align::align_collectives_walked;
use benchgen::wildcard::resolve_wildcards_walked;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Runs per median.
const REPS: usize = 21;

/// The median wall time of [`REPS`] runs of `f`, in microseconds.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

fn main() -> ExitCode {
    println!("E7: events walked by Algorithm 1 (align) and Algorithm 2 (wildcards)\n");
    let mut over = 0;
    for (heading, looped) in [
        ("(a) flat: iterations unrolled", false),
        ("(b) looped: one loop", true),
    ] {
        println!("{heading}");
        let rows: Vec<Vec<String>> = complexity_cells()
            .map(|(p, iterations)| {
                let trace = synthetic_trace(p, iterations, looped);
                let e = trace.concrete_event_count();
                let (_, align_walked) = align_collectives_walked(&trace).expect("aligns");
                let (_, resolve_walked) = resolve_wildcards_walked(&trace).expect("resolves");
                over += usize::from(align_walked > e) + usize::from(resolve_walked > e);
                vec![
                    p.to_string(),
                    iterations.to_string(),
                    e.to_string(),
                    trace.node_count().to_string(),
                    align_walked.to_string(),
                    resolve_walked.to_string(),
                    format!("{:.0}", median_us(|| align_collectives_walked(&trace))),
                    format!("{:.0}", median_us(|| resolve_wildcards_walked(&trace))),
                ]
            })
            .collect();
        print_table(
            &[
                "p",
                "iterations",
                "e",
                "r",
                "walked A1",
                "walked A2",
                "A1 [us]",
                "A2 [us]",
            ],
            &rows,
        );
        println!();
    }
    if over > 0 {
        eprintln!("FAILED: {over} walk(s) longer than the trace's e events");
        return ExitCode::FAILURE;
    }
    println!("every walk is at most e events (O(p·e))");
    ExitCode::SUCCESS
}
