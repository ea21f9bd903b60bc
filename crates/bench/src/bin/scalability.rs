#![forbid(unsafe_code)]
//! **E6** — the size-scalability claim of §1/§2: the generated benchmark
//! grows *sublinearly* in both the number of processes and the number of
//! communication events, unlike flat trace formats.
//!
//! Sweeps (a) rank count at fixed iterations and (b) iteration count at
//! fixed ranks, reporting: concrete MPI events (what a flat trace would
//! store), compressed trace nodes, serialised trace bytes, and generated
//! program statements.

use bench_suite::{print_table, size_summary, trace_of};
use benchgen::{generate, GenOptions};
use miniapps::{registry, App, AppParams, Class};
use mpisim::network;

const HEADER: [&str; 8] = [
    "app",
    "ranks",
    "iters",
    "MPI events",
    "flat bytes",
    "trace nodes",
    "trace bytes",
    "stmts",
];

/// Class W; `iterations: None` runs the class's own count.
fn row(app: &'static App, ranks: usize, iterations: Option<usize>) -> Vec<String> {
    let params = AppParams {
        iterations,
        ..AppParams::class(Class::W)
    };
    let traced = trace_of(app, ranks, params, network::ideal()).expect("runs");
    let (nodes, events, bytes) = size_summary(&traced.trace);
    let flat = scalatrace::text::flat_size(&traced.trace);
    let generated = generate(&traced.trace, &GenOptions::default()).expect("generates");
    vec![
        app.name.to_string(),
        ranks.to_string(),
        iterations.map_or("-".to_string(), |i| i.to_string()),
        events.to_string(),
        flat.to_string(),
        nodes.to_string(),
        bytes.to_string(),
        generated.program.stmt_count().to_string(),
    ]
}

fn main() {
    println!("E6: trace/benchmark size scalability (sublinear growth claim)\n");
    let ring = registry::lookup("ring").expect("registered");

    println!("(a) rank sweep at fixed 200 iterations (ring):");
    let rows: Vec<_> = [8, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|ranks| row(ring, ranks, Some(200)))
        .collect();
    print_table(&HEADER, &rows);

    println!("\n(b) iteration sweep at fixed 32 ranks (ring):");
    let rows: Vec<_> = [10, 100, 1_000, 10_000]
        .into_iter()
        .map(|iters| row(ring, 32, Some(iters)))
        .collect();
    print_table(&HEADER, &rows);

    println!("\n(c) the paper suite at 16 ranks, class W defaults:");
    let rows: Vec<_> = registry::paper_suite()
        .into_iter()
        .map(|app| {
            let ranks = [16, 9, 8]
                .into_iter()
                .find(|&n| (app.valid_ranks)(n))
                .unwrap();
            row(app, ranks, None)
        })
        .collect();
    print_table(&HEADER, &rows);
}
