//! The generated program is O(1) in iterations (ROADMAP item 2(b)).
//!
//! Every registry app at {16, 64, 256} ranks (valid sizes only), class S,
//! is traced at two iterations and at the class default. Where the two
//! *traces* have the same node count — the capture already folded the
//! iterations away — the generated programs must have the same statement
//! count too, so a growing program is the generator's doing, not the
//! tracer's. Pairs that miss that precondition are skipped by it, never by
//! app name, and printed.
//!
//! Since the capture's fold window covers MG's V-cycle, only is and lu are
//! skipped, and neither for want of a window: is sorts with per-iteration
//! `MPI_Alltoallv` sizes (6 trace nodes at 2 iterations, 22 at the
//! default), and lu's trace is 60 nodes at 2 iterations and 61 at the
//! default.

use benchgen::{generate, GenOptions};
use miniapps::{registry, App, AppParams, Class};
use mpisim::network;
use scalatrace::{trace_app, Trace};

fn trace(app: &'static App, n: usize, iterations: Option<usize>) -> Trace {
    let params = AppParams {
        class: Class::S,
        iterations,
        compute_scale: 1.0,
    };
    trace_app(n, network::ideal(), move |ctx| (app.run)(ctx, &params))
        .unwrap_or_else(|e| panic!("{} r{n} fails to trace: {e}", app.name))
        .trace
}

fn stmts(app: &App, n: usize, trace: &Trace) -> usize {
    generate(trace, &GenOptions::default())
        .unwrap_or_else(|e| panic!("{} r{n} fails to generate: {e}", app.name))
        .program
        .stmt_count()
}

#[test]
fn statement_count_is_independent_of_iterations_where_the_trace_is() {
    let mut checked = Vec::new();
    let mut skipped = Vec::new();
    let mut failures = Vec::new();
    for app in registry::all() {
        for n in [16, 64, 256] {
            if !(app.valid_ranks)(n) {
                continue;
            }
            let (two, default) = (trace(app, n, Some(2)), trace(app, n, None));
            let cell = format!("{} r{n}", app.name);
            if two.node_count() != default.node_count() {
                skipped.push(format!(
                    "{cell} (trace nodes {} at 2 iterations, {} at the default)",
                    two.node_count(),
                    default.node_count()
                ));
                continue;
            }
            let (s2, sd) = (stmts(app, n, &two), stmts(app, n, &default));
            if s2 != sd {
                failures.push(format!(
                    "{cell}: {s2} statements at 2 iterations, {sd} at the default"
                ));
            }
            checked.push(cell);
        }
    }
    println!("checked: {}", checked.join(", "));
    println!(
        "skipped, capture grows with iterations: {}",
        skipped.join(", ")
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        checked.iter().any(|c| c == "cg r256"),
        "cg r256, the case this property was written for, must be checked"
    );
    assert!(
        checked.iter().any(|c| c == "mg r16"),
        "mg r16, whose V-cycle the capture folds, must be checked"
    );
}
