#![forbid(unsafe_code)]
//! **§5.2 (E1/E2)** — communication correctness of generated benchmarks.
//!
//! E1: per-routine MPI event counts and volumes of the generated benchmark
//! match the (Table-1 image of the) original application's mpiP profile.
//! E2: the generated benchmark's own ScalaTrace trace is semantically
//! equivalent to the original's, after replay-style normalisation.
//!
//! The paper reports both checks passing for all NPB codes and Sweep3D
//! ("results not presented"); this binary presents the table, and exits 1
//! if any app fails either check.

use bench_suite::print_table;
use benchgen::verify::{compare_profiles, execute_profiled, expected_profile, run_profiled};
use benchgen::{generate, GenOptions};
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::types::CollKind;
use scalatrace::{trace_app, ConcreteOp};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let n_default = 16;
    println!("Section 5.2 reproduction: communication correctness\n");
    let mut rows = Vec::new();
    let mut failed = 0;
    for app in registry::paper_suite() {
        let ranks = [n_default, 16, 9, 8]
            .into_iter()
            .find(|&n| (app.valid_ranks)(n))
            .unwrap();
        let params = AppParams::class(Class::W);
        let body = move |ctx: &mut mpisim::ctx::Ctx| (app.run)(ctx, &params);

        let traced = trace_app(ranks, network::ideal(), body).expect("app runs");
        let generated = generate(&traced.trace, &GenOptions::default()).expect("generates");

        // E1: mpiP profiles
        let (_, orig_prof) = run_profiled(ranks, network::ideal(), body).unwrap();
        let program = Arc::new(generated.program);
        let (_, gen_prof) = execute_profiled(&program, &traced.trace, network::ideal()).unwrap();
        let e1 = compare_profiles(&expected_profile(&orig_prof, ranks), &gen_prof, 0.02);

        // E2: trace the generated benchmark, compare normalised event
        // streams per rank
        let regen = trace_app(ranks, network::ideal(), move |ctx| {
            conceptual::interp::run_rank(ctx, &program)
        })
        .unwrap()
        .trace;
        let mut e2_ok = true;
        let mut e2_detail = String::new();
        'outer: for r in 0..ranks {
            let a = normalised(&traced.trace, r);
            let b = normalised(&regen, r);
            if a.len() != b.len() {
                e2_ok = false;
                e2_detail = format!("rank {r}: {} vs {} events", a.len(), b.len());
                break;
            }
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                if !events_match(x, y) {
                    e2_ok = false;
                    e2_detail = format!("rank {r} event {i}: {x} vs {y}");
                    break 'outer;
                }
            }
        }

        failed += usize::from(!e1.is_empty() || !e2_ok);
        rows.push(vec![
            app.name.to_string(),
            ranks.to_string(),
            orig_prof.total_calls().to_string(),
            gen_prof.total_calls().to_string(),
            if e1.is_empty() {
                "match".to_string()
            } else {
                format!("MISMATCH ({})", e1.len())
            },
            if e2_ok {
                "equivalent".to_string()
            } else {
                format!("DIFFERS: {e2_detail}")
            },
        ]);
        if !e1.is_empty() {
            for e in &e1 {
                eprintln!("  {}: {e}", app.name);
            }
        }
    }
    print_table(
        &[
            "app",
            "ranks",
            "orig calls",
            "gen calls",
            "E1 counts+volumes",
            "E2 semantics",
        ],
        &rows,
    );
    if failed > 0 {
        eprintln!("FAILED: {failed} of {} apps", rows.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Event equivalence: identical, or an `MPI_ANY_SOURCE` receive in the
/// original resolved to a concrete source in the generated benchmark —
/// exactly Algorithm 2's transformation (§4.4).
fn events_match(orig: &str, generated: &str) -> bool {
    if orig == generated {
        return true;
    }
    if let (Some(o), Some(g)) = (
        orig.strip_prefix("recv:Any:"),
        generated.strip_prefix("recv:"),
    ) {
        // generated must be a concrete receive with the same size/blocking
        if let Some((_, rest)) = g.split_once(':') {
            return rest == o && g.starts_with("Rank(");
        }
    }
    false
}

/// Per-rank op stream with the substitutions E1 tolerates normalised away:
/// collective kinds map through Table 1 (shape only) and Finalize → Barrier.
fn normalised(trace: &scalatrace::Trace, rank: usize) -> Vec<String> {
    scalatrace::events_for_rank(trace, rank)
        .into_iter()
        .map(|e| match e.op {
            ConcreteOp::Send {
                to,
                bytes,
                blocking,
                ..
            } => format!("send:{to}:{bytes}:{blocking}"),
            ConcreteOp::Recv {
                from,
                bytes,
                blocking,
                ..
            } => format!("recv:{from:?}:{bytes}:{blocking}"),
            ConcreteOp::Wait { count } => format!("wait:{count}"),
            ConcreteOp::CommSplit { .. } => "split".to_string(),
            ConcreteOp::Coll { kind, .. } => match kind {
                CollKind::Finalize | CollKind::Barrier => "barrier".to_string(),
                CollKind::Gather | CollKind::Gatherv | CollKind::Reduce => "reduce".to_string(),
                CollKind::Scatter | CollKind::Scatterv | CollKind::Bcast => "bcast".to_string(),
                CollKind::Alltoall | CollKind::Alltoallv => "alltoall".to_string(),
                CollKind::Allgather | CollKind::Allgatherv => "allgather".to_string(),
                other => format!("{other:?}"),
            },
        })
        .collect()
}
