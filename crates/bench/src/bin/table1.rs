#![forbid(unsafe_code)]
//! **Table 1 (E5)** — MPI-collective → coNCePTuaL mapping check.
//!
//! For every MPI collective, a tiny application issuing that collective is
//! traced and generated; the table reports which statements the mapping
//! produced and verifies that the generated benchmark's per-routine MPI
//! volume matches the Table-1 image of the original's (exactly, or on
//! average for the v-variants); it exits 1 if any collective's check fails.

use bench_suite::print_table;
use benchgen::verify::{compare_profiles, execute_profiled, expected_profile, run_profiled};
use benchgen::{generate, GenOptions};
use conceptual::ast::Stmt;
use miniapps::util::jittered;
use mpisim::network;
use mpisim::time::SimDuration;
use mpisim::types::CollKind;
use scalatrace::trace_app;
use std::process::ExitCode;
use std::sync::Arc;

fn stmt_kinds(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Sync { .. } => out.push("SYNCHRONIZE".into()),
                Stmt::Multicast { root: Some(_), .. } => out.push("MULTICAST".into()),
                Stmt::Multicast { root: None, .. } => out.push("MULTICAST(many-to-many)".into()),
                Stmt::Reduce { to, .. } => out.push(
                    match to {
                        conceptual::ast::ReduceTo::All => "REDUCE TO ALL",
                        conceptual::ast::ReduceTo::Task(_) => "REDUCE",
                    }
                    .into(),
                ),
                Stmt::For { body, .. } | Stmt::ForEach { body, .. } => walk(body, out),
                Stmt::If { then_, else_, .. } => {
                    walk(then_, out);
                    walk(else_, out);
                }
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out.dedup();
    out
}

fn issue(ctx: &mut mpisim::ctx::Ctx, kind: CollKind) {
    let w = ctx.world();
    // v-variants use rank-varying sizes to exercise the averaging rule
    let varied = jittered(
        SimDuration::from_nanos(1024),
        kind as u64,
        ctx.rank(),
        0,
        0.5,
    )
    .as_nanos();
    match kind {
        CollKind::Barrier => ctx.barrier(&w),
        CollKind::Bcast => ctx.bcast(0, 4096, &w),
        CollKind::Reduce => ctx.reduce(0, 1024, &w),
        CollKind::Allreduce => ctx.allreduce(1024, &w),
        CollKind::Gather => ctx.gather(0, 1024, &w),
        CollKind::Gatherv => ctx.gatherv(0, varied, &w),
        CollKind::Scatter => ctx.scatter(0, 1024, &w),
        CollKind::Scatterv => ctx.scatterv(0, varied, &w),
        CollKind::Allgather => ctx.allgather(1024, &w),
        CollKind::Allgatherv => ctx.allgatherv(varied, &w),
        CollKind::Alltoall => ctx.alltoall(4096, &w),
        CollKind::Alltoallv => ctx.alltoallv(varied * 4, &w),
        CollKind::ReduceScatter => ctx.reduce_scatter(4096, &w),
        CollKind::Finalize | CollKind::CommSplit => unreachable!(),
    }
}

fn main() -> ExitCode {
    let n = 8;
    println!("Table 1 reproduction: MPI collective -> coNCePTuaL mapping\n");
    let mut rows = Vec::new();
    let mut failed = 0;
    for &kind in CollKind::ALL {
        if matches!(kind, CollKind::Finalize | CollKind::CommSplit) {
            continue;
        }
        // a 3-iteration app issuing just this collective
        let app = move |ctx: &mut mpisim::ctx::Ctx| {
            for _ in 0..3 {
                issue(ctx, kind);
            }
            ctx.finalize();
        };
        let traced = trace_app(n, network::ideal(), app).expect("collective app runs");
        let generated = generate(&traced.trace, &GenOptions::default()).expect("generates");

        // profile original and generated
        let (_, orig) = run_profiled(n, network::ideal(), app).unwrap();
        let program = Arc::new(generated.program);
        let (_, genp) = execute_profiled(&program, &traced.trace, network::ideal()).unwrap();
        let errors = compare_profiles(&expected_profile(&orig, n), &genp, 0.02);

        failed += usize::from(!errors.is_empty());
        rows.push(vec![
            kind.mpi_name().to_string(),
            stmt_kinds(&program.stmts).join(" + "),
            if errors.is_empty() {
                "volume OK".to_string()
            } else {
                format!("MISMATCH: {}", errors.join("; "))
            },
            if generated.notes.is_empty() {
                "exact".to_string()
            } else {
                "averaged/substituted".to_string()
            },
        ]);
    }
    print_table(
        &[
            "MPI collective",
            "coNCePTuaL statements",
            "check",
            "fidelity",
        ],
        &rows,
    );
    if failed > 0 {
        eprintln!("FAILED: {failed} of {} collectives", rows.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
