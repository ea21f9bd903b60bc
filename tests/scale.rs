//! Scale smoke tests: the full pipeline at rank counts near the paper's
//! largest configurations (the paper's Figure 6 tops out at 256 nodes).

use benchgen::{generate, GenOptions};
use conceptual::interp::run_program;
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::world::World;
use scalatrace::merge::merge_sequences_stats;
use scalatrace::trace::{check_well_formed, CommTable, Trace};
use scalatrace::{trace_app, MergeStats, MergeStrategy, Tracer};

#[test]
fn ring_pipeline_at_256_ranks() {
    let app = registry::lookup("ring").unwrap();
    let params = AppParams {
        class: Class::S,
        iterations: Some(20),
        compute_scale: 1.0,
    };
    let traced = trace_app(256, network::blue_gene_l(), move |ctx| {
        (app.run)(ctx, &params)
    })
    .expect("256-rank ring runs");
    assert!(traced.trace.node_count() < 10, "compression holds at scale");

    let generated = generate(&traced.trace, &GenOptions::default()).expect("generates");
    assert!(generated.program.stmt_count() < 12);

    let outcome = run_program(&generated.program, 256, network::blue_gene_l())
        .expect("generated benchmark runs at 256 ranks");
    let a = traced.report.total_time.as_secs_f64();
    let g = outcome.total_time.as_secs_f64();
    let err = 100.0 * (g - a).abs() / a;
    assert!(err < 10.0, "{err:.2}% error at 256 ranks");
}

#[test]
fn lu_pipeline_at_128_ranks_resolves_all_wildcards() {
    let app = registry::lookup("lu").unwrap();
    let params = AppParams {
        class: Class::S,
        iterations: Some(4),
        compute_scale: 1.0,
    };
    let traced = trace_app(128, network::ideal(), move |ctx| (app.run)(ctx, &params))
        .expect("128-rank LU runs");
    assert!(traced.trace.has_wildcard_recv());
    let generated = generate(&traced.trace, &GenOptions::default()).expect("generates");
    assert!(generated.wildcards_resolved > 0);
    let text = conceptual::printer::print(&generated.program);
    assert!(!text.contains("FROM ANY TASK"));
    run_program(&generated.program, 128, network::ideal()).expect("runs at 128 ranks");
}

#[test]
fn sweep3d_alignment_at_64_ranks() {
    let app = registry::lookup("sweep3d").unwrap();
    let params = AppParams {
        class: Class::S,
        iterations: Some(2),
        compute_scale: 1.0,
    };
    let traced = trace_app(64, network::ideal(), move |ctx| (app.run)(ctx, &params))
        .expect("64-rank sweep3d runs");
    assert!(traced.trace.has_unaligned_collectives());
    let generated = generate(&traced.trace, &GenOptions::default()).expect("generates");
    assert!(generated.aligned);
    run_program(&generated.program, 64, network::ideal()).expect("runs at 64 ranks");
}

#[test]
fn extrapolated_ring_runs_at_4096_ranks() {
    let app = registry::lookup("ring").unwrap();
    let params = AppParams {
        class: Class::S,
        iterations: Some(10),
        compute_scale: 1.0,
    };
    let traced = trace_app(8, network::ideal(), move |ctx| (app.run)(ctx, &params)).unwrap();
    let big = scalatrace::extrap::extrapolate(&traced.trace, 4096).expect("extrapolates");
    let generated = generate(&big, &GenOptions::default()).expect("generates");
    let outcome =
        run_program(&generated.program, 4096, network::ideal()).expect("runs at 4096 ranks");
    assert_eq!(outcome.report.stats.messages, 4096 * 10);
}

/// MG traced at 16 ranks, extrapolated to 4 096 and executed there: every
/// rank sends what it sends in the direct traces at 16, 64 and 256 ranks.
#[test]
fn extrapolated_mg_runs_at_4096_ranks() {
    let app = registry::lookup("mg").unwrap();
    let params = AppParams::class(Class::S);
    let traced = trace_app(16, network::ideal(), move |ctx| (app.run)(ctx, &params)).unwrap();
    assert_eq!(traced.report.stats.messages, 96 * 16);
    let big = scalatrace::extrap::extrapolate(&traced.trace, 4096).expect("extrapolates");
    let generated = generate(&big, &GenOptions::default()).expect("generates");
    let outcome =
        run_program(&generated.program, 4096, network::ideal()).expect("runs at 4096 ranks");
    assert_eq!(outcome.report.stats.messages, 96 * 4096);
}

/// Registry cg's per-rank sequences, as the tracer hands them to the leaf
/// merge, merged by the class-collapsed strategy. Every rank splits the
/// world into a row and a column communicator; the split's result is a
/// per-rank parameter, so no rank is a merge class of its own.
fn merged_cg(ranks: usize) -> (Trace, MergeStats) {
    let app = registry::lookup("cg").unwrap();
    let params = AppParams {
        class: Class::S,
        iterations: Some(2),
        compute_scale: 1.0,
    };
    let (_, tracers) = World::new(ranks)
        .network(network::ideal())
        .run_hooked(
            move |r| Tracer::new(r, ranks),
            move |ctx| (app.run)(ctx, &params),
        )
        .expect("cg runs");
    let mut comms = CommTable::world(ranks);
    let seqs = tracers
        .into_iter()
        .map(|t| {
            let (seq, c) = t.into_parts();
            comms.absorb(c);
            seq
        })
        .collect();
    let (nodes, stats) = merge_sequences_stats(seqs, ranks, 1, MergeStrategy::ClassCollapsed);
    let trace = Trace {
        nranks: ranks,
        nodes,
        comms,
    };
    check_well_formed(trace.nranks, &trace.comms, &trace.nodes).expect("well-formed");
    (trace, stats)
}

#[test]
fn cg_ranks_merge_in_at_most_two_classes() {
    for ranks in [64, 256] {
        let (trace, stats) = merged_cg(ranks);
        assert!(stats.classes <= 2, "r{ranks}: {stats:?}");
        assert!(trace.node_count() < 64, "r{ranks}:\n{trace}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release")]
fn cg_ranks_merge_in_at_most_two_classes_at_1024() {
    let (trace, stats) = merged_cg(1024);
    assert!(stats.classes <= 2, "{stats:?}");
    assert!(trace.node_count() < 64, "{trace}");
}
