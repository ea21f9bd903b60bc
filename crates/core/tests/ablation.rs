//! Ablations of the generator's design choices: what happens when
//! Algorithm 1 or Algorithm 2 is disabled, and what the compute-statement
//! threshold trades away. These pin down *why* the pipeline needs each
//! stage (DESIGN.md §5).

use benchgen::{generate, GenError, GenOptions};
use conceptual::printer::print;
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::time::SimDuration;
use scalatrace::trace_app;

fn params() -> AppParams {
    AppParams {
        class: Class::S,
        iterations: Some(2),
        compute_scale: 1.0,
    }
}

/// Without Algorithm 1, Sweep3D's split-call-site collectives remain
/// separate partial-communicator RSDs, and the generated program stops
/// being a valid benchmark: some collectives reach it with a single task
/// as their subject, so `generate` refuses it. With Algorithm 1 the same
/// trace generates cleanly.
#[test]
fn without_algorithm1_split_collectives_stay_partial() {
    let app = registry::lookup("sweep3d").unwrap();
    let p = params();
    let traced = trace_app(8, network::ideal(), move |ctx| (app.run)(ctx, &p)).unwrap();
    assert!(traced.trace.has_unaligned_collectives());

    let refused = generate(
        &traced.trace,
        &GenOptions {
            align_collectives: false,
            ..GenOptions::default()
        },
    );
    match refused {
        Err(GenError::InvalidProgram(errors)) => assert!(
            errors
                .iter()
                .all(|e| e.contains("requires a multi-task subject")),
            "{errors:?}"
        ),
        other => panic!("an unaligned sweep3d must fail validation: {other:?}"),
    }
    // the un-aligned program contains collectives over *partial* task
    // sets: SYNCHRONIZE/REDUCE statements with SUCH THAT subjects
    let (without, _) = benchgen::codegen::program_of_with(&traced.trace, SimDuration::ZERO, false);
    let text = print(&without);
    let partial_colls = text
        .lines()
        .filter(|l| (l.contains("SYNCHRONIZE") || l.contains("REDUCE")) && l.contains("SUCH THAT"))
        .count();
    assert!(
        partial_colls > 0,
        "disabling Algorithm 1 must leave partial collectives:\n{text}"
    );

    let with = generate(&traced.trace, &GenOptions::default()).expect("generates");
    assert!(with.aligned);
    let text = print(&with.program);
    let partial_colls = text
        .lines()
        .filter(|l| (l.contains("SYNCHRONIZE") || l.contains("REDUCE")) && l.contains("SUCH THAT"))
        .count();
    assert_eq!(
        partial_colls, 0,
        "Algorithm 1 must leave no partial collectives:\n{text}"
    );
}

/// Without Algorithm 2, wildcard receives survive into the generated
/// program, so the benchmark's matching — and therefore its timing — is
/// schedule-dependent, defeating the reproducibility goal (§4.4).
#[test]
fn without_algorithm2_wildcards_survive() {
    let app = registry::lookup("lu").unwrap();
    let p = params();
    let traced = trace_app(8, network::ideal(), move |ctx| (app.run)(ctx, &p)).unwrap();
    assert!(traced.trace.has_wildcard_recv());

    let without = generate(
        &traced.trace,
        &GenOptions {
            resolve_wildcards: false,
            ..GenOptions::default()
        },
    )
    .expect("generates");
    assert_eq!(without.wildcards_resolved, 0);
    assert!(
        print(&without.program).contains("FROM ANY TASK"),
        "wildcards must survive when Algorithm 2 is disabled"
    );

    let with = generate(&traced.trace, &GenOptions::default()).expect("generates");
    assert!(with.wildcards_resolved > 0);
    assert!(!print(&with.program).contains("FROM ANY TASK"));
}

/// The compute threshold drops small COMPUTE statements: the program
/// shrinks, and the timing error grows — the readability/accuracy dial.
#[test]
fn compute_threshold_trades_accuracy_for_size() {
    let app = registry::lookup("bt").unwrap();
    let p = AppParams {
        class: Class::S,
        iterations: Some(6),
        compute_scale: 1.0,
    };
    let net = network::blue_gene_l();
    let traced = trace_app(9, net.clone(), move |ctx| (app.run)(ctx, &p)).unwrap();
    let t_app = traced.report.total_time.as_secs_f64();

    let mut prev_stmts = usize::MAX;
    let mut errors = Vec::new();
    for threshold_us in [0u64, 50, 10_000] {
        let generated = generate(
            &traced.trace,
            &GenOptions {
                compute_threshold: SimDuration::from_usecs(threshold_us),
                ..GenOptions::default()
            },
        )
        .expect("generates");
        let stmts = generated.program.stmt_count();
        assert!(
            stmts <= prev_stmts,
            "larger threshold must not grow the program"
        );
        prev_stmts = stmts;
        let outcome = conceptual::interp::run_program(&generated.program, 9, net.clone()).unwrap();
        errors.push((outcome.total_time.as_secs_f64() - t_app).abs() / t_app);
    }
    // dropping *all* computation must cost real accuracy
    assert!(
        errors[2] > errors[0] + 0.05,
        "threshold=10ms error {:.3} should exceed threshold=0 error {:.3}",
        errors[2],
        errors[0]
    );
}

/// Everything disabled at once still produces a printable artifact — the
/// "naive conversion" of §4.1 — demonstrating the options are independent.
#[test]
fn naive_conversion_is_still_printable() {
    let app = registry::lookup("lu").unwrap();
    let p = params();
    let traced = trace_app(8, network::ideal(), move |ctx| (app.run)(ctx, &p)).unwrap();
    let naive = generate(
        &traced.trace,
        &GenOptions {
            align_collectives: false,
            resolve_wildcards: false,
            compute_threshold: SimDuration::from_secs(3600),
            emit_comments: true,
        },
    )
    .expect("generates");
    let text = print(&naive.program);
    let parsed = conceptual::parser::parse(&text).expect("still parses");
    assert_eq!(parsed, naive.program);
}
