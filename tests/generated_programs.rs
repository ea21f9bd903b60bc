//! The generator's output, frozen. Nothing else pins generated program text
//! byte for byte, so `tests/fixtures/generated_programs.golden` holds one
//! line per registry app × {4, 16} ranks × provenance comments off / on:
//! class S on the ethernet model, traced and generated with the default
//! options, each line the printed length, an FNV-1a of the printed text and
//! `stmt_count()`. A refactor of the generator must leave the file as it
//! is. If a deliberate change to the generator, the tracer or a miniapp
//! moves a line, regenerate with
//!
//! ```text
//! GENERATED_PROGRAMS_REGEN=1 cargo test --test generated_programs
//! ```
//!
//! and say in the change why the bytes moved. cg's rows moved once: a
//! split's result became a per-rank parameter, so cg's ranks merge into
//! two classes instead of one each and its merged trace shrank. The
//! program header's trace-node count (28 → 19 at 4 ranks, 51 → 25 at 16)
//! and with it the FNV changed; no statement did.
//!
//! The rest of the file holds the generator to what its own analyzer
//! accepts, and to its own fixed point: `generate` refuses a program
//! `analyze::validate` rejects; two splits from one call site stay two
//! `PARTITION`s; and for every registry app at {4, 16, 64} ranks the
//! program generated from a trace of the generated program (gen2) is the
//! one generated from a trace of gen2 (gen3), makes gen1's MPI calls and
//! takes gen1's virtual time. The registry's 256-rank cells run only in
//! release: `cargo test --release --test generated_programs`.

use benchgen::verify::{compare_profiles, execute_profiled, timing_error_pct};
use benchgen::{generate, GenError, GenOptions};
use conceptual::ast::{Program, Stmt};
use conceptual::interp::{run_program, run_rank};
use conceptual::printer::print;
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::types::{CollKind, Fnv1a};
use scalatrace::params::{CommParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{check_well_formed, OpTemplate, Rsd, Trace, TraceNode};
use scalatrace::trace_app;
use std::path::PathBuf;
use std::sync::Arc;

const RANKS: [usize; 2] = [4, 16];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/generated_programs.golden")
}

/// The golden lines of one app at one size: comments off, then on.
fn lines(name: &str, ranks: usize) -> Vec<String> {
    let app = registry::lookup(name).expect("registry app");
    assert!((app.valid_ranks)(ranks), "{name} at {ranks} ranks");
    let params = AppParams::class(Class::S);
    let run = app.run;
    let traced = trace_app(ranks, network::ethernet_cluster(), move |ctx| {
        run(ctx, &params)
    })
    .unwrap_or_else(|e| panic!("{name} fails to trace: {e}"));
    [false, true]
        .into_iter()
        .map(|emit_comments| {
            let opts = GenOptions {
                emit_comments,
                ..GenOptions::default()
            };
            let program = generate(&traced.trace, &opts)
                .unwrap_or_else(|e| panic!("{name} fails to generate: {e}"))
                .program;
            let text = print(&program);
            let mut fnv = Fnv1a::new();
            fnv.write(text.as_bytes());
            format!(
                "{name} r{ranks} comments={} bytes={} fnv={:016x} stmts={}",
                if emit_comments { "on" } else { "off" },
                text.len(),
                fnv.finish(),
                program.stmt_count()
            )
        })
        .collect()
}

#[test]
fn generated_programs_match_the_golden() {
    let got: Vec<String> = registry::all()
        .iter()
        .flat_map(|app| RANKS.iter().flat_map(|&r| lines(app.name, r)))
        .collect();
    let path = golden_path();
    if std::env::var_os("GENERATED_PROGRAMS_REGEN").is_some() {
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); see the module docs",
            path.display()
        )
    });
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), got.len(), "one line per app, size and mode");
    for (got, want) in got.iter().zip(golden) {
        assert_eq!(got, want, "the golden holds another line");
    }
}

/// One RSD of a hand-built trace.
fn node(ranks: impl IntoIterator<Item = usize>, sig: u64, op: OpTemplate) -> TraceNode {
    TraceNode::Event(Rsd {
        ranks: RankSet::from_ranks(ranks),
        sig,
        op,
        compute: TimeStats::new(),
    })
}

fn split(parent: u32, result: u32, ranks: impl IntoIterator<Item = usize>) -> TraceNode {
    let result = CommParam::Const(result);
    node(ranks, 1, OpTemplate::CommSplit { parent, result })
}

/// A 4-rank trace with `comms` declared and `nodes` as its sequence,
/// checked the way a trace reader checks one.
fn hand_built(comms: &[(u32, Vec<usize>)], nodes: Vec<TraceNode>) -> Trace {
    let mut trace = Trace::new(4);
    for (id, members) in comms {
        trace.comms.insert(*id, members.clone());
    }
    trace.nodes = nodes;
    check_well_formed(trace.nranks, &trace.comms, &trace.nodes).expect("well-formed");
    trace
}

/// Top-level `PARTITION` statements (the generator emits splits before
/// the main loop).
fn partitions(program: &Program) -> usize {
    let is_partition = |s: &&Stmt| matches!(s, Stmt::Partition { .. });
    program.stmts.iter().filter(is_partition).count()
}

#[test]
fn generate_refuses_a_program_its_analyzer_rejects() {
    // comm 1 = {0, 1}, and a split of comm 1 yields the group {2, 3}: the
    // trace reads as well-formed, but no task of comm 3 is in its parent.
    let trace = hand_built(
        &[(1, vec![0, 1]), (2, vec![2, 3]), (3, vec![2, 3])],
        vec![
            split(0, 1, 0..2),
            split(0, 2, 2..4),
            node(
                2..4,
                2,
                OpTemplate::CommSplit {
                    parent: 1,
                    result: CommParam::Const(3),
                },
            ),
        ],
    );
    match generate(&trace, &GenOptions::default()) {
        Err(GenError::InvalidProgram(errors)) => {
            assert!(
                errors
                    .iter()
                    .any(|e| e == "group comm3: task 2 is not in the parent set"),
                "{errors:?}"
            );
            let shown = GenError::InvalidProgram(errors).to_string();
            assert!(shown.contains("task 2"), "{shown}");
        }
        other => panic!("generate must refuse the program: {other:?}"),
    }
}

#[test]
fn two_splits_from_one_site_stay_two_partitions() {
    // Rows {0-1}, {2-3}, then columns {0, 2}, {1, 3}, all from one call
    // site; a reduce over each row and each column uses them.
    let reduce = |sig, pieces: [(usize, usize, u32); 2]| {
        let comm = CommParam::Piecewise(
            pieces
                .iter()
                .map(|&(a, b, id)| (RankSet::from_ranks([a, b]), id))
                .collect(),
        );
        let op = OpTemplate::Coll {
            kind: CollKind::Allreduce,
            root: None,
            bytes: ValParam::Const(64),
            comm,
        };
        node(0..4, sig, op)
    };
    let trace = hand_built(
        &[
            (1, vec![0, 1]),
            (2, vec![2, 3]),
            (3, vec![0, 2]),
            (4, vec![1, 3]),
        ],
        vec![
            split(0, 1, 0..2),
            split(0, 2, 2..4),
            split(0, 3, [0, 2]),
            split(0, 4, [1, 3]),
            reduce(2, [(0, 1, 1), (2, 3, 2)]),
            reduce(3, [(0, 2, 3), (1, 3, 4)]),
        ],
    );
    let program = generate(&trace, &GenOptions::default())
        .expect("generates")
        .program;
    let text = print(&program);
    assert_eq!(partitions(&program), 2, "{text}");
    let outcome = run_program(&program, 4, network::ideal()).expect("runs");
    // two splits and four reduces
    assert_eq!(outcome.report.stats.collectives, 6, "{text}");
}

/// The generator's fixed point at one cell, class S on ethernet: generate
/// from the app's trace (gen1), from a trace of gen1 (gen2) and from a
/// trace of gen2 (gen3). gen2 and gen3 validate and are one program, byte
/// for byte and in virtual time; gen2 makes gen1's MPI calls under E1's
/// tolerance and takes gen1's time within 1 %. Each generation's run takes
/// at least as many engine ops as its source trace has events, which is
/// what lets the execute stage refuse an over-budget trace before it runs.
/// Returns gen2's printed length minus gen1's.
fn fixed_point(name: &str, ranks: usize) -> i64 {
    let ethernet = network::ethernet_cluster;
    let app = registry::lookup(name).expect("registry app");
    let params = AppParams::class(Class::S);
    let run = app.run;
    let cell = format!("{name} r{ranks}");
    let traced = trace_app(ranks, ethernet(), move |ctx| run(ctx, &params))
        .unwrap_or_else(|e| panic!("{cell} fails to trace: {e}"));
    // Each generation with the trace it was generated from.
    let generate_from = |trace: Trace, which: &str| -> (Arc<Program>, Trace) {
        let generated = generate(&trace, &GenOptions::default())
            .unwrap_or_else(|e| panic!("{cell}: {which} must validate: {e}"));
        (Arc::new(generated.program), trace)
    };
    let next = |(program, _): &(Arc<Program>, Trace), which: &str| {
        let program = Arc::clone(program);
        let retraced = trace_app(ranks, ethernet(), move |ctx| run_rank(ctx, &program))
            .unwrap_or_else(|e| panic!("{cell}: {which} fails to re-trace: {e}"));
        generate_from(retraced.trace, which)
    };
    let profiled = |(program, source): &(Arc<Program>, Trace)| {
        let (report, mpip) = execute_profiled(program, source, ethernet()).expect("runs");
        let (ops, events) = (report.stats.operations, source.concrete_event_count());
        assert!(ops >= events, "{cell}: {ops} ops for {events} events");
        (report.total_time, mpip)
    };
    let gen1 = generate_from(traced.trace, "gen1");
    let gen2 = next(&gen1, "gen2");
    let gen3 = next(&gen2, "gen3");
    let (text1, text2) = (print(&gen1.0), print(&gen2.0));
    assert_eq!(text2, print(&gen3.0), "{cell}: gen3 is not gen2");
    let ((t1, mpip1), (t2, mpip2), (t3, _)) = (profiled(&gen1), profiled(&gen2), profiled(&gen3));
    assert_eq!(t3, t2, "{cell}: T(gen3) != T(gen2)");
    let differences = compare_profiles(&mpip1, &mpip2, 0.02);
    assert!(
        differences.is_empty(),
        "{cell}: mpiP(gen2) differs from mpiP(gen1): {differences:?}"
    );
    let error = timing_error_pct(t1, t2);
    assert!(error <= 1.0, "{cell}: T(gen2) is {error:.3} % off T(gen1)");
    if name == "cg" {
        assert_eq!(partitions(&gen2.0), partitions(&gen1.0), "{cell}");
    }
    text2.len() as i64 - text1.len() as i64
}

/// [`fixed_point`] over the registry at `sizes`, printing each app's
/// gen1 → gen2 byte delta.
fn registry_fixed_points(sizes: &[usize]) {
    for app in registry::all() {
        let deltas: Vec<String> = sizes
            .iter()
            .map(|&ranks| format!("r{ranks} {:+} B", fixed_point(app.name, ranks)))
            .collect();
        println!("{}: gen1 -> gen2 {}", app.name, deltas.join(", "));
    }
}

#[test]
fn second_generation_is_a_fixed_point() {
    registry_fixed_points(&[4, 16, 64]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release")]
fn second_generation_is_a_fixed_point_at_256_ranks() {
    registry_fixed_points(&[256]);
}
