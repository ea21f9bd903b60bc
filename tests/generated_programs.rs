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
//! and say in the change why the bytes moved.
//!
//! The rest of the file holds the generator to what its own analyzer
//! accepts: `generate` refuses a program `analyze::validate` rejects, and
//! two splits from one call site stay two `PARTITION`s, so cg's second
//! generation (the program generated from a trace of the generated
//! program) validates, runs and takes gen1's virtual time. Its 256-rank
//! cell runs only in release: `cargo test --release --test
//! generated_programs`.

use benchgen::{generate, GenError, GenOptions};
use conceptual::ast::{Program, Stmt};
use conceptual::interp::{run_program, run_rank};
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::time::SimTime;
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
            let text = conceptual::printer::print(&program);
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
                    result: 3,
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
    let text = conceptual::printer::print(&program);
    assert_eq!(partitions(&program), 2, "{text}");
    let outcome = run_program(&program, 4, network::ideal()).expect("runs");
    // two splits and four reduces
    assert_eq!(outcome.report.stats.collectives, 6, "{text}");
}

/// Generate cg's program at `ranks` (gen1), trace a run of it, generate
/// again (gen2): gen2 validates, runs, and takes gen1's virtual time.
fn cg_second_generation(ranks: usize) {
    let ethernet = network::ethernet_cluster;
    let app = registry::lookup("cg").expect("cg");
    let params = AppParams::class(Class::S);
    let run = app.run;
    let traced = trace_app(ranks, ethernet(), move |ctx| run(ctx, &params)).expect("traces");
    let gen1 = generate(&traced.trace, &GenOptions::default())
        .expect("gen1")
        .program;
    let time = |program: &Program| -> SimTime {
        run_program(program, ranks, ethernet())
            .expect("runs")
            .total_time
    };
    let program = Arc::new(gen1.clone());
    let retraced =
        trace_app(ranks, ethernet(), move |ctx| run_rank(ctx, &program)).expect("re-traces");
    let gen2 = generate(&retraced.trace, &GenOptions::default())
        .unwrap_or_else(|e| panic!("cg r{ranks}: gen2 must validate: {e}"))
        .program;
    assert_eq!(partitions(&gen2), partitions(&gen1), "cg r{ranks}");
    assert_eq!(time(&gen2), time(&gen1), "cg r{ranks}: T(gen2) != T(gen1)");
}

#[test]
fn cg_second_generation_runs_in_gen1_time() {
    cg_second_generation(16);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release")]
fn cg_second_generation_runs_in_gen1_time_at_256_ranks() {
    cg_second_generation(256);
}
