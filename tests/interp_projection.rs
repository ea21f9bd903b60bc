//! A rank iterates over its own projection of a loop, and it does not show:
//! every generated benchmark and a set of hand-written programs run through
//! `run_rank` (loops projected) and through `run_rank_unprojected` (every
//! statement of every iteration walked, membership tested each time) must
//! produce the same reports, hook events, profiles and re-traces. The
//! hand-written programs are the cases where dropping a statement that
//! does not name the rank would be wrong.

use benchgen::{generate, GenOptions};
use conceptual::ast::Program;
use conceptual::interp::{run_rank, run_rank_unprojected};
use conceptual::parser::parse;
use miniapps::{registry, AppParams, Class};
use mpisim::hooks::RecordingHook;
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::world::{RunReport, World};
use mpisim::Ctx;
use scalatrace::stream::trace_to_bytes;
use scalatrace::text::to_text;
use scalatrace::{trace_app, trace_world};
use std::sync::Arc;

type Interp = fn(&mut Ctx, &Program);
const BOTH: [Interp; 2] = [run_rank, run_rank_unprojected];

fn world(n: usize) -> World {
    World::new(n).network(network::ethernet_cluster())
}

/// Everything of a report that a run determines.
fn report_fields(r: &RunReport) -> String {
    format!(
        "{:?} {:?} {:?} crossings {}",
        r.total_time, r.per_rank_time, r.stats, r.crossings
    )
}

#[test]
fn generated_programs_run_identically_projected_and_walked() {
    const RANKS: usize = 16;
    for app in registry::all() {
        let params = AppParams::class(Class::S);
        let run = app.run;
        let traced = trace_app(RANKS, network::ethernet_cluster(), move |ctx| {
            run(ctx, &params)
        })
        .unwrap_or_else(|e| panic!("{} fails to trace: {e}", app.name));
        let program = generate(&traced.trace, &GenOptions::default())
            .unwrap_or_else(|e| panic!("{} fails to generate: {e}", app.name))
            .program;
        let program = Arc::new(program);

        let [projected, walked] = BOTH.map(|interp| {
            let p = Arc::clone(&program);
            let (report, hooks) = world(RANKS)
                .run_hooked(|_| MpiP::new(), move |ctx| interp(ctx, &p))
                .unwrap_or_else(|e| panic!("{} benchmark fails: {e}", app.name));
            let p = Arc::clone(&program);
            let retrace = trace_world(world(RANKS), RANKS, move |ctx| interp(ctx, &p))
                .unwrap_or_else(|e| panic!("{} benchmark fails to trace: {e}", app.name))
                .trace;
            (
                report_fields(&report),
                MpiP::merge_all(hooks.iter()).to_string(),
                to_text(&retrace),
                trace_to_bytes(&retrace),
            )
        });
        assert_eq!(projected.0, walked.0, "{}: report", app.name);
        assert_eq!(projected.1, walked.1, "{}: mpiP profile", app.name);
        assert_eq!(projected.2, walked.2, "{}: re-trace text", app.name);
        assert_eq!(projected.3, walked.3, "{}: re-trace STBS", app.name);
    }
}

/// Run `src` on `n` ranks both ways, require identical reports and per-rank
/// hook events, and return the projected run's report.
fn same_both_ways(src: &str, n: usize) -> RunReport {
    let program = Arc::new(parse(src).unwrap_or_else(|e| panic!("{e}\n{src}")));
    let [projected, walked] = BOTH.map(|interp| {
        let p = Arc::clone(&program);
        let (report, hooks) = world(n)
            .run_hooked(|_| RecordingHook::default(), move |ctx| interp(ctx, &p))
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        let events: Vec<String> = hooks.iter().map(|h| format!("{:?}", h.events)).collect();
        (report, events)
    });
    assert_eq!(
        report_fields(&projected.0),
        report_fields(&walked.0),
        "{src}"
    );
    assert_eq!(projected.1, walked.1, "{src}");
    projected.0
}

#[test]
fn task_sets_over_a_loop_variable_stay() {
    // Who sends and who receives changes with `i`: nothing can be dropped.
    let report = same_both_ways(
        r#"
FOR EACH i IN {0, ..., 2} {
  TASK i SEND A 256 BYTE MESSAGE TO TASK i + 1
  TASK i + 1 RECEIVE A 256 BYTE MESSAGE FROM TASK i
  TASK i + 1 COMPUTE FOR 3 * i + 1 MICROSECONDS
}
"#,
        4,
    );
    assert_eq!(report.stats.messages, 3);
    assert!(report.per_rank_time[3] > report.per_rank_time[0]);
}

#[test]
fn a_group_declared_after_its_first_use_in_a_loop_stays() {
    // Nobody is in `late` during the first iteration, tasks 0-1 are from
    // the second one on: membership is run-time state.
    let report = same_both_ways(
        r#"
FOR 3 REPETITIONS {
  GROUP late COMPUTE FOR 5 MICROSECONDS
  GROUP late IS TASKS t SUCH THAT t IS IN {0-1}
  ALL TASKS COMPUTE FOR 1 MICROSECONDS
}
"#,
        4,
    );
    let us = |r: usize| report.per_rank_time[r].as_nanos() / 1_000;
    assert_eq!((us(0), us(1), us(2), us(3)), (13, 13, 3, 3));
}

#[test]
fn sends_stay_for_their_destinations_while_receives_are_auto_posted() {
    // Task 1 appears in no task set, yet must post the matching receives.
    let report = same_both_ways(
        r#"
FOR 3 REPETITIONS {
  TASK 0 SEND A 64 BYTE MESSAGE TO TASK 1
  TASK 2 ASYNCHRONOUSLY SEND A 64 BYTE MESSAGE TO TASK 1
  ALL TASKS AWAIT COMPLETION
}
"#,
        4,
    );
    assert_eq!(report.stats.messages, 6);
}

#[test]
fn a_multicast_stays_for_a_root_outside_its_set() {
    let report = same_both_ways(
        r#"
FOR 2 REPETITIONS {
  TASK 0 MULTICASTS A 32 BYTE MESSAGE TO TASKS t SUCH THAT t IS IN {2-3}
  TASKS t SUCH THAT t IS IN {2-3} COMPUTE FOR 2 MICROSECONDS
}
"#,
        4,
    );
    assert_eq!(report.stats.collectives, 2 + 1, "two bcasts, one split");
    assert!(report.per_rank_time[0] > report.per_rank_time[1]);
}

#[test]
fn a_partition_stays_for_the_ranks_outside_it() {
    // Task 0 is in no group of the second PARTITION, but roots a multicast
    // to one of them and needs its member list for that.
    let report = same_both_ways(
        r#"
FOR 2 REPETITIONS {
  PARTITION ALL TASKS INTO GROUP a = {0-1}
  PARTITION ALL TASKS INTO GROUP b = {2-3}
  GROUP a SYNCHRONIZE
  TASK 0 MULTICASTS A 8 BYTE MESSAGE TO GROUP b
}
"#,
        4,
    );
    // the ad-hoc {0, 2, 3} split, then per iteration: one cooperative
    // split, a's barrier and the bcast
    assert_eq!(report.stats.collectives, 1 + 2 * 3);
}

#[test]
fn an_inner_loop_can_be_foreign_while_the_outer_one_is_not() {
    let report = same_both_ways(
        r#"
FOR 3 REPETITIONS {
  ALL TASKS SYNCHRONIZE
  FOR 4 REPETITIONS {
    TASKS t SUCH THAT t IS IN {0-1} SEND A 128 BYTE MESSAGE TO TASK t XOR 1
    TASKS t SUCH THAT t IS IN {0-1} RECEIVE A 128 BYTE MESSAGE FROM TASK t XOR 1
  }
  FOR EACH i IN {1, ..., 2} {
    TASKS t SUCH THAT t IS IN {2-3} COMPUTE FOR i MICROSECONDS
  }
}
"#,
        4,
    );
    assert_eq!(report.stats.messages, 3 * 4 * 2);
    assert_eq!(report.stats.collectives, 3);
}
