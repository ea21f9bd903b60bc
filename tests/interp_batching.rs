//! Applications and generated programs cross the rank↔engine baton once per
//! window, and it does not show: every registry app at 16 ranks is run and
//! traced, its benchmark generated, and the benchmark executed, each at the
//! production window (`op_batching(true)`) and at a window of one call
//! (`op_batching(false)`). The applications and the interpreter issue their
//! receives and waits through the status-ignoring `Ctx` calls, so at the
//! production window a rank runs ahead of the engine by whole windows;
//! reports, hook events, mpiP profiles and traces must be identical to the
//! one-call-per-crossing run all the same.

use benchgen::{generate, GenOptions};
use conceptual::interp::run_rank;
use miniapps::{registry, AppParams, Class};
use mpisim::hooks::RecordingHook;
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::world::{RunReport, World};
use scalatrace::stream::trace_to_bytes;
use scalatrace::text::to_text;
use scalatrace::{trace_app, trace_world};
use std::sync::Arc;

const RANKS: usize = 16;

fn world(batching: bool) -> World {
    World::new(RANKS)
        .network(network::ethernet_cluster())
        .op_batching(batching)
}

/// At a window of one every call is a crossing (a blocking send or receive
/// is two ops, so crossings ≤ ops). Batched, a rank crosses at its
/// communicator splits, at `now()`, once per window, and once to exit — the
/// exit being the one crossing no amount of batching removes, and on its own
/// more than ops/32 for the smallest programs (ep: six ops a rank).
fn assert_crossings(what: &str, on: &RunReport, off: &RunReport) {
    assert!(
        on.crossings < off.crossings && off.crossings <= off.stats.operations,
        "{what}: {} < {} <= {}",
        on.crossings,
        off.crossings,
        off.stats.operations
    );
    assert!(
        on.crossings <= RANKS as u64 + on.stats.operations / 32,
        "{what}: {} crossings for {} ops",
        on.crossings,
        on.stats.operations
    );
}

#[test]
fn applications_run_identically_with_and_without_batching() {
    for app in registry::all() {
        let params = AppParams::class(Class::S);
        let run = app.run;
        let recorded = |batching| {
            let (report, hooks) = world(batching)
                .run_hooked(|_| RecordingHook::default(), move |ctx| run(ctx, &params))
                .unwrap_or_else(|e| panic!("{} fails: {e}", app.name));
            let events: Vec<String> = hooks.iter().map(|h| format!("{:?}", h.events)).collect();
            (report, events)
        };
        let ((on, events_on), (off, events_off)) = (recorded(true), recorded(false));
        assert_eq!(on.per_rank_time, off.per_rank_time, "{}", app.name);
        assert_eq!(on.stats, off.stats, "{}", app.name);
        assert_eq!(events_on, events_off, "{}: hook events", app.name);
        assert_crossings(app.name, &on, &off);

        let traced = |batching| {
            let run = trace_world(world(batching), RANKS, move |ctx| run(ctx, &params))
                .unwrap_or_else(|e| panic!("{} fails to trace: {e}", app.name));
            to_text(&run.trace)
        };
        assert_eq!(traced(true), traced(false), "{}: trace", app.name);
    }
}

#[test]
fn generated_programs_run_identically_with_and_without_batching() {
    for app in registry::all() {
        assert!((app.valid_ranks)(RANKS), "{} at {RANKS} ranks", app.name);
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
        let profiled = |batching| {
            let p = Arc::clone(&program);
            let (report, hooks) = world(batching)
                .run_hooked(|_| MpiP::new(), move |ctx| run_rank(ctx, &p))
                .unwrap_or_else(|e| panic!("{} benchmark fails: {e}", app.name));
            (report, MpiP::merge_all(hooks.iter()))
        };
        let (on, prof_on) = profiled(true);
        let (off, prof_off) = profiled(false);
        assert_eq!(on.total_time, off.total_time, "{}", app.name);
        assert_eq!(on.per_rank_time, off.per_rank_time, "{}", app.name);
        assert_eq!(on.stats, off.stats, "{}", app.name);
        assert_eq!(prof_on.to_string(), prof_off.to_string(), "{}", app.name);

        let retraced = |batching| {
            let p = Arc::clone(&program);
            let run = trace_world(world(batching), RANKS, move |ctx| run_rank(ctx, &p))
                .unwrap_or_else(|e| panic!("{} benchmark fails to trace: {e}", app.name));
            (to_text(&run.trace), trace_to_bytes(&run.trace))
        };
        assert_eq!(retraced(true), retraced(false), "{}: re-trace", app.name);

        assert_crossings(app.name, &on, &off);
    }
}
