//! Generated programs cross the rank↔engine baton once per window, and it
//! does not show: every registry app at 16 ranks is traced, its benchmark
//! generated, and the benchmark executed with op batching on and off. The
//! interpreter issues its receives and `AWAIT COMPLETION`s through the
//! status-ignoring `Ctx` calls, so with batching on a rank runs ahead of the
//! engine by whole windows; reports, mpiP profiles and re-traces must be
//! identical to the one-op-per-crossing run all the same.

use benchgen::{generate, GenOptions};
use conceptual::interp::run_rank;
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::world::World;
use scalatrace::stream::trace_to_bytes;
use scalatrace::text::to_text;
use scalatrace::{trace_app, trace_world};
use std::sync::Arc;

const RANKS: usize = 16;

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
        let world = |batching| {
            World::new(RANKS)
                .network(network::ethernet_cluster())
                .op_batching(batching)
        };

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

        // Unbatched, every op is a crossing. Batched, a rank crosses at its
        // communicator splits, at `now()`, once per window, and once to exit
        // — the exit being the one crossing no amount of batching removes,
        // and on its own more than ops/32 for the smallest programs (ep: six
        // ops a rank).
        assert_eq!(off.crossings, off.stats.operations, "{}", app.name);
        assert!(
            on.crossings <= RANKS as u64 + on.stats.operations / 32,
            "{}: {} crossings for {} ops",
            app.name,
            on.crossings,
            on.stats.operations
        );
    }
}
