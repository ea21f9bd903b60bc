//! The seed legs, frozen. Before PR 16 deleted them, the three production
//! forks that existed only as differential references — one engine crossing
//! per op with `t_enter` read off the rank's own clock
//! (`op_batching(false)`), the structural tail fold as a compressor mode
//! (`FoldStrategy::Structural`) and dense per-rank parameter tables
//! (`ParamRepr::Dense`), at pool width 1 — ran every registry app at 16
//! ranks, class S, traced it, generated its benchmark and executed that,
//! and `tests/fixtures/seed_legs_r16.golden` is what they produced: one
//! line per app, for the application run and for the generated program's
//! run the total and per-rank virtual times, the engine counters, the event
//! count and an FNV-1a per rank over every hook event's
//! `(kind, t_enter, t_exit)`. No call-site path, line or stack signature
//! enters a line, so editing a miniapp's source does not move it.
//!
//! Production (a 128-entry window) and the window-of-one world must both
//! still reproduce every line. If a deliberate change to the simulator's
//! timing, a miniapp or the generator moves them, regenerate with
//!
//! ```text
//! SEED_LEGS_GOLDEN_REGEN=1 cargo test --test seed_legs_golden
//! ```
//!
//! which rewrites the file from the window-of-one run (after checking that
//! production agrees with it) — and say in the PR that the file no longer
//! descends from the seed legs.
//!
//! Two half-lines already do not: cg's and mg's `gen[...]`. The rebuild
//! merges the collectives one Algorithm 1 sweep completes across ranks, so
//! cg's row (and column) blocks became one segment and a `COMPUTE` mean now
//! spans all rows instead of one. The generated program's total moved from
//! 12 412 637 to 12 411 152 ns (T_app 12 422 255). Then the capture's fold
//! window grew from 32 to 256 nodes, so mg's V-cycle folds into one loop
//! and each `COMPUTE` mean spans every iteration: mg's total moved from
//! 9 594 379 to 9 594 380 ns, with its per-rank times and FNVs. Every
//! `app[...]` and the other eight lines are the seed legs' bytes.

use benchgen::{generate, GenOptions};
use conceptual::interp::run_rank;
use miniapps::{registry, App, AppParams, Class};
use mpisim::hooks::RecordingHook;
use mpisim::network;
use mpisim::types::Fnv1a;
use mpisim::world::{RunReport, World};
use mpisim::Ctx;
use scalatrace::trace_world;
use std::path::PathBuf;
use std::sync::Arc;

const RANKS: usize = 16;

fn world(batching: bool) -> World {
    World::new(RANKS)
        .network(network::ethernet_cluster())
        .op_batching(batching)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seed_legs_r16.golden")
}

/// Run `body` under a recording hook and render what the golden freezes.
fn describe(what: &str, batching: bool, body: impl Fn(&mut Ctx) + Send + Sync + 'static) -> String {
    let (report, hooks): (RunReport, Vec<RecordingHook>) = world(batching)
        .run_hooked(|_| RecordingHook::default(), body)
        .unwrap_or_else(|e| panic!("{what} fails: {e}"));
    let per_rank: Vec<u64> = report.per_rank_time.iter().map(|t| t.as_nanos()).collect();
    let events: usize = hooks.iter().map(|h| h.events.len()).sum();
    let fnv: Vec<String> = hooks
        .iter()
        .map(|h| {
            let mut f = Fnv1a::new();
            for e in &h.events {
                f.write(format!("{:?}", e.kind).as_bytes());
                f.write_u64(e.t_enter.as_nanos());
                f.write_u64(e.t_exit.as_nanos());
            }
            format!("{:016x}", f.finish())
        })
        .collect();
    let s = &report.stats;
    format!(
        "total={} per_rank={per_rank:?} ops={} msgs={} unexpected={} stalls={} colls={} \
         max_unexpected_bytes={} events={events} fnv={}",
        report.total_time.as_nanos(),
        s.operations,
        s.messages,
        s.unexpected_messages,
        s.flow_control_stalls,
        s.collectives,
        s.max_unexpected_bytes,
        fnv.join(","),
    )
}

/// The golden line of one app: its own run, then trace → generate → the
/// generated program's run, all on worlds with the given batching.
fn line(app: &App, batching: bool) -> String {
    assert!((app.valid_ranks)(RANKS), "{} at {RANKS} ranks", app.name);
    let params = AppParams::class(Class::S);
    let run = app.run;
    let app_run = describe(app.name, batching, move |ctx| run(ctx, &params));
    let traced = trace_world(world(batching), RANKS, move |ctx| run(ctx, &params))
        .unwrap_or_else(|e| panic!("{} fails to trace: {e}", app.name));
    let program = generate(&traced.trace, &GenOptions::default())
        .unwrap_or_else(|e| panic!("{} fails to generate: {e}", app.name))
        .program;
    let program = Arc::new(program);
    let gen_run = describe(app.name, batching, move |ctx| run_rank(ctx, &program));
    format!("{} app[{app_run}] gen[{gen_run}]", app.name)
}

#[test]
fn production_and_the_window_of_one_reproduce_the_seed_legs() {
    let window_of_one: Vec<String> = registry::all().iter().map(|a| line(a, false)).collect();
    let production: Vec<String> = registry::all().iter().map(|a| line(a, true)).collect();
    for (p, w) in production.iter().zip(&window_of_one) {
        assert_eq!(p, w, "production differs from the window-of-one run");
    }
    let path = golden_path();
    if std::env::var_os("SEED_LEGS_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, window_of_one.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); see the module docs",
            path.display()
        )
    });
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), registry::all().len(), "one line per app");
    for (got, want) in production.iter().zip(golden) {
        assert_eq!(got, want, "the seed legs produced the second line");
    }
}
