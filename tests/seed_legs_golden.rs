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
//! SEED_LEGS_GOLDEN_REGEN=1 cargo test --release --test seed_legs_golden
//! ```
//!
//! which rewrites both files from the window-of-one run (after checking
//! that production agrees with it) — and record with the change that the
//! file no longer descends from the seed legs.
//!
//! Two half-lines already do not: cg's and mg's `gen[...]`. The rebuild
//! merges the collectives one Algorithm 1 sweep completes across ranks, so
//! cg's row (and column) blocks became one segment and a `COMPUTE` mean now
//! spans all rows instead of one. The generated program's total moved from
//! 12 412 637 to 12 411 152 ns (T_app 12 422 255). Then the capture's fold
//! window grew from 32 to 256 nodes, so mg's V-cycle folds into one loop
//! and each `COMPUTE` mean spans every iteration: mg's total moved from
//! 9 594 379 to 9 594 380 ns, with its per-rank times and FNVs. Later a
//! split's result became a per-rank parameter, so cg's ranks merge into
//! two classes instead of one each and a merged trace node spans a class
//! instead of one rank: a floored integer-ns `COMPUTE` mean moves by
//! rounding, and cg's generated total moved from 12 411 152 to
//! 12 411 167 ns, with its per-rank times and FNVs. Every `app[...]` and
//! the other eight lines are the seed legs' bytes.
//!
//! `tests/fixtures/seed_legs_r64.golden` holds the same lines at 64 ranks,
//! where the class-S registry's unexpected queues are busiest (9 205
//! unexpected messages across its lines, 4 095 at 16 ranks). It does not
//! descend from the seed legs: it was frozen from the engine that kept its
//! request, message and collective tables in SipHash maps and handed every
//! wait a fresh handle list, so the allocation-free op path is held to that
//! engine's bytes. Its rows take a few seconds at release speed and run
//! only there.

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

fn world(ranks: usize, batching: bool) -> World {
    World::new(ranks)
        .network(network::ethernet_cluster())
        .op_batching(batching)
}

fn golden_path(ranks: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/fixtures/seed_legs_r{ranks}.golden"))
}

/// Run `body` under a recording hook and render what the golden freezes.
fn describe(
    what: &str,
    ranks: usize,
    batching: bool,
    body: impl Fn(&mut Ctx) + Send + Sync + 'static,
) -> String {
    let (report, hooks): (RunReport, Vec<RecordingHook>) = world(ranks, batching)
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
fn line(app: &App, ranks: usize, batching: bool) -> String {
    assert!((app.valid_ranks)(ranks), "{} at {ranks} ranks", app.name);
    let params = AppParams::class(Class::S);
    let run = app.run;
    let app_run = describe(app.name, ranks, batching, move |ctx| run(ctx, &params));
    let traced = trace_world(world(ranks, batching), ranks, move |ctx| run(ctx, &params))
        .unwrap_or_else(|e| panic!("{} fails to trace: {e}", app.name));
    let program = generate(&traced.trace, &GenOptions::default())
        .unwrap_or_else(|e| panic!("{} fails to generate: {e}", app.name))
        .program;
    let program = Arc::new(program);
    let gen_run = describe(app.name, ranks, batching, move |ctx| {
        run_rank(ctx, &program)
    });
    format!("{} app[{app_run}] gen[{gen_run}]", app.name)
}

/// Both windows reproduce `seed_legs_r{ranks}.golden`, line for line.
fn check(ranks: usize) {
    let window_of_one: Vec<String> = registry::all()
        .iter()
        .map(|a| line(a, ranks, false))
        .collect();
    let production: Vec<String> = registry::all()
        .iter()
        .map(|a| line(a, ranks, true))
        .collect();
    for (p, w) in production.iter().zip(&window_of_one) {
        assert_eq!(p, w, "production differs from the window-of-one run");
    }
    let path = golden_path(ranks);
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
        assert_eq!(got, want, "r{ranks}: the golden holds another line");
    }
}

#[test]
fn production_and_the_window_of_one_reproduce_the_seed_legs() {
    check(16);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release")]
fn production_and_the_window_of_one_reproduce_the_r64_golden() {
    check(64);
}
