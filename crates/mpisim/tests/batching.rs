//! Batched op submission must be behaviourally invisible.
//!
//! `World::op_batching(true)` (the default) lets a rank defer every call
//! whose reply it cannot observe — nonblocking ops, computes, blocking
//! sends, void collectives — and hand the run to the engine in one baton
//! crossing at the next value-returning call or full window;
//! `op_batching(false)` is the same client with a window of one call, so a
//! rank crosses after every call. These tests pin down the contract: the
//! window may only change *how often* a rank and the engine switch, never *what* the engine observes — reports, mpiP profiles,
//! per-channel message order, and wildcard match outcomes are all
//! byte-identical to the window-of-one reference, including under seeded
//! fault perturbation. (That reference in turn reproduces the deleted
//! one-op-per-crossing client: `tests/seed_legs_golden.rs` at the root.)

use mpisim::engine::{EngineStats, MatchPolicy};
use mpisim::error::SimError;
use mpisim::faults::FaultPlan;
use mpisim::hooks::RecordingHook;
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::time::{SimDuration, SimTime};
use mpisim::types::{MsgInfo, ReqHandle, Src, TagSel};
use mpisim::world::{RunReport, World};
use mpisim::Ctx;
use std::sync::{Arc, Mutex};

/// An ISend/IRecv burst workload: every iteration posts `width` receives
/// and `width` sends before a single `waitall` — the exact shape batching
/// accelerates.
fn burst(iters: usize, width: usize) -> impl Fn(&mut mpisim::Ctx) + Send + Sync + Clone + 'static {
    move |ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for it in 0..iters {
            let mut reqs = Vec::new();
            for k in 0..width {
                let bytes = 256 + (64 * k as u64) + it as u64;
                reqs.push(ctx.irecv(Src::Rank(left), TagSel::Is(k as i32), bytes, &w));
                reqs.push(ctx.isend(right, k as i32, bytes, &w));
            }
            ctx.compute(SimDuration::from_usecs(5));
            ctx.waitall(&reqs);
        }
        ctx.allreduce(8, &ctx.world());
    }
}

/// Run `body` with batching on or off, returning the report and the merged
/// mpiP profile.
fn profiled_run(
    batching: bool,
    faults: Option<FaultPlan>,
    body: impl Fn(&mut mpisim::Ctx) + Send + Sync + Clone + 'static,
) -> (RunReport, MpiP) {
    let mut world = World::new(4)
        .network(network::ethernet_cluster())
        .op_batching(batching);
    if let Some(plan) = faults {
        world = world.faults(plan);
    }
    let (report, hooks) = world.run_hooked(|_| MpiP::new(), body).unwrap();
    (report, MpiP::merge_all(hooks.iter()))
}

#[test]
fn batched_bursts_match_unbatched_reports_and_profiles() {
    let (batched, prof_b) = profiled_run(true, None, burst(20, 6));
    let (unbatched, prof_u) = profiled_run(false, None, burst(20, 6));
    assert_eq!(batched.total_time, unbatched.total_time);
    assert_eq!(batched.per_rank_time, unbatched.per_rank_time);
    assert_eq!(batched.stats, unbatched.stats);
    assert_eq!(prof_b.diff(&prof_u), Vec::<String>::new());
    assert!(prof_b.total_calls() > 0, "profile must not be empty");
}

#[test]
fn batching_preserves_per_channel_non_overtaking() {
    // Rank 0 posts a burst of same-channel isends with distinguishable
    // sizes; rank 1 receives them one by one. FIFO per (src, dst, tag)
    // means the sizes must arrive in posted order — batching hands the
    // whole burst over at once and must not reorder it.
    let received: Arc<Mutex<Vec<MsgInfo>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&received);
    World::new(2)
        .network(network::ethernet_cluster())
        .op_batching(true)
        .run(move |ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                let reqs: Vec<_> = (0..16).map(|k| ctx.isend(1, 7, 100 + k, &w)).collect();
                ctx.waitall(&reqs);
            } else {
                for _ in 0..16 {
                    let info = ctx.recv(Src::Rank(0), TagSel::Is(7), 4 << 10, &w);
                    sink.lock().unwrap().push(info);
                }
            }
        })
        .unwrap();
    let got: Vec<u64> = received.lock().unwrap().iter().map(|m| m.bytes).collect();
    let expect: Vec<u64> = (0..16).map(|k| 100 + k).collect();
    assert_eq!(got, expect, "same-channel messages overtook each other");
}

/// A wildcard-heavy workload: rank 0 drains `2 * (size - 1)` any-source
/// receives while every other rank sends twice — the match order is
/// timing-dependent, which is exactly what FaultPlan reordering perturbs.
fn wildcard_funnel() -> impl Fn(&mut mpisim::Ctx) + Send + Sync + Clone + 'static {
    move |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            for _ in 0..2 * (ctx.size() - 1) {
                let _ = ctx.recv(Src::Any, TagSel::Any, 8 << 10, &w);
            }
        } else {
            for round in 0..2 {
                ctx.compute(SimDuration::from_usecs(3 * ctx.rank() as u64));
                ctx.send(0, round, 512 + ctx.rank() as u64, &w);
            }
        }
        ctx.barrier(&w);
    }
}

#[test]
fn batching_is_invisible_under_seeded_fault_reordering() {
    for seed in 0..5u64 {
        let plan = || {
            FaultPlan::seeded(seed)
                .with_latency_jitter(0.4)
                .with_reorder()
        };
        let (batched, prof_b) = profiled_run(true, Some(plan()), wildcard_funnel());
        let (unbatched, prof_u) = profiled_run(false, Some(plan()), wildcard_funnel());
        assert_eq!(
            batched.total_time, unbatched.total_time,
            "seed {seed}: virtual time diverged"
        );
        assert_eq!(
            batched.per_rank_time, unbatched.per_rank_time,
            "seed {seed}"
        );
        assert_eq!(batched.stats, unbatched.stats, "seed {seed}");
        assert_eq!(
            prof_b.diff(&prof_u),
            Vec::<String>::new(),
            "seed {seed}: profiles diverged"
        );
    }
}

#[test]
fn batching_is_invisible_under_faulted_bursts() {
    let plan = || {
        FaultPlan::seeded(11)
            .with_latency_jitter(0.25)
            .with_reorder()
    };
    let (batched, prof_b) = profiled_run(true, Some(plan()), burst(12, 4));
    let (unbatched, prof_u) = profiled_run(false, Some(plan()), burst(12, 4));
    assert_eq!(batched.total_time, unbatched.total_time);
    assert_eq!(batched.stats, unbatched.stats);
    assert_eq!(prof_b.diff(&prof_u), Vec::<String>::new());
}

// -- windows, status-ignoring calls, failure paths ---------------------------
//
// From here on the comparison is the strongest one available: every field of
// every hook event on every rank (kind, call site, stack signature, enter and
// exit times, order), plus the whole report.

/// `Ctx`'s private deferred-window bound; the bodies below are sized around it.
const WINDOW: usize = 128;

/// How a body issues its blocking receives and waits, and whether the world
/// batches: the three legs every differential below compares.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Leg {
    /// `op_batching(false)`: one call per crossing, the reference.
    Unbatched,
    /// Batching on, status-returning `recv`/`wait`/`waitall` (end the batch).
    Status,
    /// Batching on, `recv_ignore`/`wait_ignore`/`waitall_ignore` (deferred).
    Ignore,
}

const LEGS: [Leg; 3] = [Leg::Unbatched, Leg::Status, Leg::Ignore];

// `#[track_caller]` makes both forms report the helper's caller, so the legs
// record the same call site and stack signature.
#[track_caller]
fn recv_on(ctx: &mut Ctx, leg: Leg, from: Src, tag: TagSel, bytes: u64) -> Option<MsgInfo> {
    let w = ctx.world();
    match leg {
        Leg::Ignore => {
            ctx.recv_ignore(from, tag, bytes, &w);
            None
        }
        _ => Some(ctx.recv(from, tag, bytes, &w)),
    }
}

#[track_caller]
fn waitall_on(ctx: &mut Ctx, leg: Leg, hs: &[ReqHandle]) {
    match (leg, hs) {
        (Leg::Ignore, [h]) => ctx.wait_ignore(*h),
        (Leg::Ignore, _) => ctx.waitall_ignore(hs),
        (_, [h]) => drop(ctx.wait(*h)),
        _ => drop(ctx.waitall(hs)),
    }
}

/// Everything a run lets its caller observe: the report or the error, and
/// each rank's recorded events rendered field by field.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<(SimTime, Vec<SimTime>, EngineStats), SimError>,
    events: Vec<Vec<String>>,
}

fn observe(
    leg: Leg,
    configure: impl Fn(World) -> World,
    body: impl Fn(&mut Ctx) + Send + Sync + 'static,
) -> (Observed, Option<RunReport>) {
    let world = configure(World::new(4).network(network::ethernet_cluster()))
        .op_batching(leg != Leg::Unbatched);
    let (result, hooks) = world.run_hooked_partial(|_| RecordingHook::default(), body);
    let events = hooks
        .iter()
        .map(|h| h.events.iter().map(|e| format!("{e:?}")).collect())
        .collect();
    let report = result.as_ref().ok().cloned();
    let outcome = result.map(|r| (r.total_time, r.per_rank_time, r.stats));
    (Observed { outcome, events }, report)
}

/// Run `body` on all three legs and require them to be indistinguishable.
/// Returns the legs' reports (`None` where the run failed).
fn assert_legs_agree<B>(
    what: &str,
    configure: impl Fn(World) -> World,
    body: impl Fn(Leg) -> B,
) -> Vec<Option<RunReport>>
where
    B: Fn(&mut Ctx) + Send + Sync + 'static,
{
    let runs: Vec<_> = LEGS
        .iter()
        .map(|&leg| observe(leg, &configure, body(leg)))
        .collect();
    for (leg, (observed, _)) in LEGS.iter().zip(&runs).skip(1) {
        assert_eq!(
            observed, &runs[0].0,
            "{what}: {leg:?} differs from Unbatched"
        );
    }
    runs.into_iter().map(|(_, report)| report).collect()
}

/// A ring step whose *last* deferrable entry is entry number `len` of the
/// rank's run: `len - 2` computes, then a blocking send and a blocking
/// receive (two queue entries each: isend/irecv + wait). Even ranks send
/// first, odd ranks receive first, so at `len == WINDOW + 1` the pair that
/// straddles the bound is a send on some ranks and a receive on the others.
/// Nothing value-returning follows: on the `Ignore` leg the rank exits with
/// its tail still deferred.
fn straddle(len: usize, leg: Leg) -> impl Fn(&mut Ctx) + Send + Sync + 'static {
    move |ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for k in 0..len - 2 {
            ctx.compute(SimDuration::from_nanos(100 + k as u64));
        }
        if ctx.rank() % 2 == 0 {
            ctx.send(right, 3, 700, &w);
            recv_on(ctx, leg, Src::Rank(left), TagSel::Is(3), 700);
        } else {
            recv_on(ctx, leg, Src::Rank(left), TagSel::Is(3), 700);
            ctx.send(right, 3, 700, &w);
        }
    }
}

#[test]
fn deferred_runs_around_the_window_bound_match_unbatched() {
    for len in [WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 1] {
        let reports = assert_legs_agree(&format!("len {len}"), |w| w, |leg| straddle(len, leg));
        let [unbatched, _, ignore] = &reports[..] else {
            unreachable!()
        };
        let (unbatched, ignore) = (unbatched.as_ref().unwrap(), ignore.as_ref().unwrap());
        // One crossing per call at a window of one — the computes, the send,
        // the receive, the exit — though send and receive are two ops each ...
        assert_eq!(unbatched.crossings, 4 * (len as u64 + 1));
        assert_eq!(unbatched.stats.operations, 4 * (len as u64 + 3));
        // ... and at the production window: one per full window, one for what is left (the
        // exit rides that batch, or goes alone when nothing is left).
        let entries = len + 2;
        assert_eq!(
            ignore.crossings,
            4 * (entries / WINDOW + 1) as u64,
            "len {len}"
        );
    }
}

/// Mixed traffic on every leg: nonblocking bursts closed by a wait or a
/// waitall, blocking pairs, a collective per round — several windows long.
fn mixed(rounds: usize, leg: Leg) -> impl Fn(&mut Ctx) + Send + Sync + 'static {
    move |ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for it in 0..rounds {
            let bytes = 300 + 40 * (it as u64 % 7);
            let r = ctx.irecv(Src::Rank(left), TagSel::Is(1), bytes, &w);
            let s = ctx.isend(right, 1, bytes, &w);
            ctx.compute(SimDuration::from_usecs(2 + it as u64 % 3));
            waitall_on(ctx, leg, &[r, s]);
            let s = ctx.isend(left, 2, 64, &w);
            recv_on(ctx, leg, Src::Rank(right), TagSel::Is(2), 64);
            waitall_on(ctx, leg, &[s]);
            ctx.region("reduce", |ctx| ctx.allreduce(8, &ctx.world()));
        }
    }
}

#[test]
fn status_ignoring_calls_match_status_returning_calls_and_unbatched() {
    let reports = assert_legs_agree("mixed", |w| w, |leg| mixed(60, leg));
    let crossings: Vec<u64> = reports
        .iter()
        .map(|r| r.as_ref().unwrap().crossings)
        .collect();
    let ops = reports[0].as_ref().unwrap().stats.operations;
    assert!(
        crossings[0] <= ops,
        "unbatched: at most one crossing per op"
    );
    assert!(crossings[1] < crossings[0], "{crossings:?}");
    assert!(
        crossings[2] * 32 <= ops,
        "ignoring leg crossed {} times for {ops} ops",
        crossings[2]
    );
}

/// The wildcard funnel of `wildcard_funnel`, long enough to cross the window
/// bound, with the sink's receives issued per leg. Returns what the
/// status-returning legs saw, for comparing match outcomes directly.
fn funnel(leg: Leg, seen: Arc<Mutex<Vec<MsgInfo>>>) -> impl Fn(&mut Ctx) + Send + Sync + 'static {
    move |ctx| {
        let w = ctx.world();
        let rounds = WINDOW;
        if ctx.rank() == 0 {
            for _ in 0..rounds * (ctx.size() - 1) {
                if let Some(info) = recv_on(ctx, leg, Src::Any, TagSel::Any, 8 << 10) {
                    seen.lock().unwrap().push(info);
                }
            }
        } else {
            for round in 0..rounds {
                ctx.compute(SimDuration::from_usecs(3 * ctx.rank() as u64));
                ctx.send(0, round as i32, 512 + ctx.rank() as u64, &w);
            }
        }
        ctx.barrier(&w);
    }
}

#[test]
fn wildcard_matches_are_unchanged_by_run_ahead() {
    type Configure = Box<dyn Fn(World) -> World>;
    let mut worlds: Vec<(String, Configure)> = Vec::new();
    for seed in 0..3u64 {
        worlds.push((
            format!("MatchPolicy::Seeded({seed})"),
            Box::new(move |w: World| w.match_policy(MatchPolicy::Seeded(seed))),
        ));
        worlds.push((
            format!("reorder+jitter plan {seed}"),
            Box::new(move |w: World| {
                w.faults(
                    FaultPlan::seeded(seed)
                        .with_latency_jitter(0.4)
                        .with_reorder(),
                )
            }),
        ));
    }
    for (what, configure) in &worlds {
        let seen: Vec<_> = LEGS
            .iter()
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        assert_legs_agree(what, configure, |leg| {
            funnel(leg, Arc::clone(&seen[leg as usize]))
        });
        let unbatched = seen[0].lock().unwrap();
        assert_eq!(unbatched.len(), WINDOW * 3);
        assert_eq!(*unbatched, *seen[1].lock().unwrap(), "{what}: match order");
    }
}

// -- failure paths -----------------------------------------------------------

#[test]
fn injected_crashes_and_budgets_fail_identically_on_every_leg() {
    type Configure = Box<dyn Fn(World) -> World>;
    let scenarios: Vec<(&str, Configure)> = vec![
        (
            "crash_after mid-window",
            Box::new(|w: World| w.faults(FaultPlan::seeded(1).crash_rank(2, 200))),
        ),
        (
            "crash_after on a window edge",
            Box::new(|w: World| w.faults(FaultPlan::seeded(1).crash_rank(1, WINDOW as u64))),
        ),
        (
            "crash_in_collective",
            Box::new(|w: World| w.faults(FaultPlan::seeded(2).crash_in_collective(3, 17))),
        ),
        ("op budget", Box::new(|w: World| w.op_budget(1_000))),
        (
            "time budget",
            Box::new(|w: World| w.time_budget(SimTime::ZERO + SimDuration::from_usecs(400))),
        ),
    ];
    for (what, configure) in &scenarios {
        let reports = assert_legs_agree(what, configure, |leg| mixed(60, leg));
        assert!(
            reports.iter().all(Option::is_none),
            "{what} must fail the run"
        );
    }
}

#[test]
fn receive_receive_deadlock_reports_the_same_edges_on_every_leg() {
    let body = |leg: Leg| {
        move |ctx: &mut Ctx| {
            let w = ctx.world();
            let peer = ctx.rank() ^ 1;
            ctx.compute(SimDuration::from_usecs(1 + ctx.rank() as u64));
            ctx.isend(peer, 9, 16, &w);
            // Both sides of each pair receive a tag nobody sends.
            recv_on(ctx, leg, Src::Rank(peer), TagSel::Is(0), 64);
            ctx.send(peer, 0, 64, &w);
        }
    };
    let (observed, _) = observe(Leg::Ignore, |w| w, body(Leg::Ignore));
    match &observed.outcome {
        Err(SimError::Deadlock(blocked)) => {
            assert_eq!(blocked.len(), 4);
            assert!(
                blocked[0].what.contains("recv pending"),
                "{}",
                blocked[0].what
            );
            assert_eq!(blocked[0].waiting_on, vec![1]);
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
    assert_legs_agree("recv/recv deadlock", |w| w, body);
}

#[test]
fn a_body_that_panics_after_deferring_delivers_its_ops_first() {
    let body = |leg: Leg| {
        move |ctx: &mut Ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..WINDOW + 20 {
                ctx.send(right, 5, 128, &w);
                recv_on(ctx, leg, Src::Rank(left), TagSel::Is(5), 128);
            }
            if ctx.rank() == 1 {
                panic!("rank body gave up");
            }
            ctx.barrier(&w);
        }
    };
    let (observed, _) = observe(Leg::Ignore, |w| w, body(Leg::Ignore));
    assert_eq!(
        observed.outcome,
        Err(SimError::RankPanicked {
            rank: 1,
            message: "rank body gave up".into()
        })
    );
    assert_eq!(observed.events[1].len(), 2 * (WINDOW + 20));
    assert_legs_agree("panic after deferring", |w| w, body);
}

/// A rank the run ends for while ops are still queued behind its completed
/// ones — in the mailbox at the production window — takes the replies to
/// every op that completed before its `Fatal`, so its hook holds exactly
/// those events. Checked at both windows, for a rank killed by the fault
/// plan and for ranks another rank's panic ends.
#[test]
fn a_rank_dying_with_queued_ops_records_every_op_completed_before_its_fatal() {
    let ring = |ctx: &mut Ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for _ in 0..3 * WINDOW {
            ctx.send(right, 5, 128, &w);
            ctx.recv_ignore(Src::Rank(left), TagSel::Is(5), 128, &w);
        }
    };
    // Rank 1 feeds each other rank `fed` messages, then panics; they wait
    // for a far longer stream from it.
    let fed = 10;
    let starved = move |ctx: &mut Ctx| {
        let w = ctx.world();
        if ctx.rank() == 1 {
            for _ in 0..fed {
                for peer in [0, 2, 3] {
                    ctx.send(peer, 6, 64, &w);
                }
            }
            let _ = ctx.now();
            panic!("feeder gave up");
        }
        for _ in 0..3 * WINDOW {
            ctx.recv_ignore(Src::Rank(1), TagSel::Is(6), 64, &w);
        }
    };
    for leg in [Leg::Unbatched, Leg::Ignore] {
        // 202 ops are 50 send/receive rounds plus one more send: the crash
        // lands on the 203rd, with the rest of its window still queued.
        let crash = |w: World| w.faults(FaultPlan::seeded(1).crash_rank(2, 202));
        let (observed, _) = observe(leg, crash, ring);
        assert!(
            matches!(
                observed.outcome,
                Err(SimError::RankFailed {
                    rank: 2,
                    after_ops: 202,
                    ..
                })
            ),
            "{leg:?}: {:?}",
            observed.outcome
        );
        assert_eq!(observed.events[2].len(), 101, "{leg:?}: the crashed rank");

        let (observed, _) = observe(leg, |w| w, starved);
        assert_eq!(
            observed.outcome,
            Err(SimError::RankPanicked {
                rank: 1,
                message: "feeder gave up".into()
            }),
            "{leg:?}"
        );
        assert_eq!(observed.events[1].len(), 3 * fed, "{leg:?}: the feeder");
        for rank in [0, 2, 3] {
            assert_eq!(observed.events[rank].len(), fed, "{leg:?}: survivor {rank}");
        }
    }
}

// -- wait forms --------------------------------------------------------------
//
// A wait names its handles as a run when they were issued back to back and as
// a list otherwise, and a status-ignoring wait is answered with the clock
// alone. Neither may show: statuses come back in request order, a status
// read after ignored ones names the message it matched, and the errors and
// deadlock diagnostics are worded as they always were.

#[test]
fn a_waitall_over_scattered_handles_returns_statuses_in_request_order() {
    for batching in [false, true] {
        let seen: Arc<Mutex<Vec<Option<MsgInfo>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        World::new(4)
            .network(network::ethernet_cluster())
            .op_batching(batching)
            .run(move |ctx| {
                let w = ctx.world();
                if ctx.rank() == 0 {
                    let r1 = ctx.irecv(Src::Rank(1), TagSel::Is(1), 100, &w);
                    let r2 = ctx.irecv(Src::Any, TagSel::Is(2), 200, &w);
                    let r3 = ctx.irecv(Src::Rank(3), TagSel::Any, 300, &w);
                    let s = ctx.isend(1, 9, 8, &w);
                    *sink.lock().unwrap() = ctx.waitall(&[r3, s, r1, r2]);
                } else {
                    let r = ctx.rank();
                    ctx.send(0, r as i32, 100 * r as u64, &w);
                    if r == 1 {
                        ctx.recv_ignore(Src::Rank(0), TagSel::Is(9), 8, &w);
                    }
                }
            })
            .unwrap();
        let status = |source: usize| {
            Some(MsgInfo {
                source,
                tag: source as i32,
                bytes: 100 * source as u64,
            })
        };
        assert_eq!(
            *seen.lock().unwrap(),
            vec![status(3), None, status(1), status(2)],
            "batching {batching}"
        );
    }
}

#[test]
fn a_wildcard_status_after_a_window_of_ignored_receives_names_its_source() {
    let body = |leg: Leg, seen: Arc<Mutex<Vec<MsgInfo>>>| {
        move |ctx: &mut Ctx| {
            let w = ctx.world();
            let rounds = WINDOW / 2;
            if ctx.rank() == 0 {
                for _ in 0..rounds * (ctx.size() - 1) {
                    ctx.recv_ignore(Src::Any, TagSel::Is(1), 64, &w);
                }
                if let Some(info) = recv_on(ctx, leg, Src::Any, TagSel::Any, 64) {
                    seen.lock().unwrap().push(info);
                }
            } else {
                for _ in 0..rounds {
                    ctx.compute(SimDuration::from_usecs(ctx.rank() as u64));
                    ctx.send(0, 1, 64, &w);
                }
                if ctx.rank() == 2 {
                    ctx.send(0, 77, 48, &w);
                }
            }
        }
    };
    let seen: Vec<_> = LEGS
        .iter()
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    assert_legs_agree(
        "wildcard after ignored receives",
        |w| w,
        |leg| body(leg, Arc::clone(&seen[leg as usize])),
    );
    let want = vec![MsgInfo {
        source: 2,
        tag: 77,
        bytes: 48,
    }];
    assert_eq!(*seen[Leg::Unbatched as usize].lock().unwrap(), want);
    assert_eq!(*seen[Leg::Status as usize].lock().unwrap(), want);
}

#[test]
fn a_run_holding_a_completed_handle_is_still_an_invalid_handle() {
    let body = |leg: Leg| {
        move |ctx: &mut Ctx| {
            let w = ctx.world();
            match ctx.rank() {
                0 => {
                    let a = ctx.isend(1, 0, 8, &w);
                    let b = ctx.isend(1, 0, 8, &w);
                    waitall_on(ctx, leg, &[a]);
                    // `a` and `b` are consecutive: a run naming a request
                    // the previous wait already completed.
                    waitall_on(ctx, leg, &[a, b]);
                }
                1 => {
                    for _ in 0..2 {
                        recv_on(ctx, leg, Src::Rank(0), TagSel::Is(0), 8);
                    }
                }
                _ => {}
            }
        }
    };
    for leg in LEGS {
        let (observed, _) = observe(leg, |w| w, body(leg));
        assert_eq!(
            observed.outcome,
            Err(SimError::InvalidHandle(
                "rank 0 waited on unknown or already-completed request 1".into()
            )),
            "{leg:?}"
        );
    }
    assert_legs_agree("completed handle in a run", |w| w, body);
}

#[test]
fn a_deadlocked_run_form_wait_is_described_as_before() {
    let body = |leg: Leg| {
        move |ctx: &mut Ctx| {
            let w = ctx.world();
            let peer = ctx.rank() ^ 1;
            // Handles 1..=3, issued back to back: a run. Nobody sends tag 5,
            // nobody receives tag 1 (past the eager limit, so its send
            // waits for a receive), and tag 2 is eager, so done on issue.
            let r = ctx.irecv(Src::Rank(peer), TagSel::Is(5), 8, &w);
            let s1 = ctx.isend(peer, 1, 1 << 20, &w);
            let s2 = ctx.isend(peer, 2, 8, &w);
            waitall_on(ctx, leg, &[r, s1, s2]);
        }
    };
    let (observed, _) = observe(Leg::Ignore, |w| w, body(Leg::Ignore));
    let err = observed.outcome.expect_err("the run deadlocks");
    assert_eq!(
        err.to_string(),
        "deadlock: no rank can make progress\n\
         \x20 rank 0 @ 10.000us: blocked on MPI_Wait[req1(recv pending), req2(send pending), \
         req3(done)] (waiting on rank(s) 1)\n\
         \x20 rank 1 @ 10.000us: blocked on MPI_Wait[req1(recv pending), req2(send pending), \
         req3(done)] (waiting on rank(s) 0)\n\
         \x20 rank 2 @ 10.000us: blocked on MPI_Wait[req1(recv pending), req2(send pending), \
         req3(done)] (waiting on rank(s) 3)\n\
         \x20 rank 3 @ 10.000us: blocked on MPI_Wait[req1(recv pending), req2(send pending), \
         req3(done)] (waiting on rank(s) 2)\n"
    );
    assert_legs_agree("run-form wait deadlock", |w| w, body);
}
