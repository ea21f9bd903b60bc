//! The contract of the rank runtime: every rank body runs as a coroutine on
//! the thread that called `World::run`, a backtrace taken inside one stops
//! cleanly at the bottom of its stack, and a run that ends before some
//! ranks ever started still finishes every rank and returns every hook.

use mpisim::error::SimError;
use mpisim::hooks::RecordingHook;
use mpisim::network;
use mpisim::world::World;
use std::backtrace::Backtrace;
use std::sync::{Arc, Mutex};

#[test]
fn every_rank_runs_on_the_callers_thread() {
    let caller = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&seen);
    World::new(64)
        .network(network::ethernet_cluster())
        .run(move |ctx| {
            let w = ctx.world();
            ctx.barrier(&w);
            record
                .lock()
                .expect("no rank panics holding the lock")
                .push((ctx.rank(), std::thread::current().id()));
            ctx.allreduce(8, &w);
        })
        .expect("the run completes");
    let mut seen = seen.lock().expect("no rank panicked").clone();
    seen.sort_by_key(|&(rank, _)| rank);
    assert_eq!(seen.len(), 64);
    for (i, (rank, thread)) in seen.into_iter().enumerate() {
        assert_eq!(rank, i);
        assert_eq!(thread, caller, "rank {rank} ran on another thread");
    }
}

#[inline(never)]
fn body_taking_a_backtrace(ctx: &mut mpisim::Ctx, out: &Mutex<Option<String>>) {
    ctx.barrier(&ctx.world());
    if ctx.rank() == 1 {
        let trace = Backtrace::force_capture().to_string();
        *out.lock().expect("no rank panics holding the lock") = Some(trace);
    }
    ctx.barrier(&ctx.world());
}

#[test]
fn a_backtrace_inside_a_rank_stops_at_the_bottom_of_its_stack() {
    let captured = Arc::new(Mutex::new(None));
    let out = Arc::clone(&captured);
    World::new(2)
        .run(move |ctx| body_taking_a_backtrace(ctx, &out))
        .expect("the run completes");
    let trace = captured
        .lock()
        .expect("no rank panicked")
        .take()
        .expect("rank 1 captured a backtrace");
    assert!(
        trace.contains("body_taking_a_backtrace"),
        "the backtrace names the rank body:\n{trace}"
    );
    // The walk ends at the fiber's entry: the engine's frames live on the
    // caller's stack, which the rank's stack does not link to.
    assert!(
        !trace.contains("Engine::run"),
        "the backtrace stops at the bottom of the rank's stack:\n{trace}"
    );
}

#[test]
fn a_panic_before_later_ranks_start_still_returns_every_hook() {
    let (result, hooks) = World::new(64).run_hooked_partial(
        |_| RecordingHook::default(),
        |ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                panic!("rank 0 fails at its first call");
            }
            ctx.barrier(&w);
        },
    );
    match result {
        Err(SimError::RankPanicked { rank: 0, message }) => {
            assert!(message.contains("first call"), "{message}")
        }
        other => panic!("expected rank 0's panic, got {other:?}"),
    }
    assert_eq!(hooks.len(), 64);
    assert!(hooks.iter().all(|h| h.events.is_empty()));
}
