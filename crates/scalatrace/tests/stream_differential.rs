//! Streaming-capture differential tests: bounded-memory capture through
//! `scalatrace::stream` must be *byte-identical* to the unbounded
//! in-memory path — same trace text, same binary encoding (timing
//! histograms included), same virtual times, same engine profile — under
//! any window budget, any fold window, seeded fault plans, and runs cut
//! short by an injected rank crash.

use mpisim::error::SimError;
use mpisim::faults::FaultPlan;
use mpisim::network;
use mpisim::time::SimDuration;
use mpisim::types::{Src, TagSel};
use mpisim::world::World;
use proptest::prelude::*;
use scalatrace::stream::{segment_from_bytes, segment_to_bytes, trace_to_bytes};
use scalatrace::{salvage_dir, text, trace_world_streamed, CommTable, StreamConfig, Trace, Tracer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "scalatrace-stream-diff-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Ring exchange + periodic sub-communicator allreduce + closing barrier
/// (the shape of `fixtures/v1/apps.rs`'s `ring_app`): point-to-point,
/// collectives, and CommSplit all flow through the streaming hook.
fn app(iters: usize, bytes: u64) -> impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static {
    move |ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        let half = ctx.comm_split(&w, (ctx.rank() % 2) as i64, ctx.rank() as i64);
        for i in 0..iters {
            let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), bytes, &w);
            let s = ctx.isend(right, 0, bytes, &w);
            ctx.compute(SimDuration::from_usecs(3));
            ctx.waitall(&[r, s]);
            if i % 3 == 0 {
                ctx.allreduce(64, &half);
            }
        }
        ctx.barrier(&w);
    }
}

/// The unbounded in-memory reference at an explicit fold window (the
/// streamed capture under test must use the same window, or the two
/// legitimately fold differently).
fn unbounded_reference(
    world: World,
    n: usize,
    window: usize,
    body: impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static,
) -> (Result<mpisim::world::RunReport, SimError>, Trace) {
    let (result, tracers) =
        world.run_hooked_partial(move |r| Tracer::with_window(r, n, window), body);
    (result, scalatrace::merge::merge_tracers(tracers))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streamed capture == unbounded capture, for arbitrary budgets (0
    /// clamps to the smallest exact budget) and fold windows, under a
    /// seeded timing-perturbation plan.
    #[test]
    fn streamed_capture_is_differentially_identical(
        n in 2usize..5,
        iters in 1usize..8,
        bytes in 1u64..10_000,
        budget in 0usize..200,
        window in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let timing = FaultPlan::differential(seed, n);
        let (result, reference) = unbounded_reference(
            World::new(n).network(network::ethernet_cluster()).faults(timing.clone()),
            n,
            window,
            app(iters, bytes),
        );
        let report = result.expect("reference run completes");

        let dir = temp_dir("prop");
        let cfg = StreamConfig::new(&dir, budget).with_max_window(window);
        let streamed = trace_world_streamed(
            World::new(n).network(network::ethernet_cluster()).faults(timing),
            n,
            &cfg,
            app(iters, bytes),
        ).unwrap();

        // Byte-identical trace: the binary encoding compares the timing
        // histograms verbatim, the text comparison gives a readable diff
        // when something is off.
        prop_assert_eq!(text::to_text(&streamed.run.trace), text::to_text(&reference));
        prop_assert_eq!(trace_to_bytes(&streamed.run.trace), trace_to_bytes(&reference));

        // Identical virtual times and engine (mpiP-style) profile.
        let streamed_report = streamed.run.report.as_ref().expect("streamed run completes");
        prop_assert_eq!(streamed_report.total_time, report.total_time);
        prop_assert_eq!(&streamed_report.per_rank_time, &report.per_rank_time);
        prop_assert_eq!(&streamed_report.stats, &report.stats);

        // The capture held to its budget and lost nothing.
        prop_assert!(streamed.salvage.complete());
        for c in &streamed.counters {
            prop_assert_eq!(c.seal_errors, 0);
            prop_assert!(c.peak_resident <= cfg.budget(),
                "peak {} > budget {}", c.peak_resident, cfg.budget());
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run cut short by a seeded rank crash streams the same partial
    /// trace the unbounded path collects: crash-time capture is not
    /// allowed to drop or duplicate the tail the dying rank produced.
    #[test]
    fn crashed_run_streams_the_same_partial_trace(
        n in 2usize..5,
        iters in 2usize..8,
        bytes in 1u64..10_000,
        budget in 0usize..120,
        window in 1usize..8,
        seed in 0u64..1_000,
        victim in 0usize..5,
        after in 0u64..30,
    ) {
        let victim = victim % n;
        let timing = FaultPlan::differential(seed, n);
        let (result, reference) = unbounded_reference(
            World::new(n)
                .network(network::ethernet_cluster())
                .faults(timing.clone().crash_rank(victim, after)),
            n,
            window,
            app(iters, bytes),
        );
        if let Err(err) = &result {
            prop_assert!(matches!(err, SimError::RankFailed { .. }), "{}", err);
        }

        let dir = temp_dir("crash");
        let cfg = StreamConfig::new(&dir, budget).with_max_window(window);
        let streamed = trace_world_streamed(
            World::new(n)
                .network(network::ethernet_cluster())
                .faults(timing.crash_rank(victim, after)),
            n,
            &cfg,
            app(iters, bytes),
        ).unwrap();

        prop_assert_eq!(streamed.run.error.is_some(), result.is_err());
        prop_assert_eq!(text::to_text(&streamed.run.trace), text::to_text(&reference));
        prop_assert_eq!(trace_to_bytes(&streamed.run.trace), trace_to_bytes(&reference));
        prop_assert!(streamed.salvage.complete(),
            "every rank flushed its tail at crash teardown");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A tracer's table holds only the communicators its rank created, never
/// `MPI_COMM_WORLD`: empty without a split, the rank's own half with one.
#[test]
fn a_tracers_table_holds_only_the_communicators_its_rank_created() {
    let n = 4;
    let (_, tracers) = World::new(n)
        .run_hooked(
            move |r| Tracer::new(r, n),
            |ctx| {
                let w = ctx.world();
                ctx.allreduce(8, &w);
                ctx.barrier(&w);
            },
        )
        .expect("the run completes");
    for t in tracers {
        assert_eq!(t.into_parts().1, CommTable::default());
    }
    let (_, tracers) = World::new(n)
        .run_hooked(move |r| Tracer::new(r, n), app(2, 64))
        .expect("the run completes");
    for t in tracers {
        let rank = t.rank();
        let (_, comms) = t.into_parts();
        let ids: Vec<_> = comms.ids().collect();
        assert_eq!(ids.len(), 1, "rank {rank}: {comms:?}");
        let half: Vec<usize> = (rank % 2..n).step_by(2).collect();
        assert_eq!(comms.members(ids[0]), half.as_slice(), "rank {rank}");
    }
}

/// Segments sealed from those tables still carry the world entry, byte for
/// byte as a table holding it encodes, and salvage still reassembles the
/// unbounded capture.
#[test]
fn streamed_segments_carry_the_world_and_salvage_to_the_unbounded_capture() {
    let n = 4;
    let (result, reference) = unbounded_reference(World::new(n), n, 1, app(40, 64));
    result.expect("reference run completes");
    let dir = temp_dir("world");
    let cfg = StreamConfig::new(&dir, 0).with_max_window(1);
    trace_world_streamed(World::new(n), n, &cfg, app(40, 64)).expect("streamed capture");
    let world: Vec<usize> = (0..n).collect();
    let mut segments = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        let seg = segment_from_bytes(&bytes).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert_eq!(seg.comms.members(0), world.as_slice(), "{path:?}");
        assert_eq!(
            seg.comms.ids().count(),
            2,
            "{path:?}: world and the rank's half"
        );
        assert_eq!(segment_to_bytes(&seg), bytes, "{path:?}");
        segments += 1;
    }
    assert!(segments > 2 * n, "{segments} segments");
    let (salvaged, report) = salvage_dir(&dir).expect("salvages");
    assert!(report.complete());
    assert_eq!(trace_to_bytes(&salvaged), trace_to_bytes(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}
