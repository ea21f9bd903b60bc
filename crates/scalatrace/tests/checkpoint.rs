//! Checkpoint/restart differential tests: a run that crashes and resumes
//! from its checkpoints must produce the *same bytes* — trace text and
//! virtual times — as the run that never crashed.

use mpisim::error::SimError;
use mpisim::faults::FaultPlan;
use mpisim::network;
use mpisim::time::SimDuration;
use mpisim::types::{Src, TagSel};
use mpisim::world::World;
use proptest::prelude::*;
use scalatrace::{
    text, trace_world, trace_world_checkpointed, trace_world_resumed, CheckpointConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "scalatrace-ckpt-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Ring exchange + periodic sub-communicator allreduce + closing barrier:
/// exercises point-to-point, collectives, and CommSplit in the checkpointed
/// stream.
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

proptest! {
    // The acceptance bar: differential identity across >= 100 cases.
    #![proptest_config(ProptestConfig::with_cases(110))]

    /// checkpoint -> crash -> restore -> continue == uninterrupted run:
    /// byte-identical trace text and identical virtual times, under a
    /// seeded perturbation plan (jitter, skew, stragglers) the resumed run
    /// re-executes deterministically.
    #[test]
    fn resume_after_crash_is_differentially_identical(
        n in 2usize..5,
        iters in 1usize..8,
        bytes in 1u64..10_000,
        every in 1u64..13,
        seed in 0u64..1_000,
        victim in 0usize..5,
        after in 0u64..25,
    ) {
        let victim = victim % n;
        let timing = FaultPlan::differential(seed, n)
            .with_coll_straggle(SimDuration::from_usecs(seed % 50));

        // Reference: the run that never crashes.
        let full = trace_world(
            World::new(n).network(network::ethernet_cluster()).faults(timing.clone()),
            n,
            app(iters, bytes),
        ).unwrap();

        // Crashing run, checkpointing every `every` events. The crash may or
        // may not fire (short apps can finish first) — both paths must
        // resume to the same place.
        let dir = temp_dir("prop");
        let cfg = CheckpointConfig::new(&dir, every);
        let crashed = trace_world_checkpointed(
            World::new(n)
                .network(network::ethernet_cluster())
                .faults(timing.clone().crash_rank(victim, after)),
            n,
            &cfg,
            app(iters, bytes),
        ).unwrap();
        if let Some(err) = &crashed.error {
            prop_assert!(matches!(err, SimError::RankFailed { .. }), "{}", err);
        }

        // Resume under the same plan stripped of its crash triggers.
        let resumed = trace_world_resumed(
            World::new(n)
                .network(network::ethernet_cluster())
                .faults(timing.without_crashes()),
            n,
            &cfg,
            app(iters, bytes),
        ).unwrap();
        prop_assert!(resumed.completed(), "resume must complete: {:?}", resumed.error);

        prop_assert_eq!(text::to_text(&resumed.trace), text::to_text(&full.trace));
        let report = resumed.report.unwrap();
        prop_assert_eq!(report.total_time, full.report.total_time);
        prop_assert_eq!(report.per_rank_time, full.report.per_rank_time);
        prop_assert_eq!(report.stats, full.report.stats);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_during_collective_leaves_resumable_partial_trace_with_named_edges() {
    const N: usize = 4;
    let full = trace_world(World::new(N), N, app(6, 512)).unwrap();

    // Rank 3 dies entering its second collective (the iteration-3 allreduce
    // or the closing barrier, depending on schedule).
    let dir = temp_dir("coll-crash");
    let cfg = CheckpointConfig::new(&dir, 4);
    let crashed = trace_world_checkpointed(
        World::new(N).faults(FaultPlan::seeded(5).crash_in_collective(3, 1)),
        N,
        &cfg,
        app(6, 512),
    )
    .unwrap();
    match &crashed.error {
        Some(SimError::RankFailed { rank, blocked, .. }) => {
            assert_eq!(*rank, 3);
            // Every survivor's wait-for edge leads (directly or through the
            // ring) back to the dead rank ...
            assert!(!blocked.is_empty(), "survivors should be blocked");
            for b in blocked {
                assert!(b.rank != 3, "the dead rank is not a survivor");
                assert!(!b.waiting_on.is_empty(), "{b}");
            }
            // ... and the dead rank's collective peers block *at the
            // collective*, with an edge naming the rendezvous and its
            // arrival count.
            assert!(
                blocked.iter().any(|b| {
                    b.what.contains("MPI_") && b.what.contains("arrived") && b.waiting_on == vec![3]
                }),
                "some survivor should be blocked inside the collective: {blocked:?}"
            );
        }
        other => panic!("expected RankFailed, got {other:?}"),
    }
    let partial_events = crashed.trace.concrete_event_count();
    assert!(partial_events > 0, "crash must not wipe the trace");
    assert!(partial_events < full.trace.concrete_event_count());

    // And the wreckage is resumable to the exact reference trace.
    let resumed = trace_world_resumed(World::new(N), N, &cfg, app(6, 512)).unwrap();
    assert!(resumed.completed());
    assert_eq!(text::to_text(&resumed.trace), text::to_text(&full.trace));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_cutoff_is_resumable_like_a_crash() {
    const N: usize = 3;
    let full = trace_world(World::new(N), N, app(10, 128)).unwrap();

    let dir = temp_dir("budget");
    let cfg = CheckpointConfig::new(&dir, 2);
    let cut = trace_world_checkpointed(World::new(N).op_budget(20), N, &cfg, app(10, 128)).unwrap();
    assert!(
        matches!(cut.error, Some(SimError::BudgetExceeded { .. })),
        "{:?}",
        cut.error
    );

    let resumed = trace_world_resumed(World::new(N), N, &cfg, app(10, 128)).unwrap();
    assert!(resumed.completed());
    assert_eq!(text::to_text(&resumed.trace), text::to_text(&full.trace));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_rank_checkpoint_restarts_that_rank_fresh() {
    const N: usize = 4;
    let full = trace_world(World::new(N), N, app(5, 256)).unwrap();

    let dir = temp_dir("missing");
    let cfg = CheckpointConfig::new(&dir, 3);
    let crashed = trace_world_checkpointed(
        World::new(N).faults(FaultPlan::seeded(2).crash_rank(1, 8)),
        N,
        &cfg,
        app(5, 256),
    )
    .unwrap();
    assert!(!crashed.completed());

    // Lose one rank's checkpoint entirely: that rank replays from scratch
    // and re-records everything, the others skip their prefixes — the merge
    // converges to the same trace either way.
    std::fs::remove_file(cfg.rank_path(2)).unwrap();
    let resumed = trace_world_resumed(World::new(N), N, &cfg, app(5, 256)).unwrap();
    assert!(resumed.completed());
    assert_eq!(text::to_text(&resumed.trace), text::to_text(&full.trace));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_is_refused_not_trusted() {
    const N: usize = 2;
    let dir = temp_dir("corrupt");
    let cfg = CheckpointConfig::new(&dir, 1);
    trace_world_checkpointed(World::new(N), N, &cfg, app(3, 64)).unwrap();

    // Flip one byte in the middle of rank 0's checkpoint.
    let path = cfg.rank_path(0);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let err = trace_world_resumed(World::new(N), N, &cfg, app(3, 64))
        .expect_err("corrupt checkpoint must be rejected");
    assert!(err.to_string().contains("checksum"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_are_written_atomically_no_tmp_left_behind() {
    const N: usize = 3;
    let dir = temp_dir("atomic");
    let cfg = CheckpointConfig::new(&dir, 1);
    trace_world_checkpointed(World::new(N), N, &cfg, app(4, 64)).unwrap();

    let mut saw_ckpt = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            !name.ends_with(".tmp"),
            "temporary file leaked into the checkpoint dir: {name}"
        );
        if name.ends_with(".ckpt") {
            saw_ckpt += 1;
        }
    }
    assert_eq!(saw_ckpt, N, "one final salvage checkpoint per rank");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The frozen v1 checkpoints (`fixtures/v1/checkpoints`, written by the
/// last commit whose writer emitted v1) and the application they were
/// captured from.
#[path = "fixtures/v1/apps.rs"]
mod v1;

/// A scratch copy of the v1 checkpoints with every file's fold-strategy
/// byte overwritten and the trailing FNV-1a checksum fixed up, so only the
/// tag differs from what the v1 writer produced.
fn v1_checkpoints_with_strategy_tag(tag: u8) -> CheckpointConfig {
    // magic · version u32 · rank · nranks · events_seen · last_exit ·
    // max_window (u64 each in v1), then the tag.
    const TAG_AT: usize = 4 + 4 + 5 * 8;
    let cfg = CheckpointConfig::new(temp_dir("v1-tag"), v1::CKPT_EVERY);
    std::fs::create_dir_all(cfg.dir()).unwrap();
    let frozen =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1/checkpoints");
    for r in 0..v1::CKPT_RANKS {
        let name = cfg.rank_path(r);
        let mut bytes = std::fs::read(frozen.join(name.file_name().unwrap())).unwrap();
        assert_eq!(bytes[4..8], 1u32.to_le_bytes(), "the fixtures are v1 files");
        assert_eq!(
            bytes[TAG_AT], 0,
            "the v1 writer emitted the fingerprint tag"
        );
        bytes[TAG_AT] = tag;
        let body_len = bytes.len() - 8;
        let mut h = mpisim::types::Fnv1a::new();
        h.write(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&h.finish().to_le_bytes());
        std::fs::write(&name, &bytes).unwrap();
    }
    cfg
}

#[test]
fn structural_era_checkpoints_resume_and_unknown_tags_are_refused() {
    const N: usize = v1::CKPT_RANKS;
    let app = || v1::ring_app(v1::CKPT_ITERS, v1::CKPT_BYTES);
    let full = trace_world(World::new(N), N, app()).unwrap();

    // The fixtures are what the run crashing rank 2 at event 11 left behind.
    // Tag 0 is what v1 wrote; tag 1 was the compressor's structural-fold
    // mode. Both restore into the one compressor and finish with the
    // uninterrupted run's bytes.
    for tag in [0, 1] {
        let cfg = v1_checkpoints_with_strategy_tag(tag);
        let resumed = trace_world_resumed(World::new(N), N, &cfg, app()).unwrap();
        assert!(resumed.completed());
        assert_eq!(
            scalatrace::stream::trace_to_bytes(&resumed.trace),
            scalatrace::stream::trace_to_bytes(&full.trace)
        );
        assert_eq!(text::to_text(&resumed.trace), text::to_text(&full.trace));
        // The completed resume rewrote every checkpoint at the current
        // version, which has no strategy byte at all.
        for r in 0..N {
            let bytes = std::fs::read(cfg.rank_path(r)).unwrap();
            assert_eq!(
                scalatrace::frame::peek_version(&bytes),
                Some(scalatrace::frame::VERSION)
            );
        }
        let _ = std::fs::remove_dir_all(cfg.dir());
    }

    // Anything past 1 is a structured error, not a panic.
    let cfg = v1_checkpoints_with_strategy_tag(2);
    let err = trace_world_resumed(World::new(N), N, &cfg, app())
        .expect_err("an unknown strategy tag must be rejected");
    assert!(err.to_string().contains("bad strategy tag 2"), "{err}");
    let _ = std::fs::remove_dir_all(cfg.dir());
}
