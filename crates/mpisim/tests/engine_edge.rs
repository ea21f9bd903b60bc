//! Edge-case tests for the engine: degenerate sizes, tag wildcards,
//! self-messaging, nested communicators, timing corner cases, and stats
//! accounting.

use mpisim::comm::Comm;
use mpisim::engine::MatchPolicy;
use mpisim::error::SimError;
use mpisim::network::{self, FlatNetwork};
use mpisim::time::SimDuration;
use mpisim::types::{Src, TagSel};
use mpisim::world::World;
use std::sync::Arc;

#[test]
fn zero_byte_messages_round_trip() {
    World::new(2)
        .network(network::ethernet_cluster())
        .run(|ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(1, 0, 0, &w);
            } else {
                let info = ctx.recv(Src::Rank(0), TagSel::Is(0), 0, &w);
                assert_eq!(info.bytes, 0);
            }
        })
        .unwrap();
}

#[test]
fn any_tag_with_specific_source() {
    World::new(2)
        .run(|ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(1, 42, 8, &w);
            } else {
                let info = ctx.recv(Src::Rank(0), TagSel::Any, 8, &w);
                assert_eq!(info.tag, 42);
            }
        })
        .unwrap();
}

#[test]
fn self_messaging_with_nonblocking_ops() {
    // isend to self + irecv from self must match (common in transpose codes)
    World::new(2)
        .run(|ctx| {
            let w = ctx.world();
            let me = ctx.rank();
            let r = ctx.irecv(Src::Rank(me), TagSel::Is(1), 128, &w);
            let s = ctx.isend(me, 1, 128, &w);
            let infos = ctx.waitall(&[r, s]);
            assert_eq!(infos[0].unwrap().source, me);
        })
        .unwrap();
}

#[test]
fn empty_waitall_is_a_noop() {
    let report = World::new(1)
        .run(|ctx| {
            let infos = ctx.waitall(&[]);
            assert!(infos.is_empty());
        })
        .unwrap();
    assert_eq!(report.total_time.as_nanos(), 0);
}

#[test]
fn a_handle_named_twice_in_one_wait_is_an_invalid_handle() {
    // Validation used to check each handle against the live requests, which
    // a repeated handle passes; completing the wait then removed it twice
    // and took the whole process down.
    for ignore in [false, true] {
        let err = World::new(2)
            .run(move |ctx| {
                let w = ctx.world();
                let peer = ctx.rank() ^ 1;
                let r = ctx.irecv(Src::Rank(peer), TagSel::Is(0), 8, &w);
                let s = ctx.isend(peer, 0, 8, &w);
                if ignore {
                    ctx.waitall_ignore(&[r, s, r]);
                } else {
                    ctx.waitall(&[s, s]);
                }
            })
            .unwrap_err();
        let want = if ignore {
            "rank 0 waited on request 1 twice in one call"
        } else {
            "rank 0 waited on request 2 twice in one call"
        };
        assert_eq!(err, SimError::InvalidHandle(want.into()), "ignore {ignore}");
    }
}

#[test]
fn a_collective_on_a_communicator_the_rank_is_not_in_is_an_invalid_rank() {
    let err = World::new(4)
        .run(|ctx| {
            let w = ctx.world();
            let half = ctx.comm_split(&w, (ctx.rank() / 2) as i64, ctx.rank() as i64);
            if ctx.rank() == 2 {
                // The other half's communicator, forged from its public fields.
                let theirs = Comm {
                    id: half.id - 1,
                    rank: 0,
                    size: 2,
                    members: Arc::new(vec![0, 1]),
                };
                ctx.barrier(&theirs);
            } else {
                ctx.barrier(&half);
            }
        })
        .unwrap_err();
    assert_eq!(
        err,
        SimError::InvalidRank {
            rank: 2,
            comm: 1,
            size: 2
        }
    );
}

#[test]
fn nested_comm_splits() {
    World::new(8)
        .run(|ctx| {
            let w = ctx.world();
            let half = ctx.comm_split(&w, (ctx.rank() / 4) as i64, ctx.rank() as i64);
            assert_eq!(half.size, 4);
            let quarter = ctx.comm_split(&half, (half.rank / 2) as i64, half.rank as i64);
            assert_eq!(quarter.size, 2);
            // collectives on the innermost communicator
            ctx.allreduce(8, &quarter);
            // membership: rank 5 → half {4..7} rank 1 → quarter {4,5} rank 1
            if ctx.rank() == 5 {
                assert_eq!(quarter.members.as_slice(), &[4, 5]);
                assert_eq!(quarter.rank, 1);
            }
        })
        .unwrap();
}

#[test]
fn single_rank_world_supports_collectives() {
    World::new(1)
        .run(|ctx| {
            let w = ctx.world();
            ctx.barrier(&w);
            ctx.allreduce(1024, &w);
            ctx.bcast(0, 4096, &w);
            ctx.finalize();
        })
        .unwrap();
}

#[test]
fn stats_account_for_everything() {
    let report = World::new(4)
        .network(network::blue_gene_l())
        .run(|ctx| {
            let w = ctx.world();
            let partner = ctx.rank() ^ 1;
            let r = ctx.irecv(Src::Rank(partner), TagSel::Is(0), 64, &w);
            let s = ctx.isend(partner, 0, 64, &w);
            ctx.waitall(&[r, s]);
            ctx.barrier(&w);
            ctx.allreduce(8, &w);
        })
        .unwrap();
    assert_eq!(report.stats.messages, 4);
    assert_eq!(report.stats.collectives, 2);
    // ops: per rank irecv+isend+waitall+barrier+allreduce+exit = 6
    assert_eq!(report.stats.operations, 4 * 6);
}

#[test]
fn torus_distance_affects_latency() {
    // one hop vs many hops on the BG/L torus
    let time_between = |a: usize, b: usize| {
        World::new(64)
            .network(network::blue_gene_l())
            .run(move |ctx| {
                let w = ctx.world();
                if ctx.rank() == a {
                    ctx.send(b, 0, 0, &w);
                } else if ctx.rank() == b {
                    let _ = ctx.recv(Src::Rank(a), TagSel::Is(0), 0, &w);
                }
            })
            .unwrap()
            .total_time
    };
    let near = time_between(0, 1);
    let far = time_between(0, 36); // several hops away on the 8x8x16 torus
    assert!(far > near, "far {far} must exceed near {near}");
}

#[test]
fn seeded_policies_are_deterministic_and_can_differ() {
    let first_match = |seed: u64| {
        let result = Arc::new(std::sync::Mutex::new(0usize));
        let r2 = Arc::clone(&result);
        World::new(4)
            .match_policy(MatchPolicy::Seeded(seed))
            .run(move |ctx| {
                let w = ctx.world();
                if ctx.rank() == 0 {
                    ctx.compute(SimDuration::from_millis(1));
                    for _ in 1..4 {
                        let info = ctx.recv(Src::Any, TagSel::Any, 8, &w);
                        let mut g = r2.lock().unwrap();
                        if *g == 0 {
                            *g = info.source;
                        }
                    }
                } else {
                    ctx.send(0, 0, 8, &w);
                }
            })
            .unwrap();
        let v = *result.lock().unwrap();
        v
    };
    // deterministic per seed
    for seed in 0..4 {
        assert_eq!(first_match(seed), first_match(seed), "seed {seed}");
    }
    // at least two seeds disagree (models run-to-run nondeterminism)
    let outcomes: std::collections::BTreeSet<usize> = (0..16).map(first_match).collect();
    assert!(outcomes.len() > 1, "seeds never disagreed: {outcomes:?}");
}

#[test]
fn rendezvous_sender_held_until_very_late_receiver() {
    let net = Arc::new(FlatNetwork {
        name: "t".into(),
        latency: SimDuration::from_usecs(1),
        bandwidth_bps: 1e9,
        cpu_overhead: SimDuration::ZERO,
        copy_secs_per_byte: 0.0,
        eager_limit: 100,
        unexpected_capacity: 1 << 20,
        stall_resume_penalty: SimDuration::ZERO,
    });
    let report = World::new(2)
        .network(net)
        .run(|ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(1, 0, 1000, &w); // above the 100-byte eager limit
            } else {
                ctx.compute(SimDuration::from_secs(1));
                let _ = ctx.recv(Src::Rank(0), TagSel::Is(0), 1000, &w);
            }
        })
        .unwrap();
    assert!(
        report.per_rank_time[0] >= mpisim::time::SimTime::from_nanos(1_000_000_000),
        "rendezvous sender finished at {}",
        report.per_rank_time[0]
    );
}

#[test]
fn eager_messages_do_not_wait_for_late_receiver() {
    let report = World::new(2)
        .network(network::ethernet_cluster())
        .run(|ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                for _ in 0..3 {
                    ctx.send(1, 0, 100, &w);
                }
            } else {
                ctx.compute(SimDuration::from_secs(1));
                for _ in 0..3 {
                    let _ = ctx.recv(Src::Rank(0), TagSel::Is(0), 100, &w);
                }
            }
        })
        .unwrap();
    assert!(
        report.per_rank_time[0].as_nanos() < 1_000_000,
        "eager sender finished at {}",
        report.per_rank_time[0]
    );
    assert_eq!(report.stats.unexpected_messages, 3);
}

#[test]
fn mixed_tags_and_sources_match_correctly() {
    // a stress of the matching queues: interleaved tags and wildcard
    World::new(3)
        .run(|ctx| {
            let w = ctx.world();
            match ctx.rank() {
                0 => {
                    ctx.send(2, 1, 11, &w);
                    ctx.send(2, 2, 12, &w);
                }
                1 => {
                    ctx.send(2, 1, 21, &w);
                    ctx.send(2, 2, 22, &w);
                }
                2 => {
                    ctx.compute(SimDuration::from_usecs(10));
                    // tag 2 from rank 1, then any tag-1, then the rest
                    let a = ctx.recv(Src::Rank(1), TagSel::Is(2), 22, &w);
                    assert_eq!((a.source, a.bytes), (1, 22));
                    let b = ctx.recv(Src::Any, TagSel::Is(1), 0, &w);
                    assert!(b.bytes == 11 || b.bytes == 21);
                    let _ = ctx.recv(Src::Any, TagSel::Is(1), 0, &w);
                    let d = ctx.recv(Src::Any, TagSel::Any, 0, &w);
                    assert_eq!((d.source, d.bytes), (0, 12));
                }
                _ => unreachable!(),
            }
        })
        .unwrap();
}

#[test]
fn comm_dup_preserves_membership_and_numbering() {
    World::new(4)
        .run(|ctx| {
            let w = ctx.world();
            let sub = ctx.comm_split(&w, (ctx.rank() / 2) as i64, ctx.rank() as i64);
            let dup = ctx.comm_dup(&sub);
            assert_eq!(dup.members, sub.members);
            assert_eq!(dup.rank, sub.rank);
            assert_ne!(dup.id, sub.id, "a dup is a distinct communicator");
            // both usable independently
            ctx.allreduce(8, &sub);
            ctx.allreduce(8, &dup);
        })
        .unwrap();
}
