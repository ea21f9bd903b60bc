//! Every event's stack signature is FNV-1a over the region stack and the
//! call site: each open region's name followed by a NUL, outermost first,
//! then the call site's file bytes, its line and its column as
//! little-endian `u64`s. `Ctx` keeps the region part as a running state and
//! memoises each signature per call site, so this pins the value it hands
//! out against the same hash computed from scratch, for every event of
//! every rank, under both op windows.

use mpisim::hooks::{EventKind, RecordingHook};
use mpisim::network;
use mpisim::types::{Src, TagSel};
use mpisim::world::World;
use mpisim::Ctx;

fn fnv1a(regions: &[&str], file: &str, line: u32, column: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in regions {
        eat(r.as_bytes());
        eat(&[0]);
    }
    eat(file.as_bytes());
    eat(&(line as u64).to_le_bytes());
    eat(&(column as u64).to_le_bytes());
    h
}

/// One call site, entered from every region stack it is called under.
fn exchange(ctx: &mut Ctx) {
    let w = ctx.world();
    ctx.allreduce(8, &w);
}

/// Two call sites on one line, told apart by their columns alone.
#[rustfmt::skip]
fn twins(ctx: &mut Ctx) {
    let w = ctx.world();
    ctx.barrier(&w); ctx.barrier(&w);
}

/// The region stack of each event this body makes, in order.
const REGIONS: &[&[&str]] = &[
    &[],
    &["solve"],
    &["solve"],
    &["solve", "sweep"],
    &["solve", "sweep"],
    &["solve", "sweep"],
    &["solve", "sweep"],
    &["solve"],
    &["solve", "split"],
    &["solve", "split"],
    &["solve", "split", "solve"],
    &[],
    &[],
];

fn body(ctx: &mut Ctx) {
    exchange(ctx);
    ctx.region("solve", |ctx| {
        exchange(ctx);
        let (me, n) = (ctx.rank(), ctx.size());
        let w = ctx.world();
        let s = ctx.isend((me + 1) % n, 0, 64, &w);
        ctx.region("sweep", |ctx| {
            ctx.recv_ignore(Src::Rank((me + n - 1) % n), TagSel::Is(0), 64, &w);
            let h = ctx.irecv(Src::Any, TagSel::Any, 8, &w);
            ctx.send((me + 1) % n, 1, 8, &w);
            ctx.wait(h);
        });
        ctx.wait_ignore(s);
        ctx.region("split", |ctx| {
            let half = ctx.comm_split(&w, (me % 2) as i64, me as i64);
            ctx.barrier(&half);
            ctx.region("solve", exchange);
        });
    });
    twins(ctx);
}

#[test]
fn every_signature_is_fnv1a_over_regions_and_call_site() {
    for batching in [true, false] {
        let (_, hooks) = World::new(4)
            .network(network::ethernet_cluster())
            .op_batching(batching)
            .run_hooked(|_| RecordingHook::default(), body)
            .expect("the run completes");
        for (rank, hook) in hooks.iter().enumerate() {
            let events = &hook.events;
            assert_eq!(events.len(), REGIONS.len(), "rank {rank}");
            for (ev, regions) in events.iter().zip(REGIONS) {
                let site = &ev.callsite;
                assert_eq!(
                    ev.stack_sig,
                    fnv1a(regions, site.file, site.line, site.column),
                    "rank {rank}: {} at {site} under {regions:?}",
                    ev.kind.mpi_name()
                );
            }
            // What the cases are there for: one call site under three
            // region stacks, and two columns of one line, each make their
            // own signature; so does a region name met twice in a stack.
            let sig = |i: usize| events[i].stack_sig;
            assert_eq!(events[0].callsite, events[1].callsite);
            assert_eq!(events[1].callsite, events[10].callsite);
            assert!(sig(0) != sig(1) && sig(1) != sig(10) && sig(0) != sig(10));
            let (a, b) = (&events[11].callsite, &events[12].callsite);
            assert!(a.line == b.line && a.column < b.column);
            assert_ne!(sig(11), sig(12));
            assert!(matches!(events[8].kind, EventKind::CommSplit { .. }));
        }
    }
}
