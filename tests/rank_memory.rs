//! What one simulated rank holds must not grow with the world: the peak
//! live heap of a whole run, divided by its ranks, stays flat from 256 to
//! 1 024 ranks (and to 4 096 in release builds), for a plain run and for a
//! traced one.
//!
//! Every rank is a coroutine on the calling thread and the merge runs on
//! it too (one `par` thread), so a thread-local counter behind the global
//! allocator sees exactly one world's heap per test, whatever else the
//! harness runs beside it. Rank stacks are `mmap`ed, not allocated, and
//! are not counted.

use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::world::World;
use scalatrace::trace_app;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting this thread's live bytes and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.get() + bytes as isize;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

fn shrink(bytes: usize) {
    LIVE.set(LIVE.get() - bytes as isize);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialised thread-locals without destructors, so touching them
// never allocates or runs after the thread's storage is gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live heap on this thread while `f` runs, above what was live
/// before it, divided by `ranks`.
fn peak_per_rank(ranks: usize, f: impl FnOnce()) -> f64 {
    let before = LIVE.get();
    PEAK.set(before);
    f();
    (PEAK.get() - before) as f64 / ranks as f64
}

fn ring() -> AppParams {
    AppParams {
        class: Class::S,
        iterations: Some(4),
        compute_scale: 1.0,
    }
}

fn plain_ring(ranks: usize) -> f64 {
    let app = registry::lookup("ring").unwrap();
    let params = ring();
    peak_per_rank(ranks, || {
        World::new(ranks)
            .run(move |ctx| (app.run)(ctx, &params))
            .expect("ring runs");
    })
}

fn traced_ring(ranks: usize) -> f64 {
    let app = registry::lookup("ring").unwrap();
    let params = ring();
    par::set_threads(1);
    peak_per_rank(ranks, || {
        trace_app(ranks, network::ideal(), move |ctx| (app.run)(ctx, &params))
            .expect("ring traces");
    })
}

/// Bytes per rank at `ranks` within 10 % of the figure at 256 ranks.
fn assert_flat(what: &str, measure: fn(usize) -> f64, ranks: usize) {
    // A first run warms the process-wide state a run leaves behind (the
    // rank stack free list, the panic hook), so neither size pays for it.
    measure(4);
    let base = measure(256);
    let at = measure(ranks);
    eprintln!("{what}: {base:.0} B per rank at 256 ranks, {at:.0} B at {ranks}");
    assert!(
        at <= base * 1.10,
        "{what}: {at:.0} B per rank at {ranks} ranks vs {base:.0} B at 256"
    );
}

#[test]
fn a_plain_rank_holds_the_same_heap_at_1024_ranks() {
    assert_flat("plain ring", plain_ring, 1024);
}

#[test]
fn a_traced_rank_holds_the_same_heap_at_1024_ranks() {
    assert_flat("traced ring", traced_ring, 1024);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release")]
fn a_plain_rank_holds_the_same_heap_at_4096_ranks() {
    assert_flat("plain ring", plain_ring, 4096);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: cargo test --release")]
fn a_traced_rank_holds_the_same_heap_at_4096_ranks() {
    assert_flat("traced ring", traced_ring, 4096);
}
