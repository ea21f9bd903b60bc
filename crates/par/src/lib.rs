#![forbid(unsafe_code)]
//! Std-only parallel execution layer for the commspec workspace.
//!
//! The pipeline's reduction stages — the inter-rank binary-tree merge, the
//! campaign runner, and the bench harness itself — are embarrassingly
//! parallel *within a step* but must produce
//! output that is independent of the thread count. This crate provides the
//! three primitives they share:
//!
//! * [`par_map`] / [`par_map_indexed`] — order-preserving chunked map over a
//!   scoped worker pool. Workers claim chunks from an atomic cursor and park
//!   results in per-index slots, so the output `Vec` is in input order no
//!   matter which worker computed which element.
//! * [`tree_reduce`] — binary-tree reduction with a **fixed combine order**:
//!   level `k` pairs elements `(0,1), (2,3), …` exactly as the sequential
//!   loop does, an odd trailing element passes through unpaired, and the
//!   next level operates on the results in index order. Only the *timing* of
//!   the pair combines varies with the thread count, never their operands,
//!   so the result is identical for any `threads`.
//! * [`threads`] — thread-count resolution: an explicit process-wide
//!   override ([`set_threads`], used by `--threads N` CLI flags and the
//!   campaign `pipeline_threads` knob) wins over the `COMMSPEC_THREADS`
//!   environment variable, which wins over [`available_cores`].
//!
//! `threads <= 1` is a hard sequential fallback: no threads are spawned and
//! the exact sequential control flow runs on the caller's stack, so a
//! single-threaded run is byte-for-byte the pre-parallel code path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable consulted by [`threads`] when no explicit override
/// is set.
pub const THREADS_ENV: &str = "COMMSPEC_THREADS";

/// Process-wide thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of hardware threads the OS reports for this process, asked once:
/// the query reads the affinity mask and the cgroup quota files, and
/// [`threads`] is called per merge.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn env_threads() -> Option<usize> {
    let raw = std::env::var(THREADS_ENV).ok()?;
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Resolve the pool width: explicit [`set_threads`] override, then
/// `COMMSPEC_THREADS`, then [`available_cores`].
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    env_threads().unwrap_or_else(available_cores)
}

/// Set the process-wide thread-count override (`0` clears it, falling back
/// to `COMMSPEC_THREADS` / core count). Returns the previous override.
pub fn set_threads(n: usize) -> usize {
    THREAD_OVERRIDE.swap(n, Ordering::Relaxed)
}

/// RAII guard restoring the previous thread-count override on drop.
///
/// Lets a caller (a test, or one campaign run inside a larger process)
/// scope a thread-count change without leaking it.
pub struct ThreadsGuard {
    prev: usize,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

/// Set the override for the lifetime of the returned guard.
pub fn scoped_threads(n: usize) -> ThreadsGuard {
    ThreadsGuard {
        prev: set_threads(n),
    }
}

/// Order-preserving parallel map over indices `0..len`.
///
/// With `threads <= 1` (or a trivially small input) this is a plain
/// sequential `(0..len).map(f).collect()` on the caller's stack. Otherwise
/// `min(threads, len)` scoped workers claim chunks of indices from an
/// atomic cursor and write each result into its own slot, so the returned
/// `Vec` is in index order regardless of scheduling. A panic in `f`
/// propagates to the caller when the scope joins.
pub fn par_map_indexed<U, F>(threads: usize, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let workers = threads.min(len);
    // Chunked claiming: amortise the atomic op over several items while
    // keeping enough chunks (~4 per worker) for load balance.
    let chunk = (len / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + chunk).min(len);
                for (slot, i) in slots[start..end].iter().zip(start..end) {
                    let v = f(i);
                    *slot.lock().unwrap() = Some(v);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("pool invariant: every slot filled")
        })
        .collect()
}

/// Order-preserving parallel map consuming `items` by value.
pub fn par_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    par_map_indexed(threads, cells.len(), |i| {
        f(cells[i]
            .lock()
            .unwrap()
            .take()
            .expect("pool invariant: each item taken once"))
    })
}

/// Binary-tree reduction with deterministic combine order.
///
/// Every level pairs `(0,1), (2,3), …` in index order — the same pairing
/// the sequential fallback uses — and an odd trailing element passes
/// through to the next level unpaired, so for an associative-but-not-
/// commutative `combine` the result is *identical* for every `threads`
/// value; only wall-clock time changes. Returns `None` for empty input.
///
/// Level buffers are allocated once and ping-ponged between rounds
/// (sequentially: one reused `next` buffer swapped with the input), so the
/// reduction allocates no per-round vectors.
pub fn tree_reduce<T, F>(threads: usize, items: Vec<T>, combine: F) -> Option<T>
where
    T: Send,
    F: Fn(T, T) -> T + Sync,
{
    if items.is_empty() {
        return None;
    }
    if threads <= 1 || items.len() <= 2 {
        return Some(tree_reduce_seq(items, &combine));
    }
    // Ping-pong slot buffers, sized once for the first (widest) level.
    let mut cur: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let mut nxt: Vec<Mutex<Option<T>>> = (0..cur.len().div_ceil(2))
        .map(|_| Mutex::new(None))
        .collect();
    let mut len = cur.len();
    while len > 1 {
        let pairs = len / 2;
        let workers = threads.min(pairs);
        let cursor = AtomicUsize::new(0);
        let (cursor_ref, cur_ref, nxt_ref, cmb) = (&cursor, &cur, &nxt, &combine);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || loop {
                    let k = cursor_ref.fetch_add(1, Ordering::Relaxed);
                    if k >= pairs {
                        break;
                    }
                    let a = cur_ref[2 * k].lock().unwrap().take().unwrap();
                    let b = cur_ref[2 * k + 1].lock().unwrap().take().unwrap();
                    *nxt_ref[k].lock().unwrap() = Some(cmb(a, b));
                });
            }
        });
        let mut new_len = pairs;
        if len % 2 == 1 {
            let tail = cur[len - 1].lock().unwrap().take().unwrap();
            *nxt[pairs].lock().unwrap() = Some(tail);
            new_len += 1;
        }
        std::mem::swap(&mut cur, &mut nxt);
        len = new_len;
    }
    let result = cur[0].lock().unwrap().take();
    result
}

/// The sequential tree reduction: identical pairing, one reused level
/// buffer swapped with the input each round.
fn tree_reduce_seq<T, F>(mut items: Vec<T>, combine: &F) -> T
where
    F: Fn(T, T) -> T,
{
    let mut next: Vec<T> = Vec::with_capacity(items.len().div_ceil(2));
    while items.len() > 1 {
        let mut it = items.drain(..);
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        drop(it);
        std::mem::swap(&mut items, &mut next);
    }
    items.pop().expect("non-empty input")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 8] {
            let out = par_map_indexed(threads, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_by_value_matches_sequential() {
        let items: Vec<String> = (0..37).map(|i| format!("item-{i}")).collect();
        let expect: Vec<usize> = items.iter().map(|s| s.len()).collect();
        for threads in [1, 2, 8] {
            assert_eq!(par_map(threads, items.clone(), |s| s.len()), expect);
        }
    }

    #[test]
    fn tree_reduce_is_thread_count_invariant() {
        // String concatenation is associative but NOT commutative: any
        // deviation from the fixed pairing order changes the result.
        for n in [0usize, 1, 2, 3, 7, 8, 9, 64, 255, 256] {
            let items: Vec<String> = (0..n).map(|i| format!("[{i}]")).collect();
            let seq = tree_reduce(1, items.clone(), |a, b| a + &b);
            for threads in [2, 3, 8] {
                let par = tree_reduce(threads, items.clone(), |a, b| a + &b);
                assert_eq!(par, seq, "n={n} threads={threads}");
            }
            if n == 0 {
                assert!(seq.is_none());
            } else {
                // The fixed pairing keeps elements in index order, so the
                // concatenation is simply [0][1]…[n-1].
                let expect: String = (0..n).map(|i| format!("[{i}]")).collect();
                assert_eq!(seq.unwrap(), expect);
            }
        }
    }

    #[test]
    fn tree_reduce_pairing_matches_sequential_loop() {
        // Combine into nested parens to observe the association tree shape.
        let items: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let shape = |t: usize| tree_reduce(t, items.clone(), |a, b| format!("({a}{b})")).unwrap();
        // Level 1: (01) (23) 4 ; level 2: ((01)(23)) 4 ; level 3: (((01)(23))4)
        assert_eq!(shape(1), "(((01)(23))4)");
        assert_eq!(shape(8), "(((01)(23))4)");
    }

    /// Tests that touch the process-global override must not interleave.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn threads_resolution_order() {
        let _l = global_lock();
        // Override wins over env and cores.
        let g = scoped_threads(5);
        assert_eq!(threads(), 5);
        drop(g);
        // After the guard drops the previous (unset) state is restored.
        assert_ne!(THREAD_OVERRIDE.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn scoped_guard_nests() {
        let _l = global_lock();
        let outer = scoped_threads(3);
        {
            let _inner = scoped_threads(7);
            assert_eq!(threads(), 7);
        }
        assert_eq!(threads(), 3);
        drop(outer);
    }

    #[test]
    fn par_map_runs_on_multiple_threads_when_asked() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let seen: StdMutex<HashSet<std::thread::ThreadId>> = StdMutex::new(HashSet::new());
        let barrier = std::sync::Barrier::new(4);
        par_map_indexed(4, 4, |i| {
            // Rendezvous forces all four items onto distinct live workers.
            barrier.wait();
            seen.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert_eq!(seen.lock().unwrap().len(), 4);
    }
}
