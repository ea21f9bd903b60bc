//! Scalable computation-time statistics.
//!
//! ScalaTrace does not store one timestamp per event; it compresses "the
//! time taken by all instances of a particular computation (identified by
//! its unique call path) across all loop iterations and all nodes" into a
//! histogram (paper §3.1, citing Ratn et al.). [`TimeStats`] is that
//! histogram: count/sum/min/max plus log₂-spaced bins, mergeable across
//! iterations and ranks.

use mpisim::time::SimDuration;
use std::fmt;

const BINS: usize = 64;

/// Non-empty bins a histogram holds inline. Over the merged traces of nine
/// registry apps (938 RSDs) 728 have one non-empty bin, 180 two, 30 three
/// and none more (DESIGN.md §18), so three slots keep every real histogram
/// off the heap.
const INLINE: usize = 3;

/// The bin counts, sparse. **Canonical**, so the derived `PartialEq` is
/// equality of the 64 counts: at most [`INLINE`] non-empty bins are always
/// `Inline` — sorted by bin, unused slots zero — and more are always
/// `Spilled`. A bin never empties, so a spilled histogram never returns.
#[derive(Clone, PartialEq, Eq)]
enum Bins {
    Inline {
        len: u8,
        idx: [u8; INLINE],
        cnt: [u64; INLINE],
    },
    Spilled(Box<[u64; BINS]>),
}

impl Bins {
    const EMPTY: Bins = Bins::Inline {
        len: 0,
        idx: [0; INLINE],
        cnt: [0; INLINE],
    };

    /// Add `n > 0` samples to `bin`.
    fn add(&mut self, bin: usize, n: u64) {
        debug_assert!(n > 0, "a zero count would break the canonical form");
        assert!(bin < BINS, "bin {bin} out of range");
        match self {
            Bins::Spilled(dense) => dense[bin] += n,
            Bins::Inline { len, idx, cnt } => {
                let used = *len as usize;
                let at = idx[..used].partition_point(|&b| (b as usize) < bin);
                if at < used && idx[at] as usize == bin {
                    cnt[at] += n;
                } else if used < INLINE {
                    idx.copy_within(at..used, at + 1);
                    cnt.copy_within(at..used, at + 1);
                    idx[at] = bin as u8;
                    cnt[at] = n;
                    *len += 1;
                } else {
                    let mut dense = Box::new([0u64; BINS]);
                    for (&b, &c) in idx.iter().zip(cnt.iter()) {
                        dense[b as usize] = c;
                    }
                    dense[bin] = n;
                    *self = Bins::Spilled(dense);
                }
            }
        }
    }
}

/// The non-empty bins of a [`TimeStats`], ascending, as `(bin, count)`.
pub struct NonEmptyBins<'a> {
    bins: &'a Bins,
    pos: usize,
}

impl Iterator for NonEmptyBins<'_> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        match self.bins {
            Bins::Inline { len, idx, cnt } => {
                let i = self.pos;
                if i == *len as usize {
                    return None;
                }
                self.pos += 1;
                Some((idx[i] as usize, cnt[i]))
            }
            Bins::Spilled(dense) => {
                while self.pos < BINS {
                    let i = self.pos;
                    self.pos += 1;
                    if dense[i] != 0 {
                        return Some((i, dense[i]));
                    }
                }
                None
            }
        }
    }
}

/// Histogram of durations with log₂ bins.
#[derive(Clone, PartialEq, Eq)]
pub struct TimeStats {
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    bins: Bins,
}

impl Default for TimeStats {
    fn default() -> Self {
        TimeStats {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            bins: Bins::EMPTY,
        }
    }
}

fn bin_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(BINS - 1)
    }
}

/// The smallest duration that falls into `bin`.
fn bin_floor(bin: usize) -> u64 {
    if bin == 0 {
        0
    } else {
        1u64 << (bin - 1)
    }
}

impl TimeStats {
    /// An empty histogram.
    pub fn new() -> TimeStats {
        TimeStats::default()
    }

    /// A histogram holding a single sample.
    pub fn of(d: SimDuration) -> TimeStats {
        let mut t = TimeStats::new();
        t.record(d);
        t
    }

    /// Add one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.record_n(1, d);
    }

    /// Add `n` identical samples in O(1) — exactly equivalent to calling
    /// [`TimeStats::record`] `n` times. The text decoder uses this to
    /// rebuild a `{count}x{mean}` summary without looping `count` times
    /// (counts are attacker-controlled in parsed trace text).
    pub fn record_n(&mut self, n: u64, d: SimDuration) {
        if n == 0 {
            return;
        }
        let ns = d.as_nanos();
        self.count += n;
        self.sum_ns += ns as u128 * n as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.bins.add(bin_of(ns), n);
    }

    /// Pool another histogram's samples into this one.
    pub fn merge(&mut self, other: &TimeStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (bin, n) in other.non_empty_bins() {
            self.bins.add(bin, n);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum_ns.min(u64::MAX as u128) as u64)
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Arithmetic mean — the deterministic representative value used when
    /// generating `COMPUTES FOR` statements and when replaying traces
    /// (paper §4.5 lists this summarisation as a deliberate accuracy
    /// trade-off).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Approximate median from the histogram (midpoint of the median bin).
    pub fn median_approx(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let mut seen = 0;
        for (i, c) in self.non_empty_bins() {
            seen += c;
            if seen * 2 >= self.count {
                let lo = bin_floor(i);
                let hi = if i == 0 {
                    1
                } else {
                    (1u64 << i).saturating_sub(1)
                };
                return SimDuration::from_nanos(lo + (hi - lo) / 2);
            }
        }
        self.max()
    }

    /// Draw a deterministic pseudo-sample from the histogram: the `u`-th
    /// sample in bin order (by `u mod count`), represented by its bin
    /// midpoint. Used by distribution-preserving replay, which restores the
    /// per-event variance the mean summarisation flattens (§4.5).
    pub fn sample_at(&self, u: u64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let mut ordinal = u % self.count;
        for (i, c) in self.non_empty_bins() {
            if ordinal < c {
                let lo = bin_floor(i);
                let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return SimDuration::from_nanos(lo + (hi - lo) / 2);
            }
            ordinal -= c;
        }
        self.mean()
    }

    /// Is every sample the same value? (Then mean is exact.)
    pub fn is_constant(&self) -> bool {
        self.count == 0 || self.min_ns == self.max_ns
    }

    /// The non-empty log2-spaced bins, ascending, as `(bin, count)`.
    pub fn non_empty_bins(&self) -> NonEmptyBins<'_> {
        NonEmptyBins {
            bins: &self.bins,
            pos: 0,
        }
    }

    /// All 64 log2-spaced bin counts, empty ones included.
    pub fn bins(&self) -> [u64; BINS] {
        let mut dense = [0; BINS];
        for (bin, n) in self.non_empty_bins() {
            dense[bin] = n;
        }
        dense
    }

    /// The exact internal fields `(count, sum_ns, min_ns, max_ns, bins)`,
    /// the bins as [`TimeStats::non_empty_bins`].
    ///
    /// The text rendering of a histogram is lossy (it keeps only count and
    /// mean); the binary STBS file is not allowed to be, so the snapshot
    /// codec serialises these fields verbatim and rebuilds via
    /// [`TimeStats::from_raw`].
    pub fn raw(&self) -> (u64, u128, u64, u64, NonEmptyBins<'_>) {
        (
            self.count,
            self.sum_ns,
            self.min_ns,
            self.max_ns,
            self.non_empty_bins(),
        )
    }

    /// Rebuild a histogram from fields captured by [`TimeStats::raw`].
    /// Exact inverse: `TimeStats::from_raw` of `raw()` compares equal to the
    /// original, bit for bit. `bins` may come in any order, repeat a bin
    /// (the counts add) or carry zero counts (ignored): the result is
    /// canonical either way.
    ///
    /// # Panics
    /// If a bin index is 64 or more.
    pub fn from_raw(
        count: u64,
        sum_ns: u128,
        min_ns: u64,
        max_ns: u64,
        bins: impl IntoIterator<Item = (usize, u64)>,
    ) -> TimeStats {
        let mut sparse = Bins::EMPTY;
        for (bin, n) in bins {
            if n != 0 {
                sparse.add(bin, n);
            }
        }
        TimeStats {
            count,
            sum_ns,
            min_ns,
            max_ns,
            bins: sparse,
        }
    }
}

impl fmt::Debug for TimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "∅")
        } else {
            write!(
                f,
                "n={} mean={} [{}..{}]",
                self.count,
                self.mean(),
                self.min(),
                self.max()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let t = TimeStats::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mean(), SimDuration::ZERO);
        assert_eq!(t.min(), SimDuration::ZERO);
        assert_eq!(t.max(), SimDuration::ZERO);
        assert!(t.is_constant());
    }

    #[test]
    fn mean_and_extremes() {
        let mut t = TimeStats::new();
        t.record(SimDuration::from_usecs(10));
        t.record(SimDuration::from_usecs(20));
        t.record(SimDuration::from_usecs(30));
        assert_eq!(t.count(), 3);
        assert_eq!(t.mean(), SimDuration::from_usecs(20));
        assert_eq!(t.min(), SimDuration::from_usecs(10));
        assert_eq!(t.max(), SimDuration::from_usecs(30));
        assert!(!t.is_constant());
    }

    #[test]
    fn merge_combines() {
        let mut a = TimeStats::of(SimDuration::from_usecs(5));
        let b = TimeStats::of(SimDuration::from_usecs(15));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_usecs(10));
        let mut c = TimeStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 2);
        assert_eq!(c.min(), SimDuration::from_usecs(5));
    }

    #[test]
    fn constant_detection() {
        let mut t = TimeStats::new();
        for _ in 0..100 {
            t.record(SimDuration::from_usecs(7));
        }
        assert!(t.is_constant());
        assert_eq!(t.mean(), SimDuration::from_usecs(7));
    }

    #[test]
    fn record_n_equals_n_records() {
        for (n, us) in [(1u64, 3u64), (7, 0), (1000, 42), (3, u64::MAX / 2000)] {
            let mut bulk = TimeStats::new();
            bulk.record_n(n, SimDuration::from_usecs(us));
            let mut looped = TimeStats::new();
            for _ in 0..n {
                looped.record(SimDuration::from_usecs(us));
            }
            assert_eq!(bulk, looped, "record_n({n}, {us}us) must match n records");
        }
        let mut none = TimeStats::new();
        none.record_n(0, SimDuration::from_usecs(5));
        assert_eq!(none, TimeStats::new());
    }

    #[test]
    fn a_node_stays_small() {
        // 64 bins inline would be 512 bytes on their own
        assert!(std::mem::size_of::<TimeStats>() <= 96);
        assert!(std::mem::size_of::<crate::trace::TraceNode>() <= 256);
    }

    /// `2^k` ns, the smallest sample of bin `k + 1`.
    fn pow2(k: u32) -> SimDuration {
        SimDuration::from_nanos(1 << k)
    }

    #[test]
    fn the_fourth_bin_spills_and_the_form_stays_canonical() {
        let mut t = TimeStats::new();
        for k in [30, 10, 20] {
            t.record(pow2(k));
            t.record(pow2(k));
        }
        assert!(matches!(t.bins, Bins::Inline { len: 3, .. }));
        assert_eq!(
            t.non_empty_bins().collect::<Vec<_>>(),
            [(11, 2), (21, 2), (31, 2)],
            "inline slots are kept sorted by bin"
        );
        let inline = t.clone();
        t.record(pow2(15));
        assert!(matches!(t.bins, Bins::Spilled(_)));
        assert_eq!(
            t.non_empty_bins().collect::<Vec<_>>(),
            [(11, 2), (16, 1), (21, 2), (31, 2)]
        );
        assert_eq!(t.median_approx(), pow2(20) + (pow2(20) - pow2(0)) / 2);
        assert_eq!(t.sample_at(2), pow2(15) + (pow2(15) - pow2(0)) / 2);

        // the same samples in another order, pooled, and rebuilt from raw
        // fields all land on the same representation
        let mut other = TimeStats::of(pow2(15));
        other.merge(&inline);
        assert_eq!(other, t);
        let mut pooled = inline.clone();
        pooled.merge(&TimeStats::of(pow2(15)));
        assert_eq!(pooled, t);
        let (count, sum, min, max, bins) = t.raw();
        let mut shuffled: Vec<(usize, u64)> = bins.collect();
        shuffled.reverse();
        shuffled.push((40, 0));
        assert_eq!(TimeStats::from_raw(count, sum, min, max, shuffled), t);
        let (count, sum, min, max, bins) = inline.raw();
        let back = TimeStats::from_raw(count, sum, min, max, bins);
        assert!(matches!(back.bins, Bins::Inline { len: 3, .. }));
        assert_eq!(back, inline);
    }

    #[test]
    fn binning_is_logarithmic() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(1), 1);
        assert_eq!(bin_of(2), 2);
        assert_eq!(bin_of(3), 2);
        assert_eq!(bin_of(4), 3);
        assert_eq!(bin_of(u64::MAX), BINS - 1);
    }

    #[test]
    fn median_approximation_is_in_range() {
        let mut t = TimeStats::new();
        for us in [1u64, 100, 100, 100, 10_000] {
            t.record(SimDuration::from_usecs(us));
        }
        let m = t.median_approx();
        assert!(
            m >= SimDuration::from_usecs(64) && m <= SimDuration::from_usecs(256),
            "median approx {m} should be near 100us"
        );
    }
}
