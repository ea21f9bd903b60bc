//! Compressed rank sets — the "participating nodes" component of an
//! extended regular section descriptor (RSD).
//!
//! A [`RankSet`] stores a sorted set of ranks as `(start, stride, count)`
//! runs, so common SPMD patterns ("all ranks", "every third rank", "ranks
//! 0–31") stay O(1) in size regardless of the job size — the property that
//! makes ScalaTrace traces near constant-size.
//!
//! The run storage is a shared `Arc<[Run]>` behind a small intern arena:
//! cloning a rank set is a reference-count bump, and the ubiquitous shapes
//! (empty, `{r}` for small `r`, `0..n` for small `n`) are preallocated
//! singletons, so the inter-node merge no longer deep-copies rank lists and
//! equality checks on interned sets short-circuit on pointer identity.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// One arithmetic run of ranks: `start, start+stride, …` (`count` terms).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Run {
    /// First rank of the run.
    pub start: usize,
    /// Distance between consecutive ranks.
    pub stride: usize,
    /// Number of ranks in the run.
    pub count: usize,
}

impl Run {
    /// Last (largest) rank of the run.
    pub fn last(&self) -> usize {
        self.start + self.stride * (self.count - 1)
    }

    fn contains(&self, r: usize) -> bool {
        r >= self.start
            && r <= self.last()
            && (self.stride == 0 || (r - self.start).is_multiple_of(self.stride))
    }

    fn nth(&self, i: usize) -> usize {
        self.start + self.stride * i
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Intersection of two arithmetic runs — itself an arithmetic run (stride
/// `lcm`) found by solving the pair of congruences, or `None` when the
/// residues are incompatible or the ranges don't overlap.
fn run_intersection(a: &Run, b: &Run) -> Option<Run> {
    if a.count == 1 || a.stride == 0 {
        return b.contains(a.start).then_some(Run {
            start: a.start,
            stride: 1,
            count: 1,
        });
    }
    if b.count == 1 || b.stride == 0 {
        return a.contains(b.start).then_some(Run {
            start: b.start,
            stride: 1,
            count: 1,
        });
    }
    let lo = a.start.max(b.start);
    let hi = a.last().min(b.last());
    if lo > hi {
        return None;
    }
    let g = gcd(a.stride, b.stride);
    let (sa, sb) = (a.start as i128, b.start as i128);
    if (sb - sa).rem_euclid(g as i128) != 0 {
        return None;
    }
    // x = sa + ta*t with ta*t ≡ sb - sa (mod tb): divide through by g and
    // invert ta/g modulo tb/g (coprime by construction).
    let (ta, tb) = (a.stride as i128, b.stride as i128);
    let m = tb / g as i128;
    let rhs = (sb - sa) / g as i128;
    let inv = mod_inverse((ta / g as i128).rem_euclid(m), m)?;
    let t0 = (rhs.rem_euclid(m) * inv).rem_euclid(m.max(1));
    let l = (ta / g as i128) * tb; // lcm
    let mut x = sa + ta * t0;
    let lo = lo as i128;
    if x < lo {
        x += (lo - x).div_euclid(l) * l;
        if x < lo {
            x += l;
        }
    }
    let hi = hi as i128;
    if x > hi {
        return None;
    }
    let count = ((hi - x) / l + 1) as usize;
    Some(Run {
        start: x as usize,
        stride: if count == 1 { 1 } else { l as usize },
        count,
    })
}

/// Modular inverse of `a` modulo `m` (both non-negative, `m >= 1`).
fn mod_inverse(a: i128, m: i128) -> Option<i128> {
    if m == 1 {
        return Some(0);
    }
    let (mut old_r, mut r) = (a, m);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    (old_r == 1).then(|| old_s.rem_euclid(m))
}

/// Largest rank / world size served from the preallocated intern tables.
const INTERN_LIMIT: usize = 128;

fn empty_runs() -> Arc<[Run]> {
    static EMPTY: OnceLock<Arc<[Run]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new())))
}

fn single_runs(rank: usize) -> Arc<[Run]> {
    static SINGLES: OnceLock<Vec<Arc<[Run]>>> = OnceLock::new();
    let table = SINGLES.get_or_init(|| {
        (0..INTERN_LIMIT)
            .map(|r| {
                Arc::from(vec![Run {
                    start: r,
                    stride: 1,
                    count: 1,
                }])
            })
            .collect()
    });
    Arc::clone(&table[rank])
}

fn all_runs(n: usize) -> Arc<[Run]> {
    static ALLS: OnceLock<Vec<Arc<[Run]>>> = OnceLock::new();
    let table = ALLS.get_or_init(|| {
        (1..=INTERN_LIMIT)
            .map(|n| {
                Arc::from(vec![Run {
                    start: 0,
                    stride: 1,
                    count: n,
                }])
            })
            .collect()
    });
    Arc::clone(&table[n - 1])
}

/// Intern a freshly built run vector: canonical shapes resolve to the
/// shared singletons, everything else is wrapped in a new `Arc`.
fn intern(runs: Vec<Run>) -> Arc<[Run]> {
    match runs.as_slice() {
        [] => empty_runs(),
        [r] if r.count == 1 && r.start < INTERN_LIMIT => single_runs(r.start),
        [r] if r.start == 0 && r.stride == 1 && r.count <= INTERN_LIMIT => all_runs(r.count),
        _ => Arc::from(runs),
    }
}

/// A sorted set of ranks, compressed into arithmetic runs.
#[derive(Clone)]
pub struct RankSet {
    runs: Arc<[Run]>,
}

impl Default for RankSet {
    fn default() -> RankSet {
        RankSet { runs: empty_runs() }
    }
}

impl PartialEq for RankSet {
    fn eq(&self, other: &RankSet) -> bool {
        Arc::ptr_eq(&self.runs, &other.runs) || self.runs == other.runs
    }
}

impl Eq for RankSet {}

impl RankSet {
    /// The empty set.
    pub fn empty() -> RankSet {
        RankSet::default()
    }

    /// The singleton set `{rank}`. Served from the intern table without
    /// allocating below [`INTERN_LIMIT`].
    pub fn single(rank: usize) -> RankSet {
        let runs = if rank < INTERN_LIMIT {
            single_runs(rank)
        } else {
            Arc::from([Run {
                start: rank,
                stride: 1,
                count: 1,
            }])
        };
        RankSet { runs }
    }

    /// The dense range `0..n`. Served from the intern table without
    /// allocating up to [`INTERN_LIMIT`].
    pub fn all(n: usize) -> RankSet {
        let runs = match n {
            0 => empty_runs(),
            // `{0}` interns as a singleton, as `intern` resolves it.
            1 => single_runs(0),
            2..=INTERN_LIMIT => all_runs(n),
            _ => Arc::from([Run {
                start: 0,
                stride: 1,
                count: n,
            }]),
        };
        RankSet { runs }
    }

    /// Build from an arbitrary iterator of ranks (deduplicated, sorted,
    /// greedily run-compressed).
    pub fn from_ranks(ranks: impl IntoIterator<Item = usize>) -> RankSet {
        let mut v: Vec<usize> = ranks.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Self::from_sorted(&v)
    }

    fn from_sorted(v: &[usize]) -> RankSet {
        let mut runs: Vec<Run> = Vec::new();
        let mut i = 0;
        while i < v.len() {
            if i + 1 == v.len() {
                runs.push(Run {
                    start: v[i],
                    stride: 1,
                    count: 1,
                });
                break;
            }
            let stride = v[i + 1] - v[i];
            let mut count = 2;
            while i + count < v.len() && v[i + count] - v[i + count - 1] == stride {
                count += 1;
            }
            if stride == 0 {
                unreachable!("deduplicated input");
            }
            runs.push(Run {
                start: v[i],
                stride,
                count,
            });
            i += count;
        }
        RankSet { runs: intern(runs) }
    }

    /// Number of ranks in the set.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.count).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Is `rank` a member?
    pub fn contains(&self, rank: usize) -> bool {
        self.runs.iter().any(|r| r.contains(rank))
    }

    /// All members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (0..r.count).map(move |i| r.start + i * r.stride))
    }

    /// Smallest member, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().min()
    }

    /// Set union, re-compressed. Sharing the run storage makes the common
    /// degenerate cases (`a ∪ a`, `a ∪ ∅`) O(1) clones.
    pub fn union(&self, other: &RankSet) -> RankSet {
        if other.is_empty() || Arc::ptr_eq(&self.runs, &other.runs) {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        RankSet::from_ranks(self.iter().chain(other.iter()))
    }

    /// Do the two sets share any rank? Run-wise: each run pair is tested
    /// by congruence solving, so the cost is O(runs × runs), independent
    /// of how many ranks the runs cover.
    pub fn intersects(&self, other: &RankSet) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if Arc::ptr_eq(&self.runs, &other.runs) {
            return true;
        }
        self.runs.iter().any(|a| {
            other.runs.iter().any(|b| {
                a.start <= b.last() && b.start <= a.last() && run_intersection(a, b).is_some()
            })
        })
    }

    /// How many ranks the two sets share, run-wise like
    /// [`RankSet::intersects`] and without building the intersection.
    pub fn overlap_len(&self, other: &RankSet) -> usize {
        if Arc::ptr_eq(&self.runs, &other.runs) {
            return self.len();
        }
        // Runs of one set are disjoint, so no shared rank is counted twice.
        self.runs
            .iter()
            .flat_map(|a| other.runs.iter().map(move |b| (a, b)))
            .filter_map(|(a, b)| run_intersection(a, b))
            .map(|r| r.count)
            .sum()
    }

    /// Does any member fall in `lo..hi`? O(runs).
    pub fn meets_range(&self, lo: usize, hi: usize) -> bool {
        self.runs.iter().any(|r| {
            // index of the run's first member at or past `lo`
            let i = lo.saturating_sub(r.start).div_ceil(r.stride.max(1));
            i < r.count && r.nth(i) < hi
        })
    }

    /// Number of stored runs (the compressed size).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The compressed run representation.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Rebuild a set from runs captured by [`RankSet::runs`] — the inverse
    /// the binary decoders need, for runs that arrive from a file and are
    /// trusted with nothing. Every run must be non-empty with a positive
    /// stride, end (in checked arithmetic) below `nranks`, and start past
    /// the previous run's end; and the runs must be exactly the ones
    /// [`RankSet::from_ranks`] builds over the same members, because
    /// equality, interning and the run-wise set algebra all assume that
    /// canonical form. The accepted runs are re-interned, so canonical
    /// shapes regain their shared storage after a restore.
    pub fn from_runs(runs: Vec<Run>, nranks: usize) -> Result<RankSet, &'static str> {
        let mut floor = 0;
        for run in &runs {
            if run.count == 0 || run.stride == 0 {
                return Err("rank run with zero count or stride");
            }
            let last = (run.count - 1)
                .checked_mul(run.stride)
                .and_then(|span| run.start.checked_add(span))
                .filter(|&last| last < nranks)
                .ok_or("rank run reaches past the world size")?;
            if run.start < floor {
                return Err("rank runs out of order or overlapping");
            }
            floor = last + 1;
        }
        let canonical = match runs.as_slice() {
            [run] => run.count > 1 || run.stride == 1,
            _ => *RankSet::from_fragments(runs.clone()).runs == *runs,
        };
        if !canonical {
            return Err("rank set is not in canonical run form");
        }
        Ok(RankSet { runs: intern(runs) })
    }

    /// Smallest member without iterating elements.
    pub fn min_rank(&self) -> Option<usize> {
        self.runs.iter().map(|r| r.start).min()
    }

    /// Largest member without iterating elements.
    pub fn max_rank(&self) -> Option<usize> {
        self.runs.iter().map(|r| r.last()).max()
    }

    /// Set intersection, run-wise: each pair of runs intersects to at most
    /// one arithmetic run (congruence solving), and the fragments are
    /// recompressed to the canonical form [`RankSet::from_ranks`] would
    /// build. Fast paths make the ubiquitous cases (identical sets, a
    /// contiguous superset on either side) O(runs).
    pub fn intersect(&self, other: &RankSet) -> RankSet {
        if self.is_empty() || other.is_empty() {
            return RankSet::empty();
        }
        if Arc::ptr_eq(&self.runs, &other.runs) || self.runs == other.runs {
            return self.clone();
        }
        // A single contiguous run covering the other set's range contains
        // every integer there, so the intersection is the other set.
        if let [r] = &*self.runs {
            if r.stride == 1
                && other.min_rank().unwrap() >= r.start
                && other.max_rank().unwrap() <= r.last()
            {
                return other.clone();
            }
        }
        if let [r] = &*other.runs {
            if r.stride == 1
                && self.min_rank().unwrap() >= r.start
                && self.max_rank().unwrap() <= r.last()
            {
                return self.clone();
            }
        }
        let mut frags = Vec::new();
        for a in self.runs.iter() {
            for b in other.runs.iter() {
                if let Some(r) = run_intersection(a, b) {
                    frags.push(r);
                }
            }
        }
        RankSet::from_fragments(frags)
    }

    /// Set difference `self \ other`, recompressed. Runs of `self` whose
    /// range is disjoint from `other` pass through whole; only overlapped
    /// runs are filtered element-wise, so the cost is proportional to the
    /// affected region, not the set size.
    pub fn minus(&self, other: &RankSet) -> RankSet {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        if Arc::ptr_eq(&self.runs, &other.runs) || self.runs == other.runs {
            return RankSet::empty();
        }
        let mut frags = Vec::new();
        for a in self.runs.iter() {
            let overlapped = other
                .runs
                .iter()
                .any(|b| a.start <= b.last() && b.start <= a.last());
            if !overlapped {
                frags.push(*a);
            } else {
                for i in 0..a.count {
                    let r = a.nth(i);
                    if !other.contains(r) {
                        frags.push(Run {
                            start: r,
                            stride: 1,
                            count: 1,
                        });
                    }
                }
            }
        }
        RankSet::from_fragments(frags)
    }

    /// Union of many pairwise-disjoint sets, recompressed run-wise. This is
    /// the collapse-time replacement for `from_ranks(flat_map(iter))`: when
    /// the member runs don't interleave the cost is O(total runs), never
    /// O(total ranks).
    pub fn union_many<'a>(sets: impl IntoIterator<Item = &'a RankSet>) -> RankSet {
        let mut frags: Vec<Run> = Vec::new();
        for s in sets {
            frags.extend_from_slice(&s.runs);
        }
        RankSet::from_fragments(frags)
    }

    /// Canonicalize a list of pairwise-disjoint run fragments into the set
    /// [`RankSet::from_ranks`] would build over the same elements. When the
    /// sorted fragments don't interleave, a run-level replay of the greedy
    /// compressor avoids expanding elements; interleaved fragments fall
    /// back to element expansion.
    pub(crate) fn from_fragments(mut frags: Vec<Run>) -> RankSet {
        frags.retain(|r| r.count > 0);
        if frags.is_empty() {
            return RankSet::empty();
        }
        frags.sort_unstable_by_key(|r| r.start);
        if frags.len() == 1 {
            let f = frags[0];
            if f.count == 1 {
                return RankSet::single(f.start);
            }
            return RankSet {
                runs: intern(frags),
            };
        }
        let interleaved = frags.windows(2).any(|w| w[0].last() >= w[1].start);
        if interleaved {
            return RankSet::from_ranks(
                frags
                    .iter()
                    .flat_map(|r| (0..r.count).map(move |i| r.nth(i))),
            );
        }
        // Run-level replay of `from_sorted`'s greedy scan over the
        // concatenated element stream: a cursor of (fragment, offset) with
        // O(1) whole-tail absorption when strides line up.
        let mut runs: Vec<Run> = Vec::new();
        let total: usize = frags.iter().map(|r| r.count).sum();
        let (mut j, mut o, mut consumed) = (0usize, 0usize, 0usize);
        let elem = |j: usize, o: usize| frags[j].nth(o);
        let advance = |j: &mut usize, o: &mut usize| {
            *o += 1;
            if *o == frags[*j].count {
                *j += 1;
                *o = 0;
            }
        };
        while consumed < total {
            if consumed + 1 == total {
                runs.push(Run {
                    start: elem(j, o),
                    stride: 1,
                    count: 1,
                });
                break;
            }
            let start = elem(j, o);
            let (mut nj, mut no) = (j, o);
            advance(&mut nj, &mut no);
            let stride = elem(nj, no) - start;
            let mut count = 2;
            advance(&mut nj, &mut no);
            consumed += 2;
            while consumed < total {
                let cur = start + stride * (count - 1);
                // Whole-tail absorption: the rest of the current fragment
                // continues the stride exactly when its own stride matches.
                if no > 0 && frags[nj].stride == stride {
                    let take = frags[nj].count - no;
                    count += take;
                    consumed += take;
                    nj += 1;
                    no = 0;
                    continue;
                }
                if no == 0 && frags[nj].stride == stride && frags[nj].start == cur + stride {
                    count += frags[nj].count;
                    consumed += frags[nj].count;
                    nj += 1;
                    continue;
                }
                if elem(nj, no) == cur + stride {
                    count += 1;
                    consumed += 1;
                    advance(&mut nj, &mut no);
                    continue;
                }
                break;
            }
            runs.push(Run {
                start,
                stride,
                count,
            });
            (j, o) = (nj, no);
        }
        RankSet { runs: intern(runs) }
    }
}

impl FromIterator<usize> for RankSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        RankSet::from_ranks(iter)
    }
}

impl fmt::Display for RankSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if r.count == 1 {
                write!(f, "{}", r.start)?;
            } else if r.stride == 1 {
                write!(f, "{}-{}", r.start, r.last())?;
            } else {
                write!(f, "{}-{}:{}", r.start, r.last(), r.stride)?;
            }
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for RankSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_one_run() {
        let s = RankSet::all(1024);
        assert_eq!(s.len(), 1024);
        assert_eq!(s.run_count(), 1);
        assert!(s.contains(0) && s.contains(1023) && !s.contains(1024));
    }

    #[test]
    fn overlap_len_and_meets_range_agree_with_the_elements() {
        let sets = [
            RankSet::all(40),
            RankSet::from_ranks((0..40).step_by(3)),
            RankSet::from_ranks((5..40).step_by(4).chain([6, 7, 38])),
            RankSet::single(17),
            RankSet::empty(),
        ];
        for a in &sets {
            for b in &sets {
                assert_eq!(a.overlap_len(b), a.intersect(b).len(), "{a} & {b}");
            }
            for lo in 0..44 {
                for hi in lo..44 {
                    let expect = a.iter().any(|r| (lo..hi).contains(&r));
                    assert_eq!(a.meets_range(lo, hi), expect, "{a} in {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn strided_sets_compress() {
        let s = RankSet::from_ranks((0..300).map(|i| i * 3));
        assert_eq!(s.run_count(), 1);
        assert!(s.contains(297));
        assert!(!s.contains(298));
        assert_eq!(s.len(), 300);
    }

    #[test]
    fn union_recompresses() {
        let evens = RankSet::from_ranks((0..8).map(|i| i * 2));
        let odds = RankSet::from_ranks((0..8).map(|i| i * 2 + 1));
        let all = evens.union(&odds);
        assert_eq!(all, RankSet::all(16));
        assert_eq!(all.run_count(), 1);
    }

    #[test]
    fn iter_round_trips() {
        let v = vec![0, 1, 2, 5, 9, 13, 40];
        let s = RankSet::from_ranks(v.clone());
        let back: Vec<usize> = s.iter().collect();
        assert_eq!(back, v);
    }

    #[test]
    fn duplicates_removed() {
        let s = RankSet::from_ranks([3, 3, 3, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn intersects() {
        let a = RankSet::from_ranks([0, 2, 4]);
        let b = RankSet::from_ranks([1, 3, 5]);
        let c = RankSet::from_ranks([4, 5]);
        assert!(!a.intersects(&b));
        assert!(a.intersects(&c));
        assert!(b.intersects(&c));
        assert!(!a.intersects(&RankSet::empty()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(RankSet::all(4).to_string(), "{0-3}");
        assert_eq!(RankSet::single(7).to_string(), "{7}");
        assert_eq!(RankSet::from_ranks([0, 3, 6, 9]).to_string(), "{0-9:3}");
        assert_eq!(RankSet::from_ranks([1, 2, 3, 7]).to_string(), "{1-3,7}");
    }

    #[test]
    fn first() {
        assert_eq!(RankSet::from_ranks([5, 2, 9]).first(), Some(2));
        assert_eq!(RankSet::empty().first(), None);
    }

    #[test]
    fn interned_shapes_share_storage() {
        // Clones and equal constructions of canonical shapes alias the same
        // allocation — equality is a pointer compare, cloning a refcount bump.
        let a = RankSet::all(16);
        let b = RankSet::from_ranks(0..16);
        assert!(Arc::ptr_eq(&a.runs, &b.runs));
        let s1 = RankSet::single(7);
        let s2 = RankSet::from_ranks([7]);
        assert!(Arc::ptr_eq(&s1.runs, &s2.runs));
        assert!(Arc::ptr_eq(
            &RankSet::empty().runs,
            &RankSet::default().runs
        ));
        // Beyond the intern limit everything still works, just uninterned.
        let big = RankSet::single(INTERN_LIMIT + 5);
        assert_eq!(big.len(), 1);
        assert!(big.contains(INTERN_LIMIT + 5));
    }

    #[test]
    fn single_and_all_match_built_sets_and_share_interned_storage() {
        for r in [0, 1, 7, INTERN_LIMIT - 1, INTERN_LIMIT, INTERN_LIMIT + 3] {
            let built = RankSet::from_ranks([r]);
            assert_eq!(RankSet::single(r), built);
            assert_eq!(
                Arc::ptr_eq(&RankSet::single(r).runs, &built.runs),
                r < INTERN_LIMIT,
                "single({r})"
            );
        }
        for n in [0, 1, 2, 64, INTERN_LIMIT, INTERN_LIMIT + 1, 1024] {
            let built = RankSet::from_ranks(0..n);
            assert_eq!(RankSet::all(n), built);
            assert_eq!(RankSet::all(n).len(), n);
            assert_eq!(
                Arc::ptr_eq(&RankSet::all(n).runs, &built.runs),
                n <= INTERN_LIMIT,
                "all({n})"
            );
        }
    }

    #[test]
    fn union_fast_paths() {
        let a = RankSet::from_ranks([1, 5, 9]);
        assert_eq!(a.union(&RankSet::empty()), a);
        assert_eq!(RankSet::empty().union(&a), a);
        assert_eq!(a.union(&a.clone()), a);
    }

    #[test]
    fn intern_arena_survives_forced_contention() {
        // The parallel merge hits the OnceLock intern tables from every
        // worker at once. Hammer first-touch initialisation and steady-state
        // lookups from many threads rendezvousing on a barrier: every thread
        // must observe the same canonical allocation for each shape, and
        // unions built concurrently must equal their sequential versions.
        let nthreads = 8;
        let barrier = std::sync::Barrier::new(nthreads);
        let sets: Vec<Vec<RankSet>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nthreads)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let mut mine = Vec::new();
                        for i in 0..INTERN_LIMIT {
                            let single = RankSet::single(i);
                            let all = RankSet::all(i + 1);
                            let u = single.union(&RankSet::single((i + t) % INTERN_LIMIT));
                            assert!(single.contains(i));
                            assert_eq!(all.len(), i + 1);
                            mine.push(u);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Cross-thread: interned singles alias one allocation per shape.
        for (t, mine) in sets.iter().enumerate() {
            for (i, got) in mine.iter().enumerate() {
                let expect = RankSet::single(i).union(&RankSet::single((i + t) % INTERN_LIMIT));
                assert_eq!(*got, expect);
            }
        }
        let a1 = RankSet::single(3);
        let a2 = RankSet::single(3);
        assert!(Arc::ptr_eq(&a1.runs, &a2.runs));
    }
}
