//! Mergeable RSD parameters.
//!
//! When ScalaTrace merges per-node RSDs it must unify the parameter values
//! of the constituent calls. A parameter that is identical everywhere stays
//! a constant; one that is expressible *relative to the rank* (`rank+1`,
//! `(rank+1) mod N` …) becomes a rank expression; anything else degrades to
//! a **piecewise-symbolic** form — an ordered list of `(RankSet, closed
//! form)` pieces — and only past a compressibility threshold to an explicit
//! per-rank table. This is the "structural compression extends to any event
//! parameters" property the paper contrasts with call-graph compression
//! (§2), kept independent of the rank count:
//!
//! * Unification never materializes dense tables: the
//!   candidate closed forms are checked piece-against-piece over rank-set
//!   runs ([`RankSet::runs`]), and the piecewise fallback groups runs by
//!   the offset `value - rank`, so unifying k distinct behaviors costs
//!   O(k·runs) instead of O(P).
//! * The fit is *canonical*: the result depends only on the pointwise
//!   rank→value map, never on how the input was cut into parts. That makes
//!   flat many-way unification ([`RankParam::unify_many`]) equal to any
//!   fold of the pairwise [`RankParam::unify`] — the associativity the
//!   class-collapsed merge relies on.
//!
//! The pointwise table is therefore the oracle for every unification:
//! expanding the parts through the public `eval` and fitting the union with
//! [`compress_rank_table`] must give the same parameter, and the tests here
//! and in `tests/proptests.rs` check exactly that. Dense `PerRank` tables
//! still *decode* from legacy trace files; [`RankParam::canonical`] re-fits
//! them so they compare and re-encode like what unification produces now.

use crate::rankset::{RankSet, Run};
use mpisim::types::Rank;
use std::collections::BTreeMap;
use std::fmt;

/// One closed-form peer function — the value half of a piecewise piece.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RankFn {
    /// Same absolute rank everywhere.
    Const(Rank),
    /// `peer = rank + offset` (no wraparound).
    Offset(i64),
    /// `peer = (rank + offset) mod modulus` — ring patterns.
    OffsetMod {
        /// Additive offset before the modulo.
        offset: i64,
        /// The modulus (the world size in collected traces).
        modulus: usize,
    },
    /// `peer = rank XOR mask` — hypercube/butterfly patterns.
    Xor(usize),
}

impl RankFn {
    /// The peer value for `rank`.
    pub fn eval(self, rank: Rank) -> Rank {
        match self {
            RankFn::Const(c) => c,
            RankFn::Offset(d) => (rank as i64 + d) as Rank,
            RankFn::OffsetMod { offset, modulus } => {
                (((rank as i64 + offset) % modulus as i64 + modulus as i64) % modulus as i64)
                    as Rank
            }
            RankFn::Xor(mask) => rank ^ mask,
        }
    }

    /// The equivalent [`RankParam`].
    pub fn into_param(self) -> RankParam {
        match self {
            RankFn::Const(c) => RankParam::Const(c),
            RankFn::Offset(d) => RankParam::Offset(d),
            RankFn::OffsetMod { offset, modulus } => RankParam::OffsetMod { offset, modulus },
            RankFn::Xor(m) => RankParam::Xor(m),
        }
    }
}

impl fmt::Display for RankFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankFn::Const(c) => write!(f, "{c}"),
            RankFn::Offset(d) if *d >= 0 => write!(f, "rank+{d}"),
            RankFn::Offset(d) => write!(f, "rank{d}"),
            RankFn::OffsetMod { offset, modulus } => write!(f, "(rank+{offset})%{modulus}"),
            RankFn::Xor(mask) => write!(f, "rank^{mask}"),
        }
    }
}

/// A peer-rank parameter as a function of the owning rank.
#[derive(Clone, Eq, Debug)]
pub enum RankParam {
    /// Same absolute rank for every participant.
    Const(Rank),
    /// `peer = rank + offset` (no wraparound).
    Offset(i64),
    /// `peer = (rank + offset) mod modulus` — ring patterns.
    OffsetMod {
        /// Additive offset before the modulo.
        offset: i64,
        /// The modulus (the world size in collected traces).
        modulus: usize,
    },
    /// `peer = rank XOR mask` — hypercube/butterfly patterns.
    Xor(usize),
    /// Explicit per-rank table (the dense escape hatch, only past the
    /// piecewise compressibility threshold).
    PerRank(BTreeMap<Rank, Rank>),
    /// Ordered disjoint `(domain, closed form)` pieces — the symbolic
    /// fallback. Pieces are sorted by smallest domain rank; the fit is
    /// canonical in the pointwise map.
    Piecewise(Vec<(RankSet, RankFn)>),
}

impl RankParam {
    /// The closed form, when this is not a table/piecewise variant.
    pub fn as_fn(&self) -> Option<RankFn> {
        match self {
            RankParam::Const(c) => Some(RankFn::Const(*c)),
            RankParam::Offset(d) => Some(RankFn::Offset(*d)),
            RankParam::OffsetMod { offset, modulus } => Some(RankFn::OffsetMod {
                offset: *offset,
                modulus: *modulus,
            }),
            RankParam::Xor(m) => Some(RankFn::Xor(*m)),
            _ => None,
        }
    }

    /// The peer value for `rank`.
    pub fn eval(&self, rank: Rank) -> Rank {
        match self {
            RankParam::PerRank(m) => *m.get(&rank).expect("rank present in table"),
            RankParam::Piecewise(ps) => ps
                .iter()
                .find(|(s, _)| s.contains(rank))
                .expect("rank present in some piece")
                .1
                .eval(rank),
            plain => plain.as_fn().unwrap().eval(rank),
        }
    }

    /// Unify two parameters over disjoint rank sets, producing the most
    /// compact representation that is exact for the union.
    pub fn unify(
        a: &RankParam,
        a_ranks: &RankSet,
        b: &RankParam,
        b_ranks: &RankSet,
        world: usize,
    ) -> RankParam {
        unify_rank_symbolic(&[(a, a_ranks), (b, b_ranks)], world)
    }

    /// Unify parameters over many disjoint rank sets at once. Because the
    /// fit is canonical in the pointwise union map, folding the pairwise
    /// [`RankParam::unify`] in *any* association yields the same result —
    /// which this computes directly, run-wise.
    pub fn unify_many<'a, I>(parts: I, world: usize) -> RankParam
    where
        I: IntoIterator<Item = (&'a RankParam, &'a RankSet)>,
    {
        let parts: Vec<(&RankParam, &RankSet)> = parts.into_iter().collect();
        // Fast path: every part is the same constant, so the union would
        // compress straight back to that constant.
        if let RankParam::Const(v) = parts[0].0 {
            if parts
                .iter()
                .all(|(p, _)| matches!(p, RankParam::Const(x) if x == v))
            {
                return RankParam::Const(*v);
            }
        }
        unify_rank_symbolic(&parts, world)
    }

    /// Is this a compressed (non-table) form?
    pub fn is_compressed(&self) -> bool {
        !matches!(self, RankParam::PerRank(_))
    }

    /// The canonical encoding form: dense tables (decoded from legacy
    /// files) re-fit to the piecewise form unification would have produced
    /// (or stay dense past the threshold); everything else is already
    /// canonical. Encoders call this so a legacy table re-encodes
    /// byte-identically to its symbolic equal.
    pub fn canonical(&self) -> RankParam {
        match self {
            RankParam::PerRank(t) => fit_rank_table(t),
            other => other.clone(),
        }
    }
}

impl PartialEq for RankParam {
    fn eq(&self, other: &RankParam) -> bool {
        use RankParam::*;
        match (self, other) {
            (Const(a), Const(b)) => a == b,
            (Offset(a), Offset(b)) => a == b,
            (
                OffsetMod {
                    offset: o1,
                    modulus: m1,
                },
                OffsetMod {
                    offset: o2,
                    modulus: m2,
                },
            ) => o1 == o2 && m1 == m2,
            (Xor(a), Xor(b)) => a == b,
            (PerRank(a), PerRank(b)) => a == b,
            (Piecewise(a), Piecewise(b)) => a == b,
            // A dense table equals a symbolic form when its canonical
            // re-fit is structurally that form (same pointwise map).
            (PerRank(t), o) | (o, PerRank(t)) => match fit_rank_table(t) {
                PerRank(_) => false,
                c => &c == o,
            },
            _ => false,
        }
    }
}

/// Find the most compact exact representation of a rank→peer table;
/// irregular tables take the canonical piecewise fit. Unification never
/// builds the table — this is the pointwise oracle its tests compare
/// against (see the module docs).
pub fn compress_rank_table(table: BTreeMap<Rank, Rank>, world: usize) -> RankParam {
    debug_assert!(!table.is_empty());
    let mut values = table.values();
    let first = *values.next().unwrap();
    if table.values().all(|&v| v == first) {
        return RankParam::Const(first);
    }
    let (&r0, &v0) = table.iter().next().unwrap();
    let d = v0 as i64 - r0 as i64;
    if table.iter().all(|(&r, &v)| v as i64 - r as i64 == d) {
        return RankParam::Offset(d);
    }
    let mask = r0 ^ v0;
    if mask != 0 && table.iter().all(|(&r, &v)| r ^ v == mask) {
        return RankParam::Xor(mask);
    }
    if world > 0 {
        let m = world as i64;
        let dm = ((v0 as i64 - r0 as i64) % m + m) % m;
        if table
            .iter()
            .all(|(&r, &v)| ((v as i64 - r as i64) % m + m) % m == dm && v < world)
        {
            return RankParam::OffsetMod {
                offset: dm,
                modulus: world,
            };
        }
    }
    fit_rank_table(&table)
}

/// Canonical piecewise fit of an irregular table: group ranks by the
/// offset `value - rank`, singleton groups becoming constants. Tables
/// where that doesn't compress (more groups than half the ranks) stay
/// dense. Depends only on the pointwise map.
fn fit_rank_table(table: &BTreeMap<Rank, Rank>) -> RankParam {
    let mut groups: BTreeMap<i64, Vec<Run>> = BTreeMap::new();
    for (&r, &v) in table {
        push_single(&mut groups, v as i64 - r as i64, r);
    }
    fit_rank_groups(groups, table.len()).unwrap_or_else(|| RankParam::PerRank(table.clone()))
}

fn push_single<K: Ord>(groups: &mut BTreeMap<K, Vec<Run>>, key: K, r: Rank) {
    groups.entry(key).or_default().push(Run {
        start: r,
        stride: 1,
        count: 1,
    });
}

/// Turn offset-keyed run groups into the canonical piecewise form, or
/// `None` when the partition fails the compressibility threshold.
fn fit_rank_groups(groups: BTreeMap<i64, Vec<Run>>, total: usize) -> Option<RankParam> {
    if groups.len() > total / 2 {
        return None;
    }
    let mut pieces: Vec<(RankSet, RankFn)> = groups
        .into_iter()
        .map(|(d, frags)| {
            let set = RankSet::from_fragments(frags);
            let f = if set.len() == 1 {
                RankFn::Const((set.min_rank().unwrap() as i64 + d) as Rank)
            } else {
                RankFn::Offset(d)
            };
            (set, f)
        })
        .collect();
    pieces.sort_by_key(|(s, _)| s.min_rank());
    if pieces.len() == 1 {
        return Some(pieces.pop().unwrap().1.into_param());
    }
    Some(RankParam::Piecewise(pieces))
}

/// Run-wise symbolic unification: candidate closed forms are checked
/// piece-against-piece (exactly — including dense `PerRank` parts, which
/// are scanned rank by rank), then the offset partition builds the
/// canonical piecewise form without ever materializing a union table
/// unless the threshold forces the dense escape hatch.
fn unify_rank_symbolic(parts: &[(&RankParam, &RankSet)], world: usize) -> RankParam {
    let total: usize = parts.iter().map(|(_, s)| s.len()).sum();
    debug_assert!(total > 0, "unify over no ranks");
    let (mut r0, mut v0) = (usize::MAX, 0);
    for (p, s) in parts {
        if let Some(m) = s.min_rank() {
            if m < r0 {
                r0 = m;
                v0 = p.eval(m);
            }
        }
    }
    // Same candidate order as `compress_rank_table`.
    let mut cands = vec![RankFn::Const(v0), RankFn::Offset(v0 as i64 - r0 as i64)];
    let mask = r0 ^ v0;
    if mask != 0 {
        cands.push(RankFn::Xor(mask));
    }
    if world > 0 {
        let m = world as i64;
        cands.push(RankFn::OffsetMod {
            offset: ((v0 as i64 - r0 as i64) % m + m) % m,
            modulus: world,
        });
    }
    'cand: for c in cands {
        for (p, s) in parts {
            if !param_agrees(c, p, s) {
                continue 'cand;
            }
        }
        return c.into_param();
    }
    let mut groups: BTreeMap<i64, Vec<Run>> = BTreeMap::new();
    for (p, s) in parts {
        rank_diff_fragments(p, s, &mut groups);
    }
    fit_rank_groups(groups, total).unwrap_or_else(|| {
        let mut table = BTreeMap::new();
        for (p, s) in parts {
            for r in s.iter() {
                table.insert(r, p.eval(r));
            }
        }
        RankParam::PerRank(table)
    })
}

/// Does `cand` equal `p` pointwise over `dom`? Exact: closed-form cases
/// are decided per run in O(1); the genuinely incomparable mixes fall back
/// to an early-exit scan (which in practice disagrees within a couple of
/// elements).
fn param_agrees(cand: RankFn, p: &RankParam, dom: &RankSet) -> bool {
    match p {
        RankParam::PerRank(_) => dom.iter().all(|r| cand.eval(r) == p.eval(r)),
        RankParam::Piecewise(ps) => ps.iter().all(|(s, f)| fn_agrees(cand, *f, s)),
        plain => fn_agrees(cand, plain.as_fn().unwrap(), dom),
    }
}

/// Do two closed forms agree on every rank of `dom`?
fn fn_agrees(f: RankFn, g: RankFn, dom: &RankSet) -> bool {
    use RankFn::*;
    if f == g {
        return true;
    }
    if dom.len() == 1 {
        let r = dom.min_rank().unwrap();
        return f.eval(r) == g.eval(r);
    }
    // Symmetrize so each pair is matched once.
    let (f, g) = if rank_fn_order(&f) <= rank_fn_order(&g) {
        (f, g)
    } else {
        (g, f)
    };
    match (f, g) {
        // Injective / distinct-valued forms can't match a constant on >1 rank.
        (Const(_), Offset(_)) | (Const(_), Xor(_)) => false,
        (Const(a), OffsetMod { offset, modulus }) => {
            let m = modulus as i64;
            a < modulus
                && dom.runs().iter().all(|run| {
                    (run.start as i64 + offset - a as i64).rem_euclid(m) == 0
                        && (run.count == 1 || (run.stride as i64).rem_euclid(m) == 0)
                })
        }
        (Offset(d1), Offset(d2)) => d1 == d2,
        (Offset(d), OffsetMod { offset, modulus }) => {
            let m = modulus as i64;
            dom.runs().iter().all(|run| {
                let k = (run.start as i64 + offset).div_euclid(m);
                k == (run.last() as i64 + offset).div_euclid(m) && offset - k * m == d
            })
        }
        (Xor(a), Xor(b)) => a == b,
        // Offset/OffsetMod against Xor: no useful closed form — exact
        // early-exit scan.
        _ => dom.iter().all(|r| f.eval(r) == g.eval(r)),
    }
}

fn rank_fn_order(f: &RankFn) -> u8 {
    match f {
        RankFn::Const(_) => 0,
        RankFn::Offset(_) => 1,
        RankFn::OffsetMod { .. } => 2,
        RankFn::Xor(_) => 3,
    }
}

/// Add `p`'s offset-partition fragments over `dom` to `groups`. Offset
/// pieces contribute whole runs; modular pieces split at wrap boundaries;
/// constants and xors (which have rank-varying offsets) expand — they are
/// only reached when the single-form candidates already failed, so the
/// cost is bounded by what materializing the table would pay anyway.
fn rank_diff_fragments(p: &RankParam, dom: &RankSet, groups: &mut BTreeMap<i64, Vec<Run>>) {
    match p {
        RankParam::Piecewise(ps) => {
            for (s, f) in ps {
                fn_diff_fragments(*f, s, groups);
            }
        }
        RankParam::PerRank(_) => {
            for r in dom.iter() {
                push_single(groups, p.eval(r) as i64 - r as i64, r);
            }
        }
        plain => fn_diff_fragments(plain.as_fn().unwrap(), dom, groups),
    }
}

fn fn_diff_fragments(f: RankFn, dom: &RankSet, groups: &mut BTreeMap<i64, Vec<Run>>) {
    match f {
        RankFn::Offset(d) => groups.entry(d).or_default().extend_from_slice(dom.runs()),
        RankFn::OffsetMod { offset, modulus } => {
            let m = modulus as i64;
            for run in dom.runs() {
                let stride = run.stride.max(1) as i64;
                let mut i = 0usize;
                while i < run.count {
                    let r = (run.start + run.stride * i) as i64;
                    let k = (r + offset).div_euclid(m);
                    // Last index whose element stays under the next wrap.
                    let hi = (k + 1) * m - offset - 1;
                    let last =
                        ((hi - run.start as i64).div_euclid(stride) as usize).min(run.count - 1);
                    let count = last - i + 1;
                    groups.entry(offset - k * m).or_default().push(Run {
                        start: r as usize,
                        stride: if count == 1 { 1 } else { run.stride },
                        count,
                    });
                    i = last + 1;
                }
            }
        }
        _ => {
            for r in dom.iter() {
                push_single(groups, f.eval(r) as i64 - r as i64, r);
            }
        }
    }
}

impl fmt::Display for RankParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankParam::PerRank(m) => {
                write!(f, "[")?;
                for (i, (r, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{r}->{v}")?;
                }
                write!(f, "]")
            }
            RankParam::Piecewise(ps) => {
                write!(f, "[")?;
                for (i, (s, func)) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{s}:{func}")?;
                }
                write!(f, "]")
            }
            plain => write!(f, "{}", plain.as_fn().unwrap()),
        }
    }
}

/// Source parameter of a receive: wildcard or a rank expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SrcParam {
    /// `MPI_ANY_SOURCE`, recorded unresolved.
    Any,
    /// A concrete (rank-relative) source.
    Rank(RankParam),
}

impl SrcParam {
    /// Is this `MPI_ANY_SOURCE`?
    pub fn is_wildcard(&self) -> bool {
        matches!(self, SrcParam::Any)
    }

    /// Unify two source parameters over disjoint rank sets; `None` when one
    /// side is a wildcard and the other is not (they must stay separate
    /// RSDs for Algorithm 2).
    pub fn unify(
        a: &SrcParam,
        a_ranks: &RankSet,
        b: &SrcParam,
        b_ranks: &RankSet,
        world: usize,
    ) -> Option<SrcParam> {
        match (a, b) {
            (SrcParam::Any, SrcParam::Any) => Some(SrcParam::Any),
            (SrcParam::Rank(x), SrcParam::Rank(y)) => Some(SrcParam::Rank(RankParam::unify(
                x, a_ranks, y, b_ranks, world,
            ))),
            // A wildcard and a concrete source are *different* operations;
            // merging them would lose the nondeterminism Algorithm 2 must see.
            _ => None,
        }
    }

    /// Many-way [`SrcParam::unify`]: all-wildcard stays a wildcard,
    /// all-concrete unifies the rank expressions over the full union,
    /// and any wildcard/concrete mix is `None`. `parts` must be non-empty.
    pub fn unify_many<'a, I>(parts: I, world: usize) -> Option<SrcParam>
    where
        I: IntoIterator<Item = (&'a SrcParam, &'a RankSet)>,
    {
        let mut concrete: Vec<(&RankParam, &RankSet)> = Vec::new();
        let mut wildcards = 0usize;
        let mut total = 0usize;
        for (p, ranks) in parts {
            total += 1;
            match p {
                SrcParam::Any => wildcards += 1,
                SrcParam::Rank(r) => concrete.push((r, ranks)),
            }
        }
        debug_assert!(total > 0, "unify_many over no parts");
        if wildcards == total {
            Some(SrcParam::Any)
        } else if wildcards == 0 {
            Some(SrcParam::Rank(RankParam::unify_many(concrete, world)))
        } else {
            None
        }
    }
}

impl fmt::Display for SrcParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrcParam::Any => write!(f, "ANY_SOURCE"),
            SrcParam::Rank(r) => write!(f, "{r}"),
        }
    }
}

/// A communicator parameter: like other RSD parameters, the communicator an
/// operation uses may differ across the merged ranks (e.g. CG's per-column
/// allreduce — same call site, different subcommunicator per column).
#[derive(Clone, Eq, Debug)]
pub enum CommParam {
    /// Same communicator on every rank.
    Const(u32),
    /// Explicit per-rank communicator table (dense escape hatch).
    PerRank(BTreeMap<Rank, u32>),
    /// Disjoint `(domain, comm id)` pieces sorted by smallest domain rank.
    Piecewise(Vec<(RankSet, u32)>),
}

impl CommParam {
    /// The communicator used by `rank`.
    pub fn eval(&self, rank: Rank) -> u32 {
        match self {
            CommParam::Const(c) => *c,
            CommParam::PerRank(m) => *m.get(&rank).expect("rank present in table"),
            CommParam::Piecewise(ps) => {
                ps.iter()
                    .find(|(s, _)| s.contains(rank))
                    .expect("rank present in some piece")
                    .1
            }
        }
    }

    /// Unify two communicator parameters over disjoint rank sets.
    pub fn unify(a: &CommParam, a_ranks: &RankSet, b: &CommParam, b_ranks: &RankSet) -> CommParam {
        CommParam::unify_many([(a, a_ranks), (b, b_ranks)])
    }

    /// Many-way [`CommParam::unify`]: canonical in the pointwise map, so
    /// any fold association agrees; `parts` must be non-empty.
    pub fn unify_many<'a, I>(parts: I) -> CommParam
    where
        I: IntoIterator<Item = (&'a CommParam, &'a RankSet)>,
    {
        let parts: Vec<(&CommParam, &RankSet)> = parts.into_iter().collect();
        if let CommParam::Const(v) = parts[0].0 {
            if parts
                .iter()
                .all(|(p, _)| matches!(p, CommParam::Const(x) if x == v))
            {
                return CommParam::Const(*v);
            }
        }
        let total: usize = parts.iter().map(|(_, s)| s.len()).sum();
        let mut groups: BTreeMap<u32, Vec<Run>> = BTreeMap::new();
        for (p, s) in &parts {
            match p {
                CommParam::Const(c) => groups.entry(*c).or_default().extend_from_slice(s.runs()),
                CommParam::Piecewise(ps) => {
                    for (set, c) in ps {
                        groups.entry(*c).or_default().extend_from_slice(set.runs());
                    }
                }
                CommParam::PerRank(_) => {
                    for r in s.iter() {
                        push_single(&mut groups, p.eval(r), r);
                    }
                }
            }
        }
        fit_value_groups(groups, total, CommParam::Const, CommParam::Piecewise).unwrap_or_else(
            || {
                let mut table = BTreeMap::new();
                for (p, s) in parts {
                    for r in s.iter() {
                        table.insert(r, p.eval(r));
                    }
                }
                CommParam::PerRank(table)
            },
        )
    }

    /// Distinct communicator ids with the sub-rank-set using each, in
    /// ascending comm-id order. O(pieces) on the symbolic forms.
    pub fn groups(&self, ranks: &RankSet) -> Vec<(u32, RankSet)> {
        match self {
            CommParam::Const(c) => vec![(*c, ranks.clone())],
            CommParam::Piecewise(ps) => {
                let covered: usize = ps.iter().map(|(s, _)| s.len()).sum();
                let mut out: Vec<(u32, RankSet)> = if covered == ranks.len() {
                    ps.iter().map(|(s, c)| (*c, s.clone())).collect()
                } else {
                    ps.iter()
                        .map(|(s, c)| (*c, s.intersect(ranks)))
                        .filter(|(_, s)| !s.is_empty())
                        .collect()
                };
                out.sort_by_key(|(c, _)| *c);
                out
            }
            CommParam::PerRank(_) => {
                let mut map: BTreeMap<u32, Vec<Rank>> = BTreeMap::new();
                for r in ranks.iter() {
                    map.entry(self.eval(r)).or_default().push(r);
                }
                map.into_iter()
                    .map(|(c, v)| (c, RankSet::from_ranks(v)))
                    .collect()
            }
        }
    }

    /// Is this a compressed (non-table) form?
    pub fn is_compressed(&self) -> bool {
        !matches!(self, CommParam::PerRank(_))
    }

    /// Canonical encoding form (see [`RankParam::canonical`]).
    pub fn canonical(&self) -> CommParam {
        match self {
            CommParam::PerRank(t) => {
                let mut groups: BTreeMap<u32, Vec<Run>> = BTreeMap::new();
                for (&r, &v) in t {
                    push_single(&mut groups, v, r);
                }
                fit_value_groups(groups, t.len(), CommParam::Const, CommParam::Piecewise)
                    .unwrap_or_else(|| CommParam::PerRank(t.clone()))
            }
            other => other.clone(),
        }
    }
}

impl PartialEq for CommParam {
    #[inline]
    fn eq(&self, other: &CommParam) -> bool {
        use CommParam::*;
        match (self, other) {
            (Const(a), Const(b)) => a == b,
            (PerRank(a), PerRank(b)) => a == b,
            (Piecewise(a), Piecewise(b)) => a == b,
            (PerRank(_), o) => match self.canonical() {
                PerRank(_) => false,
                c => &c == o,
            },
            (o, PerRank(_)) => match other.canonical() {
                PerRank(_) => false,
                c => o == &c,
            },
            _ => false,
        }
    }
}

/// Shared value-partition fit for const-valued pieces: one piece per
/// distinct value, sorted by smallest domain rank, `None` past the
/// compressibility threshold.
fn fit_value_groups<V, P>(
    groups: BTreeMap<V, Vec<Run>>,
    total: usize,
    one: impl FnOnce(V) -> P,
    many: impl FnOnce(Vec<(RankSet, V)>) -> P,
) -> Option<P>
where
    V: Copy + Ord,
{
    if groups.len() > total / 2 {
        return None;
    }
    let mut pieces: Vec<(RankSet, V)> = groups
        .into_iter()
        .map(|(v, frags)| (RankSet::from_fragments(frags), v))
        .collect();
    pieces.sort_by_key(|(s, _)| s.min_rank());
    if pieces.len() == 1 {
        return Some(one(pieces.pop().unwrap().1));
    }
    Some(many(pieces))
}

impl fmt::Display for CommParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommParam::Const(c) => write!(f, "{c}"),
            CommParam::PerRank(m) => {
                write!(f, "[")?;
                for (i, (r, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{r}:{v}")?;
                }
                write!(f, "]")
            }
            CommParam::Piecewise(ps) => {
                write!(f, "[")?;
                for (i, (s, v)) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{s}:{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A scalar value parameter (byte counts, wait counts).
#[derive(Clone, Eq, Debug)]
pub enum ValParam {
    /// Same value on every rank.
    Const(u64),
    /// `value = base + slope·rank` — rank-proportional sizes (`slope ≠ 0`).
    Linear {
        /// Value at rank 0.
        base: i64,
        /// Per-rank increment.
        slope: i64,
    },
    /// Explicit per-rank table (dense escape hatch).
    PerRank(BTreeMap<Rank, u64>),
    /// Disjoint `(domain, value)` pieces sorted by smallest domain rank.
    Piecewise(Vec<(RankSet, u64)>),
}

impl ValParam {
    /// The value for `rank`.
    pub fn eval(&self, rank: Rank) -> u64 {
        match self {
            ValParam::Const(c) => *c,
            // wrapping: a decoded file may carry any `i64` pair, and a
            // table re-fit tries candidates that need not fit at all
            ValParam::Linear { base, slope } => {
                base.wrapping_add(slope.wrapping_mul(rank as i64)) as u64
            }
            ValParam::PerRank(m) => *m.get(&rank).expect("rank present in table"),
            ValParam::Piecewise(ps) => {
                ps.iter()
                    .find(|(s, _)| s.contains(rank))
                    .expect("rank present in some piece")
                    .1
            }
        }
    }

    /// Unify two value parameters over disjoint rank sets.
    pub fn unify(a: &ValParam, a_ranks: &RankSet, b: &ValParam, b_ranks: &RankSet) -> ValParam {
        ValParam::unify_many([(a, a_ranks), (b, b_ranks)])
    }

    /// Many-way [`ValParam::unify`]: canonical in the pointwise map, so
    /// any fold association agrees; `parts` must be non-empty.
    pub fn unify_many<'a, I>(parts: I) -> ValParam
    where
        I: IntoIterator<Item = (&'a ValParam, &'a RankSet)>,
    {
        let parts: Vec<(&ValParam, &RankSet)> = parts.into_iter().collect();
        if let ValParam::Const(v) = parts[0].0 {
            if parts
                .iter()
                .all(|(p, _)| matches!(p, ValParam::Const(x) if x == v))
            {
                return ValParam::Const(*v);
            }
        }
        unify_val_symbolic(&parts)
    }

    /// Sum across a rank set. Closed-form and run-weighted on the symbolic
    /// forms — O(pieces·runs), not O(P).
    pub fn sum_over(&self, ranks: &RankSet) -> u64 {
        match self {
            ValParam::Const(c) => c * ranks.len() as u64,
            ValParam::Linear { base, slope } => {
                let mut sum: i128 = 0;
                for run in ranks.runs() {
                    let (s, t, c) = (run.start as i128, run.stride as i128, run.count as i128);
                    let rank_sum = s * c + t * c * (c - 1) / 2;
                    sum += *base as i128 * c + *slope as i128 * rank_sum;
                }
                sum as u64
            }
            ValParam::Piecewise(ps) => {
                let covered: usize = ps.iter().map(|(s, _)| s.len()).sum();
                if covered == ranks.len() {
                    ps.iter().map(|(s, v)| *v * s.len() as u64).sum()
                } else {
                    // summing over a subset of the domain
                    ps.iter()
                        .map(|(s, v)| *v * s.intersect(ranks).len() as u64)
                        .sum()
                }
            }
            ValParam::PerRank(_) => ranks.iter().map(|r| self.eval(r)).sum(),
        }
    }

    /// Mean across a rank set (used by Table 1 "averaged message size"
    /// substitutions for the v-variant collectives). Closed-form on the
    /// symbolic forms, so cost is independent of the rank count.
    pub fn mean_over(&self, ranks: &RankSet) -> u64 {
        match self {
            ValParam::Const(c) => *c,
            _ => self.sum_over(ranks) / ranks.len().max(1) as u64,
        }
    }

    /// Is this a compressed (non-table) form?
    pub fn is_compressed(&self) -> bool {
        !matches!(self, ValParam::PerRank(_))
    }

    /// Canonical encoding form (see [`RankParam::canonical`]).
    pub fn canonical(&self) -> ValParam {
        match self {
            ValParam::PerRank(t) => fit_val_table(t),
            other => other.clone(),
        }
    }
}

impl PartialEq for ValParam {
    fn eq(&self, other: &ValParam) -> bool {
        use ValParam::*;
        match (self, other) {
            (Const(a), Const(b)) => a == b,
            (
                Linear {
                    base: b1,
                    slope: s1,
                },
                Linear {
                    base: b2,
                    slope: s2,
                },
            ) => b1 == b2 && s1 == s2,
            (PerRank(a), PerRank(b)) => a == b,
            (Piecewise(a), Piecewise(b)) => a == b,
            (PerRank(t), o) | (o, PerRank(t)) => match fit_val_table(t) {
                PerRank(_) => false,
                c => &c == o,
            },
            _ => false,
        }
    }
}

/// Canonical fit of an irregular value table: an exact linear form if one
/// exists, else one piece per distinct value (threshold-guarded).
fn fit_val_table(table: &BTreeMap<Rank, u64>) -> ValParam {
    if table.len() >= 2 {
        let mut it = table.iter();
        let (&r0, &v0) = it.next().unwrap();
        let (&r1, &v1) = it.next().unwrap();
        if let Some(lin) = linear_candidate(r0, v0, r1, v1) {
            if table.iter().all(|(&r, &v)| lin.eval(r) == v) {
                return lin;
            }
        }
    }
    let mut groups: BTreeMap<u64, Vec<Run>> = BTreeMap::new();
    for (&r, &v) in table {
        push_single(&mut groups, v, r);
    }
    fit_value_groups(groups, table.len(), ValParam::Const, ValParam::Piecewise)
        .unwrap_or_else(|| ValParam::PerRank(table.clone()))
}

/// The exact linear form through two points, if the slope is integral and
/// non-zero (a zero slope is a constant, handled elsewhere).
fn linear_candidate(r0: Rank, v0: u64, r1: Rank, v1: u64) -> Option<ValParam> {
    let dr = r1 as i64 - r0 as i64;
    let dv = (v1 as i64).wrapping_sub(v0 as i64);
    if dr == 0 || dv % dr != 0 || dv == 0 {
        return None;
    }
    let slope = dv / dr;
    Some(ValParam::Linear {
        base: (v0 as i64).wrapping_sub(slope.wrapping_mul(r0 as i64)),
        slope,
    })
}

fn unify_val_symbolic(parts: &[(&ValParam, &RankSet)]) -> ValParam {
    let total: usize = parts.iter().map(|(_, s)| s.len()).sum();
    debug_assert!(total > 0, "unify over no ranks");
    // The two globally-smallest ranks determine the candidate forms.
    let mut firsts: Vec<(Rank, u64)> = Vec::with_capacity(parts.len() * 2);
    for (p, s) in parts {
        for r in s.iter().take(2) {
            firsts.push((r, p.eval(r)));
        }
    }
    firsts.sort_unstable_by_key(|(r, _)| *r);
    let (r0, v0) = firsts[0];
    let mut cands = vec![ValParam::Const(v0)];
    if let Some(&(r1, v1)) = firsts.get(1) {
        if let Some(lin) = linear_candidate(r0, v0, r1, v1) {
            cands.push(lin);
        }
    }
    'cand: for c in cands {
        for (p, s) in parts {
            if !val_agrees(&c, p, s) {
                continue 'cand;
            }
        }
        return c;
    }
    let mut groups: BTreeMap<u64, Vec<Run>> = BTreeMap::new();
    for (p, s) in parts {
        match p {
            ValParam::Const(v) => groups.entry(*v).or_default().extend_from_slice(s.runs()),
            ValParam::Piecewise(ps) => {
                for (set, v) in ps {
                    groups.entry(*v).or_default().extend_from_slice(set.runs());
                }
            }
            _ => {
                for r in s.iter() {
                    push_single(&mut groups, p.eval(r), r);
                }
            }
        }
    }
    fit_value_groups(groups, total, ValParam::Const, ValParam::Piecewise).unwrap_or_else(|| {
        let mut table = BTreeMap::new();
        for (p, s) in parts {
            for r in s.iter() {
                table.insert(r, p.eval(r));
            }
        }
        ValParam::PerRank(table)
    })
}

/// Does candidate `c` (`Const` or `Linear`) equal `p` pointwise over `dom`?
fn val_agrees(c: &ValParam, p: &ValParam, dom: &RankSet) -> bool {
    if dom.len() == 1 {
        let r = dom.min_rank().unwrap();
        return c.eval(r) == p.eval(r);
    }
    match (c, p) {
        (ValParam::Const(a), ValParam::Const(b)) => a == b,
        // A non-zero-slope linear takes distinct values on >1 rank.
        (ValParam::Const(_), ValParam::Linear { .. })
        | (ValParam::Linear { .. }, ValParam::Const(_)) => false,
        (
            ValParam::Linear {
                base: b1,
                slope: s1,
            },
            ValParam::Linear {
                base: b2,
                slope: s2,
            },
        ) => b1 == b2 && s1 == s2,
        (_, ValParam::Piecewise(ps)) => ps.iter().all(|(s, v)| {
            if s.len() == 1 {
                c.eval(s.min_rank().unwrap()) == *v
            } else {
                matches!(c, ValParam::Const(a) if a == v)
            }
        }),
        _ => dom.iter().all(|r| c.eval(r) == p.eval(r)),
    }
}

impl fmt::Display for ValParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValParam::Const(c) => write!(f, "{c}"),
            ValParam::Linear { base, slope } => write!(f, "{slope}*rank+{base}"),
            ValParam::PerRank(m) => {
                write!(f, "[")?;
                for (i, (r, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{r}:{v}")?;
                }
                write!(f, "]")
            }
            ValParam::Piecewise(ps) => {
                write!(f, "[")?;
                for (i, (s, v)) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{s}:{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(v: &[usize]) -> RankSet {
        RankSet::from_ranks(v.iter().copied())
    }

    #[test]
    fn unify_equal_constants() {
        let p = RankParam::unify(
            &RankParam::Const(0),
            &rs(&[1, 2]),
            &RankParam::Const(0),
            &rs(&[3]),
            8,
        );
        assert_eq!(p, RankParam::Const(0));
    }

    #[test]
    fn unify_to_offset() {
        // rank 0 sends to 1, rank 1 sends to 2, rank 2 sends to 3
        let mut acc = RankParam::Const(1);
        let mut acc_ranks = rs(&[0]);
        for r in 1..=2 {
            acc = RankParam::unify(&acc, &acc_ranks, &RankParam::Const(r + 1), &rs(&[r]), 8);
            acc_ranks = acc_ranks.union(&rs(&[r]));
        }
        assert_eq!(acc, RankParam::Offset(1));
        assert_eq!(acc.eval(5), 6);
    }

    #[test]
    fn unify_ring_to_offset_mod() {
        // full ring on 4 ranks: peer = (rank+1) % 4
        let table: BTreeMap<Rank, Rank> = (0..4).map(|r| (r, (r + 1) % 4)).collect();
        let p = compress_rank_table(table, 4);
        assert_eq!(
            p,
            RankParam::OffsetMod {
                offset: 1,
                modulus: 4
            }
        );
        assert_eq!(p.eval(3), 0);
        assert_eq!(p.eval(0), 1);
    }

    #[test]
    fn negative_offset_ring() {
        let table: BTreeMap<Rank, Rank> = (0..4).map(|r| (r, (r + 3) % 4)).collect();
        let p = compress_rank_table(table, 4);
        assert_eq!(
            p,
            RankParam::OffsetMod {
                offset: 3,
                modulus: 4
            }
        );
        assert_eq!(p.eval(0), 3);
    }

    #[test]
    fn irregular_degrades_to_table() {
        let table: BTreeMap<Rank, Rank> = [(0, 3), (1, 3), (2, 0)].into();
        let p = compress_rank_table(table.clone(), 4);
        assert_eq!(p, RankParam::PerRank(table));
        assert!(!p.is_compressed());
    }

    #[test]
    fn wildcard_never_unifies_with_concrete() {
        let a = SrcParam::Any;
        let b = SrcParam::Rank(RankParam::Const(0));
        assert_eq!(SrcParam::unify(&a, &rs(&[0]), &b, &rs(&[1]), 4), None);
        assert_eq!(
            SrcParam::unify(&a, &rs(&[0]), &SrcParam::Any, &rs(&[1]), 4),
            Some(SrcParam::Any)
        );
    }

    #[test]
    fn val_unify_and_mean() {
        let v = ValParam::unify(
            &ValParam::Const(100),
            &rs(&[0]),
            &ValParam::Const(200),
            &rs(&[1]),
        );
        // Two points at consecutive ranks fit the linear form exactly.
        assert_eq!(
            v,
            ValParam::Linear {
                base: 100,
                slope: 100
            }
        );
        assert_eq!(v.mean_over(&rs(&[0, 1])), 150);
        let c = ValParam::unify(
            &ValParam::Const(7),
            &rs(&[0]),
            &ValParam::Const(7),
            &rs(&[1]),
        );
        assert_eq!(c, ValParam::Const(7));
    }

    #[test]
    fn unify_many_matches_pairwise_fold() {
        // ring peers: the flat unification must equal the left fold of
        // pairwise unify (which is itself association-invariant).
        let parts: Vec<(RankParam, RankSet)> = (0..6)
            .map(|r| (RankParam::Const((r + 1) % 6), rs(&[r])))
            .collect();
        let many = RankParam::unify_many(parts.iter().map(|(p, s)| (p, s)), 6);
        let mut acc = parts[0].0.clone();
        let mut acc_ranks = parts[0].1.clone();
        for (p, s) in &parts[1..] {
            acc = RankParam::unify(&acc, &acc_ranks, p, s, 6);
            acc_ranks = acc_ranks.union(s);
        }
        assert_eq!(many, acc);
        assert_eq!(
            many,
            RankParam::OffsetMod {
                offset: 1,
                modulus: 6
            }
        );
    }

    #[test]
    fn val_comm_src_unify_many() {
        let vparts: Vec<(ValParam, RankSet)> = (0..4)
            .map(|r| (ValParam::Const(64 + r as u64), rs(&[r])))
            .collect();
        let v = ValParam::unify_many(vparts.iter().map(|(p, s)| (p, s)));
        assert_eq!(v, ValParam::Linear { base: 64, slope: 1 });
        assert_eq!(v.eval(2), 66);
        let (r0, r1) = (rs(&[0]), rs(&[1]));
        let c = CommParam::unify_many([(&CommParam::Const(3), &r0), (&CommParam::Const(3), &r1)]);
        assert_eq!(c, CommParam::Const(3));
        assert_eq!(
            SrcParam::unify_many(
                [
                    (&SrcParam::Any, &r0),
                    (&SrcParam::Rank(RankParam::Const(1)), &r1)
                ],
                4
            ),
            None
        );
        assert_eq!(
            SrcParam::unify_many([(&SrcParam::Any, &r0), (&SrcParam::Any, &r1)], 4),
            Some(SrcParam::Any)
        );
    }

    #[test]
    fn display() {
        assert_eq!(RankParam::Offset(1).to_string(), "rank+1");
        assert_eq!(RankParam::Offset(-2).to_string(), "rank-2");
        assert_eq!(
            RankParam::OffsetMod {
                offset: 1,
                modulus: 8
            }
            .to_string(),
            "(rank+1)%8"
        );
        assert_eq!(SrcParam::Any.to_string(), "ANY_SOURCE");
        assert_eq!(
            RankParam::Piecewise(vec![
                (RankSet::all(4), RankFn::Offset(1)),
                (RankSet::single(4), RankFn::Const(0)),
            ])
            .to_string(),
            "[{0-3}:rank+1;{4}:0]"
        );
        assert_eq!(
            ValParam::Linear { base: 64, slope: 8 }.to_string(),
            "8*rank+64"
        );
    }

    #[test]
    fn piecewise_fit_of_broken_ring() {
        // Interior ranks shift by one, the tail rank points at itself: two
        // offset groups, so the symbolic fit is two pieces, not a table.
        let n = 64;
        let table: BTreeMap<Rank, Rank> = (0..n)
            .map(|r| (r, if r < n - 1 { r + 1 } else { r }))
            .collect();
        let p = compress_rank_table(table.clone(), 0);
        let RankParam::Piecewise(ps) = &p else {
            panic!("expected piecewise, got {p:?}")
        };
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0], (RankSet::all(n - 1), RankFn::Offset(1)));
        assert_eq!(ps[1], (RankSet::single(n - 1), RankFn::Const(n - 1)));
        for (&r, &v) in &table {
            assert_eq!(p.eval(r), v);
        }
        // The dense escape hatch equals the symbolic fit as a value.
        assert_eq!(p, RankParam::PerRank(table));
    }

    #[test]
    fn unify_matches_the_pointwise_table_on_random_maps() {
        // Pseudo-random rank maps, several worlds: the run-wise unify of
        // singleton parts must equal the fit of the pointwise table, and
        // Eq / canonical() must reconcile both with the legacy dense table.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in [3usize, 7, 16, 33] {
            for _ in 0..40 {
                let table: BTreeMap<Rank, Rank> = (0..n)
                    .map(|r| (r, (next() % (2 * n as u64)) as usize))
                    .collect();
                let fit = compress_rank_table(table.clone(), n);
                let dense = RankParam::PerRank(table.clone());
                let parts: Vec<(RankParam, RankSet)> = table
                    .iter()
                    .map(|(&r, &v)| (RankParam::Const(v), RankSet::single(r)))
                    .collect();
                let sym = RankParam::unify_many(parts.iter().map(|(p, s)| (p, s)), n);
                for (&r, &v) in &table {
                    assert_eq!(sym.eval(r), v, "n={n} r={r}");
                }
                assert_eq!(sym, fit, "n={n}");
                if sym.as_fn().is_none() {
                    // No closed form: the legacy dense table is the same value.
                    assert_eq!(sym.canonical(), dense.canonical(), "n={n}");
                    assert_eq!(sym, dense, "Eq must reconcile representations");
                }
            }
        }
    }

    #[test]
    fn offset_mod_pieces_split_at_wrap() {
        // A ring over a *subset* with the wrong world modulus falls to the
        // piecewise fit; mod pieces split into offset runs at the wrap.
        let table: BTreeMap<Rank, Rank> = (0..8).map(|r| (r, (r + 3) % 8)).collect();
        let p = compress_rank_table(table, 16); // world 16: mod-8 won't fit
        let RankParam::Piecewise(ps) = &p else {
            panic!("expected piecewise, got {p:?}")
        };
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].1, RankFn::Offset(3));
        assert_eq!(ps[1].1, RankFn::Offset(-5));
        // Re-unifying the piecewise form with itself splits the mod pieces
        // identically (fragment path).
        let dom = RankSet::all(8);
        let again = RankParam::unify_many([(&p, &dom)], 16);
        assert_eq!(&again, &p);
    }

    #[test]
    fn comm_piecewise_groups() {
        let parts: Vec<(CommParam, RankSet)> = (0..8)
            .map(|r| (CommParam::Const((r % 2) as u32), RankSet::single(r)))
            .collect();
        let c = CommParam::unify_many(parts.iter().map(|(p, s)| (p, s)));
        let CommParam::Piecewise(ps) = &c else {
            panic!("expected piecewise, got {c:?}")
        };
        assert_eq!(ps.len(), 2);
        let g = c.groups(&RankSet::all(8));
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].0, 0);
        assert_eq!(g[0].1, RankSet::from_ranks((0..4).map(|i| 2 * i)));
        assert_eq!(g[1].0, 1);
        assert_eq!(g[1].1, RankSet::from_ranks((0..4).map(|i| 2 * i + 1)));
    }

    #[test]
    fn linear_val_mean_is_closed_form() {
        let parts: Vec<(ValParam, RankSet)> = (0..100)
            .map(|r| (ValParam::Const(256 + 8 * r as u64), RankSet::single(r)))
            .collect();
        let v = ValParam::unify_many(parts.iter().map(|(p, s)| (p, s)));
        assert_eq!(
            v,
            ValParam::Linear {
                base: 256,
                slope: 8
            }
        );
        let dom = RankSet::all(100);
        let expect: u64 = (0..100u64).map(|r| 256 + 8 * r).sum::<u64>() / 100;
        assert_eq!(v.mean_over(&dom), expect);
    }

    #[test]
    fn threshold_keeps_scattered_tables_dense() {
        // All-distinct irregular values: both partitions explode, so both
        // representations keep the dense table (and encode identically).
        let table: BTreeMap<Rank, Rank> = [(0, 5), (1, 3), (2, 9), (3, 0)].into();
        let p = compress_rank_table(table.clone(), 0);
        assert_eq!(p, RankParam::PerRank(table));
    }
}
