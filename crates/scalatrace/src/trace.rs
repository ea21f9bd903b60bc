//! The trace representation: RSDs, power-RSDs, and whole traces.
//!
//! An [`Rsd`] (extended regular section descriptor) records one MPI call
//! site — its participating ranks, its (mergeable) parameters, and the
//! computation-time histogram preceding the call. A [`Prsd`] ("power-RSD")
//! recursively nests a sequence of nodes inside a loop. A [`Trace`] is a
//! sequence of nodes plus the communicator table.

use crate::params::{CommParam, RankFn, RankParam, SrcParam, ValParam};
use crate::rankset::RankSet;
use crate::timestats::TimeStats;
use mpisim::comm::CommId;
use mpisim::types::{CollKind, Rank, Tag, TagSel};
use std::collections::BTreeMap;
use std::fmt;

/// The operation an RSD describes, with rank-mergeable parameters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpTemplate {
    /// `MPI_Send`/`MPI_Isend`.
    Send {
        /// Destination as a function of the sending rank.
        to: RankParam,
        /// Message tag.
        tag: Tag,
        /// Payload size per rank.
        bytes: ValParam,
        /// Communicator per rank.
        comm: CommParam,
        /// Blocking vs nonblocking form.
        blocking: bool,
    },
    /// `MPI_Recv`/`MPI_Irecv`.
    Recv {
        /// Source selector (possibly the unresolved wildcard).
        from: SrcParam,
        /// Tag selector.
        tag: TagSel,
        /// Expected payload size per rank.
        bytes: ValParam,
        /// Communicator per rank.
        comm: CommParam,
        /// Blocking vs nonblocking form.
        blocking: bool,
    },
    /// `MPI_Wait`/`MPI_Waitall`.
    Wait {
        /// Number of requests waited on, per rank.
        count: ValParam,
    },
    /// A collective operation.
    Coll {
        /// Which collective.
        kind: CollKind,
        /// Root (absolute) for rooted collectives.
        root: Option<RankParam>,
        /// Per-rank local contribution in bytes.
        bytes: ValParam,
        /// Communicator per rank.
        comm: CommParam,
    },
    /// `MPI_Comm_split` of `parent`, producing communicator `result`.
    CommSplit {
        /// The communicator that was split.
        parent: CommId,
        /// The resulting communicator per rank.
        result: CommParam,
    },
}

impl OpTemplate {
    /// MPI routine name of this operation.
    pub fn mpi_name(&self) -> &'static str {
        match self {
            OpTemplate::Send { blocking: true, .. } => "MPI_Send",
            OpTemplate::Send {
                blocking: false, ..
            } => "MPI_Isend",
            OpTemplate::Recv { blocking: true, .. } => "MPI_Recv",
            OpTemplate::Recv {
                blocking: false, ..
            } => "MPI_Irecv",
            OpTemplate::Wait {
                count: ValParam::Const(1),
            } => "MPI_Wait",
            OpTemplate::Wait { .. } => "MPI_Waitall",
            OpTemplate::Coll { kind, .. } => kind.mpi_name(),
            OpTemplate::CommSplit { .. } => "MPI_Comm_split",
        }
    }

    /// Is this a receive with an unresolved `MPI_ANY_SOURCE`?
    pub fn is_wildcard_recv(&self) -> bool {
        matches!(
            self,
            OpTemplate::Recv {
                from: SrcParam::Any,
                ..
            }
        )
    }
}

/// One extended regular section descriptor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rsd {
    /// Participating ranks.
    pub ranks: RankSet,
    /// Stack signature of the call site (distinct call sites never merge —
    /// the property Algorithm 1 exists to compensate for).
    pub sig: u64,
    /// The operation and its mergeable parameters.
    pub op: OpTemplate,
    /// Computation time immediately preceding this call, histogrammed
    /// across iterations and ranks.
    pub compute: TimeStats,
}

impl Rsd {
    /// Structural equality ignoring rank sets and timing — the test for
    /// whether two RSDs describe "the same call" and may merge across ranks.
    pub fn same_shape(&self, other: &Rsd) -> bool {
        self.sig == other.sig && same_op_shape(&self.op, &other.op)
    }

    /// Full equality including ranks and parameters but ignoring timing —
    /// the test used by intra-rank loop folding.
    pub fn foldable_with(&self, other: &Rsd) -> bool {
        self.sig == other.sig && self.ranks == other.ranks && self.op == other.op
    }
}

/// Do two op templates describe the same call shape (mergeable across
/// ranks)? Parameters may differ — they unify — but the operation, tag,
/// blocking-ness, collective kind, split parent, and wildcard-ness must
/// match.
pub fn same_op_shape(a: &OpTemplate, b: &OpTemplate) -> bool {
    use OpTemplate::*;
    match (a, b) {
        (
            Send {
                tag: t1,
                blocking: b1,
                ..
            },
            Send {
                tag: t2,
                blocking: b2,
                ..
            },
        ) => t1 == t2 && b1 == b2,
        (
            Recv {
                from: f1,
                tag: t1,
                blocking: b1,
                ..
            },
            Recv {
                from: f2,
                tag: t2,
                blocking: b2,
                ..
            },
        ) => f1.is_wildcard() == f2.is_wildcard() && t1 == t2 && b1 == b2,
        (Wait { .. }, Wait { .. }) => true,
        (Coll { kind: k1, .. }, Coll { kind: k2, .. }) => k1 == k2,
        (CommSplit { parent: p1, .. }, CommSplit { parent: p2, .. }) => p1 == p2,
        _ => false,
    }
}

/// A loop: `count` repetitions of `body` (the "power-RSD").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Prsd {
    /// Iteration count.
    pub count: u64,
    /// Loop body, in program order.
    pub body: Vec<TraceNode>,
}

/// One element of a trace sequence.
///
/// `Event` carries a full [`Rsd`] inline (histogram included); traces are
/// small by construction (that is the whole point of the compression), so
/// the size skew vs. `Loop` is irrelevant in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceNode {
    /// One RSD (a single call site's merged events).
    Event(Rsd),
    /// A loop of nodes (power-RSD).
    Loop(Prsd),
}

impl TraceNode {
    /// Structural equality ignoring timing histograms — the loop-folding
    /// equivalence.
    pub fn foldable_with(&self, other: &TraceNode) -> bool {
        match (self, other) {
            (TraceNode::Event(a), TraceNode::Event(b)) => a.foldable_with(b),
            (TraceNode::Loop(a), TraceNode::Loop(b)) => {
                a.count == b.count
                    && a.body.len() == b.body.len()
                    && a.body.iter().zip(&b.body).all(|(x, y)| x.foldable_with(y))
            }
            _ => false,
        }
    }

    /// Merge `other`'s timing histograms into `self` (shapes must be
    /// foldable).
    pub fn absorb_times(&mut self, other: &TraceNode) {
        match (self, other) {
            (TraceNode::Event(a), TraceNode::Event(b)) => a.compute.merge(&b.compute),
            (TraceNode::Loop(a), TraceNode::Loop(b)) => {
                for (x, y) in a.body.iter_mut().zip(&b.body) {
                    x.absorb_times(y);
                }
            }
            _ => panic!("absorb_times on non-foldable nodes"),
        }
    }

    /// Union of all ranks appearing anywhere in this node.
    pub fn rank_union(&self) -> RankSet {
        match self {
            TraceNode::Event(r) => r.ranks.clone(),
            TraceNode::Loop(p) => p
                .body
                .iter()
                .fold(RankSet::empty(), |acc, n| acc.union(&n.rank_union())),
        }
    }

    /// Number of trace nodes (compressed size).
    pub fn node_count(&self) -> usize {
        match self {
            TraceNode::Event(_) => 1,
            TraceNode::Loop(p) => 1 + p.body.iter().map(TraceNode::node_count).sum::<usize>(),
        }
    }

    /// Number of *concrete* MPI events this node expands to, summed over
    /// all ranks (the uncompressed size). Saturates at `u64::MAX`: a trace
    /// built in process (an extrapolated one, say) has not been through
    /// [`check_well_formed`]'s overflow check, and the execute stage
    /// compares this number against its op budget.
    pub fn concrete_event_count(&self) -> u64 {
        match self {
            TraceNode::Event(r) => r.ranks.len() as u64,
            TraceNode::Loop(p) => p.count.saturating_mul(sum_events(&p.body)),
        }
    }
}

/// Saturating sum of [`TraceNode::concrete_event_count`] over `nodes`.
fn sum_events(nodes: &[TraceNode]) -> u64 {
    nodes
        .iter()
        .fold(0, |s, n| s.saturating_add(n.concrete_event_count()))
}

/// Communicator table: absolute-rank membership per communicator id.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CommTable {
    members: BTreeMap<CommId, Vec<Rank>>,
}

impl CommTable {
    /// A table containing only `MPI_COMM_WORLD` over `n` ranks.
    pub fn world(n: usize) -> CommTable {
        let mut t = CommTable::default();
        t.members.insert(0, (0..n).collect());
        t
    }

    /// Record a communicator's absolute-rank membership.
    pub fn insert(&mut self, id: CommId, members: Vec<Rank>) {
        self.members.insert(id, members);
    }

    /// Absolute ranks of communicator `id` (panics if unknown).
    pub fn members(&self, id: CommId) -> &[Rank] {
        self.members
            .get(&id)
            .map(Vec::as_slice)
            .unwrap_or_else(|| panic!("unknown communicator {id}"))
    }

    /// Is communicator `id` known?
    pub fn contains(&self, id: CommId) -> bool {
        self.members.contains_key(&id)
    }

    /// Union with another table (first definition of an id wins).
    pub fn merge(&mut self, other: &CommTable) {
        for (&id, m) in &other.members {
            self.members.entry(id).or_insert_with(|| m.clone());
        }
    }

    /// Union consuming the other table: member lists move instead of being
    /// cloned (first definition of an id still wins). This is the
    /// per-tracer path in [`crate::merge::merge_tracers`], where `other` is
    /// always discarded afterwards.
    pub fn absorb(&mut self, other: CommTable) {
        for (id, m) in other.members {
            self.members.entry(id).or_insert(m);
        }
    }

    /// All known communicator ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = CommId> + '_ {
        self.members.keys().copied()
    }
}

/// A complete (merged, compressed) application trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    /// World size of the traced run.
    pub nranks: usize,
    /// Top-level node sequence.
    pub nodes: Vec<TraceNode>,
    /// Communicator membership table.
    pub comms: CommTable,
}

impl Trace {
    /// An empty trace over `nranks` ranks (world communicator only).
    pub fn new(nranks: usize) -> Trace {
        Trace {
            nranks,
            nodes: Vec::new(),
            comms: CommTable::world(nranks),
        }
    }

    /// Compressed size: total trace nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().map(TraceNode::node_count).sum()
    }

    /// Uncompressed size: total concrete MPI events across all ranks,
    /// saturating at `u64::MAX` (see [`TraceNode::concrete_event_count`]).
    pub fn concrete_event_count(&self) -> u64 {
        sum_events(&self.nodes)
    }

    /// Does any RSD contain a wildcard receive? O(r) pre-check for
    /// Algorithm 2 (paper §4.4).
    pub fn has_wildcard_recv(&self) -> bool {
        fn walk(nodes: &[TraceNode]) -> bool {
            nodes.iter().any(|n| match n {
                TraceNode::Event(r) => r.op.is_wildcard_recv(),
                TraceNode::Loop(p) => walk(&p.body),
            })
        }
        walk(&self.nodes)
    }

    /// Does the trace contain collectives whose RSD covers only part of the
    /// communicator ("unaligned collectives")? O(r) pre-check for
    /// Algorithm 1 (paper §4.3).
    pub fn has_unaligned_collectives(&self) -> bool {
        fn walk(nodes: &[TraceNode], comms: &CommTable) -> bool {
            nodes.iter().any(|n| match n {
                TraceNode::Event(r) => match &r.op {
                    // a split's ranks group by the communicator they produce
                    OpTemplate::CommSplit { result: comm, .. } | OpTemplate::Coll { comm, .. } => {
                        comm.groups(&r.ranks)
                            .iter()
                            .any(|(c, sub)| sub.len() < comms.members(*c).len())
                    }
                    _ => false,
                },
                TraceNode::Loop(p) => walk(&p.body, comms),
            })
        }
        walk(&self.nodes, &self.comms)
    }
}

/// Deepest loop nesting a reader accepts (a corruption guard, far above
/// anything tail folding produces): every walker below a reader recurses
/// per level, dropping the nodes included.
pub(crate) const MAX_LOOP_DEPTH: usize = 256;

/// What every reader of an untrusted trace — text, whole-trace binary,
/// segment — finishes with: the properties each accessor and the generator
/// assume of `nodes` over `nranks` ranks and `comms`, so a crafted file ends
/// in an error naming the field and never in a panic or a program. Linear
/// in nodes × pieces (× table entries), never in the rank count; piecewise
/// domains are disjoint by the time they get here.
pub fn check_well_formed(
    nranks: usize,
    comms: &CommTable,
    nodes: &[TraceNode],
) -> Result<(), String> {
    for id in comms.ids() {
        if let Some(m) = comms.members(id).iter().find(|&&m| m >= nranks) {
            return Err(format!(
                "comm {id}: member {m} out of range for {nranks} ranks"
            ));
        }
    }
    check_nodes(nranks, comms, nodes).map(drop)
}

/// Checks a sequence and returns the concrete events it expands to.
fn check_nodes(nranks: usize, comms: &CommTable, nodes: &[TraceNode]) -> Result<u64, String> {
    let mut events = 0u64;
    for node in nodes {
        let expands = match node {
            TraceNode::Event(r) => {
                check_rsd(nranks, comms, r)?;
                Some(r.ranks.len() as u64)
            }
            // The generated program counts repetitions in an i64.
            TraceNode::Loop(p) if p.count > i64::MAX as u64 => {
                return Err(format!("loop count {} exceeds {}", p.count, i64::MAX));
            }
            TraceNode::Loop(p) => p.count.checked_mul(check_nodes(nranks, comms, &p.body)?),
        };
        events = expands
            .and_then(|e| events.checked_add(e))
            .ok_or("loops expand past u64 events")?;
    }
    Ok(events)
}

fn check_rsd(nranks: usize, comms: &CommTable, r: &Rsd) -> Result<(), String> {
    let ranks = &r.ranks;
    if let Some(m) = ranks.max_rank().filter(|&m| m >= nranks) {
        return Err(format!("ranks: rank {m} out of range for {nranks} ranks"));
    }
    let known = |field: &str, id: CommId| match comms.contains(id) {
        true => Ok(()),
        false => Err(format!("{field}: communicator {id} is not in the table")),
    };
    let peer = |field: &str, p: &RankParam| match p {
        RankParam::PerRank(t) => {
            check_table(field, t, ranks, nranks)?;
            match t.values().find(|&&v| v >= nranks) {
                Some(v) => Err(format!("{field}: rank {v} out of range for {nranks} ranks")),
                None => Ok(()),
            }
        }
        RankParam::Piecewise(ps) => {
            check_pieces(field, ps, ranks, nranks)?;
            ps.iter()
                .try_for_each(|(domain, f)| check_rank_fn(field, *f, domain, nranks))
        }
        plain => check_rank_fn(field, plain.as_fn().expect("a closed form"), ranks, nranks),
    };
    let val = |field: &str, v: &ValParam| match v {
        ValParam::Const(_) | ValParam::Linear { .. } => Ok(()),
        ValParam::PerRank(t) => check_table(field, t, ranks, nranks),
        ValParam::Piecewise(ps) => check_pieces(field, ps, ranks, nranks),
    };
    let comm = |field: &str, c: &CommParam| match c {
        CommParam::Const(id) => known(field, *id),
        CommParam::PerRank(t) => {
            check_table(field, t, ranks, nranks)?;
            t.values().try_for_each(|id| known(field, *id))
        }
        CommParam::Piecewise(ps) => {
            check_pieces(field, ps, ranks, nranks)?;
            ps.iter().try_for_each(|(_, id)| known(field, *id))
        }
    };
    match &r.op {
        OpTemplate::Send {
            to, bytes, comm: c, ..
        } => {
            peer("to", to)?;
            val("bytes", bytes)?;
            comm("comm", c)
        }
        OpTemplate::Recv {
            from,
            bytes,
            comm: c,
            ..
        } => {
            if let SrcParam::Rank(p) = from {
                peer("from", p)?;
            }
            val("bytes", bytes)?;
            comm("comm", c)
        }
        OpTemplate::Wait { count } => val("count", count),
        OpTemplate::Coll {
            root,
            bytes,
            comm: c,
            ..
        } => {
            if let Some(p) = root {
                peer("root", p)?;
            }
            val("bytes", bytes)?;
            comm("comm", c)
        }
        OpTemplate::CommSplit { parent, result } => {
            known("parent", *parent)?;
            comm("result", result)
        }
    }
}

/// A per-rank table has no key past the world and one for every rank of
/// its node.
fn check_table<V>(
    field: &str,
    table: &BTreeMap<Rank, V>,
    ranks: &RankSet,
    nranks: usize,
) -> Result<(), String> {
    if let Some(k) = table.keys().next_back().filter(|&&k| k >= nranks) {
        return Err(format!(
            "{field}: table key {k} out of range for {nranks} ranks"
        ));
    }
    if table.keys().filter(|&&k| ranks.contains(k)).count() != ranks.len() {
        return Err(format!("{field}: table does not cover ranks {ranks}"));
    }
    Ok(())
}

/// Piecewise domains stay inside the world and together cover every rank
/// of their node.
fn check_pieces<V>(
    field: &str,
    pieces: &[(RankSet, V)],
    ranks: &RankSet,
    nranks: usize,
) -> Result<(), String> {
    let mut covered = 0;
    for (domain, _) in pieces {
        if let Some(m) = domain.max_rank().filter(|&m| m >= nranks) {
            return Err(format!(
                "{field}: piece domain reaches rank {m}, out of range for {nranks} ranks"
            ));
        }
        covered += domain.overlap_len(ranks);
    }
    if covered != ranks.len() {
        return Err(format!("{field}: pieces do not cover ranks {ranks}"));
    }
    Ok(())
}

/// A closed form yields a rank below `nranks`, without overflowing, for
/// every rank of `domain` (themselves below `nranks`).
fn check_rank_fn(field: &str, f: RankFn, domain: &RankSet, nranks: usize) -> Result<(), String> {
    let (Some(lo), Some(hi)) = (domain.min_rank(), domain.max_rank()) else {
        return Ok(());
    };
    let shifted = |rank: usize, by: i64| (rank as i64).checked_add(by);
    let ok = match f {
        RankFn::Const(c) => c < nranks,
        RankFn::Offset(d) => {
            shifted(lo, d).is_some_and(|p| p >= 0)
                && shifted(hi, d).is_some_and(|p| p < nranks as i64)
        }
        // The result is below the modulus; collected and extrapolated
        // traces only ever use the world size.
        RankFn::OffsetMod { offset, modulus } => {
            (1..=nranks).contains(&modulus)
                && shifted(lo, offset).is_some()
                && shifted(hi, offset).is_some()
        }
        RankFn::Xor(mask) => xor_stays_below(domain, mask, nranks),
    };
    match ok {
        true => Ok(()),
        false => Err(format!(
            "{field}: {f} is not a rank below {nranks} for every rank of {domain}"
        )),
    }
}

/// Is `rank ^ mask < nranks` for every rank of `domain`? Exact in
/// O(runs × log nranks): the ranks that fail are `mask ^ nranks..top`, one
/// aligned block per aligned power-of-two block of that interval.
fn xor_stays_below(domain: &RankSet, mask: usize, nranks: usize) -> bool {
    let top = nranks.next_power_of_two();
    if mask >= top {
        return false;
    }
    let mut block = nranks;
    while block < top {
        let size = 1 << block.trailing_zeros();
        let lo = (block ^ mask) & !(size - 1);
        if domain.meets_range(lo, lo + size) {
            return false;
        }
        block += size;
    }
    true
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn node(n: &TraceNode, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match n {
                TraceNode::Event(r) => {
                    write!(f, "{pad}{} ranks={}", r.op.mpi_name(), r.ranks)?;
                    match &r.op {
                        OpTemplate::Send { to, bytes, tag, .. } => {
                            write!(f, " to={to} bytes={bytes} tag={tag}")?
                        }
                        OpTemplate::Recv {
                            from, bytes, tag, ..
                        } => write!(f, " from={from} bytes={bytes} tag={tag}")?,
                        OpTemplate::Coll { root, bytes, .. } => {
                            if let Some(root) = root {
                                write!(f, " root={root}")?;
                            }
                            write!(f, " bytes={bytes}")?
                        }
                        OpTemplate::Wait { count } => write!(f, " count={count}")?,
                        OpTemplate::CommSplit { parent, result } => {
                            write!(f, " parent={parent} result={result}")?
                        }
                    }
                    if r.compute.count() > 0 {
                        write!(f, " compute={:?}", r.compute)?;
                    }
                    writeln!(f)
                }
                TraceNode::Loop(p) => {
                    writeln!(f, "{pad}loop x{} {{", p.count)?;
                    for b in &p.body {
                        node(b, indent + 1, f)?;
                    }
                    writeln!(f, "{pad}}}")
                }
            }
        }
        writeln!(f, "trace nranks={}", self.nranks)?;
        for n in &self.nodes {
            node(n, 1, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::time::SimDuration;

    fn send_rsd(rank: usize, to: usize, bytes: u64, sig: u64) -> Rsd {
        Rsd {
            ranks: RankSet::single(rank),
            sig,
            op: OpTemplate::Send {
                to: RankParam::Const(to),
                tag: 0,
                bytes: ValParam::Const(bytes),
                comm: CommParam::Const(0),
                blocking: true,
            },
            compute: TimeStats::of(SimDuration::from_usecs(10)),
        }
    }

    #[test]
    fn foldable_ignores_compute() {
        let a = TraceNode::Event(send_rsd(0, 1, 64, 7));
        let mut b_rsd = send_rsd(0, 1, 64, 7);
        b_rsd.compute = TimeStats::of(SimDuration::from_usecs(999));
        let b = TraceNode::Event(b_rsd);
        assert!(a.foldable_with(&b));
    }

    #[test]
    fn foldable_respects_params() {
        let a = TraceNode::Event(send_rsd(0, 1, 64, 7));
        let b = TraceNode::Event(send_rsd(0, 1, 128, 7)); // different bytes
        let c = TraceNode::Event(send_rsd(0, 1, 64, 8)); // different sig
        assert!(!a.foldable_with(&b));
        assert!(!a.foldable_with(&c));
    }

    #[test]
    fn same_shape_allows_param_differences() {
        let a = send_rsd(0, 1, 64, 7);
        let b = send_rsd(1, 2, 128, 7);
        assert!(a.same_shape(&b));
        let mut c = send_rsd(2, 3, 64, 7);
        c.op = OpTemplate::Send {
            to: RankParam::Const(3),
            tag: 5, // tags differ → different shape
            bytes: ValParam::Const(64),
            comm: CommParam::Const(0),
            blocking: true,
        };
        assert!(!a.same_shape(&c));
    }

    #[test]
    fn counts() {
        let inner = Prsd {
            count: 10,
            body: vec![
                TraceNode::Event(send_rsd(0, 1, 64, 1)),
                TraceNode::Event(send_rsd(0, 2, 64, 2)),
            ],
        };
        let outer = TraceNode::Loop(Prsd {
            count: 5,
            body: vec![TraceNode::Loop(inner)],
        });
        assert_eq!(outer.node_count(), 4);
        assert_eq!(outer.concrete_event_count(), 5 * 10 * 2);
    }

    #[test]
    fn event_counts_saturate_instead_of_wrapping() {
        // 2^40 * 2^40 * 2 events: far past u64, as an unchecked in-process
        // trace may be. The count pins at u64::MAX, node and trace alike.
        let big = |body| {
            TraceNode::Loop(Prsd {
                count: 1 << 40,
                body,
            })
        };
        let nest = big(vec![big(vec![
            TraceNode::Event(send_rsd(0, 1, 64, 1)),
            TraceNode::Event(send_rsd(0, 2, 64, 2)),
        ])]);
        assert_eq!(nest.concrete_event_count(), u64::MAX);
        let mut t = Trace::new(4);
        t.nodes = vec![nest.clone(), nest];
        assert_eq!(t.concrete_event_count(), u64::MAX);
    }

    #[test]
    fn wildcard_and_alignment_prechecks() {
        let mut t = Trace::new(4);
        assert!(!t.has_wildcard_recv());
        assert!(!t.has_unaligned_collectives());
        t.nodes.push(TraceNode::Event(Rsd {
            ranks: RankSet::from_ranks([0, 1]), // only half the comm
            sig: 1,
            op: OpTemplate::Coll {
                kind: CollKind::Barrier,
                root: None,
                bytes: ValParam::Const(0),
                comm: CommParam::Const(0),
            },
            compute: TimeStats::new(),
        }));
        assert!(t.has_unaligned_collectives());
        t.nodes.push(TraceNode::Loop(Prsd {
            count: 3,
            body: vec![TraceNode::Event(Rsd {
                ranks: RankSet::single(0),
                sig: 2,
                op: OpTemplate::Recv {
                    from: SrcParam::Any,
                    tag: TagSel::Any,
                    bytes: ValParam::Const(8),
                    comm: CommParam::Const(0),
                    blocking: true,
                },
                compute: TimeStats::new(),
            })],
        }));
        assert!(t.has_wildcard_recv());
    }

    #[test]
    fn aligned_full_comm_collective_passes_precheck() {
        let mut t = Trace::new(4);
        t.nodes.push(TraceNode::Event(Rsd {
            ranks: RankSet::all(4),
            sig: 1,
            op: OpTemplate::Coll {
                kind: CollKind::Barrier,
                root: None,
                bytes: ValParam::Const(0),
                comm: CommParam::Const(0),
            },
            compute: TimeStats::new(),
        }));
        assert!(!t.has_unaligned_collectives());
    }

    #[test]
    fn the_xor_check_agrees_with_evaluating_every_rank() {
        for nranks in 1..=20usize {
            let domains = [
                RankSet::all(nranks),
                RankSet::from_ranks((0..nranks).step_by(2)),
                RankSet::from_ranks((0..nranks).filter(|r| r % 3 != 1)),
                RankSet::from_ranks(nranks / 2..nranks),
                RankSet::single(nranks - 1),
            ];
            for domain in &domains {
                for mask in 0..40 {
                    assert_eq!(
                        xor_stays_below(domain, mask, nranks),
                        domain.iter().all(|r| r ^ mask < nranks),
                        "{domain} ^ {mask} in a world of {nranks}"
                    );
                }
            }
        }
    }

    #[test]
    fn well_formedness_names_the_field_that_breaks_it() {
        let with_to = |to: RankParam| {
            let mut rsd = send_rsd(0, 1, 64, 1);
            rsd.ranks = RankSet::all(4);
            if let OpTemplate::Send { to: slot, .. } = &mut rsd.op {
                *slot = to;
            }
            let nodes = [TraceNode::Event(rsd)];
            check_well_formed(4, &CommTable::world(4), &nodes)
        };
        assert_eq!(with_to(RankParam::Xor(3)), Ok(()));
        assert_eq!(
            with_to(RankParam::OffsetMod {
                offset: -1,
                modulus: 4
            }),
            Ok(())
        );
        let short = RankParam::PerRank(BTreeMap::from([(0, 1), (1, 2), (2, 3)]));
        for (to, why) in [
            (short, "to: table does not cover"),
            (RankParam::Const(4), "to: 4 is not a rank below 4"),
            (RankParam::Offset(1), "to: rank+1 is not a rank below 4"),
            (RankParam::Xor(4), "to: rank^4 is not a rank below 4"),
            (
                RankParam::Piecewise(vec![(RankSet::from_ranks([0, 1, 2]), RankFn::Offset(1))]),
                "to: pieces do not cover",
            ),
        ] {
            let err = with_to(to).unwrap_err();
            assert!(err.starts_with(why), "{err}");
        }

        // Loop counts: past i64, and a product past u64.
        let looped = |outer: u64, inner: u64| {
            let body = vec![TraceNode::Event(send_rsd(0, 1, 64, 1))];
            let inner = TraceNode::Loop(Prsd { count: inner, body });
            let nodes = [TraceNode::Loop(Prsd {
                count: outer,
                body: vec![inner],
            })];
            check_well_formed(4, &CommTable::world(4), &nodes)
        };
        assert_eq!(looped(1 << 31, 1 << 31), Ok(()));
        assert!(looped(1 << 40, 1 << 40).unwrap_err().contains("u64 events"));
        assert!(looped(1 << 63, 1).unwrap_err().contains("loop count"));
    }

    #[test]
    fn display_renders_structure() {
        let mut t = Trace::new(2);
        t.nodes.push(TraceNode::Loop(Prsd {
            count: 100,
            body: vec![TraceNode::Event(send_rsd(0, 1, 64, 1))],
        }));
        let s = t.to_string();
        assert!(s.contains("loop x100"));
        assert!(s.contains("MPI_Send"));
    }
}
