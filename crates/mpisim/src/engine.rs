//! The discrete-event engine: a sequential virtual-time scheduler that
//! processes MPI-level operations submitted by the ranks.
//!
//! ## Execution model
//!
//! Every rank runs as a coroutine (`fiber.rs`) on the thread that
//! runs the engine: a rank body pushes each MPI-level operation onto the
//! queue in its [`Mailbox`] and yields once it needs a reply that is not
//! there yet. The engine resumes every rank that has replies to take until
//! each has yielded or finished ("quiescence"), then pops the front op of
//! each *fresh* rank's queue in ascending `(virtual clock, rank)` order and
//! issues it, applying its side effects (posting a receive, injecting a
//! message, joining a collective); a wait or collective that cannot
//! complete yet stays pending until a later issue satisfies it. A reply
//! goes straight into the mailbox: the rank is fresh again while it has
//! ops queued, and is resumed once it has none. If quiescence is reached
//! and nothing can complete, the *application* is deadlocked and the run
//! aborts with a per-rank diagnostic.
//!
//! Because scheduling decisions depend only on virtual clocks and rank ids,
//! a run is bit-deterministic for a fixed [`MatchPolicy`]. Ranks are resumed
//! in the order of their last replies, so even which of two panicking
//! ranks is reported is fixed.
//!
//! ## Timing model
//!
//! Message timing follows the eager/rendezvous protocol of real MPI
//! implementations, parameterised by the [`crate::network::NetworkModel`]:
//! eager messages are injected immediately and, if no receive is posted,
//! buffered in the receiver's *unexpected queue* (paying a copy cost when
//! finally matched); when that buffer is exhausted senders *stall* until the
//! receiver drains it (credit-based flow control). Rendezvous messages park
//! a header at the receiver and transfer only once a matching receive is
//! posted. These mechanisms are what produce the paper's Figure 7 upturn.

use crate::comm::{split_groups, Comm, CommId};
use crate::error::{BlockedOn, Budget, SimError};
use crate::faults::FaultPlan;
use crate::fiber::Fiber;
use crate::hooks::Hook;
use crate::network::NetworkModel;
use crate::time::{SimDuration, SimTime};
use crate::types::{CollKind, Fnv1a, FxMap, MsgInfo, Rank, ReqHandle, Src, Tag, TagSel};
use std::collections::VecDeque;
use std::sync::Arc;

/// How the engine chooses among multiple messages that could match a
/// wildcard (`MPI_ANY_SOURCE`) receive. The choice is always deterministic;
/// different policies model different "runs" of a nondeterministic
/// application — exactly the run-to-run variance the paper's Algorithm 2
/// eliminates from generated benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatchPolicy {
    /// Earliest queued message first (ties broken by sender rank). The
    /// most physically plausible policy; the default.
    #[default]
    ByArrival,
    /// Lowest sender rank first.
    BySenderRank,
    /// Pseudo-random but reproducible choice keyed by the seed. Two seeds
    /// model two different executions of the same nondeterministic program.
    Seeded(u64),
}

/// Aggregate counters reported in [`crate::world::RunReport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// MPI-level operations processed (requests issued by ranks).
    pub operations: u64,
    /// Point-to-point messages created.
    pub messages: u64,
    /// Messages that arrived before a matching receive was posted.
    pub unexpected_messages: u64,
    /// Eager injections blocked by a full unexpected buffer.
    pub flow_control_stalls: u64,
    /// Completed collective operations.
    pub collectives: u64,
    /// High-water mark of any rank's unexpected-buffer occupancy.
    pub max_unexpected_bytes: u64,
}

// ---------------------------------------------------------------------------
// Requests and replies
// ---------------------------------------------------------------------------

/// What a rank and the engine exchange while the other is suspended.
#[derive(Default)]
pub(crate) struct Mailbox {
    /// The rank's ops not issued yet, in call order: the rank pushes at the
    /// back, the engine pops the front when it issues it.
    pub ops: VecDeque<Op>,
    /// The engine's replies, in op order, left for the rank to drain.
    pub replies: Vec<Reply>,
    /// The rank's hook, left by the body when it finishes.
    pub hook: Option<Box<dyn Hook>>,
}

#[derive(Debug)]
pub(crate) enum Op {
    Compute(SimDuration),
    ISend {
        to: Rank,
        tag: Tag,
        bytes: u64,
        comm: CommId,
    },
    IRecv {
        from: Src,
        tag: TagSel,
        bytes: u64,
        comm: CommId,
    },
    Wait {
        reqs: Handles,
        /// Reply with the statuses (`Reply::Infos`) rather than the clock
        /// alone (`Reply::Time`): false for the status-ignoring forms and a
        /// blocking send's wait.
        status: bool,
    },
    Coll {
        kind: CollKind,
        comm: CommId,
        /// Root in *absolute* rank (rooted collectives only).
        root: Option<Rank>,
        /// This rank's contribution in bytes.
        bytes: u64,
        /// `MPI_Comm_split` arguments `(color, key)`.
        split: Option<(i64, i64)>,
    },
    /// Rank body finished normally.
    Exited,
    /// Rank body panicked; the engine aborts the run. Always alone in the
    /// queue: the rank drains its other ops first.
    Panicked(String),
}

/// The requests one wait completes, in request order.
#[derive(Debug)]
pub(crate) enum Handles {
    /// `len` consecutive handles from `first`: every blocking send and
    /// receive, every `wait`, and every `waitall` over handles issued back
    /// to back. Holds no heap memory and cannot name a handle twice.
    Run { first: u64, len: u64 },
    /// Any other handles.
    List(Vec<u64>),
}

impl Handles {
    pub(crate) fn one(h: ReqHandle) -> Handles {
        Handles::Run { first: h.0, len: 1 }
    }

    /// `hs` as a run when its handles are consecutive, else as a list.
    pub(crate) fn of(hs: &[ReqHandle]) -> Handles {
        let first = hs.first().map_or(0, |h| h.0);
        if hs.iter().zip(first..).all(|(h, want)| h.0 == want) {
            Handles::Run {
                first,
                len: hs.len() as u64,
            }
        } else {
            Handles::List(hs.iter().map(|h| h.0).collect())
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Handles::Run { len, .. } => *len as usize,
            Handles::List(hs) => hs.len(),
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let (run, list) = match self {
            Handles::Run { first, len } => (*first..first + len, &[][..]),
            Handles::List(hs) => (0..0, &hs[..]),
        };
        run.chain(list.iter().copied())
    }
}

/// Request and message ids are the engine's own: SipHash buys nothing.
type IdMap<V> = FxMap<u64, V>;

#[derive(Debug)]
pub(crate) enum Reply {
    Time(SimTime),
    Handle {
        clock: SimTime,
        handle: u64,
    },
    /// Completion of a wait that returns statuses: one entry per waited
    /// request, `Some` for receives. A status-ignoring wait gets `Time`.
    Infos {
        clock: SimTime,
        infos: Vec<Option<MsgInfo>>,
    },
    CommCreated {
        clock: SimTime,
        comm: Comm,
    },
    /// The run is over for this rank; the payload rides the `SimAbort`
    /// panic so callers of partial-run entry points can see the cause.
    Fatal(SimError),
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ReqState {
    /// Completion time, once known.
    complete: Option<SimTime>,
    /// Receive status, once matched.
    info: Option<MsgInfo>,
    is_recv: bool,
    /// The remote rank this request cannot complete without (`None` for an
    /// unmatched wildcard receive); feeds deadlock wait-for edges.
    peer: Option<Rank>,
    /// Named by the issued wait. The wait removes the request when it
    /// completes, so a second sighting is the same wait naming it twice.
    waited: bool,
}

#[derive(Debug)]
struct Message {
    id: u64,
    src: Rank,
    dst: Rank,
    tag: Tag,
    comm: CommId,
    bytes: u64,
    eager: bool,
    /// Sender-side virtual time at which injection was first attempted.
    ready: SimTime,
    /// Arrival time at the receiver, once injected (eager) or transferred
    /// (rendezvous).
    arrive: Option<SimTime>,
    /// Request id on the sender to complete when the message is done.
    sender_req: u64,
    /// Monotone per-receiver sequence number (queue order).
    dst_seq: u64,
}

#[derive(Debug)]
struct PostedRecv {
    req: u64,
    rank: Rank,
    from: Src,
    tag: TagSel,
    comm: CommId,
    post_time: SimTime,
}

/// Per-rank collective arrival record: `(clock at arrival, contributed
/// bytes, MPI_Comm_split (color, key) args)`.
type Arrival = (SimTime, u64, Option<(i64, i64)>);

/// One collective instance some member of its communicator has entered.
#[derive(Debug)]
struct CollSlot {
    kind: CollKind,
    root: Option<Rank>,
    seq: u64,
    /// Per communicator rank: its arrival, once it has arrived.
    arrivals: Vec<Option<Arrival>>,
    arrived: usize,
}

struct CommData {
    members: Arc<Vec<Rank>>,
    /// `index[abs]`: the communicator rank of absolute rank `abs`, if a
    /// member — so neither the per-op peer check nor a collective arrival
    /// scans `members`.
    index: Vec<Option<u32>>,
    /// Per communicator rank: collectives entered on this communicator.
    entered: Vec<u64>,
    /// Collectives entered by some member but not yet by all, by `seq`.
    open: VecDeque<CollSlot>,
}

impl CommData {
    fn new(n: usize, members: Arc<Vec<Rank>>) -> CommData {
        let mut index = vec![None; n];
        for (rel, &m) in members.iter().enumerate() {
            index[m] = Some(rel as u32);
        }
        CommData {
            entered: vec![0; members.len()],
            members,
            index,
            open: VecDeque::new(),
        }
    }

    /// The communicator rank of absolute rank `abs`, if a member.
    fn rel(&self, abs: Rank) -> Option<usize> {
        self.index
            .get(abs)
            .copied()
            .flatten()
            .map(|rel| rel as usize)
    }
}

pub(crate) struct Engine {
    model: Arc<dyn NetworkModel>,
    policy: MatchPolicy,
    n: usize,

    /// One coroutine per rank, with the mailbox the engine issues from and
    /// replies into; the world drains them after the run.
    pub(crate) fibers: Vec<Fiber<Mailbox>>,
    /// Ranks with replies to take and no op left queued, in the order they
    /// got their last reply: phase 1 resumes them.
    ready: VecDeque<Rank>,
    /// Resumes — how often a rank yielded to the engine.
    pub(crate) crossings: u64,

    clocks: Vec<SimTime>,
    /// Per rank: the front op of its mailbox queue is issued next round.
    fresh: Vec<bool>,
    /// Per rank: the issued wait or collective it is blocked in.
    pending: Vec<Option<Op>>,
    finished: Vec<bool>,
    finalized: Vec<bool>,
    live: usize,

    reqs: Vec<IdMap<ReqState>>,
    next_req: Vec<u64>,
    /// Ranks parked in an issued `Op::Wait`, ascending.
    waiting: Vec<Rank>,

    msgs: IdMap<Message>,
    next_msg: u64,
    next_dst_seq: Vec<u64>,

    /// Per receiver: posted receives in post order.
    posted: Vec<Vec<PostedRecv>>,
    /// Per receiver: unmatched eager messages, injected (queue order by
    /// `dst_seq`).
    unexpected: Vec<Vec<u64>>,
    /// Per receiver: unmatched rendezvous headers.
    rndv: Vec<Vec<u64>>,
    /// Per receiver: eager messages stalled by flow control (FIFO).
    stalled: Vec<VecDeque<u64>>,
    /// Per receiver: bytes currently occupying the unexpected buffer.
    unexp_bytes: Vec<u64>,

    /// Indexed by `CommId`; holds each communicator's collective state.
    comms: Vec<CommData>,

    pub(crate) stats: EngineStats,
    /// Set when a reply was sent in the current scheduling round (progress).
    progressed: bool,

    /// Reusable phase-2 issue-order buffer.
    order_buf: Vec<Rank>,
    /// Reusable wildcard-match scratch: per-source best `(dst_seq, msg id)`.
    match_best: Vec<Option<(u64, u64)>>,
    /// Sources with an entry in `match_best` (reset list).
    match_touched: Vec<Rank>,

    /// Injected fault plan (validated by the world before the run starts).
    faults: Option<Arc<FaultPlan>>,
    /// Per-rank count of operations issued (drives crash triggers).
    ops_issued: Vec<u64>,
    /// Per-rank count of collective entries (drives crash-in-collective).
    colls_entered: Vec<u64>,
    /// Ranks killed by the fault plan: `(rank, ops completed before death)`.
    failed: Vec<(Rank, u64)>,
    /// Deterministic livelock cut-offs (see [`SimError::BudgetExceeded`]).
    op_budget: Option<u64>,
    time_budget: Option<SimTime>,
}

impl Engine {
    pub(crate) fn new(
        n: usize,
        model: Arc<dyn NetworkModel>,
        policy: MatchPolicy,
        fibers: Vec<Fiber<Mailbox>>,
    ) -> Engine {
        Engine {
            model,
            policy,
            n,
            fibers,
            ready: (0..n).collect(),
            crossings: 0,
            clocks: vec![SimTime::ZERO; n],
            fresh: vec![false; n],
            pending: (0..n).map(|_| None).collect(),
            finished: vec![false; n],
            finalized: vec![false; n],
            live: n,
            reqs: (0..n).map(|_| IdMap::default()).collect(),
            next_req: vec![1; n],
            waiting: Vec::new(),
            msgs: IdMap::default(),
            next_msg: 1,
            next_dst_seq: vec![0; n],
            posted: (0..n).map(|_| Vec::new()).collect(),
            unexpected: (0..n).map(|_| Vec::new()).collect(),
            rndv: (0..n).map(|_| Vec::new()).collect(),
            stalled: (0..n).map(|_| VecDeque::new()).collect(),
            unexp_bytes: vec![0; n],
            comms: vec![CommData::new(n, Arc::new((0..n).collect()))],
            stats: EngineStats::default(),
            progressed: false,
            order_buf: Vec::with_capacity(n),
            match_best: vec![None; n],
            match_touched: Vec::new(),
            faults: None,
            ops_issued: vec![0; n],
            colls_entered: vec![0; n],
            failed: Vec::new(),
            op_budget: None,
            time_budget: None,
        }
    }

    /// Install a (pre-validated) fault plan.
    pub(crate) fn set_faults(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// Install deterministic livelock cut-offs.
    pub(crate) fn set_budgets(&mut self, ops: Option<u64>, time: Option<SimTime>) {
        self.op_budget = ops;
        self.time_budget = time;
    }

    /// Run the scheduler to completion.
    pub(crate) fn run(&mut self) -> Result<(), SimError> {
        loop {
            // Phase 1: quiescence — resume every rank holding replies; each
            // comes back with a fresh op at the front of its queue.
            while let Some(rank) = self.ready.pop_front() {
                let fiber = &mut self.fibers[rank];
                fiber.resume();
                self.crossings += 1;
                match fiber.mailbox().ops.front() {
                    None => panic!("rank {rank} yielded without an op"),
                    Some(Op::Panicked(message)) => {
                        let message = message.clone();
                        let err = SimError::RankPanicked { rank, message };
                        self.broadcast_fatal(&err);
                        return Err(err);
                    }
                    Some(_) => self.fresh[rank] = true,
                }
            }
            if self.live == 0 {
                return self.final_verdict(Vec::new());
            }

            // Phase 2: issue new operations, lowest virtual clock first.
            self.progressed = false;
            let mut order = std::mem::take(&mut self.order_buf);
            order.clear();
            order.extend((0..self.n).filter(|&r| self.fresh[r]));
            order.sort_by_key(|&r| (self.clocks[r], r));
            for &r in &order {
                if let Err(err) = self.issue(r) {
                    self.broadcast_fatal(&err);
                    return Err(err);
                }
            }
            self.order_buf = order;

            // Phase 3: complete any waits unblocked by the new issues.
            self.complete_ready_waits();

            if !self.progressed && self.ready.is_empty() && self.live > 0 {
                let err = match self.final_verdict(self.describe_blocked()) {
                    // No injected failure: a genuine application deadlock.
                    Ok(()) => SimError::Deadlock(self.describe_blocked()),
                    Err(e) => e,
                };
                self.broadcast_fatal(&err);
                return Err(err);
            }
        }
    }

    /// The run can go no further: report success, or — if the fault plan
    /// killed a rank — a structured [`SimError::RankFailed`] carrying
    /// whatever survivors are still blocked on the dead rank.
    fn final_verdict(&self, blocked: Vec<BlockedOn>) -> Result<(), SimError> {
        match self.failed.first() {
            None => Ok(()),
            Some(&(rank, after_ops)) => Err(SimError::RankFailed {
                rank,
                after_ops,
                blocked,
            }),
        }
    }

    pub(crate) fn max_clock(&self) -> SimTime {
        self.clocks.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    pub(crate) fn clocks(&self) -> &[SimTime] {
        &self.clocks
    }

    // -- issue ---------------------------------------------------------------

    /// Pop and apply the op at the front of `rank`'s queue. A wait or a
    /// collective that cannot complete yet moves to `pending`.
    fn issue(&mut self, rank: Rank) -> Result<(), SimError> {
        self.fresh[rank] = false;
        self.stats.operations += 1;
        let op = self.fibers[rank]
            .mailbox()
            .ops
            .pop_front()
            .expect("a fresh rank has an op queued");
        if !matches!(op, Op::Exited) {
            if let Some(limit) = self.op_budget {
                if self.stats.operations > limit {
                    return Err(SimError::BudgetExceeded {
                        budget: Budget::Operations,
                        limit,
                        observed: self.stats.operations,
                        rank: Some(rank),
                    });
                }
            }
            if let Some(limit) = self.time_budget {
                if self.clocks[rank] > limit {
                    return Err(SimError::BudgetExceeded {
                        budget: Budget::VirtualTimeNanos,
                        limit: limit.as_nanos(),
                        observed: self.clocks[rank].as_nanos(),
                        rank: Some(rank),
                    });
                }
            }
            if let Some(plan) = self.faults.clone() {
                if let Some(until) = plan.stall_until(rank, self.clocks[rank]) {
                    self.clocks[rank] = until;
                }
                self.ops_issued[rank] += 1;
                if let Some(after) = plan.crash_after(rank) {
                    if self.ops_issued[rank] > after {
                        self.crash_rank(rank, after);
                        return Ok(());
                    }
                }
            }
        }
        match op {
            Op::Compute(d) => {
                let d = match &self.faults {
                    Some(plan) => d.scale(plan.slow_factor(rank)),
                    None => d,
                };
                self.clocks[rank] += d;
                self.reply(rank, Reply::Time(self.clocks[rank]));
            }
            Op::ISend {
                to,
                tag,
                bytes,
                comm,
            } => {
                self.check_member(to, comm)?;
                let handle = self.issue_isend(rank, to, tag, bytes, comm);
                self.reply(
                    rank,
                    Reply::Handle {
                        clock: self.clocks[rank],
                        handle,
                    },
                );
            }
            Op::IRecv {
                from,
                tag,
                bytes,
                comm,
            } => {
                if let Src::Rank(s) = from {
                    self.check_member(s, comm)?;
                }
                let handle = self.issue_irecv(rank, from, tag, bytes, comm);
                self.reply(
                    rank,
                    Reply::Handle {
                        clock: self.clocks[rank],
                        handle,
                    },
                );
            }
            Op::Wait { reqs, status } => {
                // Validate handles eagerly so bugs surface at the wait site.
                // A run cannot repeat a handle; a list can.
                let mut twice = None;
                for h in reqs.iter() {
                    match self.reqs[rank].get_mut(&h) {
                        None => {
                            return Err(SimError::InvalidHandle(format!(
                                "rank {rank} waited on unknown or already-completed request {h}"
                            )))
                        }
                        Some(rs) if rs.waited => twice = twice.or(Some(h)),
                        Some(rs) => rs.waited = true,
                    }
                }
                if let Some(h) = twice {
                    return Err(SimError::InvalidHandle(format!(
                        "rank {rank} waited on request {h} twice in one call"
                    )));
                }
                self.pending[rank] = Some(Op::Wait { reqs, status });
                // Completion handled by `complete_ready_waits`.
                let pos = self.waiting.partition_point(|&r| r < rank);
                self.waiting.insert(pos, rank);
            }
            Op::Coll {
                kind,
                comm,
                root,
                bytes,
                split,
            } => {
                self.issue_collective(rank, kind, comm, root, bytes, split)?;
            }
            Op::Exited => {
                let dangling = self.reqs[rank]
                    .values()
                    .filter(|r| r.complete.is_none())
                    .count();
                if dangling > 0 {
                    return Err(SimError::DanglingRequests {
                        rank,
                        count: dangling,
                    });
                }
                self.finished[rank] = true;
                self.live -= 1;
                self.progressed = true;
                // Queued behind other ops, `Exited` leaves the rank
                // suspended with their replies to drain. It takes them
                // after the run, when the world finishes every rank.
            }
            Op::Panicked(_) => unreachable!("handled at resume"),
        }
        Ok(())
    }

    /// Kill `rank` per the fault plan: it dies *before* the operation it was
    /// about to issue takes effect, and the ops queued behind it are never
    /// issued. The `Fatal` bypasses [`Engine::reply`] — the rank will never
    /// run user code again, so it is not queued for resumption — and goes
    /// behind the replies to the ops the rank did complete; the world
    /// resumes the rank after the run, and it unwinds via `SimAbort`,
    /// letting the world recover its hook (partial trace) after
    /// `catch_unwind`.
    fn crash_rank(&mut self, rank: Rank, after_ops: u64) {
        let err = SimError::RankFailed {
            rank,
            after_ops,
            blocked: Vec::new(),
        };
        let mailbox = self.fibers[rank].mailbox();
        mailbox.ops.clear();
        mailbox.replies.push(Reply::Fatal(err));
        self.finished[rank] = true;
        self.live -= 1;
        self.pending[rank] = None;
        self.failed.push((rank, after_ops));
        // Messages the dead rank already sent stay in flight (survivors may
        // still match them); its posted receives go stale harmlessly.
        self.progressed = true;
    }

    fn check_member(&self, abs: Rank, comm: CommId) -> Result<(), SimError> {
        let data = &self.comms[comm as usize];
        if data.rel(abs).is_some() {
            Ok(())
        } else {
            Err(SimError::InvalidRank {
                rank: abs,
                comm,
                size: data.members.len(),
            })
        }
    }

    // -- point-to-point -------------------------------------------------------

    fn issue_isend(&mut self, src: Rank, dst: Rank, tag: Tag, bytes: u64, comm: CommId) -> u64 {
        self.clocks[src] += self.model.send_overhead(bytes);
        let handle = self.alloc_req(src, false, Some(dst));
        let id = self.next_msg;
        self.next_msg += 1;
        let dst_seq = self.next_dst_seq[dst];
        self.next_dst_seq[dst] += 1;
        let eager = bytes <= self.model.eager_limit();
        let msg = Message {
            id,
            src,
            dst,
            tag,
            comm,
            bytes,
            eager,
            ready: self.clocks[src],
            arrive: None,
            sender_req: handle,
            dst_seq,
        };
        self.stats.messages += 1;
        self.msgs.insert(id, msg);

        // 1. Direct delivery if a matching receive is already posted.
        if let Some(pos) = self.find_posted(dst, src, tag, comm) {
            let recv = self.posted[dst].remove(pos);
            self.match_direct(id, &recv);
            return handle;
        }

        if eager {
            // 2. Eager: inject if the unexpected buffer has room *and* no
            // earlier message to this receiver is stalled (FIFO per link).
            let m = &self.msgs[&id];
            if self.stalled[dst].is_empty()
                && self.unexp_bytes[dst] + m.bytes <= self.model.unexpected_capacity()
            {
                self.inject_unexpected(id, self.msgs[&id].ready);
            } else {
                self.stats.flow_control_stalls += 1;
                self.stalled[dst].push_back(id);
                // sender_req completes when injection eventually happens
            }
        } else {
            // 3. Rendezvous: park a header; data moves when a receive posts.
            self.rndv[dst].push(id);
        }
        handle
    }

    fn issue_irecv(&mut self, dst: Rank, from: Src, tag: TagSel, _bytes: u64, comm: CommId) -> u64 {
        let peer = match from {
            Src::Rank(s) => Some(s),
            Src::Any => None,
        };
        let handle = self.alloc_req(dst, true, peer);
        let recv = PostedRecv {
            req: handle,
            rank: dst,
            from,
            tag,
            comm,
            post_time: self.clocks[dst],
        };
        if let Some(msg_id) = self.select_match(&recv) {
            self.match_with_queued(msg_id, &recv);
        } else {
            self.posted[dst].push(recv);
        }
        handle
    }

    /// First posted receive at `dst` matching an incoming message (FIFO).
    fn find_posted(&self, dst: Rank, src: Rank, tag: Tag, comm: CommId) -> Option<usize> {
        self.posted[dst]
            .iter()
            .position(|p| p.comm == comm && p.from.matches(src) && p.tag.matches(tag))
    }

    /// Choose a queued message (unexpected, rendezvous-header, or stalled)
    /// matching a newly posted receive. Per sender, the earliest-queued
    /// message is the only candidate (MPI non-overtaking); among senders the
    /// [`MatchPolicy`] decides.
    fn select_match(&mut self, recv: &PostedRecv) -> Option<u64> {
        let dst = recv.rank;
        // Reusable per-source scratch (src -> (dst_seq, id)) instead of a
        // fresh HashMap per posted receive; `match_touched` records which
        // slots to reset afterwards. Taken out of `self` so the closure can
        // fill it while `self.msgs` is borrowed.
        let mut best = std::mem::take(&mut self.match_best);
        let mut touched = std::mem::take(&mut self.match_touched);
        debug_assert!(touched.is_empty());
        {
            let mut consider = |m: &Message| {
                if m.comm == recv.comm && recv.from.matches(m.src) && recv.tag.matches(m.tag) {
                    match &mut best[m.src] {
                        Some((seq, id)) => {
                            if m.dst_seq < *seq {
                                *seq = m.dst_seq;
                                *id = m.id;
                            }
                        }
                        slot @ None => {
                            *slot = Some((m.dst_seq, m.id));
                            touched.push(m.src);
                        }
                    }
                }
            };
            for &id in self.unexpected[dst].iter().chain(&self.rndv[dst]) {
                consider(&self.msgs[&id]);
            }
            for &id in &self.stalled[dst] {
                consider(&self.msgs[&id]);
            }
        }
        // An injected reorder plan overrides the match policy: it perturbs
        // only the choice *among senders*, which MPI leaves unspecified —
        // the per-sender earliest-first rule above is untouched, so
        // non-overtaking holds by construction. Every key below embeds the
        // source rank, so the minimum is unique and the scan order of
        // `touched` cannot affect the pick.
        let reorder = self.faults.as_ref().filter(|p| p.reorder).map(Arc::clone);
        let mut pick: Option<((u64, u64, u64), u64)> = None;
        for &src in &touched {
            let (seq, id) = best[src].expect("touched slots are filled");
            let key = match &reorder {
                Some(plan) => (plan.reorder_key(id), src as u64, seq),
                None => match self.policy {
                    MatchPolicy::ByArrival => (seq, src as u64, 0),
                    MatchPolicy::BySenderRank => (src as u64, seq, 0),
                    MatchPolicy::Seeded(seed) => {
                        let mut h = Fnv1a::new();
                        h.write_u64(seed);
                        h.write_u64(id);
                        (h.finish(), src as u64, seq)
                    }
                },
            };
            if pick.is_none_or(|(k, _)| key < k) {
                pick = Some((key, id));
            }
            best[src] = None;
        }
        touched.clear();
        self.match_best = best;
        self.match_touched = touched;
        pick.map(|(_, id)| id)
    }

    /// Wire time for message `msg_id`, jittered by the fault plan if one is
    /// installed. Factors are always ≥ 1, so a later message on the same
    /// `(src, dst, comm, tag)` channel can be delayed but never pulled ahead
    /// of an earlier one — and matching order ignores arrival times anyway.
    fn transit(&self, msg_id: u64, src: Rank, dst: Rank, bytes: u64) -> SimDuration {
        let base = self.model.transit(src, dst, bytes);
        match &self.faults {
            Some(plan) if plan.latency_jitter > 0.0 => base.scale(plan.jitter_factor(msg_id)),
            _ => base,
        }
    }

    /// Sender found a posted receive at issue time: the message flows
    /// straight into the application buffer.
    fn match_direct(&mut self, msg_id: u64, recv: &PostedRecv) {
        let (src, dst, bytes, eager, ready) = {
            let m = &self.msgs[&msg_id];
            (m.src, m.dst, m.bytes, m.eager, m.ready)
        };
        let arrive = if eager {
            ready + self.transit(msg_id, src, dst, bytes)
        } else {
            // Rendezvous with the receive already posted: handshake then
            // transfer, gated by how far the receiver has progressed.
            let start = ready.max(recv.post_time);
            start + self.transit(msg_id, src, dst, bytes)
        };
        self.finish_match(msg_id, recv, arrive);
    }

    /// A newly posted receive matched a queued message.
    fn match_with_queued(&mut self, msg_id: u64, recv: &PostedRecv) {
        let (src, dst, bytes, eager, ready, arrived) = {
            let m = &self.msgs[&msg_id];
            (m.src, m.dst, m.bytes, m.eager, m.ready, m.arrive)
        };
        if let Some(arrive) = arrived {
            // Was sitting in the unexpected buffer: pay the extra copy.
            self.unexpected[dst].retain(|&i| i != msg_id);
            let done = arrive.max(recv.post_time) + self.model.unexpected_copy(bytes);
            self.unexp_bytes[dst] -= bytes;
            self.finish_match(msg_id, recv, done);
            self.drain_stalled(dst, done);
        } else if eager {
            // Stalled at the sender by flow control; a posted receive lets
            // it bypass the unexpected buffer after the resume penalty,
            // scaled by the remaining backlog (as in `drain_stalled`).
            self.stalled[dst].retain(|&i| i != msg_id);
            let backlog = (1 + self.stalled[dst].len() as u64).min(16);
            let inject = ready.max(recv.post_time) + self.model.stall_resume_penalty() * backlog;
            let arrive = inject + self.transit(msg_id, src, dst, bytes);
            self.finish_match(msg_id, recv, arrive);
        } else {
            // Rendezvous header: start the transfer.
            self.rndv[dst].retain(|&i| i != msg_id);
            let hdr_arrive = ready + self.transit(msg_id, src, dst, 0);
            let start = hdr_arrive.max(recv.post_time);
            let arrive = start + self.transit(msg_id, src, dst, bytes);
            self.finish_match(msg_id, recv, arrive);
        }
    }

    /// Record completion times on both requests.
    fn finish_match(&mut self, msg_id: u64, recv: &PostedRecv, data_done: SimTime) {
        let m = self.msgs.remove(&msg_id).expect("matched message exists");
        let recv_done = data_done + self.model.recv_overhead(m.bytes);
        // Eager sends complete locally at injection; rendezvous senders are
        // tied up until the transfer finishes.
        let send_done = if m.eager { m.ready } else { data_done };
        if let Some(rs) = self.reqs[m.src].get_mut(&m.sender_req) {
            rs.complete = Some(send_done);
        }
        if let Some(rs) = self.reqs[recv.rank].get_mut(&recv.req) {
            rs.complete = Some(recv_done);
            rs.info = Some(MsgInfo {
                source: m.src,
                tag: m.tag,
                bytes: m.bytes,
            });
        }
    }

    /// Put an eager message into the receiver's unexpected buffer.
    fn inject_unexpected(&mut self, msg_id: u64, inject: SimTime) {
        let (src, dst, bytes, sender_req) = {
            let m = &self.msgs[&msg_id];
            (m.src, m.dst, m.bytes, m.sender_req)
        };
        let arrive = inject + self.transit(msg_id, src, dst, bytes);
        self.msgs.get_mut(&msg_id).unwrap().arrive = Some(arrive);
        self.unexpected[dst].push(msg_id);
        self.unexp_bytes[dst] += bytes;
        self.stats.unexpected_messages += 1;
        self.stats.max_unexpected_bytes =
            self.stats.max_unexpected_bytes.max(self.unexp_bytes[dst]);
        // Eager send completes locally once injected.
        if let Some(rs) = self.reqs[src].get_mut(&sender_req) {
            rs.complete = Some(inject);
        }
    }

    /// Buffer space was freed at `free_time`: admit stalled messages in FIFO
    /// order while capacity lasts. Resumption pays the flow-control penalty
    /// scaled by the remaining backlog: the deeper the stalled queue, the
    /// longer the window takes to recover — the superlinear collapse of
    /// credit/window flow control under flooding that produces the paper's
    /// Figure 7 upturn.
    fn drain_stalled(&mut self, dst: Rank, free_time: SimTime) {
        while let Some(&id) = self.stalled[dst].front() {
            let bytes = self.msgs[&id].bytes;
            if self.unexp_bytes[dst] + bytes > self.model.unexpected_capacity() {
                break;
            }
            self.stalled[dst].pop_front();
            let backlog = (1 + self.stalled[dst].len() as u64).min(16);
            let ready = self.msgs[&id].ready;
            let inject = ready.max(free_time) + self.model.stall_resume_penalty() * backlog;
            self.inject_unexpected(id, inject);
        }
    }

    // -- waits ----------------------------------------------------------------

    /// One ascending pass over the parked waiters. Completing a wait only
    /// replies (marking the rank fresh or ready) and sets no request's
    /// `complete`, so it can never make another wait ready: nothing is left
    /// for a second pass.
    fn complete_ready_waits(&mut self) {
        let mut waiting = std::mem::take(&mut self.waiting);
        waiting.retain(|&rank| !self.complete_wait_if_ready(rank));
        self.waiting = waiting;
    }

    fn complete_wait_if_ready(&mut self, rank: Rank) -> bool {
        let Some(Op::Wait { reqs, .. }) = &self.pending[rank] else {
            unreachable!("rank {rank} is listed as waiting")
        };
        if !reqs
            .iter()
            .all(|h| self.reqs[rank].get(&h).and_then(|r| r.complete).is_some())
        {
            return false;
        }
        let Some(Op::Wait { reqs, status }) = self.pending[rank].take() else {
            unreachable!()
        };
        let mut t = self.clocks[rank];
        // A zero capacity does not allocate: an ignoring wait builds nothing.
        let mut infos = Vec::with_capacity(if status { reqs.len() } else { 0 });
        for h in reqs.iter() {
            let rs = self.reqs[rank].remove(&h).expect("validated at issue");
            t = t.max(rs.complete.expect("checked complete"));
            if status {
                infos.push(rs.info);
            }
        }
        self.clocks[rank] = t;
        let reply = if status {
            Reply::Infos { clock: t, infos }
        } else {
            Reply::Time(t)
        };
        self.reply(rank, reply);
        true
    }

    // -- collectives ----------------------------------------------------------

    fn issue_collective(
        &mut self,
        rank: Rank,
        kind: CollKind,
        comm: CommId,
        root: Option<Rank>,
        bytes: u64,
        split: Option<(i64, i64)>,
    ) -> Result<(), SimError> {
        self.check_member(rank, comm)?;
        let data = &self.comms[comm as usize];
        let me = data.rel(rank).expect("checked member");
        let comm_size = data.members.len();
        if let Some(plan) = self.faults.clone() {
            if let Some(at) = plan.crash_at_collective(rank) {
                if self.colls_entered[rank] >= at {
                    // Dies on entry, before arriving at the rendezvous: the
                    // surviving participants keep waiting on this collective
                    // and show up as its wait-for edges.
                    let after = self.ops_issued[rank].saturating_sub(1);
                    self.crash_rank(rank, after);
                    return Ok(());
                }
            }
            self.colls_entered[rank] += 1;
            // Straggler model: this rank reaches the collective late. A
            // non-negative delay keeps its clock monotone, so the only
            // effect is a later `latest_arrival`.
            let seq_next = self.comms[comm as usize].entered[me];
            self.clocks[rank] += plan.coll_straggle_delay(rank, comm, seq_next);
        }
        let arrival = (self.clocks[rank], bytes, split);
        let data = &mut self.comms[comm as usize];
        let seq = data.entered[me];
        data.entered[me] += 1;
        let pos = match data.open.iter().position(|s| s.seq == seq) {
            Some(pos) => pos,
            None => {
                data.open.push_back(CollSlot {
                    kind,
                    root,
                    seq,
                    arrivals: vec![None; comm_size],
                    arrived: 0,
                });
                data.open.len() - 1
            }
        };
        let slot = &mut data.open[pos];
        if slot.kind != kind || slot.root != root {
            return Err(SimError::CollectiveMismatch {
                comm,
                expected: format!("{} (root {:?})", slot.kind, slot.root),
                found: format!("{} (root {:?})", kind, root),
                rank,
            });
        }
        slot.arrivals[me] = Some(arrival);
        slot.arrived += 1;
        if slot.arrived < comm_size {
            // keep the pending op so deadlock diagnostics can describe it
            self.pending[rank] = Some(Op::Coll {
                kind,
                comm,
                root,
                bytes,
                split,
            });
            return Ok(());
        }

        // Everyone arrived: the collective completes.
        let data = &mut self.comms[comm as usize];
        let arrivals = data.open.remove(pos).expect("slot exists").arrivals;
        let members = Arc::clone(&data.members);
        self.stats.collectives += 1;
        let arrived = arrivals.iter().map(|a| a.expect("every member arrived"));
        let latest = arrived
            .clone()
            .map(|(t, _, _)| t)
            .max()
            .unwrap_or(SimTime::ZERO);
        let total_bytes: u64 = arrived.clone().map(|(_, b, _)| b).sum();
        let finish = latest + self.model.collective(kind, comm_size, total_bytes);

        if kind == CollKind::CommSplit {
            let entries: Vec<(Rank, i64, i64)> = members
                .iter()
                .zip(arrived)
                .map(|(&r, (_, _, s))| {
                    let (color, key) = s.expect("split args present");
                    (r, color, key)
                })
                .collect();
            let mut new_comm_of: Vec<Option<Comm>> = vec![None; self.n];
            for (_color, group) in split_groups(entries) {
                let id = self.comms.len() as CommId;
                let group = Arc::new(group);
                self.comms.push(CommData::new(self.n, Arc::clone(&group)));
                for (idx, &r) in group.iter().enumerate() {
                    new_comm_of[r] = Some(Comm {
                        id,
                        rank: idx,
                        size: group.len(),
                        members: Arc::clone(&group),
                    });
                }
            }
            for &r in members.iter() {
                self.clocks[r] = finish;
                self.pending[r] = None;
                let comm = new_comm_of[r].take().expect("every rank got a group");
                self.reply(
                    r,
                    Reply::CommCreated {
                        clock: finish,
                        comm,
                    },
                );
            }
        } else {
            if kind == CollKind::Finalize {
                for &r in members.iter() {
                    self.finalized[r] = true;
                }
            }
            for &r in members.iter() {
                self.clocks[r] = finish;
                self.pending[r] = None;
                self.reply(r, Reply::Time(finish));
            }
        }
        Ok(())
    }

    // -- plumbing ---------------------------------------------------------------

    fn alloc_req(&mut self, rank: Rank, is_recv: bool, peer: Option<Rank>) -> u64 {
        let h = self.next_req[rank];
        self.next_req[rank] += 1;
        self.reqs[rank].insert(
            h,
            ReqState {
                complete: None,
                info: None,
                is_recv,
                peer,
                waited: false,
            },
        );
        h
    }

    fn reply(&mut self, rank: Rank, reply: Reply) {
        self.progressed = true;
        let mailbox = self.fibers[rank].mailbox();
        mailbox.replies.push(reply);
        if mailbox.ops.is_empty() {
            self.ready.push_back(rank);
        } else {
            // The rank queued its next op before it yielded: the next round
            // issues it — exactly when that op would have been issued had
            // the rank yielded after every call (it would arrive during the
            // next quiescence phase). The rank runs no user code for it, so
            // it stays suspended and its replies pile up in the mailbox.
            self.fresh[rank] = true;
        }
    }

    /// End the run for every live rank. `Fatal` goes behind the replies to
    /// ops that did complete, so each rank records the same events as a run
    /// that received its replies one by one.
    fn broadcast_fatal(&mut self, err: &SimError) {
        for r in 0..self.n {
            if !self.finished[r] {
                let fatal = Reply::Fatal(err.clone());
                self.fibers[r].mailbox().replies.push(fatal);
            }
        }
    }

    fn describe_blocked(&self) -> Vec<BlockedOn> {
        let mut out = Vec::new();
        for r in 0..self.n {
            let Some(op) = &self.pending[r] else { continue };
            let (what, mut waiting_on) = match op {
                Op::Wait { reqs, .. } => {
                    let parts: Vec<String> = reqs
                        .iter()
                        .map(|h| match self.reqs[r].get(&h) {
                            Some(rs) if rs.complete.is_some() => format!("req{h}(done)"),
                            Some(rs) if rs.is_recv => format!("req{h}(recv pending)"),
                            Some(_) => format!("req{h}(send pending)"),
                            None => format!("req{h}(?)"),
                        })
                        .collect();
                    // Wait-for edge: the peers of every incomplete request.
                    // An unmatched wildcard has no known peer and adds none.
                    let peers: Vec<Rank> = reqs
                        .iter()
                        .filter_map(|h| self.reqs[r].get(&h))
                        .filter(|rs| rs.complete.is_none())
                        .filter_map(|rs| rs.peer)
                        .collect();
                    (format!("MPI_Wait[{}]", parts.join(", ")), peers)
                }
                Op::Coll { kind, comm, .. } => {
                    let data = &self.comms[*comm as usize];
                    let slot = data.rel(r).and_then(|me| {
                        let seq = data.entered[me].saturating_sub(1);
                        data.open.iter().find(|s| s.seq == seq)
                    });
                    let arrived = slot.map_or(0, |s| s.arrived);
                    let members = &data.members;
                    // Wait-for edge: the members that have not arrived yet.
                    let stragglers: Vec<Rank> = slot.map_or_else(Vec::new, |s| {
                        members
                            .iter()
                            .zip(&s.arrivals)
                            .filter(|(_, a)| a.is_none())
                            .map(|(&m, _)| m)
                            .collect()
                    });
                    (
                        format!("{kind}(comm {comm}, {arrived}/{} arrived)", members.len()),
                        stragglers,
                    )
                }
                other => unreachable!("rank {r} is pending in {other:?}"),
            };
            waiting_on.sort_unstable();
            waiting_on.dedup();
            out.push(BlockedOn {
                rank: r,
                clock: self.clocks[r],
                what,
                waiting_on,
            });
        }
        out
    }
}
