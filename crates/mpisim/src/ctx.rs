//! `Ctx` — the MPI-like API surface a rank program uses.
//!
//! Peers and roots are passed *communicator-relative* (as in MPI) and
//! translated to absolute world ranks at this boundary; everything behind it
//! (engine, hooks, [`crate::types::MsgInfo`]) speaks absolute ranks.
//!
//! Every operation is `#[track_caller]`, so the recorded call site is the
//! application source line — the analogue of the ScalaTrace stack signature
//! that the benchmark generator uses to distinguish call sites.

use crate::comm::Comm;
use crate::engine::{Handles, Mailbox, Op, Reply};
use crate::error::SimError;
use crate::fiber::Suspender;
use crate::hooks::{Event, EventKind, Hook};
use crate::time::{SimDuration, SimTime};
use crate::types::{CallSite, CollKind, Fnv1a, FxMap, MsgInfo, Rank, ReqHandle, Src, Tag, TagSel};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::panic::Location;
use std::rc::Rc;

/// Panic payload used for quiet teardown when the engine aborts a run; the
/// panic hook installed by [`crate::world::World`] suppresses its output.
/// Carries the fatal error the engine handed the rank (e.g.
/// [`SimError::RankFailed`] for an injected crash).
pub struct SimAbort(pub SimError);

/// Queued ops at which a rank yields even though no call needs a reply
/// yet: bounds per-rank deferred state (the mailbox's ops and replies and
/// the pending hook events) however long a run of deferrable calls is.
pub(crate) const WINDOW: usize = 128;

/// A hook event deferred until its operation's reply arrives.
/// The stack signature is captured at call time — the region stack may have
/// changed by the time the queue is flushed.
struct PendingEv {
    kind: EventKind,
    callsite: CallSite,
    stack_sig: u64,
    /// How many queued ops *before this one* the event's enter time
    /// anchors to: 0 = this op's own; 1 = the previous op's (a blocking
    /// send/recv is an isend/irecv followed by a wait carrying the combined
    /// event).
    span: usize,
}

/// What a stack signature is a function of: the FNV-1a state after the
/// region stack, the call site's file (by address and length: a `'static`
/// string never changes), line and column — exactly the bytes
/// [`Ctx::stack_sig_of`] hashes. Hashed as four words.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct SigKey {
    regions: u64,
    file: usize,
    len: usize,
    line_col: u64,
}

impl Hash for SigKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.regions);
        state.write_u64(self.file as u64);
        state.write_u64(self.len as u64);
        state.write_u64(self.line_col);
    }
}

/// Stack signatures already computed, shared by every rank of a run (they
/// all run on one thread): one entry per call site and region stack, so
/// an event hashes its call site's path only the first time any rank
/// meets it.
pub(crate) type SigMemo = Rc<RefCell<FxMap<SigKey, u64>>>;

/// Per-rank execution context.
pub struct Ctx {
    rank: Rank,
    n: usize,
    world: Comm,
    /// This rank's side of its coroutine: the mailbox and the yield.
    link: Suspender<Mailbox>,
    clock: SimTime,
    hook: Option<Box<dyn Hook>>,
    /// FNV-1a over the names of the regions this rank is in, each followed
    /// by a NUL: the prefix of every stack signature it makes.
    region_sig: Fnv1a,
    /// `region_sig` as it was outside each region still open.
    outer_sigs: Vec<Fnv1a>,
    /// The run's stack signatures by region state and call site.
    sigs: SigMemo,
    /// One entry per op queued in the mailbox whose reply this rank has not
    /// drained: the op's hook event, or `None` (an op reported by the next
    /// one's event, or no hook). Every op whose reply carries nothing the
    /// caller observes (nonblocking ops, computes, blocking sends,
    /// status-ignoring receives and waits, void collectives) is deferred:
    /// the rank yields only at the next value-returning op — or once
    /// `window` ops have piled up — and drains the lot's replies.
    evs: Vec<Option<PendingEv>>,
    /// Queued ops at which a call's last op flushes the queue: [`WINDOW`],
    /// or 1 for a world that crosses after every call.
    window: usize,
    /// Mirror of the engine's per-rank request-handle counter (last handle
    /// handed out): the engine allocates handles sequentially per rank, so
    /// deferred isend/irecv handles can be predicted without a round trip.
    next_handle: u64,
    /// Handles confirmed against engine replies (debug cross-check).
    confirmed_handle: u64,
    /// Reusable per-flush scratch of pre-reply clocks.
    drain_t: Vec<SimTime>,
}

impl Ctx {
    pub(crate) fn new(
        rank: Rank,
        n: usize,
        link: Suspender<Mailbox>,
        hook: Option<Box<dyn Hook>>,
        window: usize,
        sigs: SigMemo,
    ) -> Ctx {
        Ctx {
            rank,
            n,
            world: Comm::world(rank, n),
            link,
            clock: SimTime::ZERO,
            hook,
            region_sig: Fnv1a::new(),
            outer_sigs: Vec::new(),
            sigs,
            evs: Vec::new(),
            window,
            next_handle: 0,
            confirmed_handle: 0,
            drain_t: Vec::new(),
        }
    }

    /// This rank's absolute (world) rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The world communicator.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// Current virtual time on this rank. Flushes any deferred operations
    /// first, so the returned clock reflects them.
    pub fn now(&mut self) -> SimTime {
        let _ = self.flush();
        self.clock
    }

    /// Advance virtual time by `d` — the stand-in for application
    /// computation between MPI calls.
    pub fn compute(&mut self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        self.push_op(Op::Compute(d), None);
        self.close_window();
    }

    // -- point-to-point -----------------------------------------------------

    /// Nonblocking send of `bytes` to communicator rank `to`.
    #[track_caller]
    pub fn isend(&mut self, to: usize, tag: Tag, bytes: u64, comm: &Comm) -> ReqHandle {
        let site = caller();
        let abs = comm.translate(to);
        let kind = EventKind::Send {
            to: abs,
            tag,
            bytes,
            comm: comm.id,
            blocking: false,
        };
        let op = Op::ISend {
            to: abs,
            tag,
            bytes,
            comm: comm.id,
        };
        let h = self.predict_handle();
        self.defer(op, kind, site, 0);
        h
    }

    /// Nonblocking receive of `bytes` from communicator rank `from` (or
    /// [`Src::Any`] for `MPI_ANY_SOURCE`).
    #[track_caller]
    pub fn irecv(&mut self, from: Src, tag: TagSel, bytes: u64, comm: &Comm) -> ReqHandle {
        let site = caller();
        let abs_from = self.translate_src(from, comm);
        let kind = EventKind::Recv {
            from: abs_from,
            tag,
            bytes,
            comm: comm.id,
            blocking: false,
        };
        let op = Op::IRecv {
            from: abs_from,
            tag,
            bytes,
            comm: comm.id,
        };
        let h = self.predict_handle();
        self.defer(op, kind, site, 0);
        h
    }

    /// Blocking send (internally isend + wait, reported as one `MPI_Send`).
    #[track_caller]
    pub fn send(&mut self, to: usize, tag: Tag, bytes: u64, comm: &Comm) {
        let site = caller();
        let abs = comm.translate(to);
        let kind = EventKind::Send {
            to: abs,
            tag,
            bytes,
            comm: comm.id,
            blocking: true,
        };
        let h = self.predict_handle();
        self.push_op(
            Op::ISend {
                to: abs,
                tag,
                bytes,
                comm: comm.id,
            },
            None,
        );
        // The wait returns nothing the caller can observe, so it is
        // deferred too: a run of blocking sends yields once, at the next
        // value-returning call. The engine issues the queue in order, so
        // rendezvous blocking happens at the same virtual time whenever the
        // rank yields.
        let wait = Op::Wait {
            reqs: Handles::one(h),
            status: false,
        };
        self.defer(wait, kind, site, 1);
    }

    /// Blocking receive; returns the resolved status (absolute source rank).
    #[track_caller]
    pub fn recv(&mut self, from: Src, tag: TagSel, bytes: u64, comm: &Comm) -> MsgInfo {
        let infos = self.recv_at(from, tag, bytes, comm, caller(), true);
        infos[0].expect("receive completes with a status")
    }

    /// Blocking receive whose status the caller does not need (the
    /// `MPI_STATUS_IGNORE` analogue). Same operation, event and virtual
    /// time as [`Ctx::recv`], but deferred exactly as a blocking
    /// [`Ctx::send`] is, instead of flushing the queue.
    #[track_caller]
    pub fn recv_ignore(&mut self, from: Src, tag: TagSel, bytes: u64, comm: &Comm) {
        self.recv_at(from, tag, bytes, comm, caller(), false);
    }

    /// Wait for one request; `Some(status)` if it was a receive.
    #[track_caller]
    pub fn wait(&mut self, h: ReqHandle) -> Option<MsgInfo> {
        self.wait_at(Handles::one(h), caller(), true)[0]
    }

    /// Wait for all listed requests; statuses are returned in request order
    /// (`Some` for receives).
    #[track_caller]
    pub fn waitall(&mut self, hs: &[ReqHandle]) -> Vec<Option<MsgInfo>> {
        self.wait_at(Handles::of(hs), caller(), true)
    }

    /// [`Ctx::wait`] without the status (`MPI_STATUS_IGNORE`): deferred.
    #[track_caller]
    pub fn wait_ignore(&mut self, h: ReqHandle) {
        self.wait_at(Handles::one(h), caller(), false);
    }

    /// [`Ctx::waitall`] without the statuses (`MPI_STATUSES_IGNORE`):
    /// deferred.
    #[track_caller]
    pub fn waitall_ignore(&mut self, hs: &[ReqHandle]) {
        self.wait_at(Handles::of(hs), caller(), false);
    }

    // -- collectives ----------------------------------------------------------
    //
    // For every collective, `bytes` is this rank's local contribution (the
    // quantity an mpiP-style profiler attributes to the rank); the engine
    // sums contributions for the aggregate cost model.

    /// `MPI_Barrier` over `comm`.
    #[track_caller]
    pub fn barrier(&mut self, comm: &Comm) {
        self.collective(CollKind::Barrier, comm, None, 0, caller());
    }

    /// `MPI_Bcast`: `root` (communicator-relative) sends `bytes` to every member.
    #[track_caller]
    pub fn bcast(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Bcast, comm, Some(root), bytes, caller());
    }

    /// `MPI_Reduce` of `bytes` per member to communicator-relative `root`.
    #[track_caller]
    pub fn reduce(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Reduce, comm, Some(root), bytes, caller());
    }

    /// `MPI_Allreduce` of `bytes` per member.
    #[track_caller]
    pub fn allreduce(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Allreduce, comm, None, bytes, caller());
    }

    /// `MPI_Gather`: every member contributes `bytes` to `root`.
    #[track_caller]
    pub fn gather(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Gather, comm, Some(root), bytes, caller());
    }

    /// `MPI_Gatherv`: this member contributes its own `bytes` to `root`.
    #[track_caller]
    pub fn gatherv(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Gatherv, comm, Some(root), bytes, caller());
    }

    /// `MPI_Scatter`: `root` distributes `bytes` to each member.
    #[track_caller]
    pub fn scatter(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Scatter, comm, Some(root), bytes, caller());
    }

    /// `MPI_Scatterv`: this member receives its own `bytes` from `root`.
    #[track_caller]
    pub fn scatterv(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Scatterv, comm, Some(root), bytes, caller());
    }

    /// `MPI_Allgather` with per-member contribution `bytes`.
    #[track_caller]
    pub fn allgather(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Allgather, comm, None, bytes, caller());
    }

    /// `MPI_Allgatherv` with this member's contribution `bytes`.
    #[track_caller]
    pub fn allgatherv(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Allgatherv, comm, None, bytes, caller());
    }

    /// `MPI_Alltoall`; `bytes` is this member's total outgoing volume.
    #[track_caller]
    pub fn alltoall(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Alltoall, comm, None, bytes, caller());
    }

    /// `MPI_Alltoallv`; `bytes` is this member's total outgoing volume.
    #[track_caller]
    pub fn alltoallv(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Alltoallv, comm, None, bytes, caller());
    }

    /// `MPI_Reduce_scatter` with this member's contribution `bytes`.
    #[track_caller]
    pub fn reduce_scatter(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::ReduceScatter, comm, None, bytes, caller());
    }

    /// `MPI_Finalize`, synchronising the world communicator (and, as in the
    /// paper's algorithms, treated as a collective).
    #[track_caller]
    pub fn finalize(&mut self) {
        let world = self.world();
        self.collective(CollKind::Finalize, &world, None, 0, caller());
    }

    /// `MPI_Comm_dup`: a new communicator with identical membership and
    /// numbering (realised as a colour-0 split keyed by the current rank).
    #[track_caller]
    pub fn comm_dup(&mut self, comm: &Comm) -> Comm {
        self.comm_split(comm, 0, comm.rank as i64)
    }

    /// `MPI_Comm_split` over `comm` with this rank's `(color, key)`.
    #[track_caller]
    pub fn comm_split(&mut self, comm: &Comm, color: i64, key: i64) -> Comm {
        let site = caller();
        let op = Op::Coll {
            kind: CollKind::CommSplit,
            comm: comm.id,
            root: None,
            bytes: 0,
            split: Some((color, key)),
        };
        // The event needs the reply's member list, so it cannot be
        // deferred; `submit` hands back the op's own enter time.
        let (reply, t_enter) = self.submit(op, None);
        match reply {
            Reply::CommCreated { comm: new, .. } => {
                let kind = EventKind::CommSplit {
                    parent: comm.id,
                    result: new.id,
                    members: new.members.clone(),
                };
                let stack_sig = self.stack_sig_of(&site);
                self.emit_raw(kind, site, stack_sig, t_enter);
                new
            }
            other => self.protocol_error("comm_split", &other),
        }
    }

    // -- regions (stack-signature structure) ------------------------------------

    /// Run `f` inside a named region. Region names participate in the stack
    /// signature attached to every event, modelling deeper call paths than
    /// the immediate call site.
    pub fn region<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.outer_sigs.push(self.region_sig);
        self.region_sig.write(name.as_bytes());
        self.region_sig.write(&[0]);
        let r = f(self);
        self.region_sig = self.outer_sigs.pop().expect("entered above");
        r
    }

    // -- internals ----------------------------------------------------------------

    fn translate_src(&self, from: Src, comm: &Comm) -> Src {
        match from {
            Src::Rank(rel) => Src::Rank(comm.translate(rel)),
            Src::Any => Src::Any,
        }
    }

    /// Blocking receive (irecv + wait, reported as one `MPI_Recv`). Returns
    /// the statuses if `want_status`, else nothing: then the wait is
    /// deferred like a blocking send's.
    fn recv_at(
        &mut self,
        from: Src,
        tag: TagSel,
        bytes: u64,
        comm: &Comm,
        site: CallSite,
        want_status: bool,
    ) -> Vec<Option<MsgInfo>> {
        let abs_from = self.translate_src(from, comm);
        let kind = EventKind::Recv {
            from: abs_from,
            tag,
            bytes,
            comm: comm.id,
            blocking: true,
        };
        let h = self.predict_handle();
        self.push_op(
            Op::IRecv {
                from: abs_from,
                tag,
                bytes,
                comm: comm.id,
            },
            None,
        );
        self.wait_entry(Handles::one(h), kind, site, 1, want_status)
    }

    fn wait_at(
        &mut self,
        reqs: Handles,
        site: CallSite,
        want_status: bool,
    ) -> Vec<Option<MsgInfo>> {
        let kind = EventKind::Wait { count: reqs.len() };
        self.wait_entry(reqs, kind, site, 0, want_status)
    }

    /// Queue a wait: flushed now when the caller wants the statuses,
    /// deferred when it does not (the engine then replies with the clock
    /// alone, and nothing is allocated for statuses nobody reads).
    fn wait_entry(
        &mut self,
        reqs: Handles,
        kind: EventKind,
        site: CallSite,
        span: usize,
        want_status: bool,
    ) -> Vec<Option<MsgInfo>> {
        let wait = Op::Wait {
            reqs,
            status: want_status,
        };
        if !want_status {
            self.defer(wait, kind, site, span);
            return Vec::new();
        }
        let ev = self.mk_ev(kind, site, span);
        match self.submit(wait, ev) {
            (Reply::Infos { infos, .. }, _) => infos,
            (other, _) => self.protocol_error("wait", &other),
        }
    }

    fn collective(
        &mut self,
        kind: CollKind,
        comm: &Comm,
        root: Option<Rank>,
        bytes: u64,
        site: CallSite,
    ) {
        let ev_kind = EventKind::Coll {
            kind,
            root,
            bytes,
            comm: comm.id,
        };
        let op = Op::Coll {
            kind,
            comm: comm.id,
            root,
            bytes,
            split: None,
        };
        // Collectives reply with nothing but a clock, so they defer like
        // blocking sends: rank synchronisation is a virtual-time affair the
        // engine enforces whenever the rank yields.
        self.defer(op, ev_kind, site, 0);
    }

    /// Predict the handle the engine will allocate for the next deferred
    /// isend/irecv (handles are sequential per rank; cross-checked against
    /// the replies in `apply_clock`).
    fn predict_handle(&mut self) -> ReqHandle {
        self.next_handle += 1;
        ReqHandle(self.next_handle)
    }

    /// Push `op` onto the mailbox's queue and its hook event beside it.
    fn push_op(&mut self, op: Op, ev: Option<PendingEv>) {
        self.link.mailbox().ops.push_back(op);
        self.evs.push(ev);
    }

    /// Queue a nonblocking op together with its deferred hook event.
    fn defer(&mut self, op: Op, kind: EventKind, callsite: CallSite, span: usize) {
        let ev = self.mk_ev(kind, callsite, span);
        self.push_op(op, ev);
        self.close_window();
    }

    /// Flush the queue once it holds `window` ops. Called only after a
    /// call's last op is queued, so an isend/irecv and the wait whose event
    /// spans it are always flushed together.
    fn close_window(&mut self) {
        if self.evs.len() >= self.window {
            let _ = self.flush();
        }
    }

    /// Build the deferred event record for an op being queued (`None` when
    /// no hook is installed).
    fn mk_ev(&self, kind: EventKind, callsite: CallSite, span: usize) -> Option<PendingEv> {
        self.hook.as_ref()?;
        Some(PendingEv {
            kind,
            stack_sig: self.stack_sig_of(&callsite),
            callsite,
            span,
        })
    }

    /// Queue `last` behind any deferred ops and flush the queue. Returns
    /// the final reply and the virtual time at which the final op began
    /// (its would-be `t_enter`).
    fn submit(&mut self, last: Op, ev: Option<PendingEv>) -> (Reply, SimTime) {
        self.push_op(last, ev);
        self.flush().expect("queue is non-empty")
    }

    /// Drain one reply per queued op, if any. Returns the last reply and
    /// the virtual time at which its op began.
    fn flush(&mut self) -> Option<(Reply, SimTime)> {
        if self.evs.is_empty() {
            return None;
        }
        match self.drain() {
            Ok(out) => out,
            Err(abort) => std::panic::panic_any(abort),
        }
    }

    /// Drain one reply per queued op — updating the clock and emitting each
    /// deferred hook event with the clocks before and after its own op,
    /// whatever else was queued with it. The rank yields only while it
    /// still expects replies, and only if they are not already there. The
    /// engine resumes the rank once every queued op has its reply; only a
    /// dying run cuts the replies short (replies to the ops that completed,
    /// then `Fatal`), which ends the drain with `Err` after the completed
    /// ops' events are emitted. Replies beyond these ops (a `Fatal` given
    /// before the rank took its last replies) stay in the mailbox for the
    /// next drain.
    fn drain(&mut self) -> Result<Option<(Reply, SimTime)>, SimAbort> {
        let mut t_befores = std::mem::take(&mut self.drain_t);
        t_befores.clear();
        let mut queued = std::mem::take(&mut self.evs);
        let mut evs = queued.drain(..);
        let mut out = None;
        while evs.len() > 0 {
            if self.link.mailbox().replies.is_empty() {
                self.link.suspend();
            }
            let mut replies = std::mem::take(&mut self.link.mailbox().replies);
            let take = replies.len().min(evs.len());
            for reply in replies.drain(..take) {
                if let Reply::Fatal(err) = reply {
                    return Err(SimAbort(err));
                }
                let ev = evs.next().expect("the engine replies once per op");
                let t_before = self.clock;
                t_befores.push(t_before);
                self.apply_clock(&reply);
                if let Some(ev) = ev {
                    // A blocking send/recv anchors to its isend/irecv one
                    // slot back (span 1), everything else to itself.
                    let t_enter = t_befores[t_befores.len() - 1 - ev.span];
                    self.emit_raw(ev.kind, ev.callsite, ev.stack_sig, t_enter);
                }
                out = Some((reply, t_before));
            }
            // Back into the mailbox: the leftovers, or an empty vector whose
            // capacity the engine's next replies reuse.
            self.link.mailbox().replies = replies;
        }
        drop(evs);
        self.evs = queued;
        self.drain_t = t_befores;
        Ok(out)
    }

    /// Update the local clock from an engine reply.
    fn apply_clock(&mut self, reply: &Reply) {
        match reply {
            Reply::Time(t) => self.clock = *t,
            Reply::Handle { clock, handle } => {
                self.clock = *clock;
                self.confirmed_handle += 1;
                debug_assert_eq!(
                    *handle, self.confirmed_handle,
                    "predicted request handle out of sync with engine"
                );
            }
            Reply::Infos { clock, .. } => self.clock = *clock,
            Reply::CommCreated { clock, .. } => self.clock = *clock,
            Reply::Fatal(_) => {}
        }
    }

    fn protocol_error(&self, what: &str, got: &Reply) -> ! {
        panic!("engine protocol violation in {what}: unexpected reply {got:?}")
    }

    /// FNV-1a over the region stack plus the call site — the stack
    /// signature attached to every event: each region's name and a NUL,
    /// the file's bytes, then line and column as little-endian `u64`s.
    /// Hashed once per call site and region stack, then looked up.
    fn stack_sig_of(&self, callsite: &CallSite) -> u64 {
        let key = SigKey {
            regions: self.region_sig.finish(),
            file: callsite.file.as_ptr() as usize,
            len: callsite.file.len(),
            line_col: (callsite.line as u64) << 32 | callsite.column as u64,
        };
        *self.sigs.borrow_mut().entry(key).or_insert_with(|| {
            let mut h = self.region_sig;
            h.write(callsite.file.as_bytes());
            h.write_u64(callsite.line as u64);
            h.write_u64(callsite.column as u64);
            h.finish()
        })
    }

    fn emit_raw(&mut self, kind: EventKind, callsite: CallSite, stack_sig: u64, t_enter: SimTime) {
        let Some(hook) = self.hook.as_mut() else {
            return;
        };
        let event = Event {
            rank: self.rank,
            kind,
            callsite,
            stack_sig,
            t_enter,
            t_exit: self.clock,
        };
        hook.on_event(&event);
    }

    /// The exit paths run outside the body's `catch_unwind`, so they must
    /// not unwind: a `Fatal` reply just ends the drain. Hook events for the
    /// deferred ops are still emitted, so partial traces stay complete.
    pub(crate) fn send_exited(&mut self) {
        // The exit is queued behind the deferred ops.
        self.link.mailbox().ops.push_back(Op::Exited);
        let _ = self.drain();
    }

    pub(crate) fn send_panicked(&mut self, message: String) {
        // Drain any ops deferred before the panic first, so the partial
        // trace holds every call the body completed and the engine finds
        // the panic at the front of the queue.
        if !self.evs.is_empty() {
            let _ = self.drain();
        }
        self.link.mailbox().ops.push_back(Op::Panicked(message));
    }

    /// Leave this rank's hook in the mailbox for the world to collect.
    pub(crate) fn finish(&mut self) {
        let hook = self.hook.take();
        self.link.mailbox().hook = hook;
    }
}

#[track_caller]
fn caller() -> CallSite {
    CallSite::from_location(Location::caller())
}

/// Convenience: an error type alias for rank bodies that want to bubble up
/// simulation errors explicitly rather than panicking.
pub type SimResult<T> = Result<T, SimError>;
