//! Trace collection: the per-rank [`Tracer`] hook (the PMPI interposition
//! layer of ScalaTrace) and the [`trace_app`]/[`trace_world`] entry points.

use crate::compress::{TailCompressor, DEFAULT_MAX_WINDOW};
use crate::merge::merge_tracers;
use crate::params::{CommParam, RankParam, SrcParam, ValParam};
use crate::rankset::RankSet;
use crate::timestats::TimeStats;
use crate::trace::{CommTable, OpTemplate, Rsd, Trace, TraceNode};
use mpisim::ctx::Ctx;
use mpisim::error::SimError;
use mpisim::hooks::{Event, EventKind, Hook};
use mpisim::network::NetworkModel;
use mpisim::time::SimTime;
use mpisim::types::Src;
use mpisim::world::{RunReport, World};
use std::sync::Arc;

/// Per-rank ScalaTrace collector. Translates each interposed MPI event into
/// a single-rank RSD and appends it to the rank-local sequence with
/// on-the-fly loop compression.
pub struct Tracer {
    rank: usize,
    nranks: usize,
    seq: TailCompressor,
    /// The communicators this rank created (`MPI_COMM_WORLD` is implied by
    /// `nranks` and never stored: a table per rank would cost 8·P bytes
    /// each, 8·P² a world).
    comms: CommTable,
    last_exit: SimTime,
    /// Number of MPI events this rank recorded.
    pub events_seen: u64,
}

impl Tracer {
    /// A tracer for `rank` of `nranks` with the default compression window.
    pub fn new(rank: usize, nranks: usize) -> Tracer {
        Tracer::with_window(rank, nranks, DEFAULT_MAX_WINDOW)
    }

    /// A tracer with an explicit tail-compression window (see
    /// [`crate::compress`]).
    pub fn with_window(rank: usize, nranks: usize, max_window: usize) -> Tracer {
        Tracer {
            rank,
            nranks,
            seq: TailCompressor::new(max_window),
            comms: CommTable::default(),
            last_exit: SimTime::ZERO,
            events_seen: 0,
        }
    }

    pub(crate) fn compressor(&self) -> &TailCompressor {
        &self.seq
    }

    pub(crate) fn compressor_mut(&mut self) -> &mut TailCompressor {
        &mut self.seq
    }

    pub(crate) fn comms_ref(&self) -> &CommTable {
        &self.comms
    }

    /// The rank this tracer observes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size of the traced run.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The rank-local compressed sequence (consumed by the inter-rank
    /// merge) and the communicators this rank created. The table holds
    /// only those: `MPI_COMM_WORLD` is not in it, so a consumer starts
    /// from [`CommTable::world`] over [`Tracer::nranks`] and
    /// [`CommTable::absorb`]s every rank's table, as
    /// [`crate::merge::merge_tracers`] does.
    pub fn into_parts(self) -> (Vec<TraceNode>, CommTable) {
        (self.seq.into_nodes(), self.comms)
    }

    /// The rank-local compressed sequence collected so far.
    pub fn nodes(&self) -> &[TraceNode] {
        self.seq.nodes()
    }

    fn template_of(&mut self, kind: &EventKind) -> OpTemplate {
        match kind {
            EventKind::Send {
                to,
                tag,
                bytes,
                comm,
                blocking,
            } => OpTemplate::Send {
                to: RankParam::Const(*to),
                tag: *tag,
                bytes: ValParam::Const(*bytes),
                comm: CommParam::Const(*comm),
                blocking: *blocking,
            },
            EventKind::Recv {
                from,
                tag,
                bytes,
                comm,
                blocking,
            } => OpTemplate::Recv {
                from: match from {
                    // The wildcard is recorded unresolved — ScalaTrace "does
                    // not replace the wildcard source value with the rank of
                    // the actual sender" (paper §4.4).
                    Src::Any => SrcParam::Any,
                    Src::Rank(r) => SrcParam::Rank(RankParam::Const(*r)),
                },
                tag: *tag,
                bytes: ValParam::Const(*bytes),
                comm: CommParam::Const(*comm),
                blocking: *blocking,
            },
            EventKind::Wait { count } => OpTemplate::Wait {
                count: ValParam::Const(*count as u64),
            },
            EventKind::Coll {
                kind,
                root,
                bytes,
                comm,
            } => OpTemplate::Coll {
                kind: *kind,
                root: root.map(RankParam::Const),
                bytes: ValParam::Const(*bytes),
                comm: CommParam::Const(*comm),
            },
            EventKind::CommSplit {
                parent,
                result,
                members,
            } => {
                self.comms.insert(*result, members.as_ref().clone());
                OpTemplate::CommSplit {
                    parent: *parent,
                    result: CommParam::Const(*result),
                }
            }
        }
    }
}

impl Tracer {
    /// Translate one interposed event into its single-rank RSD node,
    /// updating the clock, communicator table, and event count — everything
    /// [`Hook::on_event`] does except appending to the compressor. Factored
    /// out so the streaming capture (`crate::stream`) can interpose its
    /// seal/reload logic between observation and append.
    pub(crate) fn observe(&mut self, event: &Event) -> TraceNode {
        let compute = event.t_enter.since(self.last_exit);
        self.last_exit = event.t_exit;
        let op = self.template_of(&event.kind);
        self.events_seen += 1;
        TraceNode::Event(Rsd {
            ranks: RankSet::single(self.rank),
            sig: event.stack_sig,
            op,
            compute: TimeStats::of(compute),
        })
    }
}

impl Hook for Tracer {
    fn on_event(&mut self, event: &Event) {
        let node = self.observe(event);
        self.seq.push(node);
    }
}

/// A completed traced run: the merged global trace plus the run report of
/// the traced execution (its `total_time` is the original application's
/// simulated wall-clock time).
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The merged global trace.
    pub trace: Trace,
    /// Run report of the traced execution.
    pub report: RunReport,
}

/// Trace `body` running on `n` ranks over `model`. The local traces are
/// merged into a single global trace "upon application completion", as the
/// ScalaTrace PMPI wrapper for `MPI_Finalize` does.
pub fn trace_app<F>(n: usize, model: Arc<dyn NetworkModel>, body: F) -> Result<TracedRun, SimError>
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    trace_world(World::new(n).network(model), n, body)
}

/// As [`trace_app`], but with a fully configured [`World`] (e.g. a custom
/// wildcard [`mpisim::engine::MatchPolicy`]).
pub fn trace_world<F>(world: World, n: usize, body: F) -> Result<TracedRun, SimError>
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    let (report, tracers) = world.run_hooked(move |r| Tracer::new(r, n), body)?;
    let trace = merge_tracers(tracers);
    Ok(TracedRun { trace, report })
}

/// A traced run that may have ended early: the merged trace covers
/// everything each rank completed before the run stopped, and `error`
/// carries the cause (e.g. [`SimError::RankFailed`] from an injected
/// crash). Exactly one of `report` / `error` is populated.
#[derive(Clone, Debug)]
pub struct PartialTracedRun {
    /// The merged global trace (partial if `error` is set).
    pub trace: Trace,
    /// Run report when the run completed normally.
    pub report: Option<RunReport>,
    /// Why the run ended early, if it did.
    pub error: Option<SimError>,
}

impl PartialTracedRun {
    /// Did the traced run complete normally?
    pub fn completed(&self) -> bool {
        self.error.is_none()
    }
}

/// As [`trace_world`], but a failed run still yields the partial trace the
/// ranks accumulated before the failure — the tracers survive engine errors
/// because each rank hands its hook back even when it is aborted.
pub fn trace_world_partial<F>(world: World, n: usize, body: F) -> PartialTracedRun
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    let (result, tracers) = world.run_hooked_partial(|r| Tracer::new(r, n), body);
    let trace = merge_tracers(tracers);
    match result {
        Ok(report) => PartialTracedRun {
            trace,
            report: Some(report),
            error: None,
        },
        Err(err) => PartialTracedRun {
            trace,
            report: None,
            error: Some(err),
        },
    }
}
