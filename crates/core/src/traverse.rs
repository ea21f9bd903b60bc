//! What Algorithms 1 and 2 share: per-rank event sources, the communicator
//! scan, and skipping the periods a traversal repeats.
//!
//! Both algorithms walk lazy per-rank [`Cursor`]s in sweeps, never an
//! expanded stream. What a traversal does after a *cut* — a sweep boundary
//! for Algorithm 1; for Algorithm 2 only a quiescent one, with nothing
//! pending in its matcher — is a function of its state there: each rank's
//! cursor, the collective it waits at, whether it is done, and the
//! rebuilder's per-rank buffers. Loop counters enter that function only
//! where a loop runs out.
//!
//! So [`PeriodDetector::cut`] records the state at every cut and looks for
//! it among the earlier cuts, iteration counters aside (MPISE's pruning of
//! equivalent states). When it recurs and every loop counter the walk in
//! between changed advanced by some `d ≥ 1` — or restarted at the same
//! iteration — the walk repeats node for node while no advanced counter
//! reaches its count: `m` more times
//! ([`scalatrace::cursor::Position::repeats_after`]). The detector then
//! appends the nodes that period appended to the global queue `m` more
//! times ([`SegmentedRebuilder::repeat`]) and moves every cursor on by `m`
//! periods ([`Cursor::skip`]). The output is the walk's by construction:
//! the same appends, in the same order, onto the same queue. When no state
//! recurs the traversal just keeps walking.

use crate::rebuild::SegmentedRebuilder;
use mpisim::comm::CommId;
use mpisim::types::{Fnv1a, Rank};
use scalatrace::cursor::{expand_plain, ConcreteEvent, Cursor, Position};
use scalatrace::trace::{Trace, TraceNode};
use std::collections::VecDeque;
use std::rc::Rc;

/// How many cuts back a state is looked for: the longest period found,
/// counted in cuts.
const MAX_CUTS: usize = 256;

/// Where a traversal takes one rank's events from.
pub(crate) enum Events<'t> {
    /// The lazy cursor: loops are walked, and repeated periods can be
    /// skipped.
    Walk(Cursor<'t>),
    /// The rank's stream expanded up front: the test oracle.
    Expanded(std::vec::IntoIter<ConcreteEvent>),
}

impl<'t> Events<'t> {
    pub(crate) fn of(trace: &'t Trace, rank: Rank, expanded: bool) -> Events<'t> {
        if expanded {
            Events::Expanded(expand_plain(trace, rank).into_iter())
        } else {
            Events::Walk(Cursor::new(trace, rank))
        }
    }

    pub(crate) fn next(&mut self) -> Option<ConcreteEvent> {
        match self {
            Events::Walk(c) => c.next(),
            Events::Expanded(it) => it.next(),
        }
    }

    fn cursor(&mut self) -> &mut Cursor<'t> {
        match self {
            Events::Walk(c) => c,
            Events::Expanded(_) => unreachable!("periods are skipped on cursors only"),
        }
    }
}

/// One rank of a traversal, as the period detector reads it.
pub(crate) trait Walker<'t> {
    fn events(&mut self) -> &mut Events<'t>;
    /// The collective the rank is blocked at.
    fn waiting_at(&self) -> Option<&ConcreteEvent>;
    fn done(&self) -> bool;
}

/// Every communicator with members, with them: the collective scan's list,
/// built once per traversal.
pub(crate) fn communicators(trace: &Trace) -> Vec<(CommId, &[Rank])> {
    trace
        .comms
        .ids()
        .map(|c| (c, trace.comms.members(c)))
        .filter(|(_, members)| !members.is_empty())
        .collect()
}

/// One rank's state at a cut.
struct RankAt {
    position: Position,
    waiting: Option<ConcreteEvent>,
    done: bool,
    buf: Vec<TraceNode>,
    /// Hashes the place, not the counters: equal states hash equal.
    hash: u64,
}

impl RankAt {
    fn of<'t>(w: &mut impl Walker<'t>, buf: &[TraceNode]) -> RankAt {
        let position = w.events().cursor().position();
        let waiting = w.waiting_at().cloned();
        let mut h = Fnv1a::new();
        h.write_u64(position.place_hash());
        h.write_u64(waiting.as_ref().map_or(0, |ev| ev.sig));
        h.write_u64(u64::from(w.done()));
        h.write_u64(buf.len() as u64);
        RankAt {
            position,
            waiting,
            done: w.done(),
            buf: buf.to_vec(),
            hash: h.finish(),
        }
    }

    /// Is the rank where this snapshot left it? A rank's state changes only
    /// when it walks (its cursor yields, or runs out) or when its
    /// collective completes (it stops waiting, and its buffer is taken).
    fn unchanged<'t>(&self, w: &mut impl Walker<'t>, buf: &[TraceNode]) -> bool {
        self.position.events() == w.events().cursor().events()
            && self.waiting.as_ref() == w.waiting_at()
            && self.done == w.done()
            && self.buf.len() == buf.len()
    }
}

/// The traversal's state at one cut.
struct Cut {
    hash: u64,
    /// Shared with the previous cut for every rank that did not change.
    ranks: Vec<Rc<RankAt>>,
    /// The rebuilder's append clock.
    appended: usize,
    /// The caller's running total (wildcards resolved).
    tally: u64,
}

impl Cut {
    /// How many more times the walk from `then` to `self` repeats, if it is
    /// a period.
    fn repeats_after(&self, then: &Cut) -> Option<u64> {
        let mut fit = u64::MAX;
        for (a, b) in then.ranks.iter().zip(&self.ranks) {
            if Rc::ptr_eq(a, b) {
                continue;
            }
            if a.done != b.done || a.waiting != b.waiting {
                return None;
            }
            fit = fit.min(b.position.repeats_after(&a.position)?);
            if a.buf != b.buf {
                return None;
            }
        }
        (fit != u64::MAX && fit > 0).then_some(fit)
    }
}

/// Periods skipped at one cut.
pub(crate) struct Skip {
    pub(crate) periods: u64,
    /// What one period added to the caller's tally.
    pub(crate) tally: u64,
}

/// Finds the periods a traversal repeats and skips them (module docs).
pub(crate) struct PeriodDetector {
    cuts: VecDeque<Cut>,
}

impl PeriodDetector {
    /// A detector over the traversal that feeds `rb`.
    pub(crate) fn new(rb: &mut SegmentedRebuilder) -> PeriodDetector {
        rb.record();
        PeriodDetector {
            cuts: VecDeque::new(),
        }
    }

    /// Record the state at a cut; if it repeats an earlier one, skip every
    /// period that fits.
    pub(crate) fn cut<'t, W: Walker<'t>>(
        &mut self,
        ranks: &mut [W],
        rb: &mut SegmentedRebuilder,
        tally: u64,
    ) -> Option<Skip> {
        let now = self.snapshot(ranks, rb, tally);
        // Newest first: the shortest period.
        let found = self
            .cuts
            .iter()
            .rev()
            .filter(|then| then.hash == now.hash)
            .find_map(|then| Some((now.repeats_after(then)?, then)));
        let Some((periods, then)) = found else {
            self.cuts.push_back(now);
            if self.cuts.len() > MAX_CUTS {
                self.cuts.pop_front();
                rb.forget_before(self.cuts[0].appended);
            }
            return None;
        };
        rb.repeat(then.appended, now.appended, periods);
        for ((w, a), b) in ranks.iter_mut().zip(&then.ranks).zip(&now.ranks) {
            if !Rc::ptr_eq(a, b) {
                w.events().cursor().skip(&a.position, periods);
            }
        }
        let skip = Skip {
            periods,
            tally: now.tally - then.tally,
        };
        // The cursors moved: start afresh from where they are.
        self.cuts.clear();
        let after = self.snapshot(ranks, rb, tally + periods * skip.tally);
        self.cuts.push_back(after);
        Some(skip)
    }

    fn snapshot<'t, W: Walker<'t>>(
        &self,
        ranks: &mut [W],
        rb: &SegmentedRebuilder,
        tally: u64,
    ) -> Cut {
        let prev = self.cuts.back();
        let mut h = Fnv1a::new();
        let ranks = ranks
            .iter_mut()
            .enumerate()
            .map(|(r, w)| {
                let buf = rb.buffer(r);
                let at = match prev.map(|c| &c.ranks[r]) {
                    Some(p) if p.unchanged(w, buf) => Rc::clone(p),
                    _ => Rc::new(RankAt::of(w, buf)),
                };
                h.write_u64(at.hash);
                at
            })
            .collect();
        Cut {
            hash: h.finish(),
            ranks,
            appended: rb.appended(),
            tally,
        }
    }
}
