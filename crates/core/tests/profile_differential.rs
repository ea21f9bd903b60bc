//! The §5.2 profile of a trace, in closed form, against the expansion.
//!
//! `verify::profile_of_trace` walks the compressed trace once, multiplying
//! each RSD by its enclosing loop counts. The reference here expands every
//! rank's event stream with `events_for_rank` and counts each event, as
//! the profile was first computed. The two must agree routine by routine,
//! calls and bytes:
//!
//! - on generated traces: nested loops (counts 0 and 1 included),
//!   multi-run rank sets, every `ValParam` form for byte volumes and wait
//!   counts (per-rank wait counts on both sides of 1), every collective
//!   kind, and `MPI_Comm_split`;
//! - on the registry at class S × {4, 16, 64, 256} ranks and class A ×
//!   {4, 16, 64} (class A and 256 ranks in release builds only, which
//!   keeps the debug tier-1 run short).

use benchgen::verify::profile_of_trace;
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::profile::RoutineStats;
use mpisim::time::SimDuration;
use mpisim::types::CollKind;
use proptest::prelude::*;
use scalatrace::cursor::{events_for_rank, ConcreteOp};
use scalatrace::params::{CommParam, RankParam, SrcParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{OpTemplate, Prsd, Rsd, Trace, TraceNode};
use std::collections::BTreeMap;

/// Every rank's concrete events, counted one by one.
fn expanded_profile(trace: &Trace) -> BTreeMap<&'static str, RoutineStats> {
    let mut raw: BTreeMap<&'static str, RoutineStats> = BTreeMap::new();
    let mut add = |name: &'static str, bytes: u64| {
        let e = raw.entry(name).or_default();
        e.calls += 1;
        e.bytes += bytes;
    };
    for rank in 0..trace.nranks {
        for ev in events_for_rank(trace, rank) {
            match ev.op {
                ConcreteOp::Send {
                    bytes, blocking, ..
                } => add(if blocking { "MPI_Send" } else { "MPI_Isend" }, bytes),
                ConcreteOp::Recv {
                    bytes, blocking, ..
                } => add(if blocking { "MPI_Recv" } else { "MPI_Irecv" }, bytes),
                ConcreteOp::Wait { count: 1 } => add("MPI_Wait", 0),
                ConcreteOp::Wait { .. } => add("MPI_Waitall", 0),
                ConcreteOp::Coll { kind, bytes, .. } => add(kind.mpi_name(), bytes),
                ConcreteOp::CommSplit { .. } => add("MPI_Comm_split", 0),
            }
        }
    }
    raw
}

fn assert_profiles_agree(trace: &Trace, what: &str) {
    let closed: BTreeMap<_, _> = profile_of_trace(trace).routines().collect();
    assert_eq!(closed, expanded_profile(trace), "{what}");
}

/// Random traces over `1..=max_ranks` ranks, built from the case's RNG.
struct Traces {
    max_ranks: u64,
}

impl Strategy for Traces {
    type Value = Trace;

    fn generate(&self, rng: &mut TestRng) -> Trace {
        let nranks = 1 + rng.below(self.max_ranks) as usize;
        let mut trace = Trace::new(nranks);
        trace.nodes = nodes(rng, nranks, 3);
        trace
    }
}

fn nodes(rng: &mut TestRng, nranks: usize, depth: u32) -> Vec<TraceNode> {
    (0..1 + rng.below(5))
        .map(|_| match rng.below(3) {
            0 if depth > 0 => TraceNode::Loop(Prsd {
                // 0 and 1 are as likely as any other count
                count: rng.below(5),
                body: nodes(rng, nranks, depth - 1),
            }),
            _ => TraceNode::Event(rsd(rng, nranks)),
        })
        .collect()
}

/// Some ranks of the world, in several runs more often than not; empty
/// now and then.
fn ranks(rng: &mut TestRng, nranks: usize) -> RankSet {
    match rng.below(4) {
        0 => RankSet::all(nranks),
        _ => RankSet::from_ranks((0..nranks).filter(|_| rng.below(3) != 0)),
    }
}

/// A value over `ranks` drawn from `pick`, in one of the four forms.
fn val(rng: &mut TestRng, ranks: &RankSet, pick: impl Fn(&mut TestRng) -> u64) -> ValParam {
    match rng.below(4) {
        0 => ValParam::Const(pick(rng)),
        1 => ValParam::Linear {
            base: pick(rng) as i64,
            slope: 1 + rng.below(3) as i64,
        },
        2 => ValParam::PerRank(ranks.iter().map(|r| (r, pick(rng))).collect()),
        _ => {
            // Disjoint pieces that cover `ranks`: split it into up to three
            // groups by a per-rank draw.
            let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for r in ranks.iter() {
                groups.entry(rng.below(3)).or_default().push(r);
            }
            ValParam::Piecewise(
                groups
                    .into_values()
                    .map(|rs| (RankSet::from_ranks(rs), pick(rng)))
                    .collect(),
            )
        }
    }
}

fn rsd(rng: &mut TestRng, nranks: usize) -> Rsd {
    let ranks = ranks(rng, nranks);
    let bytes = |rng: &mut TestRng| rng.below(3) * 1024 + rng.below(8);
    let op = match rng.below(5) {
        0 => OpTemplate::Send {
            to: RankParam::Const(0),
            tag: 0,
            bytes: val(rng, &ranks, bytes),
            comm: CommParam::Const(0),
            blocking: rng.below(2) == 0,
        },
        1 => OpTemplate::Recv {
            from: SrcParam::Any,
            tag: mpisim::types::TagSel::Any,
            bytes: val(rng, &ranks, bytes),
            comm: CommParam::Const(0),
            blocking: rng.below(2) == 0,
        },
        // Counts 0..=3: ranks waiting on one request and on several.
        2 => OpTemplate::Wait {
            count: val(rng, &ranks, |rng| rng.below(4)),
        },
        3 => OpTemplate::Coll {
            kind: CollKind::ALL[rng.below(CollKind::ALL.len() as u64) as usize],
            root: None,
            bytes: val(rng, &ranks, bytes),
            comm: CommParam::Const(0),
        },
        _ => OpTemplate::CommSplit {
            parent: 0,
            result: CommParam::Const(1),
        },
    };
    Rsd {
        ranks,
        sig: rng.below(4),
        op,
        compute: TimeStats::of(SimDuration::from_usecs(1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn closed_form_profile_matches_the_expansion(trace in Traces { max_ranks: 12 }) {
        // A failure prints the case seed, which regenerates the trace.
        assert_profiles_agree(&trace, "generated trace");
    }
}

#[test]
fn closed_form_profile_matches_the_expansion_on_the_registry() {
    let release = !cfg!(debug_assertions);
    let mut cells = vec![(Class::S, 4), (Class::S, 16), (Class::S, 64)];
    if release {
        cells.extend([
            (Class::S, 256),
            (Class::A, 4),
            (Class::A, 16),
            (Class::A, 64),
        ]);
    }
    let mut checked = 0;
    for app in registry::all() {
        for &(class, n) in &cells {
            if !(app.valid_ranks)(n) {
                continue;
            }
            checked += 1;
            let params = AppParams::class(class);
            let traced =
                scalatrace::trace_app(n, network::ideal(), move |ctx| (app.run)(ctx, &params))
                    .unwrap_or_else(|e| panic!("{} r{n} fails to trace: {e}", app.name));
            assert_profiles_agree(&traced.trace, &format!("{} {class:?} r{n}", app.name));
        }
    }
    assert!(
        checked >= cells.len() * 5,
        "only {checked} registry cells ran"
    );
}
