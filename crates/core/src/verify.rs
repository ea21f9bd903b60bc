//! Verification utilities for the §5.2 correctness experiments.
//!
//! The paper links both the original application and the generated
//! benchmark against mpiP and checks that per-routine event counts and
//! volumes match. Where Table 1 substitutes a collective (Allgather →
//! REDUCE+MULTICAST, …), the generated benchmark legitimately issues
//! *different* MPI routines; [`expected_profile`] rewrites the original's
//! profile through Table 1 so the comparison remains exact for counts and
//! approximate only where the paper's own mapping averages message sizes.
//!
//! The two stages every front end shares live here as well, next to the
//! comparison that consumes their output: one mpiP-hooked run
//! ([`run_profiled`] for an application body, [`execute_profiled`] for a
//! generated program) and the §5.3 error metric ([`timing_error_pct`]).

use crate::{MAX_RANKS, OP_BUDGET};
use conceptual::ast::Program;
use conceptual::interp::run_rank;
use mpisim::ctx::Ctx;
use mpisim::error::{Budget, SimError};
use mpisim::network::NetworkModel;
use mpisim::profile::{MpiP, RoutineStats};
use mpisim::time::SimTime;
use mpisim::world::{RunReport, World};
use scalatrace::params::ValParam;
use scalatrace::rankset::RankSet;
use scalatrace::trace::{OpTemplate, Trace, TraceNode};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Run `body` on `ranks` ranks under [`OP_BUDGET`] with an [`MpiP`] hook on
/// each: one run yields the simulated time (in the report) and the profile.
pub fn run_profiled<F>(
    ranks: usize,
    network: Arc<dyn NetworkModel>,
    body: F,
) -> Result<(RunReport, MpiP), SimError>
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    let (report, hooks) = World::new(ranks)
        .network(network)
        .op_budget(OP_BUDGET)
        .run_hooked(|_| MpiP::new(), body)?;
    Ok((report, MpiP::merge_all(hooks.iter())))
}

/// [`run_profiled`] for a program generated from `source` — the
/// pipeline's execute stage. A world over [`MAX_RANKS`], or a source with
/// more events than [`OP_BUDGET`], is refused before any rank starts: each
/// traced event is at least one engine op, so that run would exhaust the
/// budget anyway.
pub fn execute_profiled(
    program: &Arc<Program>,
    source: &Trace,
    network: Arc<dyn NetworkModel>,
) -> Result<(RunReport, MpiP), SimError> {
    let (ranks, events) = (source.nranks, source.concrete_event_count());
    let checks = [
        (Budget::Ranks, MAX_RANKS as u64, ranks as u64),
        (Budget::Operations, OP_BUDGET, events),
    ];
    if let Some(&(budget, limit, observed)) = checks.iter().find(|(_, limit, n)| n > limit) {
        return Err(SimError::BudgetExceeded {
            budget,
            limit,
            observed,
            rank: None,
        });
    }
    let program = Arc::clone(program);
    run_profiled(ranks, network, move |ctx| run_rank(ctx, &program))
}

/// The paper's §5.3 accuracy metric: `|T_gen − T_app| / T_app` in percent
/// (0 for an application that took no simulated time).
pub fn timing_error_pct(t_app: SimTime, t_gen: SimTime) -> f64 {
    if t_app.as_nanos() == 0 {
        0.0
    } else {
        (t_gen.as_secs_f64() - t_app.as_secs_f64()).abs() / t_app.as_secs_f64() * 100.0
    }
}

/// Reconstruct the original application's mpiP profile (per-routine counts
/// and volumes) from its trace, without re-running the application.
///
/// The trace records every MPI event losslessly, so it holds exactly the
/// aggregate profile a live [`mpisim::profile::MpiP`] hook would have
/// collected (call-site breakdowns are not reconstructed —
/// [`compare_profiles`] only consults per-routine aggregates). This is what
/// lets a campaign verify a job from a cached trace.
///
/// One walk of the compressed trace, never of the events it expands to: an
/// RSD inside loops whose counts multiply to `m` adds `m·|ranks|` calls and
/// `m·Σ_{r∈ranks} bytes(r)` bytes to its routine, each rank's value being
/// what [`scalatrace::cursor::events_for_rank`] would give it. Loop counts
/// in parsed trace text are attacker-controlled, so every product and sum
/// saturates at `u64::MAX` instead of wrapping.
pub fn profile_of_trace(trace: &Trace) -> MpiP {
    let mut raw = BTreeMap::new();
    tally(&trace.nodes, 1, &mut raw);
    let mut p = MpiP::new();
    p.absorb_raw(raw);
    p
}

/// Add the calls and bytes of `nodes`, run `m` times, to `raw`.
fn tally(nodes: &[TraceNode], m: u64, raw: &mut BTreeMap<&'static str, RoutineStats>) {
    for node in nodes {
        let rsd = match node {
            TraceNode::Event(rsd) => rsd,
            TraceNode::Loop(p) => {
                if p.count > 0 {
                    tally(&p.body, m.saturating_mul(p.count), raw);
                }
                continue;
            }
        };
        let ranks = rsd.ranks.len() as u64;
        // Mirror `EventKind::mpi_name` / `EventKind::local_bytes`.
        match &rsd.op {
            OpTemplate::Send { bytes, .. }
            | OpTemplate::Recv { bytes, .. }
            | OpTemplate::Coll { bytes, .. } => {
                let bytes = sum_over(bytes, &rsd.ranks);
                add(raw, rsd.op.mpi_name(), m, ranks, bytes);
            }
            OpTemplate::Wait { count } => {
                let single = single_waits(count, &rsd.ranks);
                add(raw, "MPI_Wait", m, single, 0);
                add(raw, "MPI_Waitall", m, ranks - single, 0);
            }
            OpTemplate::CommSplit { .. } => add(raw, "MPI_Comm_split", m, ranks, 0),
        }
    }
}

/// `m` times over, `ranks` calls of `name` moving `bytes` between them. A
/// routine no rank calls gets no entry, as with a live hook.
fn add(
    raw: &mut BTreeMap<&'static str, RoutineStats>,
    name: &'static str,
    m: u64,
    ranks: u64,
    bytes: u64,
) {
    if ranks == 0 {
        return;
    }
    let e = raw.entry(name).or_default();
    e.calls = e.calls.saturating_add(m.saturating_mul(ranks));
    e.bytes = e.bytes.saturating_add(m.saturating_mul(bytes));
}

/// `Σ_{r∈ranks} val(r)`, saturating. Closed-form but for a per-rank table
/// (the node's own size) and a linear run that leaves `0..=i64::MAX`, where
/// each rank's value is taken as [`ValParam::eval`] wraps it.
fn sum_over(val: &ValParam, ranks: &RankSet) -> u64 {
    let sat = |s: u64, v: u64| s.saturating_add(v);
    match val {
        ValParam::Const(c) => c.saturating_mul(ranks.len() as u64),
        ValParam::Piecewise(pieces) => pieces.iter().fold(0, |s, (domain, v)| {
            sat(s, v.saturating_mul(domain.overlap_len(ranks) as u64))
        }),
        ValParam::Linear { base, slope } => ranks.runs().iter().fold(0, |s, run| {
            let at = |rank: usize| *base as i128 + *slope as i128 * rank as i128;
            let (first, last) = (at(run.start), at(run.last()));
            let exact = 0..=i64::MAX as i128;
            let sum = if exact.contains(&first) && exact.contains(&last) {
                // An arithmetic series: count · (first + last) / 2 < 2^128.
                let sum = run.count as u128 * (first + last) as u128 / 2;
                u64::try_from(sum).unwrap_or(u64::MAX)
            } else {
                (0..run.count).fold(0, |s, k| sat(s, val.eval(run.start + k * run.stride)))
            };
            sat(s, sum)
        }),
        ValParam::PerRank(_) => ranks.iter().fold(0, |s, r| sat(s, val.eval(r))),
    }
}

/// How many ranks of `ranks` wait on exactly one request (`MPI_Wait`; the
/// others call `MPI_Waitall`).
fn single_waits(count: &ValParam, ranks: &RankSet) -> u64 {
    let n = match count {
        ValParam::Const(c) => usize::from(*c == 1) * ranks.len(),
        ValParam::Piecewise(pieces) => pieces
            .iter()
            .filter(|(_, v)| *v == 1)
            .map(|(domain, _)| domain.overlap_len(ranks))
            .sum(),
        _ => ranks.iter().filter(|&r| count.eval(r) == 1).count(),
    };
    n as u64
}

/// Rewrite an original-application profile into the profile the generated
/// benchmark is expected to produce (Table 1 plus the Finalize→barrier
/// substitution).
pub fn expected_profile(original: &MpiP, nranks: usize) -> MpiP {
    let mut out: BTreeMap<&'static str, RoutineStats> = BTreeMap::new();
    let mut add = |name: &'static str, calls: u64, bytes: u64| {
        let e = out.entry(name).or_default();
        e.calls = e.calls.saturating_add(calls);
        e.bytes = e.bytes.saturating_add(bytes);
    };
    for (name, s) in original.routines() {
        match name {
            "MPI_Gather" | "MPI_Gatherv" => add("MPI_Reduce", s.calls, s.bytes),
            "MPI_Scatter" | "MPI_Scatterv" => add("MPI_Bcast", s.calls, s.bytes),
            "MPI_Allgather" | "MPI_Allgatherv" => {
                add("MPI_Reduce", s.calls, s.bytes);
                add("MPI_Bcast", s.calls, s.bytes);
            }
            "MPI_Alltoallv" => add("MPI_Alltoall", s.calls, s.bytes),
            "MPI_Reduce_scatter" => {
                // n many-to-one REDUCEs of 1/n volume each
                add("MPI_Reduce", s.calls.saturating_mul(nranks as u64), s.bytes);
            }
            "MPI_Finalize" => add("MPI_Barrier", s.calls, s.bytes),
            "MPI_Send" => add("MPI_Send", s.calls, s.bytes),
            "MPI_Isend" => add("MPI_Isend", s.calls, s.bytes),
            "MPI_Recv" => add("MPI_Recv", s.calls, s.bytes),
            "MPI_Irecv" => add("MPI_Irecv", s.calls, s.bytes),
            "MPI_Wait" => add("MPI_Wait", s.calls, s.bytes),
            "MPI_Waitall" => add("MPI_Waitall", s.calls, s.bytes),
            "MPI_Barrier" => add("MPI_Barrier", s.calls, s.bytes),
            "MPI_Bcast" => add("MPI_Bcast", s.calls, s.bytes),
            "MPI_Reduce" => add("MPI_Reduce", s.calls, s.bytes),
            "MPI_Allreduce" => add("MPI_Allreduce", s.calls, s.bytes),
            "MPI_Alltoall" => add("MPI_Alltoall", s.calls, s.bytes),
            "MPI_Comm_split" => add("MPI_Comm_split", s.calls, s.bytes),
            other => panic!("unmapped routine {other}"),
        }
    }
    let mut p = MpiP::new();
    // Feed the rewritten stats through MpiP's public surface.
    p.absorb_raw(out);
    p
}

/// Routines whose byte volumes are only preserved *on average* by Table 1
/// (the v-variants collapse per-rank sizes to their mean).
const AVERAGED: &[&str] = &["MPI_Alltoall", "MPI_Reduce", "MPI_Bcast"];

/// Compare the generated benchmark's profile against the Table-1 image of
/// the original's. Returns human-readable mismatches (empty = pass).
/// Counts must match exactly; bytes must match exactly except for routines
/// affected by size averaging, which get `tol` relative slack.
pub fn compare_profiles(expected: &MpiP, generated: &MpiP, tol: f64) -> Vec<String> {
    let mut errors = Vec::new();
    let names: std::collections::BTreeSet<&str> = expected
        .routines()
        .map(|(n, _)| n)
        .chain(generated.routines().map(|(n, _)| n))
        .collect();
    for name in names {
        let e = expected.get(name);
        let g = generated.get(name);
        if e.calls != g.calls {
            errors.push(format!(
                "{name}: call count {} (expected) vs {} (generated)",
                e.calls, g.calls
            ));
        }
        if e.bytes != g.bytes {
            let rel = (e.bytes as f64 - g.bytes as f64).abs() / (e.bytes.max(1) as f64);
            if !(AVERAGED.contains(&name) && rel <= tol) {
                errors.push(format!(
                    "{name}: bytes {} (expected) vs {} (generated, rel err {:.4})",
                    e.bytes, g.bytes, rel
                ));
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::hooks::{Event, EventKind, Hook};
    use mpisim::types::{CallSite, CollKind};

    fn event(kind: EventKind) -> Event {
        Event {
            rank: 0,
            kind,
            callsite: CallSite {
                file: "x.rs",
                line: 1,
                column: 1,
            },
            stack_sig: 0,
            t_enter: SimTime::ZERO,
            t_exit: SimTime::ZERO,
        }
    }

    fn coll(kind: CollKind, bytes: u64) -> Event {
        event(EventKind::Coll {
            kind,
            root: None,
            bytes,
            comm: 0,
        })
    }

    #[test]
    fn allgather_maps_to_reduce_plus_bcast() {
        let mut orig = MpiP::new();
        orig.on_event(&coll(CollKind::Allgather, 100));
        let exp = expected_profile(&orig, 4);
        assert_eq!(exp.get("MPI_Reduce").calls, 1);
        assert_eq!(exp.get("MPI_Bcast").calls, 1);
        assert_eq!(exp.get("MPI_Allgather").calls, 0);
    }

    #[test]
    fn reduce_scatter_multiplies_calls() {
        let mut orig = MpiP::new();
        orig.on_event(&coll(CollKind::ReduceScatter, 4096));
        let exp = expected_profile(&orig, 8);
        assert_eq!(exp.get("MPI_Reduce").calls, 8);
        assert_eq!(exp.get("MPI_Reduce").bytes, 4096);
    }

    #[test]
    fn identity_routines_pass_through() {
        let mut orig = MpiP::new();
        orig.on_event(&event(EventKind::Send {
            to: 1,
            tag: 0,
            bytes: 77,
            comm: 0,
            blocking: false,
        }));
        orig.on_event(&coll(CollKind::Finalize, 0));
        let exp = expected_profile(&orig, 2);
        assert_eq!(
            exp.get("MPI_Isend"),
            RoutineStats {
                calls: 1,
                bytes: 77
            }
        );
        assert_eq!(exp.get("MPI_Barrier").calls, 1);
    }

    #[test]
    fn comparison_tolerates_averaging_only_where_allowed() {
        let mut a = MpiP::new();
        a.on_event(&coll(CollKind::Alltoall, 1000));
        let mut b = MpiP::new();
        b.on_event(&coll(CollKind::Alltoall, 995));
        // within 1% on an averaged routine: pass
        assert!(compare_profiles(&a, &b, 0.01).is_empty());
        // exact routine with byte mismatch: fail
        let mut c = MpiP::new();
        c.on_event(&event(EventKind::Send {
            to: 1,
            tag: 0,
            bytes: 1000,
            comm: 0,
            blocking: true,
        }));
        let mut d = MpiP::new();
        d.on_event(&event(EventKind::Send {
            to: 1,
            tag: 0,
            bytes: 999,
            comm: 0,
            blocking: true,
        }));
        assert_eq!(compare_profiles(&c, &d, 0.01).len(), 1);
    }

    #[test]
    fn trace_profile_matches_live_profile() {
        use miniapps::{registry, AppParams};
        use mpisim::network;

        let app = registry::lookup("ring").unwrap();
        let params = AppParams::quick();
        let ranks = 4;
        let traced =
            scalatrace::trace_app(ranks, network::ideal(), move |ctx| (app.run)(ctx, &params))
                .unwrap();
        let (_, live) =
            run_profiled(ranks, network::ideal(), move |ctx| (app.run)(ctx, &params)).unwrap();
        let from_trace = profile_of_trace(&traced.trace);
        assert_eq!(live.diff(&from_trace), Vec::<String>::new());
    }

    /// Loops whose counts multiply past `u64::MAX` (the expansion would
    /// never finish) saturate every total instead of wrapping or
    /// panicking, and so does the Table-1 image built from them.
    #[test]
    fn profile_of_a_loop_nest_past_u64_saturates() {
        use scalatrace::params::CommParam;
        use scalatrace::timestats::TimeStats;
        use scalatrace::trace::{Prsd, Rsd};

        let event = |op| {
            TraceNode::Event(Rsd {
                ranks: RankSet::all(4),
                sig: 1,
                op,
                compute: TimeStats::new(),
            })
        };
        let body = vec![
            event(OpTemplate::Coll {
                kind: CollKind::ReduceScatter,
                root: None,
                bytes: ValParam::Const(1 << 40),
                comm: CommParam::Const(0),
            }),
            event(OpTemplate::Wait {
                count: ValParam::Const(0),
            }),
        ];
        let count = i64::MAX as u64;
        let mut nest = Prsd { count, body };
        nest = Prsd {
            count,
            body: vec![TraceNode::Loop(nest)],
        };
        let mut trace = Trace::new(4);
        trace.nodes = vec![
            TraceNode::Loop(nest),
            event(OpTemplate::Wait {
                count: ValParam::Const(1),
            }),
        ];
        let p = profile_of_trace(&trace);
        let max = RoutineStats {
            calls: u64::MAX,
            bytes: u64::MAX,
        };
        assert_eq!(p.get("MPI_Reduce_scatter"), max);
        assert_eq!(p.get("MPI_Waitall").calls, u64::MAX);
        assert_eq!(p.get("MPI_Wait"), RoutineStats { calls: 4, bytes: 0 });
        assert_eq!(p.total_calls(), u64::MAX);
        let image = expected_profile(&p, 4);
        assert_eq!(image.get("MPI_Reduce"), max);
        assert!(compare_profiles(&image, &image, 0.0).is_empty());
    }

    #[test]
    fn timing_error_is_relative_to_the_application() {
        let ns = SimTime::from_nanos;
        assert!((timing_error_pct(ns(1_000), ns(1_100)) - 10.0).abs() < 1e-9);
        assert!((timing_error_pct(ns(1_000), ns(900)) - 10.0).abs() < 1e-9);
        assert_eq!(timing_error_pct(ns(0), ns(5)), 0.0);
    }

    #[test]
    fn call_count_mismatch_is_always_an_error() {
        let mut a = MpiP::new();
        a.on_event(&coll(CollKind::Barrier, 0));
        a.on_event(&coll(CollKind::Barrier, 0));
        let mut b = MpiP::new();
        b.on_event(&coll(CollKind::Barrier, 0));
        assert_eq!(compare_profiles(&a, &b, 0.5).len(), 1);
    }
}
