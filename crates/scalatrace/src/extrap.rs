//! Trace extrapolation to a different rank count — the paper's §6 future
//! work ("the ability to generate benchmarks that can be executed with
//! arbitrary number of MPI processes still remains an open problem"; the
//! authors point at their ScalaExtrap follow-on \[26\]).
//!
//! This is a conservative implementation for *regular SPMD traces*: every
//! RSD must cover a rank set expressible as a function of the world size
//! (all ranks, a fixed prefix, a fixed suffix, a stride over the whole
//! world), and every parameter must be world-size-generic (`rank+d`,
//! `(rank+d) mod N`, `rank XOR m`, or a constant). Such a trace — e.g. a
//! ring or torus halo pattern traced at 8 ranks — can be rewritten for any
//! larger world, and the rewritten trace feeds the normal benchmark
//! generator. Traces with rank-irregular structure (wavefront corner
//! classes, per-rank tables) are refused with a diagnostic rather than
//! extrapolated wrongly.

use crate::params::{CommParam, RankParam, SrcParam};
use crate::rankset::RankSet;
use crate::trace::{OpTemplate, Prsd, Trace, TraceNode};
use std::fmt;

/// The largest world [`extrapolate`] rewrites a trace for. The result's
/// communicator table lists every target rank (8 bytes each), so the cost
/// is linear in the target. Measured (release, 2-vCPU VM) as `commgen --app
/// mg --ranks 16 --extrapolate N -o /dev/null`: N = 2^20 peaks at 13.7 MB
/// resident in about 10 ms, as small a target does; 2^24 at 132 MB in
/// 70 ms; 10^9 took 11.6 s, 10.3 s of it in the kernel. 2^20 admits 16
/// times the 65 536 ranks of the largest scaling target, and an admitted
/// rewrite stays within a few MB of any other.
pub const MAX_TARGET_RANKS: usize = 1 << 20;

/// Why a trace could not be extrapolated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtrapError(pub String);

impl fmt::Display for ExtrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot extrapolate the trace: {}", self.0)
    }
}

impl std::error::Error for ExtrapError {}

/// Rewrite `trace` (recorded on `trace.nranks` ranks) for a world of
/// `new_n` ranks, at most [`MAX_TARGET_RANKS`].
pub fn extrapolate(trace: &Trace, new_n: usize) -> Result<Trace, ExtrapError> {
    if new_n > MAX_TARGET_RANKS {
        return Err(ExtrapError(format!(
            "{new_n} ranks exceed the cap of {MAX_TARGET_RANKS}"
        )));
    }
    let old_n = trace.nranks;
    if new_n < 2 || old_n < 2 {
        return Err(ExtrapError("need at least 2 ranks on both sides".into()));
    }
    if trace.comms.ids().any(|id| id != 0) {
        return Err(ExtrapError(
            "subcommunicators present; communicator topology cannot be inferred".into(),
        ));
    }
    let mut nodes = Vec::with_capacity(trace.nodes.len());
    for n in &trace.nodes {
        nodes.push(extrapolate_node(n, old_n, new_n)?);
    }
    Ok(Trace {
        nranks: new_n,
        nodes,
        comms: crate::trace::CommTable::world(new_n),
    })
}

fn extrapolate_node(
    node: &TraceNode,
    old_n: usize,
    new_n: usize,
) -> Result<TraceNode, ExtrapError> {
    match node {
        TraceNode::Loop(p) => {
            let body = p
                .body
                .iter()
                .map(|b| extrapolate_node(b, old_n, new_n))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TraceNode::Loop(Prsd {
                count: p.count,
                body,
            }))
        }
        TraceNode::Event(rsd) => {
            let mut rsd = rsd.clone();
            rsd.ranks = extrapolate_ranks(&rsd.ranks, old_n, new_n)?;
            rsd.op = extrapolate_op(&rsd.op, old_n, new_n)?;
            Ok(TraceNode::Event(rsd))
        }
    }
}

/// Rewrite a rank set as a function of the world size.
fn extrapolate_ranks(ranks: &RankSet, old_n: usize, new_n: usize) -> Result<RankSet, ExtrapError> {
    if ranks.len() == old_n {
        return Ok(RankSet::all(new_n));
    }
    let runs = ranks.runs();
    if runs.len() == 1 {
        let r = runs[0];
        let last = r.start + r.stride * (r.count - 1);
        if r.count == 1 {
            // singletons: the last rank tracks the world edge; interior
            // ranks are fixed roots
            return if r.start == old_n - 1 {
                Ok(RankSet::single(new_n - 1))
            } else {
                Ok(ranks.clone())
            };
        }
        // a contiguous run ending one short of the world edge tracks that
        // edge — the sender side of a pipeline ({0..n-2}), its interior
        // ({1..n-2}), or the unwrapped piece of a broken ring: the start
        // is a fixed root, the end stretches with the world
        if r.stride == 1 && last == old_n - 2 {
            return Ok(RankSet::from_ranks(r.start..new_n - 1));
        }
        // fixed prefix {0..k} with k well inside the old world: keep
        if r.start == 0 && r.stride == 1 && last < old_n - 1 {
            return Ok(ranks.clone());
        }
        // suffix anchored at the end: {k..old_n-1} → {k..new_n-1}
        if last == old_n - 1 && r.stride == 1 {
            return Ok(RankSet::from_ranks(r.start..new_n));
        }
        // stride covering the world: {s, s+k, s+2k, …} reaching the edge
        if r.start < r.stride && last + r.stride >= old_n {
            return Ok(RankSet::from_ranks(
                (0..new_n).filter(|x| x % r.stride == r.start),
            ));
        }
    }
    Err(ExtrapError(format!(
        "rank set {ranks} is not a recognisable function of the world size"
    )))
}

fn extrapolate_rank_param(
    p: &RankParam,
    old_n: usize,
    new_n: usize,
) -> Result<RankParam, ExtrapError> {
    match p {
        // a constant equal to the last rank is ambiguous (fixed rank vs.
        // "the last rank") — refuse rather than guess
        RankParam::Const(c) if *c == old_n - 1 => Err(ExtrapError(format!(
            "constant peer {c} coincides with the last rank (ambiguous)"
        ))),
        RankParam::Const(c) if *c < old_n => Ok(p.clone()),
        RankParam::Const(c) => Err(ExtrapError(format!("constant peer {c} out of range"))),
        RankParam::Offset(_) | RankParam::Xor(_) => Ok(p.clone()),
        RankParam::OffsetMod { offset, modulus } if *modulus == old_n => {
            // normalise the offset's sign: `(rank+7) mod 8` is really
            // `rank-1`, which must become `(rank+31) mod 32`, not
            // `(rank+7) mod 32`
            let signed = if *offset > old_n as i64 / 2 {
                *offset - old_n as i64
            } else {
                *offset
            };
            Ok(RankParam::OffsetMod {
                offset: signed.rem_euclid(new_n as i64),
                modulus: new_n,
            })
        }
        RankParam::OffsetMod { .. } => Err(ExtrapError(
            "modular peer whose modulus is not the world size".into(),
        )),
        RankParam::Piecewise(ps) => {
            // each piece extrapolates independently: the domain as a
            // function of the world size, the closed form as a peer
            let pieces = ps
                .iter()
                .map(|(s, f)| {
                    let dom = extrapolate_ranks(s, old_n, new_n)?;
                    let func = match extrapolate_rank_param(&f.into_param(), old_n, new_n)?.as_fn()
                    {
                        Some(f) => f,
                        None => unreachable!("closed forms extrapolate to closed forms"),
                    };
                    Ok((dom, func))
                })
                .collect::<Result<Vec<_>, ExtrapError>>()?;
            Ok(RankParam::Piecewise(pieces))
        }
        RankParam::PerRank(_) => {
            // the dense escape hatch may still hide a stride-expressible
            // pattern (e.g. decoded from a legacy file): re-fit it
            // before refusing
            match p.canonical() {
                RankParam::PerRank(_) => Err(ExtrapError(
                    "per-rank peer table (irregular pattern)".into(),
                )),
                c => extrapolate_rank_param(&c, old_n, new_n),
            }
        }
    }
}

fn extrapolate_val(
    v: &crate::params::ValParam,
    old_n: usize,
    new_n: usize,
) -> Result<crate::params::ValParam, ExtrapError> {
    use crate::params::ValParam;
    match v {
        // constants and rank-proportional sizes are world-independent
        ValParam::Const(_) | ValParam::Linear { .. } => Ok(v.clone()),
        ValParam::Piecewise(ps) => {
            let pieces = ps
                .iter()
                .map(|(s, val)| Ok((extrapolate_ranks(s, old_n, new_n)?, *val)))
                .collect::<Result<Vec<_>, ExtrapError>>()?;
            Ok(ValParam::Piecewise(pieces))
        }
        ValParam::PerRank(_) => match v.canonical() {
            ValParam::PerRank(_) => {
                Err(ExtrapError("per-rank value table (irregular sizes)".into()))
            }
            c => extrapolate_val(&c, old_n, new_n),
        },
    }
}

fn extrapolate_op(op: &OpTemplate, old_n: usize, new_n: usize) -> Result<OpTemplate, ExtrapError> {
    let check_comm = |c: &CommParam| -> Result<CommParam, ExtrapError> {
        match c {
            CommParam::Const(0) => Ok(CommParam::Const(0)),
            _ => Err(ExtrapError("non-world communicator".into())),
        }
    };
    let check_val = |v: &crate::params::ValParam| extrapolate_val(v, old_n, new_n);
    Ok(match op {
        OpTemplate::Send {
            to,
            tag,
            bytes,
            comm,
            blocking,
        } => OpTemplate::Send {
            to: extrapolate_rank_param(to, old_n, new_n)?,
            tag: *tag,
            bytes: check_val(bytes)?,
            comm: check_comm(comm)?,
            blocking: *blocking,
        },
        OpTemplate::Recv {
            from,
            tag,
            bytes,
            comm,
            blocking,
        } => OpTemplate::Recv {
            from: match from {
                SrcParam::Any => SrcParam::Any,
                SrcParam::Rank(p) => SrcParam::Rank(extrapolate_rank_param(p, old_n, new_n)?),
            },
            tag: *tag,
            bytes: check_val(bytes)?,
            comm: check_comm(comm)?,
            blocking: *blocking,
        },
        OpTemplate::Wait { count } => OpTemplate::Wait {
            count: check_val(count)?,
        },
        OpTemplate::Coll {
            kind,
            root,
            bytes,
            comm,
        } => OpTemplate::Coll {
            kind: *kind,
            root: match root {
                Some(r) => Some(extrapolate_rank_param(r, old_n, new_n)?),
                None => None,
            },
            bytes: check_val(bytes)?,
            comm: check_comm(comm)?,
        },
        OpTemplate::CommSplit { .. } => {
            return Err(ExtrapError("communicator split (topology unknown)".into()))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::trace_app;
    use crate::cursor::semantically_equal;
    use mpisim::network;
    use mpisim::time::SimDuration;
    use mpisim::types::{Src, TagSel};

    fn ring(iters: usize) -> impl Fn(&mut mpisim::ctx::Ctx) + Send + Sync + Clone + 'static {
        move |ctx: &mut mpisim::ctx::Ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..iters {
                let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 1024, &w);
                let s = ctx.isend(right, 0, 1024, &w);
                ctx.compute(SimDuration::from_usecs(50));
                ctx.waitall(&[r, s]);
            }
            ctx.allreduce(8, &w);
            ctx.finalize();
        }
    }

    #[test]
    fn ring_extrapolates_to_a_real_larger_trace() {
        let small = trace_app(8, network::ideal(), ring(20)).unwrap().trace;
        let big = extrapolate(&small, 64).expect("regular SPMD trace");
        assert_eq!(big.nranks, 64);
        // ground truth: actually run the ring at 64 ranks
        let truth = trace_app(64, network::ideal(), ring(20)).unwrap().trace;
        semantically_equal(&big, &truth).expect("extrapolated trace matches reality");
    }

    #[test]
    fn extrapolated_trace_generates_and_runs() {
        let small = trace_app(8, network::ideal(), ring(10)).unwrap().trace;
        let big = extrapolate(&small, 32).expect("extrapolates");
        // the extrapolated trace must be a valid generator input: replay it
        let report = crate::replay::replay(&big, network::ideal()).expect("replays at 32 ranks");
        assert_eq!(report.ranks, 32);
        assert_eq!(report.stats.messages, 32 * 10);
    }

    #[test]
    fn irregular_traces_are_refused() {
        // wavefront: rank classes differ (corner/interior), peers are
        // per-rank-ish on general grids → refuse rather than guess
        let t = trace_app(6, network::ideal(), |ctx| {
            let w = ctx.world();
            if ctx.rank() == 2 {
                ctx.send(5, 0, 64, &w);
            } else if ctx.rank() == 5 {
                let _ = ctx.recv(Src::Rank(2), TagSel::Is(0), 64, &w);
            }
            ctx.finalize();
        })
        .unwrap()
        .trace;
        // the send targets the last rank by constant — ambiguous
        let err = extrapolate(&t, 12).unwrap_err();
        assert!(err.0.contains("ambiguous"), "{err}");
    }

    #[test]
    fn targets_past_the_cap_are_refused_before_any_work() {
        let small = trace_app(8, network::ideal(), ring(2)).unwrap().trace;
        assert_eq!(extrapolate(&small, 65_536).unwrap().nranks, 65_536);
        let err = extrapolate(&small, MAX_TARGET_RANKS + 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "cannot extrapolate the trace: {} ranks exceed the cap of {MAX_TARGET_RANKS}",
                MAX_TARGET_RANKS + 1
            )
        );
        assert!(extrapolate(&small, usize::MAX).is_err());
    }

    #[test]
    fn subcommunicators_are_refused() {
        let t = trace_app(4, network::ideal(), |ctx| {
            let w = ctx.world();
            let sub = ctx.comm_split(&w, (ctx.rank() % 2) as i64, 0);
            ctx.allreduce(8, &sub);
            ctx.finalize();
        })
        .unwrap()
        .trace;
        let err = extrapolate(&t, 8).unwrap_err();
        assert!(err.0.contains("communicator"), "{err}");
    }

    #[test]
    fn strided_and_suffix_sets_rewrite() {
        let evens = RankSet::from_ranks((0..8).step_by(2));
        let out = extrapolate_ranks(&evens, 8, 16).unwrap();
        assert_eq!(out, RankSet::from_ranks((0..16).step_by(2)));

        let suffix = RankSet::from_ranks(5..8);
        let out = extrapolate_ranks(&suffix, 8, 16).unwrap();
        assert_eq!(out, RankSet::from_ranks(5..16));

        let root = RankSet::single(0);
        assert_eq!(extrapolate_ranks(&root, 8, 16).unwrap(), root);
    }

    #[test]
    fn piecewise_peer_extrapolates_per_piece() {
        // broken ring built as pieces (previously a PerRank table → refused):
        // interior ranks shift right, the last rank wraps to 0
        use crate::params::RankFn;
        let p = RankParam::Piecewise(vec![
            (RankSet::from_ranks(0..7), RankFn::Offset(1)),
            (RankSet::single(7), RankFn::Const(0)),
        ]);
        let out = extrapolate_rank_param(&p, 8, 32).expect("piecewise extrapolates");
        assert_eq!(
            out,
            RankParam::Piecewise(vec![
                (RankSet::from_ranks(0..31), RankFn::Offset(1)),
                (RankSet::single(31), RankFn::Const(0)),
            ])
        );
    }

    #[test]
    fn dense_affine_tables_are_refit_not_refused() {
        // a PerRank table that is secretly `rank+1` (as the Dense escape
        // hatch produces) used to be refused outright
        let table: std::collections::BTreeMap<usize, usize> = (0..7).map(|r| (r, r + 1)).collect();
        let out = extrapolate_rank_param(&RankParam::PerRank(table), 8, 16)
            .expect("affine table extrapolates");
        assert_eq!(out, RankParam::Offset(1));

        // value tables with rank-proportional sizes likewise
        let sizes: std::collections::BTreeMap<usize, u64> =
            (0..8).map(|r| (r, 64 * (r as u64 + 1))).collect();
        let out = extrapolate_val(&crate::params::ValParam::PerRank(sizes), 8, 16)
            .expect("linear sizes extrapolate");
        assert_eq!(
            out,
            crate::params::ValParam::Linear {
                base: 64,
                slope: 64
            }
        );

        // genuinely irregular tables are still refused
        let bad: std::collections::BTreeMap<usize, usize> = [(0, 5), (1, 3), (2, 9), (3, 0)].into();
        assert!(extrapolate_rank_param(&RankParam::PerRank(bad), 8, 16).is_err());
    }

    #[test]
    fn rank_linear_collective_sizes_extrapolate() {
        // allgatherv with bytes = 64*(rank+1): the size parameter unifies
        // to a linear form, which used to degrade to a per-rank table and
        // refuse extrapolation
        let app = |ctx: &mut mpisim::ctx::Ctx| {
            let w = ctx.world();
            let bytes = 64 * (ctx.rank() as u64 + 1);
            ctx.allgatherv(bytes, &w);
            ctx.finalize();
        };
        let small = trace_app(8, network::ideal(), app).unwrap().trace;
        let big = extrapolate(&small, 32).expect("linear sizes are world-generic");
        let truth = trace_app(32, network::ideal(), app).unwrap().trace;
        semantically_equal(&big, &truth).expect("extrapolated trace matches reality");
    }

    #[test]
    fn edge_tracking_prefix_and_interior_sets_rewrite() {
        // sender side of a pipeline: {0..n-2} stretches with the world
        assert_eq!(
            extrapolate_ranks(&RankSet::from_ranks(0..7), 8, 24).unwrap(),
            RankSet::from_ranks(0..23)
        );
        // interior (send-and-recv) ranks of a pipeline: {1..n-2} keeps
        // its fixed root and stretches its end
        assert_eq!(
            extrapolate_ranks(&RankSet::from_ranks(1..7), 8, 24).unwrap(),
            RankSet::from_ranks(1..23)
        );
        // a short fixed prefix well inside the world stays put
        assert_eq!(
            extrapolate_ranks(&RankSet::from_ranks(0..3), 8, 24).unwrap(),
            RankSet::from_ranks(0..3)
        );
    }

    #[test]
    fn shrinking_is_allowed_too() {
        let small = trace_app(16, network::ideal(), ring(5)).unwrap().trace;
        let tiny = extrapolate(&small, 4).expect("shrinks");
        let truth = trace_app(4, network::ideal(), ring(5)).unwrap().trace;
        semantically_equal(&tiny, &truth).expect("shrunk trace matches reality");
    }
}
