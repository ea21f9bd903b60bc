//! Trace (de)serialisation: a compact, line-oriented, human-inspectable
//! text format, round-trip exact. ScalaTrace traces are files on disk; this
//! is our equivalent, and the byte size of the serialised form is the
//! "trace size" measured by the scalability experiment (E6).

use crate::params::{CommParam, RankParam, SrcParam, ValParam};
use crate::rankset::RankSet;
use crate::timestats::TimeStats;
use crate::trace::{check_well_formed, OpTemplate, Prsd, Rsd, Trace, TraceNode, MAX_LOOP_DEPTH};
use mpisim::time::SimDuration;
use mpisim::types::{CollKind, TagSel};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serialise a trace to the text format.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::new();
    writeln!(out, "trace nranks={}", trace.nranks).unwrap();
    for id in trace.comms.ids() {
        if id == 0 {
            continue; // world is implicit
        }
        let members: Vec<String> = trace
            .comms
            .members(id)
            .iter()
            .map(|r| r.to_string())
            .collect();
        writeln!(out, "comm {id} {}", members.join(",")).unwrap();
    }
    for n in &trace.nodes {
        write_node(&mut out, n, 0);
    }
    out
}

fn write_node(out: &mut String, node: &TraceNode, depth: usize) {
    let pad = "  ".repeat(depth);
    match node {
        TraceNode::Loop(p) => {
            writeln!(out, "{pad}loop {} {{", p.count).unwrap();
            for b in &p.body {
                write_node(out, b, depth + 1);
            }
            writeln!(out, "{pad}}}").unwrap();
        }
        TraceNode::Event(r) => {
            write!(
                out,
                "{pad}ev sig={:x} ranks={}",
                r.sig,
                encode_ranks(&r.ranks)
            )
            .unwrap();
            match &r.op {
                OpTemplate::Send {
                    to,
                    tag,
                    bytes,
                    comm,
                    blocking,
                } => {
                    write!(
                        out,
                        " op={} to={} tag={tag} bytes={} comm={}",
                        if *blocking { "send" } else { "isend" },
                        encode_rank_param(to),
                        encode_val(bytes),
                        encode_comm(comm),
                    )
                    .unwrap();
                }
                OpTemplate::Recv {
                    from,
                    tag,
                    bytes,
                    comm,
                    blocking,
                } => {
                    let from_s = match from {
                        SrcParam::Any => "*".to_string(),
                        SrcParam::Rank(r) => encode_rank_param(r),
                    };
                    let tag_s = match tag {
                        TagSel::Any => "*".to_string(),
                        TagSel::Is(t) => t.to_string(),
                    };
                    write!(
                        out,
                        " op={} from={from_s} tag={tag_s} bytes={} comm={}",
                        if *blocking { "recv" } else { "irecv" },
                        encode_val(bytes),
                        encode_comm(comm),
                    )
                    .unwrap();
                }
                OpTemplate::Wait { count } => {
                    write!(out, " op=wait count={}", encode_val(count)).unwrap();
                }
                OpTemplate::Coll {
                    kind,
                    root,
                    bytes,
                    comm,
                } => {
                    write!(out, " op=coll:{}", coll_tag(*kind)).unwrap();
                    if let Some(root) = root {
                        write!(out, " root={}", encode_rank_param(root)).unwrap();
                    }
                    write!(
                        out,
                        " bytes={} comm={}",
                        encode_val(bytes),
                        encode_comm(comm)
                    )
                    .unwrap();
                }
                OpTemplate::CommSplit { parent, result } => {
                    // A constant result keeps the bare id older readers parse.
                    let result = match result.canonical() {
                        CommParam::Const(c) => c.to_string(),
                        _ => encode_comm(result),
                    };
                    write!(out, " op=split parent={parent} result={result}").unwrap();
                }
            }
            write!(out, " t={}", encode_stats(&r.compute)).unwrap();
            writeln!(out).unwrap();
        }
    }
}

fn encode_ranks(rs: &RankSet) -> String {
    let parts: Vec<String> = rs
        .runs()
        .iter()
        .map(|r| format!("{}:{}:{}", r.start, r.stride, r.count))
        .collect();
    parts.join(";")
}

fn encode_rank_param(p: &RankParam) -> String {
    // canonicalize so dense and symbolic representations of the same
    // pointwise map serialize byte-identically
    match &p.canonical() {
        RankParam::Const(c) => format!("c{c}"),
        RankParam::Offset(d) => format!("o{d}"),
        RankParam::OffsetMod { offset, modulus } => format!("m{offset}%{modulus}"),
        RankParam::Xor(mask) => format!("x{mask}"),
        RankParam::PerRank(t) => {
            let parts: Vec<String> = t.iter().map(|(k, v)| format!("{k}>{v}")).collect();
            format!("p{}", parts.join(";"))
        }
        RankParam::Piecewise(ps) => {
            let parts: Vec<String> = ps
                .iter()
                .map(|(s, f)| format!("{}@{}", encode_ranks(s), encode_rank_param(&f.into_param())))
                .collect();
            format!("w{}", parts.join("|"))
        }
    }
}

fn encode_comm(c: &CommParam) -> String {
    match &c.canonical() {
        CommParam::Const(v) => format!("c{v}"),
        CommParam::PerRank(t) => {
            let parts: Vec<String> = t.iter().map(|(k, v)| format!("{k}>{v}")).collect();
            format!("p{}", parts.join(";"))
        }
        CommParam::Piecewise(ps) => {
            let parts: Vec<String> = ps
                .iter()
                .map(|(s, v)| format!("{}@{v}", encode_ranks(s)))
                .collect();
            format!("w{}", parts.join("|"))
        }
    }
}

/// Split a `<tag-char><payload>` field without panicking: `split_at(1)`
/// panics on an empty field or one starting mid-UTF-8; parsed trace text is
/// untrusted input, so every malformed shape must surface as `Err`.
fn split_tag(s: &str) -> Result<(&str, &str), String> {
    match s.char_indices().nth(1) {
        Some((i, _)) => Ok(s.split_at(i)),
        None if !s.is_empty() => Ok((s, "")),
        None => Err("empty field".into()),
    }
}

/// Caps on what a parsed trace may materialise in memory. Far above any
/// real trace (the format's point is rank-count independence), low enough
/// that a crafted `ranks=0:1:18446744073709551615` cannot allocate its way
/// to an abort.
const MAX_PARSED_RANKS: usize = 1 << 24;

/// Parse `<runs>@<payload>|…` piecewise pieces, enforcing non-empty and
/// pairwise-disjoint domains (parsed trace text is untrusted input).
fn decode_pieces<T>(
    rest: &str,
    mut item: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<(RankSet, T)>, String> {
    let mut pieces = Vec::new();
    for part in rest.split('|') {
        let (runs, payload) = part.split_once('@').ok_or("bad piecewise piece")?;
        let s = decode_ranks(runs)?;
        if s.is_empty() {
            return Err("empty piecewise domain".into());
        }
        pieces.push((s, item(payload)?));
    }
    let total: usize = pieces.iter().map(|(s, _)| s.len()).sum();
    if RankSet::union_many(pieces.iter().map(|(s, _)| s)).len() != total {
        return Err("overlapping piecewise domains".into());
    }
    Ok(pieces)
}

fn decode_comm(s: &str) -> Result<CommParam, String> {
    let (tag, rest) = split_tag(s)?;
    Ok(match tag {
        "c" => CommParam::Const(rest.parse().map_err(|e| format!("bad comm: {e}"))?),
        "p" => {
            let mut t = std::collections::BTreeMap::new();
            for pair in rest.split(';') {
                let (k, v) = pair.split_once('>').ok_or("bad comm pair")?;
                t.insert(
                    k.parse().map_err(|e| format!("bad key: {e}"))?,
                    v.parse().map_err(|e| format!("bad val: {e}"))?,
                );
            }
            CommParam::PerRank(t)
        }
        "w" => CommParam::Piecewise(decode_pieces(rest, |v| {
            v.parse().map_err(|e| format!("bad comm id: {e}"))
        })?),
        other => return Err(format!("unknown comm tag {other}")),
    })
}

fn encode_val(v: &ValParam) -> String {
    match &v.canonical() {
        ValParam::Const(c) => format!("c{c}"),
        ValParam::PerRank(t) => {
            let parts: Vec<String> = t.iter().map(|(k, v)| format!("{k}>{v}")).collect();
            format!("p{}", parts.join(";"))
        }
        ValParam::Linear { base, slope } => format!("l{base},{slope}"),
        ValParam::Piecewise(ps) => {
            let parts: Vec<String> = ps
                .iter()
                .map(|(s, v)| format!("{}@{v}", encode_ranks(s)))
                .collect();
            format!("w{}", parts.join("|"))
        }
    }
}

fn encode_stats(t: &TimeStats) -> String {
    // exact round trip needs raw samples; we keep the lossy-but-faithful
    // histogram summary: every sample re-recorded at the mean preserves
    // count and mean, which is all downstream consumers use.
    format!("{}x{}", t.count(), t.mean().as_nanos())
}

fn coll_tag(kind: CollKind) -> &'static str {
    use CollKind::*;
    match kind {
        Barrier => "barrier",
        Bcast => "bcast",
        Reduce => "reduce",
        Allreduce => "allreduce",
        Gather => "gather",
        Gatherv => "gatherv",
        Scatter => "scatter",
        Scatterv => "scatterv",
        Allgather => "allgather",
        Allgatherv => "allgatherv",
        Alltoall => "alltoall",
        Alltoallv => "alltoallv",
        ReduceScatter => "reduce_scatter",
        Finalize => "finalize",
        CommSplit => "comm_split",
    }
}

fn parse_coll_tag(s: &str) -> Result<CollKind, String> {
    use CollKind::*;
    Ok(match s {
        "barrier" => Barrier,
        "bcast" => Bcast,
        "reduce" => Reduce,
        "allreduce" => Allreduce,
        "gather" => Gather,
        "gatherv" => Gatherv,
        "scatter" => Scatter,
        "scatterv" => Scatterv,
        "allgather" => Allgather,
        "allgatherv" => Allgatherv,
        "alltoall" => Alltoall,
        "alltoallv" => Alltoallv,
        "reduce_scatter" => ReduceScatter,
        "finalize" => Finalize,
        "comm_split" => CommSplit,
        other => return Err(format!("unknown collective tag {other}")),
    })
}

/// Parse the text format back into a trace.
pub fn from_text(s: &str) -> Result<Trace, String> {
    let mut lines = s.lines().peekable();
    let header = lines.next().ok_or("empty trace file")?;
    let nranks: usize = header
        .strip_prefix("trace nranks=")
        .ok_or("missing trace header")?
        .trim()
        .parse()
        .map_err(|e| format!("bad nranks: {e}"))?;
    if nranks > MAX_PARSED_RANKS {
        return Err(format!("implausible nranks {nranks}"));
    }
    let mut trace = Trace::new(nranks);
    while let Some(line) = lines.peek() {
        if line.trim_start().starts_with("comm ") {
            let line = lines.next().ok_or("comm line vanished")?.trim();
            let rest = line.strip_prefix("comm ").ok_or("bad comm line")?;
            let (id, members) = rest.split_once(' ').ok_or("bad comm line")?;
            let id: u32 = id.parse().map_err(|e| format!("bad comm id: {e}"))?;
            let members: Vec<usize> = members
                .split(',')
                .map(|m| m.parse().map_err(|e| format!("bad comm member: {e}")))
                .collect::<Result<_, _>>()?;
            if members.len() > MAX_PARSED_RANKS {
                return Err("comm membership implausibly large".into());
            }
            trace.comms.insert(id, members);
        } else {
            break;
        }
    }
    let mut stack: Vec<Vec<TraceNode>> = vec![Vec::new()];
    let mut counts: Vec<u64> = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("loop ") {
            let count: u64 = rest
                .strip_suffix(" {")
                .ok_or("bad loop line")?
                .parse()
                .map_err(|e| format!("bad loop count: {e}"))?;
            if counts.len() >= MAX_LOOP_DEPTH {
                return Err("loop nesting too deep".into());
            }
            counts.push(count);
            stack.push(Vec::new());
        } else if line == "}" {
            let body = stack.pop().ok_or("unbalanced }")?;
            let count = counts.pop().ok_or("unbalanced }")?;
            stack
                .last_mut()
                .ok_or("unbalanced }")?
                .push(TraceNode::Loop(Prsd { count, body }));
        } else if let Some(rest) = line.strip_prefix("ev ") {
            stack
                .last_mut()
                .ok_or("event outside sequence")?
                .push(TraceNode::Event(parse_event(rest)?));
        } else {
            return Err(format!("unrecognised line: {line}"));
        }
    }
    if stack.len() != 1 {
        return Err("unbalanced loop braces".into());
    }
    trace.nodes = stack.pop().ok_or("empty parse stack")?;
    check_well_formed(trace.nranks, &trace.comms, &trace.nodes)?;
    Ok(trace)
}

fn parse_event(rest: &str) -> Result<Rsd, String> {
    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
    for part in rest.split_whitespace() {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("bad field {part}"))?;
        fields.insert(k, v);
    }
    let sig = u64::from_str_radix(fields.get("sig").ok_or("missing sig")?, 16)
        .map_err(|e| format!("bad sig: {e}"))?;
    let ranks = decode_ranks(fields.get("ranks").ok_or("missing ranks")?)?;
    let t = fields.get("t").ok_or("missing t")?;
    let compute = decode_stats(t)?;
    let op_tag = *fields.get("op").ok_or("missing op")?;
    let get_val = |k: &str| -> Result<ValParam, String> {
        decode_val(fields.get(k).ok_or_else(|| format!("missing {k}"))?)
    };
    let get_comm_id = |k: &str| -> Result<u32, String> {
        fields
            .get(k)
            .ok_or_else(|| format!("missing {k}"))?
            .parse()
            .map_err(|e| format!("bad {k}: {e}"))
    };
    let get_comm = |k: &str| -> Result<CommParam, String> {
        decode_comm(fields.get(k).ok_or_else(|| format!("missing {k}"))?)
    };
    let op = match op_tag {
        "send" | "isend" => OpTemplate::Send {
            to: decode_rank_param(fields.get("to").ok_or("missing to")?)?,
            tag: fields
                .get("tag")
                .ok_or("missing tag")?
                .parse()
                .map_err(|e| format!("bad tag: {e}"))?,
            bytes: get_val("bytes")?,
            comm: get_comm("comm")?,
            blocking: op_tag == "send",
        },
        "recv" | "irecv" => {
            let from = match *fields.get("from").ok_or("missing from")? {
                "*" => SrcParam::Any,
                other => SrcParam::Rank(decode_rank_param(other)?),
            };
            let tag = match *fields.get("tag").ok_or("missing tag")? {
                "*" => TagSel::Any,
                other => TagSel::Is(other.parse().map_err(|e| format!("bad tag: {e}"))?),
            };
            OpTemplate::Recv {
                from,
                tag,
                bytes: get_val("bytes")?,
                comm: get_comm("comm")?,
                blocking: op_tag == "recv",
            }
        }
        "wait" => OpTemplate::Wait {
            count: get_val("count")?,
        },
        "split" => OpTemplate::CommSplit {
            parent: get_comm_id("parent")?,
            result: match get_comm_id("result") {
                Ok(id) => CommParam::Const(id),
                Err(_) => get_comm("result")?,
            },
        },
        other => {
            let kind = other
                .strip_prefix("coll:")
                .ok_or_else(|| format!("unknown op {other}"))
                .and_then(parse_coll_tag)?;
            OpTemplate::Coll {
                kind,
                root: match fields.get("root") {
                    Some(r) => Some(decode_rank_param(r)?),
                    None => None,
                },
                bytes: get_val("bytes")?,
                comm: get_comm("comm")?,
            }
        }
    };
    Ok(Rsd {
        ranks,
        sig,
        op,
        compute,
    })
}

fn decode_ranks(s: &str) -> Result<RankSet, String> {
    let mut ranks = Vec::new();
    for run in s.split(';') {
        let mut it = run.split(':');
        let (start, stride, count) = (
            it.next().ok_or("bad run")?,
            it.next().ok_or("bad run")?,
            it.next().ok_or("bad run")?,
        );
        let start: usize = start.parse().map_err(|e| format!("bad run start: {e}"))?;
        let stride: usize = stride.parse().map_err(|e| format!("bad run stride: {e}"))?;
        let count: usize = count.parse().map_err(|e| format!("bad run count: {e}"))?;
        if ranks.len().saturating_add(count) > MAX_PARSED_RANKS {
            return Err(format!("rank set larger than {MAX_PARSED_RANKS}"));
        }
        for i in 0..count {
            let r = i
                .checked_mul(stride)
                .and_then(|off| start.checked_add(off))
                .ok_or("rank run overflows")?;
            ranks.push(r);
        }
    }
    Ok(RankSet::from_ranks(ranks))
}

fn decode_rank_param(s: &str) -> Result<RankParam, String> {
    let (tag, rest) = split_tag(s)?;
    Ok(match tag {
        "c" => RankParam::Const(rest.parse().map_err(|e| format!("bad const: {e}"))?),
        "o" => RankParam::Offset(rest.parse().map_err(|e| format!("bad offset: {e}"))?),
        "m" => {
            let (off, m) = rest.split_once('%').ok_or("bad offsetmod")?;
            RankParam::OffsetMod {
                offset: off.parse().map_err(|e| format!("bad offset: {e}"))?,
                modulus: m.parse().map_err(|e| format!("bad modulus: {e}"))?,
            }
        }
        "x" => RankParam::Xor(rest.parse().map_err(|e| format!("bad xor mask: {e}"))?),
        "p" => {
            let mut t = BTreeMap::new();
            for pair in rest.split(';') {
                let (k, v) = pair.split_once('>').ok_or("bad table pair")?;
                t.insert(
                    k.parse().map_err(|e| format!("bad key: {e}"))?,
                    v.parse().map_err(|e| format!("bad val: {e}"))?,
                );
            }
            RankParam::PerRank(t)
        }
        "w" => RankParam::Piecewise(decode_pieces(rest, |f| {
            match decode_rank_param(f)?.as_fn() {
                Some(f) => Ok(f),
                None => Err("piecewise piece must be a closed form".into()),
            }
        })?),
        other => return Err(format!("unknown rank param tag {other}")),
    })
}

fn decode_val(s: &str) -> Result<ValParam, String> {
    let (tag, rest) = split_tag(s)?;
    Ok(match tag {
        "c" => ValParam::Const(rest.parse().map_err(|e| format!("bad const: {e}"))?),
        "p" => {
            let mut t = BTreeMap::new();
            for pair in rest.split(';') {
                let (k, v) = pair.split_once('>').ok_or("bad table pair")?;
                t.insert(
                    k.parse().map_err(|e| format!("bad key: {e}"))?,
                    v.parse().map_err(|e| format!("bad val: {e}"))?,
                );
            }
            ValParam::PerRank(t)
        }
        "l" => {
            let (base, slope) = rest.split_once(',').ok_or("bad linear")?;
            let slope: i64 = slope.parse().map_err(|e| format!("bad slope: {e}"))?;
            if slope == 0 {
                return Err("linear val with zero slope".into());
            }
            ValParam::Linear {
                base: base.parse().map_err(|e| format!("bad base: {e}"))?,
                slope,
            }
        }
        "w" => ValParam::Piecewise(decode_pieces(rest, |v| {
            v.parse().map_err(|e| format!("bad val: {e}"))
        })?),
        other => return Err(format!("unknown val tag {other}")),
    })
}

fn decode_stats(s: &str) -> Result<TimeStats, String> {
    let (count, mean) = s.split_once('x').ok_or("bad stats")?;
    let count: u64 = count.parse().map_err(|e| format!("bad count: {e}"))?;
    let mean_ns: u64 = mean.parse().map_err(|e| format!("bad mean: {e}"))?;
    // O(1) regardless of count: the count is attacker-controlled, and a
    // crafted `t=18446744073709551615x1` must not loop for an eternity.
    let mut t = TimeStats::new();
    t.record_n(count, SimDuration::from_nanos(mean_ns));
    Ok(t)
}

/// Convenience: serialised byte size of a trace (the E6 metric).
pub fn serialized_size(trace: &Trace) -> usize {
    to_text(trace).len()
}

/// Serialise a trace in a *flat* per-event format: one line per concrete
/// MPI event per rank, as the uncompressed formats the paper contrasts
/// with (Vampir, OTF, Paraver) would store it. Grows linearly in both
/// events and ranks — the strawman for experiment E6.
pub fn to_flat_text(trace: &Trace) -> String {
    use crate::cursor::{ConcreteOp, Cursor};
    let mut out = String::new();
    writeln!(out, "flat-trace nranks={}", trace.nranks).unwrap();
    for rank in 0..trace.nranks {
        let mut cursor = Cursor::new(trace, rank);
        while let Some(ev) = cursor.next() {
            match &ev.op {
                ConcreteOp::Send {
                    to,
                    tag,
                    bytes,
                    comm,
                    blocking,
                } => writeln!(
                    out,
                    "{rank} {} to={to} tag={tag} bytes={bytes} comm={comm} dt={}",
                    if *blocking { "send" } else { "isend" },
                    ev.compute.as_nanos()
                )
                .unwrap(),
                ConcreteOp::Recv {
                    from,
                    tag,
                    bytes,
                    comm,
                    blocking,
                } => writeln!(
                    out,
                    "{rank} {} from={from:?} tag={tag:?} bytes={bytes} comm={comm} dt={}",
                    if *blocking { "recv" } else { "irecv" },
                    ev.compute.as_nanos()
                )
                .unwrap(),
                ConcreteOp::Wait { count } => {
                    writeln!(out, "{rank} wait n={count} dt={}", ev.compute.as_nanos()).unwrap()
                }
                ConcreteOp::Coll {
                    kind, bytes, comm, ..
                } => writeln!(
                    out,
                    "{rank} {} bytes={bytes} comm={comm} dt={}",
                    kind.mpi_name(),
                    ev.compute.as_nanos()
                )
                .unwrap(),
                ConcreteOp::CommSplit { parent, result } => writeln!(
                    out,
                    "{rank} comm_split parent={parent} result={result} dt={}",
                    ev.compute.as_nanos()
                )
                .unwrap(),
            }
        }
    }
    out
}

/// Byte size of the flat per-event serialisation.
pub fn flat_size(trace: &Trace) -> usize {
    to_flat_text(trace).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::trace_app;
    use mpisim::network;
    use mpisim::types::{Src, TagSel};

    fn sample_trace() -> Trace {
        trace_app(6, network::ideal(), |ctx| {
            let w = ctx.world();
            let sub = ctx.comm_split(&w, (ctx.rank() % 2) as i64, ctx.rank() as i64);
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..20 {
                let r = ctx.irecv(Src::Rank(left), TagSel::Is(3), 512, &w);
                let s = ctx.isend(right, 3, 512, &w);
                ctx.waitall(&[r, s]);
            }
            ctx.allreduce(64, &sub);
            if ctx.rank() == 0 {
                let _ = ctx.recv(Src::Any, TagSel::Any, 8, &w);
            } else if ctx.rank() == 1 {
                ctx.send(0, 9, 8, &w);
            }
            ctx.bcast(2, 4096, &w);
            ctx.finalize();
        })
        .unwrap()
        .trace
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let t = sample_trace();
        let text = to_text(&t);
        let back = from_text(&text).expect("parse");
        assert_eq!(back.nranks, t.nranks);
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.concrete_event_count(), t.concrete_event_count());
        crate::cursor::semantically_equal(&t, &back).expect("semantic equality");
        // structure (ops + params + ranks) is exactly preserved
        assert_eq!(back.nodes, strip_times(&t).nodes);
    }

    fn strip_times(t: &Trace) -> Trace {
        // re-serialise: times are summarised to (count, mean); compare via a
        // second round trip which is a fixpoint
        from_text(&to_text(t)).unwrap()
    }

    #[test]
    fn a_split_result_is_a_bare_id_when_constant_and_a_comm_param_otherwise() {
        // sample_trace's split sends even ranks to one group and odd ranks
        // to the other: one merged RSD with a piecewise result, which
        // round_trip_preserves_semantics reads back
        let t = sample_trace();
        let text = to_text(&t);
        let split = text.lines().find(|l| l.contains("op=split"));
        assert!(split.is_some_and(|l| l.contains(" result=w")), "{text}");
        // a constant result keeps the bare id; the reader also takes the
        // comm= spelling of it
        let mut constant = Trace::new(6);
        constant.comms.insert(1, vec![0, 2, 4]);
        let op = OpTemplate::CommSplit {
            parent: 0,
            result: CommParam::Const(1),
        };
        constant.nodes.push(TraceNode::Event(Rsd {
            ranks: RankSet::from_ranks([0, 2, 4]),
            sig: 1,
            op: op.clone(),
            compute: TimeStats::new(),
        }));
        let text = to_text(&constant);
        assert!(text.contains(" result=1 "), "{text}");
        for text in [text.clone(), text.replace(" result=1 ", " result=c1 ")] {
            let back = from_text(&text).expect("parse");
            assert!(
                matches!(&back.nodes[..], [TraceNode::Event(r)] if r.op == op),
                "{text}"
            );
        }
    }

    #[test]
    fn second_round_trip_is_fixpoint() {
        let t = sample_trace();
        let once = from_text(&to_text(&t)).unwrap();
        let twice = from_text(&to_text(&once)).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_text("").is_err());
        assert!(from_text("not a trace").is_err());
        assert!(from_text("trace nranks=2\nloop 5 {\n").is_err());
        assert!(from_text("trace nranks=2\nwhat is this").is_err());
    }

    #[test]
    fn size_is_modest_and_rank_independent() {
        let size_small = serialized_size(&sample_trace());
        assert!(size_small > 0);
        // a much larger iteration count must not change the size materially
        let big = trace_app(6, network::ideal(), |ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..2000 {
                let r = ctx.irecv(Src::Rank(left), TagSel::Is(3), 512, &w);
                let s = ctx.isend(right, 3, 512, &w);
                ctx.waitall(&[r, s]);
            }
        })
        .unwrap()
        .trace;
        assert!(serialized_size(&big) < 1000, "compressed trace stays small");
    }
}
