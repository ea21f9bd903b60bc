//! Trace statistics: compression ratios, operation mix, and parameter-form
//! census — the numbers behind the scalability claims (§1/§2) and the
//! `commgen --stats` report.

use crate::params::{CommParam, RankParam, SrcParam, ValParam};
use crate::trace::{OpTemplate, Trace, TraceNode};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics of one trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// World size of the trace.
    pub nranks: usize,
    /// Compressed size: trace nodes (RSDs + loop headers).
    pub nodes: usize,
    /// Maximum loop-nesting depth.
    pub depth: usize,
    /// Uncompressed size: concrete MPI events over all ranks.
    pub concrete_events: u64,
    /// Serialised byte size of the text form.
    pub serialized_bytes: usize,
    /// Concrete events per routine name.
    pub ops: BTreeMap<&'static str, u64>,
    /// RSDs whose every parameter is in compressed (non-table) form.
    pub fully_compressed_rsds: usize,
    /// RSDs with at least one per-rank parameter table.
    pub tabled_rsds: usize,
    /// RSDs containing a wildcard receive.
    pub wildcard_rsds: usize,
    /// Total bytes moved (sum over concrete events of local bytes).
    pub total_bytes: u64,
}
// (every field above is documented; keep in sync with `walk`)

impl TraceStats {
    /// Events per node: the headline compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        self.concrete_events as f64 / self.nodes.max(1) as f64
    }
}

/// Compute statistics for a trace.
pub fn stats(trace: &Trace) -> TraceStats {
    let mut s = TraceStats {
        nranks: trace.nranks,
        serialized_bytes: crate::text::serialized_size(trace),
        ..TraceStats::default()
    };
    walk(&trace.nodes, 1, 1, &mut s);
    s.concrete_events = trace.concrete_event_count();
    s
}

fn rank_param_compressed(p: &RankParam) -> bool {
    p.is_compressed()
}

fn walk(nodes: &[TraceNode], depth: usize, multiplier: u64, s: &mut TraceStats) {
    s.depth = s.depth.max(depth);
    for n in nodes {
        s.nodes += 1;
        match n {
            TraceNode::Loop(p) => {
                walk(&p.body, depth + 1, multiplier * p.count, s);
            }
            TraceNode::Event(r) => {
                let events = multiplier * r.ranks.len() as u64;
                *s.ops.entry(r.op.mpi_name()).or_default() += events;
                let (compressed, bytes_param) = match &r.op {
                    OpTemplate::Send {
                        to, bytes, comm, ..
                    } => (
                        rank_param_compressed(to) && bytes.is_compressed() && comm.is_compressed(),
                        Some(bytes),
                    ),
                    OpTemplate::Recv {
                        from, bytes, comm, ..
                    } => {
                        if matches!(from, SrcParam::Any) {
                            s.wildcard_rsds += 1;
                        }
                        let c = match from {
                            SrcParam::Any => true,
                            SrcParam::Rank(p) => rank_param_compressed(p),
                        };
                        (
                            c && bytes.is_compressed() && comm.is_compressed(),
                            Some(bytes),
                        )
                    }
                    OpTemplate::Wait { count } => (count.is_compressed(), None),
                    OpTemplate::Coll {
                        root, bytes, comm, ..
                    } => (
                        root.as_ref().is_none_or(rank_param_compressed)
                            && bytes.is_compressed()
                            && comm.is_compressed(),
                        Some(bytes),
                    ),
                    OpTemplate::CommSplit { result, .. } => (result.is_compressed(), None),
                };
                if compressed {
                    s.fully_compressed_rsds += 1;
                } else {
                    s.tabled_rsds += 1;
                }
                if let Some(bytes) = bytes_param {
                    let total: u64 = match bytes {
                        ValParam::Const(b) => b * events,
                        other => multiplier * other.sum_over(&r.ranks),
                    };
                    s.total_bytes += total;
                }
                let _ = CommParam::Const(0); // (type witness; comms counted above)
            }
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace statistics ({} ranks):", self.nranks)?;
        writeln!(
            f,
            "  {} concrete MPI events -> {} trace nodes ({:.1}x compression), depth {}",
            self.concrete_events,
            self.nodes,
            self.compression_ratio(),
            self.depth
        )?;
        writeln!(f, "  serialised size: {} bytes", self.serialized_bytes)?;
        writeln!(
            f,
            "  RSD parameters: {} fully compressed, {} with per-rank tables, {} wildcard",
            self.fully_compressed_rsds, self.tabled_rsds, self.wildcard_rsds
        )?;
        writeln!(f, "  bytes moved: {}", self.total_bytes)?;
        writeln!(f, "  operation mix:")?;
        for (name, count) in &self.ops {
            writeln!(f, "    {name:<20} {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::trace_app;
    use mpisim::network;
    use mpisim::types::{Src, TagSel};

    fn sample() -> Trace {
        trace_app(8, network::ideal(), |ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..100 {
                let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 1000, &w);
                let s = ctx.isend(right, 0, 1000, &w);
                ctx.waitall(&[r, s]);
            }
            ctx.allreduce(8, &w);
            ctx.finalize();
        })
        .unwrap()
        .trace
    }

    #[test]
    fn counts_are_consistent() {
        let t = sample();
        let s = stats(&t);
        assert_eq!(s.nranks, 8);
        assert_eq!(s.concrete_events, t.concrete_event_count());
        assert_eq!(s.ops["MPI_Isend"], 800);
        assert_eq!(s.ops["MPI_Irecv"], 800);
        assert_eq!(s.ops["MPI_Waitall"], 800);
        assert_eq!(s.ops["MPI_Allreduce"], 8);
        assert_eq!(s.ops["MPI_Finalize"], 8);
        // 800 sends x 1000B + 800 recvs x 1000B + 8 allreduce x 8B
        assert_eq!(s.total_bytes, 800 * 1000 * 2 + 64);
        assert!(s.compression_ratio() > 100.0, "{}", s.compression_ratio());
        assert_eq!(s.depth, 2); // one loop level
        assert_eq!(s.tabled_rsds, 0, "ring params are fully compressed");
        assert_eq!(s.wildcard_rsds, 0);
    }

    #[test]
    fn wildcards_and_tables_are_counted() {
        let t = trace_app(4, network::ideal(), |ctx| {
            let w = ctx.world();
            if ctx.rank() == 0 {
                for _ in 0..3 {
                    let _ = ctx.recv(Src::Any, TagSel::Any, 64, &w);
                }
            } else {
                // irregular sizes force a per-rank table
                ctx.send(0, 0, 50 + ctx.rank() as u64 * ctx.rank() as u64, &w);
            }
        })
        .unwrap()
        .trace;
        let s = stats(&t);
        assert!(s.wildcard_rsds >= 1);
        assert!(s.tabled_rsds >= 1);
    }

    #[test]
    fn display_is_complete() {
        let text = stats(&sample()).to_string();
        assert!(text.contains("compression"));
        assert!(text.contains("MPI_Isend"));
        assert!(text.contains("bytes moved"));
    }
}
