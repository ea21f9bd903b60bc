//! Algorithms 1 and 2 preserve every rank's stream, over the whole
//! registry rather than only synthetic Figure-3 traces.
//!
//! For every registry app at {4, 16, 64, 256} ranks (valid sizes only),
//! class S, run each algorithm where its pre-check fires, in pipeline
//! order:
//! - Algorithm 1 leaves every rank's operation stream unchanged;
//! - Algorithm 2 changes only the source of wildcard receives, each to a
//!   concrete rank;
//! - neither output has a collective RSD short of its communicator.

use benchgen::{align_collectives, resolve_wildcards};
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::types::Src;
use scalatrace::cursor::{events_for_rank, semantically_equal, ConcreteOp};
use scalatrace::{trace_app, Trace};

/// Every rank's stream of `after` equals `before`'s, except that wildcard
/// receives now name a source.
fn only_wildcards_resolved(before: &Trace, after: &Trace) -> Result<(), String> {
    for r in 0..before.nranks {
        let (a, b) = (events_for_rank(before, r), events_for_rank(after, r));
        if a.len() != b.len() {
            return Err(format!("rank {r}: {} events became {}", a.len(), b.len()));
        }
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            let same = match (&x.op, &y.op) {
                (
                    ConcreteOp::Recv { from: Src::Any, .. },
                    ConcreteOp::Recv {
                        from: Src::Rank(src),
                        ..
                    },
                ) => {
                    let mut x = x.op.clone();
                    if let ConcreteOp::Recv { from, .. } = &mut x {
                        *from = Src::Rank(*src);
                    }
                    x == y.op
                }
                _ => x.op == y.op,
            };
            if !same {
                return Err(format!("rank {r}, event {i}: {:?} became {:?}", x.op, y.op));
            }
        }
    }
    Ok(())
}

#[test]
fn algorithms_1_and_2_preserve_every_registry_stream() {
    let (mut aligned, mut resolved) = (Vec::new(), Vec::new());
    for app in registry::all() {
        for n in [4, 16, 64, 256] {
            if !(app.valid_ranks)(n) {
                continue;
            }
            let cell = format!("{} r{n}", app.name);
            let params = AppParams::class(Class::S);
            let mut trace = trace_app(n, network::ideal(), move |ctx| (app.run)(ctx, &params))
                .unwrap_or_else(|e| panic!("{cell} fails to trace: {e}"))
                .trace;
            if trace.has_unaligned_collectives() {
                let out = align_collectives(&trace).unwrap_or_else(|e| panic!("{cell}: {e}"));
                semantically_equal(&trace, &out).unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert!(!out.has_unaligned_collectives(), "{cell}: Algorithm 1");
                aligned.push(cell.clone());
                trace = out;
            }
            if trace.has_wildcard_recv() {
                let out = resolve_wildcards(&trace).unwrap_or_else(|e| panic!("{cell}: {e}"));
                only_wildcards_resolved(&trace, &out.trace)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert!(!out.trace.has_wildcard_recv(), "{cell}: a wildcard is left");
                assert!(
                    !out.trace.has_unaligned_collectives(),
                    "{cell}: Algorithm 2"
                );
                resolved.push(cell);
            }
        }
    }
    println!("Algorithm 1 ran on: {}", aligned.join(", "));
    println!("Algorithm 2 ran on: {}", resolved.join(", "));
    assert!(!aligned.is_empty() && !resolved.is_empty(), "both must run");
}
