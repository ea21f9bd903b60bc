//! Differential pinning of the symbolic piecewise parameter representation
//! against the dense per-rank escape hatch (`ParamRepr::Dense`).
//!
//! The symbolic form is a pure representation change: for every bundled
//! app — and for partial traces salvaged from crashed runs — the text
//! encoding, the binary STBS stream, the simulated virtual time, and the
//! mpiP-style profile must be byte-identical whichever representation the
//! merge ran under.
//!
//! `ParamRepr` is thread-local, so the merge is forced onto the calling
//! thread with `par::scoped_threads(1)` before flipping the repr.

use benchgen::verify::profile_of_trace;
use miniapps::{registry, AppParams};
use mpisim::faults::FaultPlan;
use mpisim::network;
use mpisim::world::World;
use scalatrace::params::{with_param_repr, ParamRepr};
use scalatrace::stream::trace_to_bytes;
use scalatrace::text::to_text;
use scalatrace::trace::Trace;
use scalatrace::{trace_app, trace_world_partial};

fn smallest_ranks(app: &miniapps::App) -> usize {
    (1..=64)
        .find(|&n| (app.valid_ranks)(n))
        .unwrap_or_else(|| panic!("{} accepts no rank count up to 64", app.name))
}

/// Every externally observable channel of a traced run, captured for
/// comparison across representations.
struct Observed {
    text: String,
    stbs: Vec<u8>,
    virtual_time: Option<u64>,
    profile: String,
}

fn observe(trace: &Trace, virtual_time: Option<u64>) -> Observed {
    Observed {
        text: to_text(trace),
        stbs: trace_to_bytes(trace),
        virtual_time,
        profile: profile_of_trace(trace).to_string(),
    }
}

fn assert_identical(sym: &Observed, dense: &Observed, what: &str) {
    assert_eq!(sym.text, dense.text, "{what}: text encoding differs");
    assert_eq!(sym.stbs, dense.stbs, "{what}: binary STBS stream differs");
    assert_eq!(
        sym.virtual_time, dense.virtual_time,
        "{what}: simulated virtual time differs"
    );
    assert_eq!(sym.profile, dense.profile, "{what}: mpiP profile differs");
}

#[test]
fn symbolic_and_dense_reprs_agree_on_every_registry_app() {
    let _guard = par::scoped_threads(1);
    for app in registry::all() {
        let ranks = smallest_ranks(app);
        let params = AppParams::quick();
        let run = app.run;
        let body = move |ctx: &mut mpisim::Ctx| run(ctx, &params);

        let observed = |repr| {
            with_param_repr(repr, || {
                let traced = trace_app(ranks, network::ideal(), body)
                    .unwrap_or_else(|e| panic!("{} fails to trace: {e}", app.name));
                observe(&traced.trace, Some(traced.report.total_time.as_nanos()))
            })
        };
        let sym = observed(ParamRepr::Symbolic);
        let dense = observed(ParamRepr::Dense);
        assert_identical(&sym, &dense, app.name);
    }
}

#[test]
fn symbolic_and_dense_reprs_agree_on_crashed_partial_traces() {
    let _guard = par::scoped_threads(1);
    // crash a different rank at a different point per app so the salvaged
    // prefixes differ in shape, not just in length
    for (i, app) in registry::all().iter().enumerate() {
        let ranks = smallest_ranks(app);
        if ranks < 2 {
            continue;
        }
        let params = AppParams::quick();
        let run = app.run;
        let body = move |ctx: &mut mpisim::Ctx| run(ctx, &params);
        let crash_rank = i % ranks;
        let after_ops = 3 + i;

        let observed = |repr| {
            with_param_repr(repr, || {
                let plan = FaultPlan::seeded(i as u64).crash_rank(crash_rank, after_ops as u64);
                let partial = trace_world_partial(World::new(ranks).faults(plan), ranks, body);
                let vt = partial.report.as_ref().map(|r| r.total_time.as_nanos());
                observe(&partial.trace, vt)
            })
        };
        let sym = observed(ParamRepr::Symbolic);
        let dense = observed(ParamRepr::Dense);
        assert_identical(&sym, &dense, &format!("{} (partial)", app.name));
    }
}
