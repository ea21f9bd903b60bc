//! Chaos differential validation of the generation pipeline.
//!
//! The paper's robustness claim for Algorithm 2 (§4.1/§4.4) is that the
//! generated benchmark is *deterministic even though wildcard matches depend
//! on run-to-run message arrival order*. A single simulator run only ever
//! exhibits one arrival order, so the claim is untestable without an
//! adversary. This module is that adversary: it re-runs the application
//! under seeded [`FaultPlan`]s that perturb latency, delivery order, and
//! rank progress — every reordering a legal MPI execution could produce —
//! re-traces, re-runs the pipeline, and checks the *timing-independent*
//! invariants:
//!
//! 1. **Profile invariance** (hard): the perturbed run's mpiP profile —
//!    per-routine op counts and byte volumes — matches the baseline exactly.
//!    Timing faults must never change *what* the application communicates.
//! 2. **Benchmark invariance** (soft): the canonical generated benchmark
//!    (resolved wildcards, COMPUTE statements suppressed, provenance header
//!    stripped) is textually identical. When arrival order legitimately
//!    changes which sender a wildcard matched, this produces a *structured
//!    divergence record* rather than a failure — that is exactly the
//!    nondeterminism the paper says Algorithm 2 must absorb, and the record
//!    documents where it surfaced.
//!
//! A perturbed run that fails outright, or whose trace no longer generates,
//! is always a violation.

use crate::{generate, GenOptions};
use mpisim::ctx::Ctx;
use mpisim::faults::FaultPlan;
use mpisim::network::NetworkModel;
use mpisim::profile::MpiP;
use mpisim::time::SimDuration;
use mpisim::world::World;
use scalatrace::trace::Trace;
use scalatrace::trace_world;
use std::fmt;
use std::sync::Arc;

/// Outcome of one seeded perturbation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// Profile and canonical benchmark both match the baseline.
    Invariant,
    /// Profile matches, but the resolved benchmark differs — legitimate
    /// wildcard nondeterminism, reported structurally.
    Diverged {
        /// First differing benchmark line, `"line N: <a> | <b>"`.
        first_difference: String,
    },
    /// The perturbed run communicated differently than the baseline — a
    /// violation: timing faults must never change op counts or volumes.
    ProfileMismatch {
        /// Per-routine differences from [`MpiP::diff`].
        mismatches: Vec<String>,
    },
    /// The perturbed run failed (deadlock, budget, crash).
    RunFailed {
        /// The simulation error, rendered.
        error: String,
    },
    /// The perturbed trace no longer generates a benchmark.
    GenFailed {
        /// The generation error, rendered.
        error: String,
    },
}

impl ChaosVerdict {
    /// Is this verdict a hard invariant violation (as opposed to a pass or
    /// a legitimate, structurally reported divergence)?
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            ChaosVerdict::ProfileMismatch { .. }
                | ChaosVerdict::RunFailed { .. }
                | ChaosVerdict::GenFailed { .. }
        )
    }

    /// Short machine-friendly label (used in telemetry).
    pub fn label(&self) -> &'static str {
        match self {
            ChaosVerdict::Invariant => "invariant",
            ChaosVerdict::Diverged { .. } => "diverged",
            ChaosVerdict::ProfileMismatch { .. } => "profile-mismatch",
            ChaosVerdict::RunFailed { .. } => "run-failed",
            ChaosVerdict::GenFailed { .. } => "gen-failed",
        }
    }

    /// One-line detail for logs (empty for [`ChaosVerdict::Invariant`]).
    pub fn detail(&self) -> String {
        match self {
            ChaosVerdict::Invariant => String::new(),
            ChaosVerdict::Diverged { first_difference } => first_difference.clone(),
            ChaosVerdict::ProfileMismatch { mismatches } => mismatches.join("; "),
            ChaosVerdict::RunFailed { error } | ChaosVerdict::GenFailed { error } => error.clone(),
        }
    }
}

/// One seeded perturbation's result.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Seed of the fault plan.
    pub seed: u64,
    /// What the differential check concluded.
    pub verdict: ChaosVerdict,
}

/// Aggregate result of a chaos differential campaign over one application.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// One outcome per fault plan, in plan order.
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// Seeds whose runs were fully invariant.
    pub fn invariant(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict == ChaosVerdict::Invariant)
            .count()
    }

    /// Structured divergence records (legitimate wildcard nondeterminism).
    pub fn divergences(&self) -> Vec<&ChaosOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.verdict, ChaosVerdict::Diverged { .. }))
            .collect()
    }

    /// Hard violations: profile mismatches, failed runs, failed generation.
    pub fn violations(&self) -> Vec<&ChaosOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_violation())
            .collect()
    }

    /// Did every perturbation uphold the hard invariants? (Divergences are
    /// allowed — they are the documented nondeterminism, not a failure.)
    pub fn passed(&self) -> bool {
        self.violations().is_empty()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos: {}/{} invariant, {} diverged, {} violations",
            self.invariant(),
            self.outcomes.len(),
            self.divergences().len(),
            self.violations().len()
        )
    }
}

/// The standard differential fault plans for `nseeds` seeds on `n` ranks
/// (jitter + skew + reorder + slowdown + stall, no crashes — see
/// [`FaultPlan::differential`]).
pub fn differential_plans(nseeds: usize, n: usize) -> Vec<FaultPlan> {
    (0..nseeds as u64)
        .map(|seed| FaultPlan::differential(seed, n))
        .collect()
}

/// Canonical benchmark text for differential comparison: wildcards
/// resolved, COMPUTE statements suppressed (timing faults legitimately
/// stretch compute intervals; the *communication structure* is what must
/// be invariant), provenance header stripped.
fn canonical_benchmark(trace: &Trace) -> Result<String, String> {
    let opts = GenOptions {
        // Suppress every COMPUTE: any finite duration is below this.
        compute_threshold: SimDuration::from_nanos(u64::MAX >> 1),
        emit_comments: false,
        ..GenOptions::default()
    };
    let mut generated = generate(trace, &opts).map_err(|e| e.to_string())?;
    generated.program.header.clear();
    Ok(conceptual::printer::print(&generated.program))
}

/// First differing line between two benchmark texts.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    let (na, nb) = (a.lines().count(), b.lines().count());
    format!("length: {na} vs {nb} lines")
}

/// Run the chaos differential harness: re-execute `body` under each fault
/// plan, re-trace, re-generate, and compare against the `baseline` trace.
/// Returns `Err` only if the *baseline* itself cannot be profiled and
/// generated (perturbed-side problems are per-seed verdicts).
pub fn differential<F>(
    baseline: &Trace,
    n: usize,
    model: Arc<dyn NetworkModel>,
    body: F,
    plans: &[FaultPlan],
) -> Result<ChaosReport, String>
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    let baseline_profile = crate::verify::profile_of_trace(baseline);
    let baseline_bench = canonical_benchmark(baseline).map_err(|e| format!("baseline: {e}"))?;
    let body = Arc::new(body);

    let mut outcomes = Vec::with_capacity(plans.len());
    for plan in plans {
        let seed = plan.seed;
        let verdict = run_one(
            &baseline_profile,
            &baseline_bench,
            n,
            Arc::clone(&model),
            Arc::clone(&body),
            plan,
        );
        outcomes.push(ChaosOutcome { seed, verdict });
    }
    Ok(ChaosReport { outcomes })
}

fn run_one<F>(
    baseline_profile: &MpiP,
    baseline_bench: &str,
    n: usize,
    model: Arc<dyn NetworkModel>,
    body: Arc<F>,
    plan: &FaultPlan,
) -> ChaosVerdict
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    let world = World::new(n)
        .network(model)
        .faults(plan.clone())
        .op_budget(crate::OP_BUDGET);
    let b = Arc::clone(&body);
    let perturbed = match trace_world(world, n, move |ctx| b(ctx)) {
        Ok(t) => t,
        Err(e) => {
            return ChaosVerdict::RunFailed {
                error: e.to_string(),
            }
        }
    };

    // Hard invariant: identical op counts and volumes per routine.
    let profile = crate::verify::profile_of_trace(&perturbed.trace);
    let mismatches = baseline_profile.diff(&profile);
    if !mismatches.is_empty() {
        return ChaosVerdict::ProfileMismatch { mismatches };
    }

    // Soft invariant: identical resolved benchmark, else a structured
    // divergence record.
    match canonical_benchmark(&perturbed.trace) {
        Err(error) => ChaosVerdict::GenFailed { error },
        Ok(bench) if bench == baseline_bench => ChaosVerdict::Invariant,
        Ok(bench) => ChaosVerdict::Diverged {
            first_difference: first_diff(baseline_bench, &bench),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::network;
    use mpisim::types::{Src, TagSel};
    use scalatrace::trace_app;

    fn ring_with_wildcard(ctx: &mut Ctx) {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        for _ in 0..4 {
            let r = ctx.irecv(Src::Any, TagSel::Is(0), 256, &w);
            let s = ctx.isend(right, 0, 256, &w);
            ctx.compute(SimDuration::from_usecs(10));
            ctx.waitall(&[r, s]);
        }
        ctx.finalize();
    }

    #[test]
    fn ring_is_invariant_under_differential_plans() {
        const N: usize = 4;
        let baseline = trace_app(N, network::blue_gene_l(), ring_with_wildcard).unwrap();
        let report = differential(
            &baseline.trace,
            N,
            network::blue_gene_l(),
            ring_with_wildcard,
            &differential_plans(4, N),
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.passed(), "{report}: {:?}", report.violations());
    }

    #[test]
    fn crash_plans_surface_as_run_failed_violations() {
        const N: usize = 3;
        let baseline = trace_app(N, network::ideal(), ring_with_wildcard).unwrap();
        let plans = vec![FaultPlan::seeded(0).crash_rank(1, 2)];
        let report = differential(
            &baseline.trace,
            N,
            network::ideal(),
            ring_with_wildcard,
            &plans,
        )
        .unwrap();
        assert!(!report.passed());
        assert!(matches!(
            report.outcomes[0].verdict,
            ChaosVerdict::RunFailed { .. }
        ));
        assert_eq!(report.outcomes[0].verdict.label(), "run-failed");
    }

    #[test]
    fn first_diff_pinpoints_the_line() {
        assert_eq!(first_diff("a\nb\nc", "a\nx\nc"), "line 2: \"b\" vs \"x\"");
        assert_eq!(first_diff("a", "a\nb"), "length: 1 vs 2 lines");
    }
}
