#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # benchgen — automatic generation of executable communication
//! specifications from parallel-application traces
//!
//! The paper's primary contribution: convert a compressed ScalaTrace-style
//! trace into an executable, readable coNCePTuaL program with identical
//! run-time behaviour. The pipeline ([`generate`]):
//!
//! 1. **O(r) pre-checks** — [`scalatrace::Trace::has_unaligned_collectives`]
//!    and [`scalatrace::Trace::has_wildcard_recv`] decide whether the O(p·e)
//!    algorithms need to run at all (§4.3/§4.4). Both walk the compressed
//!    trace and skip every period their state repeats, so `e` counts the
//!    events walked, not the iterations.
//! 2. **Algorithm 1** ([`align`]) — merge per-node collective RSDs from
//!    different call sites into single full-communicator RSDs.
//! 3. **Algorithm 2** ([`wildcard`]) — replace `MPI_ANY_SOURCE` with
//!    arbitrary-but-valid concrete sources; report potential deadlocks.
//! 4. **Code generation** ([`codegen`]) — one walk over the trace maps
//!    point-to-point RSDs to SEND/RECEIVE, computation to COMPUTE, PRSDs to
//!    FOR loops, communicators to PARTITION groups in absolute ranks
//!    (§4.2), and collectives per Table 1 ([`collectives`]).
//! 5. **Validation** — [`conceptual::analyze::validate`] checks the program
//!    before it is returned, so `generate` never hands out a program the
//!    interpreter would refuse ([`GenError::InvalidProgram`]).
//!
//! ```
//! use mpisim::{network, time::SimDuration, types::{Src, TagSel}};
//!
//! let traced = scalatrace::trace_app(8, network::ideal(), |ctx| {
//!     let w = ctx.world();
//!     let right = (ctx.rank() + 1) % ctx.size();
//!     let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
//!     for _ in 0..100 {
//!         let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 1024, &w);
//!         let s = ctx.isend(right, 0, 1024, &w);
//!         ctx.compute(SimDuration::from_usecs(50));
//!         ctx.waitall(&[r, s]);
//!     }
//!     ctx.finalize();
//! }).unwrap();
//!
//! let generated = benchgen::generate(&traced.trace, &benchgen::GenOptions::default()).unwrap();
//! let text = conceptual::printer::print(&generated.program);
//! assert!(text.contains("FOR 100 REPETITIONS {"));
//!
//! // The generated benchmark is executable:
//! let outcome = conceptual::interp::run_program(&generated.program, 8,
//!                                               network::ideal()).unwrap();
//! assert_eq!(outcome.report.ranks, 8);
//! ```

pub mod align;
pub mod chaos;
pub mod codegen;
pub mod collectives;
pub mod rebuild;
pub mod taskset;
mod traverse;
pub mod verify;
pub mod wildcard;

use conceptual::ast::Program;
use mpisim::time::SimDuration;
use scalatrace::trace::Trace;

pub use align::align_collectives;
pub use chaos::{differential_plans, ChaosOutcome, ChaosReport, ChaosVerdict};
pub use wildcard::{resolve_wildcards, WildcardOutcome};

/// The engine ops every world a job builds may issue (`World::op_budget`);
/// going over is the same [`mpisim::SimError::BudgetExceeded`] every run.
/// Measured (release, 2-vCPU VM): the largest registry job at 256 ranks,
/// classes S–C, is sp class C at 2 546 560 ops, and 2^23 is 3.3 times that.
/// A run that exhausts it stops after 1.0–5.3 s untraced, 2.4–8.9 s traced
/// (ring r4 to mg r4096, 0.11–1.07 µs per op).
pub const OP_BUDGET: u64 = 1 << 23;

/// The largest world a job may build: each rank maps a 512 KiB stack, and
/// ring and mg class S at 4 096 ranks peak at 409 and 524 MB resident.
/// No caller runs more (`tests/scale.rs` runs 4 096).
pub const MAX_RANKS: usize = 4096;

/// Generation options.
#[derive(Clone, Debug)]
pub struct GenOptions {
    /// Run Algorithm 1 when the pre-check finds unaligned collectives.
    pub align_collectives: bool,
    /// Run Algorithm 2 when the pre-check finds wildcard receives.
    pub resolve_wildcards: bool,
    /// Suppress COMPUTE statements at or below this duration.
    pub compute_threshold: SimDuration,
    /// Emit a provenance comment before each generated statement group
    /// (routine name, call-site signature, rank set, event count).
    pub emit_comments: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            align_collectives: true,
            resolve_wildcards: true,
            compute_threshold: SimDuration::ZERO,
            emit_comments: false,
        }
    }
}

/// Generation failure.
#[derive(Clone, Debug)]
pub enum GenError {
    /// Algorithm 2's traversal cannot make progress: the original
    /// application has a potential deadlock (the paper's Figure 5). Each
    /// entry is `(rank, description of the blocking operation)`.
    PotentialDeadlock {
        /// `(rank, description of the blocking operation)` per stuck rank.
        blocked: Vec<(usize, String)>,
    },
    /// Algorithm 1 found collectives that cannot be combined (mismatched
    /// kinds on one communicator, or a stalled traversal).
    UnalignableCollective(String),
    /// The generated program fails [`conceptual::analyze::validate`]; one
    /// entry per diagnostic.
    InvalidProgram(Vec<String>),
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::PotentialDeadlock { blocked } => {
                writeln!(
                    f,
                    "potential deadlock in the traced application (wildcard resolution stalled):"
                )?;
                for (r, what) in blocked {
                    writeln!(f, "  rank {r}: {what}")?;
                }
                Ok(())
            }
            GenError::UnalignableCollective(what) => {
                write!(f, "cannot align collectives: {what}")
            }
            GenError::InvalidProgram(errors) => {
                writeln!(f, "the generated program fails validation:")?;
                for e in errors {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for GenError {}

/// The generated benchmark plus provenance about the transformations that
/// produced it.
#[derive(Clone, Debug)]
pub struct GeneratedBenchmark {
    /// The generated coNCePTuaL program.
    pub program: Program,
    /// Did Algorithm 1 run?
    pub aligned: bool,
    /// Wildcard occurrences resolved by Algorithm 2.
    pub wildcards_resolved: usize,
    /// Approximation notes (Table 1 substitutions, averaging).
    pub notes: Vec<String>,
}

/// Run the full trace-to-benchmark pipeline.
pub fn generate(trace: &Trace, opts: &GenOptions) -> Result<GeneratedBenchmark, GenError> {
    let mut work: Trace;
    let mut current = trace;

    // Algorithm 1, guarded by the O(r) pre-check.
    let mut aligned = false;
    if opts.align_collectives && current.has_unaligned_collectives() {
        work = align::align_collectives(current)?;
        aligned = true;
        current = &work;
    }

    // Algorithm 2, guarded by the O(r) pre-check.
    let mut wildcards_resolved = 0;
    if opts.resolve_wildcards && current.has_wildcard_recv() {
        let outcome = wildcard::resolve_wildcards(current)?;
        wildcards_resolved = outcome.resolved;
        work = outcome.trace;
        current = &work;
    }

    let (mut program, notes) =
        codegen::program_of_with(current, opts.compute_threshold, opts.emit_comments);

    program.header = build_header(trace, aligned, wildcards_resolved, &notes);
    // Canonical form: the text grammar folds leading comment statements
    // into the header, so emit them there to keep parse(print(p)) == p.
    while matches!(
        program.stmts.first(),
        Some(conceptual::ast::Stmt::Comment(_))
    ) {
        if let conceptual::ast::Stmt::Comment(c) = program.stmts.remove(0) {
            program.header.push(c);
        }
    }
    let errors = conceptual::analyze::validate(&program, trace.nranks);
    if !errors.is_empty() {
        return Err(GenError::InvalidProgram(errors));
    }
    Ok(GeneratedBenchmark {
        program,
        aligned,
        wildcards_resolved,
        notes,
    })
}

fn build_header(
    trace: &Trace,
    aligned: bool,
    wildcards_resolved: usize,
    notes: &[String],
) -> Vec<String> {
    let mut header = vec![
        "Auto-generated executable communication specification".to_string(),
        format!(
            "source trace: {} tasks, {} events ({} trace nodes)",
            trace.nranks,
            trace.concrete_event_count(),
            trace.node_count()
        ),
    ];
    if aligned {
        header.push("collectives aligned across call sites (Algorithm 1)".to_string());
    }
    if wildcards_resolved > 0 {
        header.push(format!(
            "{wildcards_resolved} wildcard receive(s) resolved deterministically (Algorithm 2)"
        ));
    }
    for n in notes {
        header.push(format!("approximation: {n}"));
    }
    header
}
