#![forbid(unsafe_code)]
//! # commspec — automatic generation of executable communication specifications
//!
//! Umbrella crate re-exporting the subsystems of this reproduction of
//! *"Automatic Generation of Executable Communication Specifications from
//! Parallel Applications"* (Wu, Mueller, Pakin; 2011):
//!
//! * [`mpisim`] — a deterministic, discrete-event MPI runtime (the substrate
//!   standing in for a real MPI library + cluster hardware),
//! * [`scalatrace`] — lossless, structure-aware communication tracing with
//!   RSD/PRSD compression and scalable timing histograms,
//! * [`conceptual`] — the coNCePTuaL-style domain-specific language: AST,
//!   parser, pretty-printer, and an interpreter that executes programs on
//!   [`mpisim`],
//! * [`benchgen`] — the paper's contribution: the trace-to-benchmark
//!   generator, including collective alignment (Algorithm 1) and wildcard
//!   resolution with deadlock detection (Algorithm 2),
//! * [`miniapps`] — communication skeletons of the NAS Parallel Benchmarks
//!   and Sweep3D used for the paper's evaluation.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! reproduced tables and figures. The typical pipeline is:
//!
//! ```
//! use commspec::prelude::*;
//!
//! // 1. Trace an application running on the simulated machine.
//! let app = miniapps::registry::lookup("ring").unwrap();
//! let traced = scalatrace::trace_app(8, mpisim::network::ethernet_cluster(),
//!                                    |ctx| (app.run)(ctx, &miniapps::AppParams::quick()))
//!     .unwrap();
//!
//! // 2. Generate an executable communication specification from the trace.
//! let program = benchgen::generate(&traced.trace, &benchgen::GenOptions::default()).unwrap();
//!
//! // 3. The program is readable text ...
//! let source = conceptual::printer::print(&program.program);
//! assert!(source.contains("TASKS"));
//!
//! // 4. ... and executable, reproducing the application's behaviour.
//! let report = conceptual::interp::run_program(&program.program, 8,
//!                                              mpisim::network::ethernet_cluster()).unwrap();
//! assert!(report.total_time.as_nanos() > 0);
//! ```

pub use benchgen;
pub use conceptual;
pub use miniapps;
pub use mpisim;
pub use scalatrace;

pub mod cli;
pub mod perf;

/// Convenient glob imports for the full pipeline.
pub mod prelude {
    pub use benchgen::{self, GenOptions};
    pub use conceptual::{self, ast::Program};
    pub use miniapps;
    pub use mpisim::{self, network, time::SimTime, world::World};
    pub use scalatrace::{self, trace::Trace};
}
