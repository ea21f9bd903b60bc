#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # conceptual — a coNCePTuaL-style DSL for communication benchmarks
//!
//! The paper generates benchmarks in coNCePTuaL (Pakin), "a domain-specific
//! language for specifying communication patterns" with an English-like
//! grammar that compiles to C+MPI. This crate reproduces the subset the
//! generator needs:
//!
//! * [`ast`] — programs as plain data,
//! * [`printer`] — rendering to readable text (the generated artifact),
//! * [`parser`] — exact round-trip parsing, keeping the artifact *editable*
//!   (the paper's §5.4 what-if analysis edits the program and re-runs it),
//! * [`analyze`] — static validation,
//! * [`interp`] — execution on [`mpisim`], standing in for the coNCePTuaL
//!   compiler's C+MPI backend; statements map 1:1 onto MPI calls so that
//!   mpiP-style profiles of the benchmark are comparable to profiles of the
//!   original application.
//!
//! ```
//! use conceptual::{parser, printer, interp};
//! use mpisim::network;
//!
//! // The paper's §3.2 example program (with explicit units):
//! let src = r#"
//! FOR 10 REPETITIONS {
//!   ALL TASKS RESET THEIR COUNTERS
//!   ALL TASKS t ASYNCHRONOUSLY SEND A 1024 BYTE MESSAGE TO TASK (t + 1) MOD NUM_TASKS
//!   ALL TASKS AWAIT COMPLETION
//!   ALL TASKS LOG "Time (us)"
//! }
//! "#;
//! let program = parser::parse(src).unwrap();
//! assert_eq!(parser::parse(&printer::print(&program)).unwrap(), program);
//!
//! let outcome = interp::run_program(&program, 8, network::ethernet_cluster()).unwrap();
//! assert_eq!(outcome.logs.len(), 8 * 10);      // every task logs every repetition
//! assert!(outcome.total_time.as_nanos() > 0);
//! ```

pub mod analyze;
pub mod ast;
pub mod interp;
pub mod parser;
pub mod printer;
pub mod transform;

pub use ast::{Cond, Expr, Program, ReduceTo, Stmt, TaskRun, TaskSel, TaskSet, TimeUnit};
pub use interp::{run_program, run_program_on, LogEntry, RunError, RunOutcome};
pub use parser::parse;
pub use printer::print;
