//! The four workloads. Each one's module comment says why it exists.

pub mod generate_large;
pub mod pipeline_npb;
pub mod service_mix;
pub mod trace_store;

use crate::harness::{RunConfig, Workload};
use crate::stats::Rng;

pub const NAMES: [&str; 4] = [
    "pipeline_npb",
    "generate_large",
    "trace_store",
    "service_mix",
];

pub fn setup(name: &str, cfg: &RunConfig) -> Result<Box<dyn Workload>, String> {
    match name {
        "pipeline_npb" => pipeline_npb::PipelineNpb::setup(cfg),
        "generate_large" => generate_large::GenerateLarge::setup(cfg),
        "trace_store" => trace_store::TraceStore::setup(cfg),
        "service_mix" => service_mix::ServiceMix::setup(cfg),
        other => Err(format!(
            "unknown workload {other}; expected one of {}",
            NAMES.join(", ")
        )),
    }
}

/// The seeded input every simulator-backed cell takes: a compute-time scale
/// within ±5 % of 1. It changes every virtual time in the trace, the
/// generated program and both runs, so no two seeds see the same artifacts,
/// and it leaves the host work — operations simulated, nodes merged,
/// statements generated — where it was, so two seeds' timings stay
/// comparable. (An `iterations` draw would not: class S runs 2–20
/// iterations, and one more or less moves a cell by 5–50 %.)
pub fn seeded_scale(rng: &mut Rng) -> f64 {
    0.95 + rng.below(101) as f64 / 1000.0
}
