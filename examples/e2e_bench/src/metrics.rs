//! The benchmark's vocabulary: every metric's name, unit and — for the
//! end-to-end ones — the share by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` at the repo root repeats these
//! tables; `selftest` fails if the two disagree.

use crate::harness::{span_seconds, Counts, EndToEnd, RunResult};
use crate::stats::median;
use std::collections::BTreeMap;

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// All lower-is-better, all measured with tracing off, all defined on every
/// workload. `failed_share` is not here because it must stay 0 and a
/// contract metric may never read 0: it is the `failed` / `attempted` pair
/// every result carries, and any failure makes the run exit non-zero.
pub const END_TO_END: [EndToEndMetric; 7] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "pass_ref_s",
        unit: "s",
        bound: 0.15,
    },
    EndToEndMetric {
        name: "cell_geomean_ref_ms",
        unit: "ms",
        bound: 0.15,
    },
    EndToEndMetric {
        name: "job_p95_ref_ms",
        unit: "ms",
        bound: 0.20,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "artifact_bytes",
        unit: "bytes",
        bound: 0.01,
    },
    EndToEndMetric {
        name: "time_error_pct",
        unit: "%",
        bound: 0.25,
    },
];

/// `(name, unit)`. A workload that never enters a layer reports that
/// layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 84] = [
    ("mpisim.app_run_s", "s"),
    ("mpisim.ops", "count"),
    ("mpisim.messages", "count"),
    ("mpisim.collectives", "count"),
    ("mpisim.unexpected_messages", "count"),
    ("mpisim.flow_control_stalls", "count"),
    ("mpisim.us_per_op", "us"),
    ("mpisim.unpinned_ratio", "ratio"),
    ("scalatrace.capture.run_s", "s"),
    ("scalatrace.capture.overhead_ratio", "ratio"),
    ("scalatrace.capture.events", "count"),
    ("scalatrace.capture.nodes_per_rank", "count"),
    ("scalatrace.capture.fold_ratio", "ratio"),
    ("scalatrace.merge.self_s", "s"),
    ("scalatrace.merge.ranks_in", "count"),
    ("scalatrace.merge.nodes_out", "count"),
    ("scalatrace.merge.classes", "count"),
    ("scalatrace.merge.rep_merges", "count"),
    ("scalatrace.merge.lcs_cells", "count"),
    ("scalatrace.merge.zip_merges", "count"),
    ("scalatrace.merge.collisions", "count"),
    ("scalatrace.merge.us_per_rank_r256", "us"),
    ("scalatrace.merge.us_per_rank_r1024", "us"),
    ("scalatrace.merge.scaling_r1024_over_r256", "ratio"),
    ("scalatrace.merge.width2_ratio", "ratio"),
    ("scalatrace.stream.capture_s", "s"),
    ("scalatrace.stream.slowdown_ratio", "ratio"),
    ("scalatrace.stream.segments_sealed", "count"),
    ("scalatrace.stream.segments_reloaded", "count"),
    ("scalatrace.stream.bytes_written", "bytes"),
    ("scalatrace.stream.peak_resident_nodes", "count"),
    ("scalatrace.stream.salvage_s", "s"),
    ("scalatrace.stream.fsck_s", "s"),
    ("scalatrace.codec.stbs_encode_s", "s"),
    ("scalatrace.codec.stbs_decode_s", "s"),
    ("scalatrace.codec.text_encode_s", "s"),
    ("scalatrace.codec.text_decode_s", "s"),
    ("scalatrace.codec.stbs_bytes", "bytes"),
    ("scalatrace.codec.text_bytes", "bytes"),
    ("scalatrace.extrap.self_s", "s"),
    ("scalatrace.extrap.refused", "count"),
    ("campaign.cache.store_s", "s"),
    ("campaign.cache.load_s", "s"),
    ("campaign.cache.bytes_on_disk", "bytes"),
    ("campaign.runner.jobs", "count"),
    ("campaign.runner.job_s", "s"),
    ("benchgen.align.self_s", "s"),
    ("benchgen.align.ran", "count"),
    ("benchgen.wildcard.self_s", "s"),
    ("benchgen.wildcard.resolved", "count"),
    ("benchgen.codegen.self_s", "s"),
    ("benchgen.codegen.stmts", "count"),
    ("benchgen.generate_s", "s"),
    ("benchgen.verify.profile_mismatches", "count"),
    ("benchgen.verify.max_time_error_pct", "%"),
    ("conceptual.print.self_s", "s"),
    ("conceptual.print.program_bytes", "bytes"),
    ("conceptual.parse.self_s", "s"),
    ("conceptual.parse.mb_per_s", "MB/s"),
    ("conceptual.interp.run_s", "s"),
    ("conceptual.interp.ops", "count"),
    ("conceptual.interp.overhead_ratio", "ratio"),
    ("protocol.wire.encode_s", "s"),
    ("protocol.wire.decode_s", "s"),
    ("protocol.wire.bytes", "bytes"),
    ("server.submit_ack_ms_p50", "ms"),
    ("server.cold_ms_p50", "ms"),
    ("server.warm_ms_p50", "ms"),
    ("server.simulate_ms_p50", "ms"),
    ("server.replay_ms_p50", "ms"),
    ("server.campaign_ms_p50", "ms"),
    ("server.mem_hits", "count"),
    ("server.mem_misses", "count"),
    ("server.jobs_done", "count"),
    ("server.jobs_replayed", "count"),
    ("server.jobs_failed", "count"),
    ("server.rejects", "count"),
    ("server.restart_replay_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.accounted_ratio", "ratio"),
    ("bench.check_s", "s"),
    ("bench.verify_s", "s"),
    ("bench.clone_s", "s"),
    ("bench.traced_passes", "count"),
];

/// The end-to-end values of a run, in table order.
pub fn end_to_end_values(e: &EndToEnd) -> [f64; 7] {
    [
        e.setup_s,
        e.pass_ref_s,
        e.cell_geomean_ref_ms,
        e.job_p95_ref_ms,
        e.peak_rss_mb,
        e.artifact_bytes as f64,
        e.time_error_pct,
    ]
}

/// Every per-layer metric of a traced run, in table order. Seconds come
/// from span self times (the median over traced passes of each pass's sum),
/// counts from the layer boundaries of the last traced pass and the probes,
/// ratios from those two.
pub fn per_layer_values(result: &RunResult) -> Vec<f64> {
    let (seconds, accounted) = span_seconds(&result.logs);
    let mut m: Counts = result.layer.clone();
    let sec = |span: &str| seconds.get(span).copied().unwrap_or(0.0);
    for (name, unit) in PER_LAYER {
        if unit == "s" && !m.contains_key(name) {
            let span = name
                .strip_suffix(".self_s")
                .or_else(|| name.strip_suffix("_s"))
                .expect("a seconds metric ends in _s");
            m.insert(name, sec(span));
        }
    }
    // Inclusive: the pre-checks plus the three stages.
    m.insert(
        "benchgen.generate_s",
        sec("benchgen.generate")
            + sec("benchgen.align")
            + sec("benchgen.wildcard")
            + sec("benchgen.codegen"),
    );
    let get = |m: &Counts, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let app_run = get(&m, "mpisim.app_run_s");
    let derived: BTreeMap<&'static str, f64> = [
        (
            "scalatrace.capture.overhead_ratio",
            ratio(get(&m, "scalatrace.capture.run_s"), app_run),
        ),
        (
            "scalatrace.capture.nodes_per_rank",
            ratio(
                get(&m, "scalatrace.capture.rank_nodes"),
                get(&m, "scalatrace.capture.ranks"),
            ),
        ),
        (
            "scalatrace.capture.fold_ratio",
            ratio(
                get(&m, "scalatrace.capture.events"),
                get(&m, "scalatrace.capture.rank_nodes"),
            ),
        ),
        (
            "conceptual.interp.overhead_ratio",
            ratio(get(&m, "conceptual.interp.run_s"), app_run),
        ),
        (
            "conceptual.parse.mb_per_s",
            ratio(
                get(&m, "conceptual.print.program_bytes") / 1e6,
                get(&m, "conceptual.parse.self_s"),
            ),
        ),
        (
            "bench.trace_overhead_ratio",
            ratio(median(&result.traced_pass_s), median(&result.rec.pass_s)),
        ),
        ("bench.accounted_ratio", accounted),
        ("bench.traced_passes", result.traced_pass_s.len() as f64),
        (
            "benchgen.verify.max_time_error_pct",
            result
                .rec
                .cells
                .iter()
                .filter_map(|c| c.err_pct)
                .fold(0.0, f64::max),
        ),
    ]
    .into_iter()
    .collect();
    for (k, v) in derived {
        m.entry(k).or_insert(v);
    }
    PER_LAYER.iter().map(|(name, _)| get(&m, name)).collect()
}
