//! `trace_store` — `scalatrace` used in every direction, with no generator
//! and (outside the small capture cells) no simulator in the timed region.
//!
//! * leaf merge on *real* per-rank sequences kept from set-up captures, at
//!   256 and 1024 ranks: the scaling in P that synthetic merge streams hide;
//! * unbounded against streamed capture (bounded memory, sealed segments);
//! * the read paths beside those writes — salvage, fsck, cache load, STBS
//!   and text decode — so a write-side gain that costs reads shows as its
//!   own cell;
//! * extrapolation from 64 to 4096 ranks.

use crate::harness::{
    digest_of, time_error_pct, Counts, JobOutcome, Lane, Layers, Recorder, RunConfig, Workload,
    PROBE_PASS,
};
use crate::stats::{median, Rng};
use crate::workloads::seeded_scale;
use campaign::TraceCache;
use miniapps::{registry, App, AppParams, Class};
use mpisim::network;
use mpisim::time::SimTime;
use mpisim::world::World;
use scalatrace::extrap::extrapolate;
use scalatrace::stream::{trace_from_bytes, trace_to_bytes};
use scalatrace::trace::{CommTable, Trace, TraceNode};
use scalatrace::{
    fsck_dir, salvage_dir, trace_world_streamed, StreamConfig, StreamCounters, Tracer,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Resident-node budget of the streamed captures.
const STREAM_BUDGET: usize = 64;
/// Rank count extrapolation starts from and arrives at.
const EXTRAP_FROM: usize = 64;
const EXTRAP_TO: usize = 4096;

/// `(app, ranks, iterations)` of the merge cells; the CG pair gives the
/// scaling row.
const MERGES: [(&str, usize, usize); 5] = [
    ("cg", 256, 2),
    ("cg", 1024, 2),
    ("lu", 1024, 1),
    ("mg", 256, 1),
    ("sweep3d", 256, 1),
];
const SMOKE_MERGES: [(&str, usize, usize); 2] = [("cg", 16, 2), ("mg", 16, 1)];

/// `(app, iterations)` of the 8-rank capture cells.
const CAPTURES: [(&str, usize); 2] = [("ring", 400), ("mg", 4)];

/// Per-rank sequences of one captured run, and their merge.
struct MergeInput {
    name: String,
    ranks: usize,
    seqs: Vec<Vec<TraceNode>>,
    comms: CommTable,
    /// A copy the next pass consumes, cloned between passes.
    next: Option<Vec<Vec<TraceNode>>>,
    merged: Trace,
    merged_stbs: Vec<u8>,
}

/// One 8-rank application captured both ways.
struct CaptureInput {
    app: &'static App,
    params: AppParams,
    dir: PathBuf,
    /// STBS of the unbounded capture: what the streamed one must equal.
    reference: Vec<u8>,
    t_app_ns: u64,
}

struct ExtrapInput {
    trace: Trace,
}

enum Op {
    Merge(usize),
    CaptureUnbounded(usize),
    CaptureStreamed(usize),
    Salvage(usize),
    CacheStore,
    CacheLoad,
    StbsRoundTrip,
    TextRoundTrip,
    Extrapolate(usize),
}

pub struct TraceStore {
    merges: Vec<MergeInput>,
    captures: Vec<CaptureInput>,
    extraps: Vec<ExtrapInput>,
    cache: TraceCache,
    ops: Vec<(String, Op)>,
}

const RANKS8: usize = 8;

fn body_of(
    app: &'static App,
    params: AppParams,
) -> impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static {
    let run = app.run;
    move |ctx| run(ctx, &params)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn streamed(c: &CaptureInput) -> Result<scalatrace::StreamedRun, String> {
    trace_world_streamed(
        World::new(RANKS8).network(network::ethernet_cluster()),
        RANKS8,
        &StreamConfig::new(&c.dir, STREAM_BUDGET),
        body_of(c.app, c.params),
    )
    .map_err(|e| format!("streamed capture: {e}"))
}

impl TraceStore {
    pub fn setup(cfg: &RunConfig) -> Result<Box<dyn Workload>, String> {
        let mut rng = Rng::new(cfg.seed ^ (3 << 32));
        let model = network::ethernet_cluster;
        let mut ops = Vec::new();

        let mut merges = Vec::new();
        let table: &[_] = if cfg.smoke { &SMOKE_MERGES } else { &MERGES };
        for &(name, ranks, iterations) in table {
            let app = registry::lookup(name).ok_or(format!("no app {name}"))?;
            let params = AppParams {
                class: Class::S,
                iterations: Some(iterations),
                compute_scale: seeded_scale(&mut rng),
            };
            let (_, tracers) = World::new(ranks)
                .network(model())
                .run_hooked(move |r| Tracer::new(r, ranks), body_of(app, params))
                .map_err(|e| format!("set-up capture of {name} r{ranks}: {e}"))?;
            let mut comms = CommTable::world(ranks);
            let mut seqs = Vec::with_capacity(ranks);
            for t in tracers {
                let (seq, c) = t.into_parts();
                comms.absorb(c);
                seqs.push(seq);
            }
            let merged = Trace {
                nranks: ranks,
                nodes: scalatrace::merge::merge_sequences(seqs.clone(), ranks),
                comms: comms.clone(),
            };
            ops.push((format!("merge_{name}_r{ranks}"), Op::Merge(merges.len())));
            merges.push(MergeInput {
                name: format!("{name}_r{ranks}"),
                ranks,
                seqs,
                comms,
                next: None,
                merged_stbs: trace_to_bytes(&merged),
                merged,
            });
        }

        let mut captures = Vec::new();
        for (name, iterations) in CAPTURES {
            let app = registry::lookup(name).ok_or(format!("no app {name}"))?;
            let params = AppParams {
                class: Class::S,
                iterations: Some(iterations),
                compute_scale: seeded_scale(&mut rng),
            };
            let traced = scalatrace::trace_app(RANKS8, model(), body_of(app, params))
                .map_err(|e| format!("set-up capture of {name} r8: {e}"))?;
            let input = CaptureInput {
                app,
                params,
                dir: cfg.scratch.join(format!("stream-{name}")),
                reference: trace_to_bytes(&traced.trace),
                t_app_ns: traced.report.total_time.as_nanos(),
            };
            // The salvage cell may run before the streamed one in a
            // shuffled pass: leave segments for it from the start.
            let _ = std::fs::remove_dir_all(&input.dir);
            streamed(&input)?;
            let i = captures.len();
            ops.push((
                format!("capture_unbounded_{name}_r8"),
                Op::CaptureUnbounded(i),
            ));
            ops.push((
                format!("capture_streamed_{name}_r8"),
                Op::CaptureStreamed(i),
            ));
            ops.push((format!("salvage_{name}_r8"), Op::Salvage(i)));
            captures.push(input);
        }

        let mut extraps = Vec::new();
        if !cfg.smoke {
            for name in ["ring", "mg"] {
                let app = registry::lookup(name).ok_or(format!("no app {name}"))?;
                let params = AppParams {
                    class: Class::S,
                    iterations: None,
                    compute_scale: seeded_scale(&mut rng),
                };
                let traced = scalatrace::trace_app(EXTRAP_FROM, model(), body_of(app, params))
                    .map_err(|e| format!("set-up capture of {name} r{EXTRAP_FROM}: {e}"))?;
                ops.push((
                    format!("extrapolate_{name}_r{EXTRAP_FROM}_r{EXTRAP_TO}"),
                    Op::Extrapolate(extraps.len()),
                ));
                extraps.push(ExtrapInput {
                    trace: traced.trace,
                });
            }
        }

        ops.push(("cache_store".to_string(), Op::CacheStore));
        ops.push(("cache_load".to_string(), Op::CacheLoad));
        ops.push(("stbs_roundtrip".to_string(), Op::StbsRoundTrip));
        ops.push(("text_roundtrip".to_string(), Op::TextRoundTrip));

        let cache =
            TraceCache::open(cfg.scratch.join("cache")).map_err(|e| format!("cache: {e}"))?;
        let store = TraceStore {
            merges,
            captures,
            extraps,
            cache,
            ops,
        };
        // `cache_load` may come before `cache_store` in a shuffled pass.
        store.cache_store()?;
        Ok(Box::new(store))
    }

    fn cache_store(&self) -> Result<(), String> {
        for (key, m) in self.merges.iter().enumerate() {
            self.cache
                .store(key as u64, &m.merged, SimTime::from_nanos(1), &[])
                .map_err(|e| format!("cache store {}: {e}", m.name))?;
        }
        Ok(())
    }

    /// One cell: the measured call, then its output checks. Returns
    /// `(latency of the measured call in ms, artifact bytes, artifact digest)`.
    fn visit(&mut self, op: usize, lane: &mut Lane<'_>) -> Result<(f64, u64, u64), String> {
        let t0 = Instant::now();
        let ms = move || t0.elapsed().as_secs_f64() * 1e3;
        match self.ops[op].1 {
            Op::Merge(i) => {
                let m = &mut self.merges[i];
                let seqs = m.next.take().ok_or("merge input was not prepared")?;
                let nodes = lane.merge_sequences(seqs, m.ranks);
                let ms = ms();
                let check = lane.enter("bench.check");
                let merged = Trace {
                    nranks: m.ranks,
                    nodes,
                    comms: m.comms.clone(),
                };
                let same = merged == m.merged;
                lane.exit(check);
                if !same {
                    return Err("merge differs from the set-up merge".to_string());
                }
                Ok((ms, m.merged_stbs.len() as u64, digest_of(&[&m.merged_stbs])))
            }
            Op::CaptureUnbounded(i) => {
                let c = &self.captures[i];
                let traced = lane.capture(c.app, RANKS8, c.params, network::ethernet_cluster())?;
                let ms = ms();
                let stbs = trace_to_bytes(&traced.trace);
                if stbs != c.reference {
                    return Err("unbounded capture is not deterministic".to_string());
                }
                Ok((ms, stbs.len() as u64, digest_of(&[&stbs])))
            }
            Op::CaptureStreamed(i) => {
                let c = &self.captures[i];
                let _ = std::fs::remove_dir_all(&c.dir);
                let t0 = Instant::now();
                let run = lane.span("scalatrace.stream.capture", || streamed(c))?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let check = lane.enter("bench.check");
                let mut counters = StreamCounters::default();
                for rank in &run.counters {
                    counters.absorb(rank);
                }
                let written = dir_bytes(&c.dir);
                lane.count(
                    "scalatrace.stream.segments_sealed",
                    counters.segments_sealed as f64,
                );
                lane.count(
                    "scalatrace.stream.segments_reloaded",
                    counters.segments_reloaded as f64,
                );
                lane.count(
                    "scalatrace.stream.peak_resident_nodes",
                    counters.peak_resident as f64,
                );
                lane.count("scalatrace.stream.bytes_written", written as f64);
                let stbs = trace_to_bytes(&run.run.trace);
                lane.exit(check);
                if let Some(e) = run.run.error {
                    return Err(format!("streamed run ended early: {e}"));
                }
                if counters.seal_errors > 0 || !run.salvage.complete() {
                    return Err("streamed capture did not seal completely".to_string());
                }
                if stbs != c.reference {
                    return Err("streamed STBS != unbounded STBS".to_string());
                }
                Ok((ms, written, digest_of(&[&stbs])))
            }
            Op::Salvage(i) => {
                let c = &self.captures[i];
                let (trace, report) = lane
                    .span("scalatrace.stream.salvage", || salvage_dir(&c.dir))
                    .map_err(|e| format!("salvage: {e}"))?;
                let fsck = lane
                    .span("scalatrace.stream.fsck", || fsck_dir(&c.dir))
                    .map_err(|e| format!("fsck: {e}"))?;
                let ms = ms();
                if !report.complete() || report.quarantined() > 0 {
                    return Err("salvage did not report a complete capture".to_string());
                }
                if !fsck.clean() {
                    return Err("fsck quarantined a sealed segment".to_string());
                }
                let stbs = trace_to_bytes(&trace);
                if stbs != c.reference {
                    return Err("salvaged STBS != unbounded STBS".to_string());
                }
                Ok((ms, 0, digest_of(&[&stbs])))
            }
            Op::CacheStore => {
                lane.span("campaign.cache.store", || self.cache_store())?;
                let ms = ms();
                let bytes = dir_bytes(self.cache.dir());
                lane.count("campaign.cache.bytes_on_disk", bytes as f64);
                Ok((ms, bytes, digest_of(&[])))
            }
            Op::CacheLoad => {
                let loaded: Vec<_> = lane.span("campaign.cache.load", || {
                    (0..self.merges.len())
                        .map(|key| self.cache.load(key as u64))
                        .collect()
                });
                let ms = ms();
                for (m, hit) in self.merges.iter().zip(loaded) {
                    match hit {
                        Some(hit) if hit.trace == m.merged => {}
                        Some(_) => return Err(format!("load(store({0})) != {0}", m.name)),
                        None => return Err(format!("cache miss on {}", m.name)),
                    }
                }
                Ok((ms, 0, digest_of(&[])))
            }
            Op::StbsRoundTrip => {
                let encoded: Vec<Vec<u8>> = lane.span("scalatrace.codec.stbs_encode", || {
                    self.merges
                        .iter()
                        .map(|m| trace_to_bytes(&m.merged))
                        .collect()
                });
                let decoded: Vec<_> = lane.span("scalatrace.codec.stbs_decode", || {
                    encoded.iter().map(|b| trace_from_bytes(b)).collect()
                });
                let ms = ms();
                let bytes: usize = encoded.iter().map(Vec::len).sum();
                lane.count("scalatrace.codec.stbs_bytes", bytes as f64);
                for (m, d) in self.merges.iter().zip(decoded) {
                    if d.map_err(|e| format!("STBS decode {}: {e}", m.name))? != m.merged {
                        return Err(format!("STBS round trip changed {}", m.name));
                    }
                }
                let parts: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
                Ok((ms, bytes as u64, digest_of(&parts)))
            }
            Op::TextRoundTrip => {
                let encoded: Vec<String> = lane.span("scalatrace.codec.text_encode", || {
                    self.merges
                        .iter()
                        .map(|m| scalatrace::text::to_text(&m.merged))
                        .collect()
                });
                let decoded: Vec<_> = lane.span("scalatrace.codec.text_decode", || {
                    encoded
                        .iter()
                        .map(|t| scalatrace::text::from_text(t))
                        .collect()
                });
                let ms = ms();
                let bytes: usize = encoded.iter().map(String::len).sum();
                lane.count("scalatrace.codec.text_bytes", bytes as f64);
                // The text view rounds timing histograms, so the check is
                // that it is a fixed point, not that it equals the binary.
                for ((m, d), text) in self.merges.iter().zip(decoded).zip(&encoded) {
                    let d = d.map_err(|e| format!("text decode {}: {e}", m.name))?;
                    if scalatrace::text::to_text(&d) != *text {
                        return Err(format!("text round trip changed {}", m.name));
                    }
                }
                let parts: Vec<&[u8]> = encoded.iter().map(String::as_bytes).collect();
                Ok((ms, bytes as u64, digest_of(&parts)))
            }
            Op::Extrapolate(i) => {
                let x = &self.extraps[i];
                let result = lane.span("scalatrace.extrap", || extrapolate(&x.trace, EXTRAP_TO));
                let ms = ms();
                match result {
                    Ok(big) if big.nranks == EXTRAP_TO => {
                        let stbs = trace_to_bytes(&big);
                        Ok((ms, stbs.len() as u64, digest_of(&[&stbs])))
                    }
                    Ok(big) => Err(format!("extrapolated to {} ranks", big.nranks)),
                    // A refusal is an answer, not a failure: it is counted,
                    // and must be the same answer on every visit.
                    Err(refusal) => {
                        lane.count("scalatrace.extrap.refused", 1.0);
                        Ok((ms, 0, digest_of(&[refusal.0.as_bytes()])))
                    }
                }
            }
        }
    }
}

impl Workload for TraceStore {
    fn cell_names(&self) -> Vec<String> {
        self.ops.iter().map(|(name, _)| name.clone()).collect()
    }

    fn prepare(&mut self, layers: &mut Layers) {
        let mut lane = layers.lane();
        lane.span("bench.clone", || {
            for m in &mut self.merges {
                m.next = Some(m.seqs.clone());
            }
        });
    }

    fn pass(&mut self, pass: u32, order: &[usize], layers: &mut Layers) -> Vec<JobOutcome> {
        layers
            .lane()
            .visit_cells(pass, order, |i, lane| match self.visit(i, lane) {
                Ok((ms, bytes, digest)) => JobOutcome {
                    ms,
                    bytes,
                    digest: Some(digest),
                    ..JobOutcome::default()
                },
                Err(why) => JobOutcome {
                    fail: Some(why),
                    ..JobOutcome::default()
                },
            })
    }

    fn probes(&mut self, _layers: &mut Layers, rec: &mut Recorder) -> Counts {
        let mut extra = Counts::new();
        let cell_ms = |name: &str| {
            rec.cells
                .iter()
                .find(|c| c.name == name)
                .map_or(0.0, |c| median(&c.samples_ms))
        };
        let (small, large) = (cell_ms("merge_cg_r256"), cell_ms("merge_cg_r1024"));
        if small > 0.0 && large > 0.0 {
            extra.insert("scalatrace.merge.us_per_rank_r256", small * 1e3 / 256.0);
            extra.insert("scalatrace.merge.us_per_rank_r1024", large * 1e3 / 1024.0);
            extra.insert("scalatrace.merge.scaling_r1024_over_r256", large / small);
        }
        let sum_ms = |prefix: &str| -> f64 {
            rec.cells
                .iter()
                .filter(|c| c.name.starts_with(prefix))
                .map(|c| median(&c.samples_ms))
                .sum()
        };
        let unbounded = sum_ms("capture_unbounded_");
        if unbounded > 0.0 {
            extra.insert(
                "scalatrace.stream.slowdown_ratio",
                sum_ms("capture_streamed_") / unbounded,
            );
        }

        // Pool width 2 against width 1 on the largest merge, unpinned.
        if let Some(m) = self.merges.iter().max_by_key(|m| m.ranks) {
            let time = |threads: usize| {
                let samples: Vec<f64> = (0..3)
                    .map(|_| {
                        let seqs = m.seqs.clone();
                        let t0 = Instant::now();
                        std::hint::black_box(scalatrace::merge::merge_sequences_with(
                            seqs, m.ranks, threads,
                        ));
                        t0.elapsed().as_secs_f64()
                    })
                    .collect();
                median(&samples)
            };
            if let Some(ratio) = crate::unpinned(|| time(2) / time(1)) {
                extra.insert("scalatrace.merge.width2_ratio", ratio);
            }
        }
        extra
    }

    /// Generate and execute from what the store gave back (the salvaged
    /// 8-rank traces): the stored timing must still reproduce the
    /// application's virtual time.
    fn verify(&mut self, layers: &mut Layers, rec: &mut Recorder) {
        let mut lane = layers.lane();
        for (i, c) in self.captures.iter().enumerate() {
            let name = format!("salvage_{}_r8", c.app.name);
            let Some(cell) = rec.cells.iter().position(|x| x.name == name) else {
                continue;
            };
            lane.set_job(PROBE_PASS, i as u32 + 1);
            rec.attempted += 1;
            let checked = (|| {
                let (trace, _) = salvage_dir(&c.dir).map_err(|e| format!("salvage: {e}"))?;
                let generated = benchgen::generate(&trace, &benchgen::GenOptions::default())
                    .map_err(|e| format!("generate: {e}"))?;
                let (report, profile) = lane.execute(
                    Arc::new(generated.program),
                    RANKS8,
                    network::ethernet_cluster(),
                )?;
                lane.verify_profile(&trace, &profile)?;
                Ok::<_, String>(report.total_time.as_nanos())
            })();
            match checked {
                Ok(t_gen_ns) => {
                    rec.cells[cell].err_pct = Some(time_error_pct(c.t_app_ns, t_gen_ns))
                }
                Err(why) => rec.fail(format!("{name} (verify): {why}")),
            }
        }
    }
}
