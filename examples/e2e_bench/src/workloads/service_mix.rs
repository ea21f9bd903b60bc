//! `service_mix` — submit → done through `commspec-server`: the wire
//! protocol, the job queue, the memory cache, the journal and the campaign
//! runner, on loopback TCP as `examples/server_client.rs` does it.
//!
//! Two closed-loop clients share the pinned CPU with the server's two
//! workers. Per round and per application each client sends a `trace` with
//! parameters the server has not seen (cold: capture + store), a `generate`
//! (memory-cache hit), a `simulate` (hit + execute) and the same `simulate`
//! again (idempotent replay from the job table), then one two-application
//! `campaign` and one `stats`. The replay and hit classes do almost no
//! pipeline work, so service overhead is visible on its own; the cold class
//! ties back to `pipeline_npb`.

use crate::harness::{Counts, JobOutcome, Lane, Layers, Recorder, RunConfig, Workload, PROBE_PASS};
use crate::stats::{median, Rng};
use campaign::hash::{fnv1a, hex};
use campaign::matrix::NETWORKS;
use conceptual::interp::run_rank;
use miniapps::{registry, AppParams, Class};
use mpisim::network::{self, NetworkModel};
use mpisim::profile::MpiP;
use mpisim::world::World;
use protocol::{Artifact, JobParams, JobRef, JobResult, Request, Response};
use server::{Client, QueueLimits, Server, ServerOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANKS: u32 = 16;
const CLIENTS: usize = 2;

/// `(app, lowest iteration count)`. Chosen so one iteration costs well under
/// a millisecond at 16 ranks, which keeps the spread of request sizes — a
/// request must be unique to be cold — within a factor of a few.
const APPS: [(&str, u32); 5] = [("ring", 60), ("is", 40), ("lu", 6), ("cg", 10), ("ft", 10)];

/// Unique `(iterations, network)` slots per application and server
/// lifetime. Client 0 draws from the lower half and client 1 takes the
/// mirror image in the upper half, so the iterations of a round always sum
/// to the same total: the requests differ, the work per round does not.
const SLOTS: usize = 96;
const FIRST_SLOT: usize = 22;

/// The request classes, in the order a client sends them per application.
const CLASSES: [&str; 4] = ["cold", "warm", "simulate", "replay"];

struct ServerHandle {
    addr: String,
    state_dir: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_server(state_dir: PathBuf) -> Result<(ServerHandle, usize), String> {
    let opts = ServerOptions {
        state_dir: state_dir.clone(),
        // The token bucket and the in-flight cap are admission control, not
        // the path under test: lifted, so no request is ever refused.
        limits: QueueLimits {
            max_inflight: 1 << 20,
            rate_per_sec: 1e9,
            burst: 1e9,
        },
        ..ServerOptions::default()
    };
    let (server, restored) = Server::start(opts).map_err(|e| format!("server start: {e}"))?;
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("ephemeral port: {e}"))?
        .to_string();
    let serve_addr = addr.clone();
    let thread = std::thread::spawn(move || server.serve_tcp(&serve_addr));
    Ok((
        ServerHandle {
            addr,
            state_dir,
            thread,
        },
        restored,
    ))
}

fn connect(addr: &str, name: &str) -> Result<Client, String> {
    Client::connect_with(addr, name, 60, Duration::from_millis(5))
}

/// One client connection and what it remembers for the output checks.
struct ClientState {
    index: usize,
    conn: Client,
    rng: Rng,
    /// This client's permutation of its half of the slots.
    slots: Vec<usize>,
    round: usize,
    ack_ms: Vec<f64>,
    rejects: u64,
    /// `(params, simulate result)` per application of the latest round, for
    /// the in-process comparison in the verify phase.
    last_simulated: Vec<(JobParams, JobResult)>,
    /// Requests and responses of the latest round, for the wire probe.
    wire_log: Vec<(Request, Response)>,
}

pub struct ServiceMix {
    server: Option<ServerHandle>,
    clients: Vec<ClientState>,
    cells: Vec<String>,
    last_stats: Option<protocol::StatsReport>,
}

fn cell_index(class: usize, app: usize) -> usize {
    class * APPS.len() + app
}
const CAMPAIGN_CELL: usize = CLASSES.len() * APPS.len();
const STATS_CELL: usize = CAMPAIGN_CELL + 1;

impl ServiceMix {
    pub fn setup(cfg: &RunConfig) -> Result<Box<dyn Workload>, String> {
        let state_dir = cfg.scratch.join("server");
        let _ = std::fs::remove_dir_all(&state_dir);
        let (server, _) = start_server(state_dir)?;
        let mut clients = Vec::new();
        for index in 0..CLIENTS {
            let mut rng = Rng::new(cfg.seed ^ ((4 + index as u64) << 32));
            // Round 0 (the warm-up round, whose artifacts and virtual-time
            // errors are the ones reported) takes the same slot under every
            // seed — one on the default `bgl` network — so the exact metrics
            // compare across seeds; the seed orders all the others.
            let mut slots: Vec<usize> = (0..SLOTS / 2).filter(|&s| s != FIRST_SLOT).collect();
            rng.shuffle(&mut slots);
            slots.insert(0, FIRST_SLOT);
            clients.push(ClientState {
                index,
                conn: connect(&server.addr, &format!("bench-{index}"))?,
                rng,
                slots,
                round: 0,
                ack_ms: Vec::new(),
                rejects: 0,
                last_simulated: Vec::new(),
                wire_log: Vec::new(),
            });
        }
        // Both clients draw the same permutation of the lower half; client 1
        // mirrors it into the upper half (see SLOTS).
        let shared = clients[0].slots.clone();
        clients[1].slots = shared;
        let mut cells = Vec::new();
        for class in CLASSES {
            for (app, _) in APPS {
                cells.push(format!("{class}_{app}"));
            }
        }
        cells.push("campaign".to_string());
        cells.push("stats".to_string());
        Ok(Box::new(ServiceMix {
            server: Some(server),
            clients,
            cells,
            last_stats: None,
        }))
    }
}

fn checksums_ok(result: &JobResult) -> Result<(), String> {
    for a in &result.artifacts {
        if a.fnv != hex(fnv1a(a.text.as_bytes())) {
            return Err(format!("artifact {} fails its checksum", a.name));
        }
    }
    Ok(())
}

fn artifact_bytes(result: &JobResult) -> u64 {
    result.artifacts.iter().map(|a| a.text.len() as u64).sum()
}

impl ClientState {
    /// The unique parameters of `app` for this client's current round.
    fn params(&self, app: usize) -> Option<JobParams> {
        let lower = *self.slots.get(self.round)?;
        let slot = if self.index == 0 {
            lower
        } else {
            SLOTS - 1 - lower
        };
        let (name, base) = APPS[app];
        let mut p = JobParams::new(name, RANKS);
        p.network = NETWORKS[slot % NETWORKS.len()].to_string();
        p.iterations = Some(base + (slot / NETWORKS.len()) as u32);
        Some(p)
    }

    fn request(&mut self, lane: &Lane<'_>, req: Request) -> Result<Response, String> {
        let resp = self.conn.request(&req)?;
        if let Response::Error { code, .. } = &resp {
            if code == "rate-limited" || code == "too-many-in-flight" {
                self.rejects += 1;
            }
        }
        if lane.tracing {
            self.wire_log.push((req, resp.clone()));
        }
        Ok(resp)
    }

    /// Submit and wait: one job, submit → terminal status.
    fn job(
        &mut self,
        lane: &mut Lane<'_>,
        span: &'static str,
        req: Request,
    ) -> Result<(bool, JobResult, f64), String> {
        let outer = lane.enter(span);
        let t0 = Instant::now();
        let ack = lane.enter("server.submit_ack");
        let submitted = self.request(lane, req);
        lane.exit(ack);
        self.ack_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let done = submitted.and_then(|resp| match resp {
            Response::Submitted { job, replayed, .. } => {
                let status = self.request(
                    lane,
                    Request::Status {
                        job: JobRef::Id(job),
                        wait: true,
                    },
                )?;
                Ok((replayed, status))
            }
            Response::Error { code, message } => Err(format!("refused: {code}: {message}")),
            other => Err(format!(
                "unexpected reply to a submission: {}",
                other.type_name()
            )),
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        lane.exit(outer);
        match done? {
            (
                replayed,
                Response::JobStatus {
                    state,
                    result: Some(result),
                    ..
                },
            ) if state == "done" => {
                checksums_ok(&result)?;
                Ok((replayed, result, ms))
            }
            (_, Response::JobStatus { state, error, .. }) => {
                Err(format!("job ended {state}: {}", error.unwrap_or_default()))
            }
            (_, other) => Err(format!("unexpected reply to status: {}", other.type_name())),
        }
    }

    /// One round of this client: every application in a seeded order, then a
    /// campaign and a stats request.
    fn round(
        &mut self,
        pass: u32,
        lane: &mut Lane<'_>,
    ) -> (Vec<JobOutcome>, Option<protocol::StatsReport>) {
        let mut outcomes = Vec::new();
        let mut order: Vec<usize> = (0..APPS.len()).collect();
        self.rng.shuffle(&mut order);
        self.last_simulated.clear();
        self.wire_log.clear();
        // A client's jobs run back to back: each one's interval starts where
        // the previous one's ended.
        let mut last_ns = lane.log.now();
        let mut record =
            |cell: usize, now_ns: u64, run: Result<(f64, u64, Option<f64>), String>| {
                let mut out = JobOutcome {
                    cell,
                    ran_ns: (last_ns, now_ns),
                    ..JobOutcome::default()
                };
                last_ns = now_ns;
                match run {
                    Ok((ms, bytes, err_pct)) => {
                        out.ms = ms;
                        out.bytes = bytes;
                        out.err_pct = err_pct;
                    }
                    Err(why) => out.fail = Some(why),
                }
                outcomes.push(out);
            };
        for app in order {
            let Some(params) = self.params(app) else {
                record(
                    cell_index(0, app),
                    lane.log.now(),
                    Err("ran out of unique request slots".to_string()),
                );
                continue;
            };
            lane.set_job(pass, cell_index(0, app) as u32 + 1);
            let cold = self
                .job(
                    lane,
                    "server.cold",
                    Request::Trace {
                        params: params.clone(),
                        tag: None,
                    },
                )
                .and_then(|(replayed, r, ms)| {
                    if replayed || r.cached {
                        return Err("a cold trace was served from a cache".to_string());
                    }
                    Ok((ms, artifact_bytes(&r), None))
                });
            record(cell_index(0, app), lane.log.now(), cold);

            lane.set_job(pass, cell_index(1, app) as u32 + 1);
            let warm = self
                .job(
                    lane,
                    "server.warm",
                    Request::Generate {
                        params: params.clone(),
                        tag: None,
                    },
                )
                .and_then(|(_, r, ms)| {
                    if !r.cached {
                        return Err("generate missed the memory cache".to_string());
                    }
                    Ok((ms, artifact_bytes(&r), None))
                });
            record(cell_index(1, app), lane.log.now(), warm);

            lane.set_job(pass, cell_index(2, app) as u32 + 1);
            let first = self.job(
                lane,
                "server.simulate",
                Request::Simulate {
                    params: params.clone(),
                    tag: None,
                },
            );
            let simulated = first.as_ref().ok().map(|(_, r, _)| r.clone());
            record(
                cell_index(2, app),
                lane.log.now(),
                first.and_then(|(replayed, r, ms)| {
                    if replayed || !r.cached {
                        return Err("simulate did not execute on a cached trace".to_string());
                    }
                    Ok((ms, artifact_bytes(&r), r.err_pct))
                }),
            );

            lane.set_job(pass, cell_index(3, app) as u32 + 1);
            let again = self
                .job(
                    lane,
                    "server.replay",
                    Request::Simulate {
                        params: params.clone(),
                        tag: None,
                    },
                )
                .and_then(|(replayed, r, ms)| {
                    if !replayed {
                        return Err("second simulate was not answered replayed: true".to_string());
                    }
                    if Some(&r) != simulated.as_ref() {
                        return Err("replayed result differs from the first".to_string());
                    }
                    Ok((ms, 0, None))
                });
            record(cell_index(3, app), lane.log.now(), again);
            if let Some(r) = simulated {
                self.last_simulated.push((params, r));
            }
        }

        // A campaign the server has not seen: the scale factor is unique per
        // (client, round) and changes virtual times only.
        lane.set_job(pass, CAMPAIGN_CELL as u32 + 1);
        let matrix = format!(
            "apps = ring, is\nranks = {RANKS}\nclasses = S\nnetworks = ideal\nworkers = 1\ncompute_scale = 1.{:03}\n",
            1 + self.round * CLIENTS + self.index
        );
        let campaign = self
            .job(
                lane,
                "campaign.runner.job",
                Request::Campaign { matrix, tag: None },
            )
            .and_then(|(_, r, ms)| {
                if r.ok != Some(2) || r.failed != Some(0) || r.timed_out != Some(0) {
                    return Err(format!(
                        "campaign: ok {:?}, failed {:?}, timed out {:?}",
                        r.ok, r.failed, r.timed_out
                    ));
                }
                lane.count("campaign.runner.jobs", 2.0);
                Ok((ms, artifact_bytes(&r), r.mape))
            });
        record(CAMPAIGN_CELL, lane.log.now(), campaign);

        lane.set_job(pass, STATS_CELL as u32 + 1);
        let id = lane.enter("server.stats");
        let t0 = Instant::now();
        let reply = self.request(lane, Request::Stats);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        lane.exit(id);
        let mut stats = None;
        record(
            STATS_CELL,
            lane.log.now(),
            reply.and_then(|resp| match resp {
                Response::Stats(report) => {
                    stats = Some(report);
                    Ok((ms, 0, None))
                }
                other => Err(format!("unexpected reply to stats: {}", other.type_name())),
            }),
        );
        self.round += 1;
        (outcomes, stats)
    }
}

fn model_of(name: &str) -> Arc<dyn NetworkModel> {
    match name {
        "bgl" => network::blue_gene_l(),
        "ethernet" => network::ethernet_cluster(),
        _ => network::ideal(),
    }
}

/// The artifacts of a `simulate` job, made by calling the library directly.
fn in_process(params: &JobParams) -> Result<Vec<Artifact>, String> {
    let app = registry::lookup(&params.app).ok_or("unknown app")?;
    let n = params.ranks as usize;
    let app_params = AppParams {
        class: Class::S,
        iterations: params.iterations.map(|i| i as usize),
        compute_scale: 1.0,
    };
    let run = app.run;
    let traced = scalatrace::trace_app(n, model_of(&params.network), move |ctx| {
        run(ctx, &app_params)
    })
    .map_err(|e| format!("capture: {e}"))?;
    let generated = benchgen::generate(&traced.trace, &benchgen::GenOptions::default())
        .map_err(|e| format!("generate: {e}"))?;
    let program_text = conceptual::printer::print(&generated.program);
    let program = Arc::new(generated.program);
    let (_, hooks) = World::new(n)
        .network(model_of(&params.network))
        .run_hooked(|_| MpiP::new(), move |ctx| run_rank(ctx, &program))
        .map_err(|e| format!("execute: {e}"))?;
    Ok(vec![
        server::jobs::artifact("trace.st", scalatrace::text::to_text(&traced.trace)),
        server::jobs::artifact("program.ncptl", program_text),
        server::jobs::artifact("profile.mpip", MpiP::merge_all(hooks.iter()).to_string()),
    ])
}

impl Workload for ServiceMix {
    fn cell_names(&self) -> Vec<String> {
        self.cells.clone()
    }

    fn driver_threads(&self) -> usize {
        CLIENTS
    }

    /// One round: both clients at once, each on a thread and a connection of
    /// its own. `order` is unused — each client shuffles its applications
    /// from its own seeded generator.
    fn pass(&mut self, pass: u32, _order: &[usize], layers: &mut Layers) -> Vec<JobOutcome> {
        let tracing = layers.tracing;
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(layers.logs.iter_mut())
                .map(|(client, log)| {
                    scope.spawn(move || {
                        let mut counts = Counts::new();
                        let mut lane = Lane {
                            tracing,
                            log,
                            counts: &mut counts,
                            speed: None,
                        };
                        // Client 0 runs inside the harness's pass span; the
                        // other client opens one of its own.
                        lane.set_job(pass, 0);
                        let root = if client.index > 0 {
                            lane.enter("pass")
                        } else {
                            None
                        };
                        let (outcomes, stats) = client.round(pass, &mut lane);
                        lane.set_job(pass, 0);
                        lane.exit(root);
                        (outcomes, stats, counts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut all = Vec::new();
        for (outcomes, stats, counts) in results {
            all.extend(outcomes);
            self.last_stats = stats.or(self.last_stats.take());
            for (k, v) in counts {
                *layers.counts.entry(k).or_insert(0.0) += v;
            }
        }
        all
    }

    fn probes(&mut self, layers: &mut Layers, rec: &mut Recorder) -> Counts {
        let mut extra = Counts::new();
        let class_p50 = |prefix: &str| {
            let samples: Vec<f64> = rec
                .cells
                .iter()
                .filter(|c| c.name.starts_with(prefix))
                .flat_map(|c| c.samples_ms.iter().copied())
                .collect();
            median(&samples)
        };
        extra.insert("server.cold_ms_p50", class_p50("cold_"));
        extra.insert("server.warm_ms_p50", class_p50("warm_"));
        extra.insert("server.simulate_ms_p50", class_p50("simulate_"));
        extra.insert("server.replay_ms_p50", class_p50("replay_"));
        extra.insert("server.campaign_ms_p50", class_p50("campaign"));
        let acks: Vec<f64> = self
            .clients
            .iter()
            .flat_map(|c| c.ack_ms.iter().copied())
            .collect();
        extra.insert("server.submit_ack_ms_p50", median(&acks));
        extra.insert(
            "server.rejects",
            self.clients.iter().map(|c| c.rejects).sum::<u64>() as f64,
        );
        if let Some(s) = &self.last_stats {
            extra.insert("server.mem_hits", s.mem_hits as f64);
            extra.insert("server.mem_misses", s.mem_misses as f64);
            extra.insert("server.jobs_done", s.jobs_done as f64);
            extra.insert("server.jobs_replayed", s.jobs_replayed as f64);
            extra.insert("server.jobs_failed", s.jobs_failed as f64);
        }

        // The latest traced round's lines through the codec again, alone.
        let mut lane = layers.lane();
        lane.set_job(PROBE_PASS, 1);
        let mut bytes = 0;
        for client in &self.clients {
            for (req, resp) in &client.wire_log {
                let lines = lane.span("protocol.wire.encode", || (req.to_line(), resp.to_line()));
                bytes += lines.0.len() + lines.1.len() + 2;
                let decoded = lane.span("protocol.wire.decode", || {
                    (Request::from_line(&lines.0), Response::from_line(&lines.1))
                });
                if decoded.0.as_ref() != Ok(req) || decoded.1.as_ref() != Ok(resp) {
                    rec.fail("wire round trip changed a message".to_string());
                }
            }
        }
        extra.insert("protocol.wire.bytes", bytes as f64);

        // Restart over the same state directory until a finished job is
        // served again: what the journal replay costs.
        lane.set_job(PROBE_PASS, 2);
        let finished = self.clients[0]
            .last_simulated
            .first()
            .map(|(p, _)| p.clone());
        if let (Some(old), Some(params)) = (self.server.take(), finished) {
            let restarted = (|| {
                self.clients[0].conn.shutdown()?;
                self.clients.truncate(1);
                old.thread
                    .join()
                    .map_err(|_| "server thread panicked".to_string())?
                    .map_err(|e| format!("serve: {e}"))?;
                let t0 = Instant::now();
                let (server, restored) = start_server(old.state_dir.clone())?;
                let mut conn = connect(&server.addr, "bench-0")?;
                let (_, replayed) = conn.submit("simulate", params, None)?;
                let s = t0.elapsed().as_secs_f64();
                self.clients[0].conn = conn;
                self.server = Some(server);
                if !replayed || restored == 0 {
                    return Err("a finished job was not replayed after the restart".to_string());
                }
                Ok::<_, String>(s)
            })();
            match restarted {
                Ok(s) => {
                    extra.insert("server.restart_replay_s", s);
                }
                Err(why) => rec.fail(format!("restart probe: {why}")),
            }
        }
        extra
    }

    /// Served artifacts against the same library calls made in-process.
    fn verify(&mut self, _layers: &mut Layers, rec: &mut Recorder) {
        for (params, served) in &self.clients[0].last_simulated {
            rec.attempted += 1;
            match in_process(params) {
                Ok(local) if local == served.artifacts => {}
                Ok(_) => rec.fail(format!(
                    "{} it {:?} {}: served artifacts differ from in-process ones",
                    params.app, params.iterations, params.network
                )),
                Err(why) => rec.fail(format!("{} (in-process): {why}", params.app)),
            }
        }
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            if let Some(first) = self.clients.first_mut() {
                let _ = first.conn.shutdown();
            }
            self.clients.clear();
            let _ = server.thread.join();
        }
    }
}
