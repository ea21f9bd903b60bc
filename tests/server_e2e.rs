//! End-to-end tests of `commbench serve --stdio`: a scripted wire session
//! drives trace → generate → simulate, and for every registry app the
//! artifacts must be byte-identical to what the batch CLI (`commgen`)
//! produces for the same configuration and the timing metrics equal to
//! what a `commbench --matrix` campaign journals — the server is a cache
//! and a queue, never a different pipeline.

use protocol::{JobParams, JobRef, Request, Response};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "commspec-server-e2e-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Run one scripted stdio session against `commbench serve --stdio` and
/// return the decoded response stream. The whole script is written up
/// front (the pipe buffers it); the server answers in order, blocking on
/// `status` waits, and exits on `shutdown` or EOF.
fn serve_script(state: &Path, extra_flags: &[&str], script: &[Request]) -> Vec<Response> {
    let lines: Vec<String> = script.iter().map(Request::to_line).collect();
    serve_lines(state, extra_flags, &lines)
}

/// [`serve_script`] over raw request lines, for requests a typed
/// [`Request`] cannot express.
fn serve_lines(state: &Path, extra_flags: &[&str], lines: &[String]) -> Vec<Response> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args(["serve", "--stdio", "--state", state.to_str().unwrap()])
        .args(extra_flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    {
        let mut stdin = child.stdin.take().unwrap();
        for line in lines {
            writeln!(stdin, "{line}").unwrap();
        }
        // Dropping stdin closes the pipe: EOF also ends the session.
    }
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success(), "server failed:\n{}", stderr(&out));
    String::from_utf8(out.stdout)
        .expect("utf8 responses")
        .lines()
        .map(|l| Response::from_line(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect()
}

fn hello() -> Request {
    Request::Hello {
        proto_version: protocol::PROTO_VERSION,
        client: "e2e".to_string(),
    }
}

fn artifact<'a>(resp: &'a Response, name: &str) -> &'a protocol::Artifact {
    match resp {
        Response::JobStatus {
            state,
            result: Some(r),
            ..
        } => {
            assert_eq!(state, "done");
            r.artifacts
                .iter()
                .find(|a| a.name == name)
                .unwrap_or_else(|| panic!("no artifact {name}"))
        }
        other => panic!("expected a done job_status, got {other:?}"),
    }
}

#[test]
fn served_artifacts_are_byte_identical_to_the_batch_cli() {
    let dir = temp_dir("bytes");
    // Every registry app at its smallest world of at least 4 ranks, with
    // the class and network the server defaults to.
    let configs: Vec<(&str, usize)> = miniapps::registry::all()
        .iter()
        .map(|app| (app.name, (4..).find(|&n| (app.valid_ranks)(n)).unwrap()))
        .collect();

    // Server session: one simulate job per app returns all three artifacts
    // and the timing metrics.
    let mut script = vec![hello()];
    for &(app, ranks) in &configs {
        script.push(Request::Simulate {
            params: JobParams::new(app, ranks as u32),
            tag: Some(app.into()),
        });
        script.push(Request::Status {
            job: JobRef::Tag(app.into()),
            wait: true,
        });
    }
    script.push(Request::Shutdown);
    let responses = serve_script(&dir.join("state"), &[], &script);
    assert!(matches!(responses[0], Response::HelloOk { .. }));
    assert!(matches!(responses.last(), Some(Response::Bye)));

    for (i, &(app, ranks)) in configs.iter().enumerate() {
        assert!(
            matches!(
                responses[1 + 2 * i],
                Response::Submitted {
                    replayed: false,
                    ..
                }
            ),
            "{app}"
        );
        let status = &responses[2 + 2 * i];

        // Batch reference: commgen dumping all three artifacts.
        let trace_path = dir.join(format!("{app}-trace.st"));
        let prog_path = dir.join(format!("{app}-program.ncptl"));
        let prof_path = dir.join(format!("{app}-profile.mpip"));
        let out = Command::new(env!("CARGO_BIN_EXE_commgen"))
            .args(["--app", app, "--ranks", &ranks.to_string()])
            .args(["--class", "S", "--machine", "bgl", "--emit-trace"])
            .arg(&trace_path)
            .arg("-o")
            .arg(&prog_path)
            .arg("--profile")
            .arg(&prof_path)
            .output()
            .expect("commgen spawns");
        assert!(out.status.success(), "{}", stderr(&out));
        for (name, path) in [
            ("trace.st", &trace_path),
            ("program.ncptl", &prog_path),
            ("profile.mpip", &prof_path),
        ] {
            let served = artifact(status, name);
            assert_eq!(
                served.text,
                std::fs::read_to_string(path).unwrap(),
                "served {app} {name} must be byte-identical to the batch CLI's"
            );
            // And the advertised checksum must actually cover those bytes.
            let fnv = campaign::hash::hex(campaign::hash::fnv1a(served.text.as_bytes()));
            assert_eq!(served.fnv, fnv, "{app} {name} checksum");
        }

        // Campaign reference: the `finished` line a one-job matrix
        // journals for the same configuration carries the same metrics.
        let matrix = format!("apps = {app}\nranks = {ranks}\nclasses = S\nnetworks = bgl\n");
        let matrix_path = dir.join(format!("{app}.matrix"));
        let log_path = dir.join(format!("{app}.jsonl"));
        std::fs::write(&matrix_path, &matrix).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_commbench"))
            .arg("--matrix")
            .arg(&matrix_path)
            .arg("--cache")
            .arg(dir.join("campaign-cache"))
            .arg("--log")
            .arg(&log_path)
            .output()
            .expect("commbench spawns");
        assert!(out.status.success(), "{}", stderr(&out));
        let job = campaign::CampaignSpec::parse(&matrix).unwrap().expand().0;
        let journal = campaign::Journal::load(&log_path).unwrap();
        let finished = journal.get(&job[0].id()).expect("journaled");
        let Response::JobStatus {
            result: Some(served),
            ..
        } = status
        else {
            panic!("{status:?}");
        };
        assert_eq!(served.t_app_ns, finished.u64("t_app_ns"), "{app} T_app");
        assert_eq!(served.t_gen_ns, finished.u64("t_gen_ns"), "{app} T_gen");
        assert_eq!(
            served.err_pct.map(f64::to_bits),
            finished.f64("err_pct").map(f64::to_bits),
            "{app} err_pct"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_generate_simulate_reuse_one_cache_entry() {
    let dir = temp_dir("cache");
    let responses = serve_script(
        &dir.join("state"),
        &[],
        &[
            hello(),
            Request::Trace {
                params: JobParams::new("ring", 4),
                tag: Some("t".into()),
            },
            Request::Status {
                job: JobRef::Tag("t".into()),
                wait: true,
            },
            Request::Generate {
                params: JobParams::new("ring", 4),
                tag: Some("g".into()),
            },
            Request::Status {
                job: JobRef::Tag("g".into()),
                wait: true,
            },
            Request::Simulate {
                params: JobParams::new("ring", 4),
                tag: Some("s".into()),
            },
            Request::Status {
                job: JobRef::Tag("s".into()),
                wait: true,
            },
            Request::Stats,
            Request::Shutdown,
        ],
    );
    // trace misses (fills the cache); generate and simulate load from it.
    let trace_st = artifact(&responses[2], "trace.st").text.clone();
    let program = artifact(&responses[4], "program.ncptl").text.clone();
    assert_eq!(artifact(&responses[6], "trace.st").text, trace_st);
    assert_eq!(artifact(&responses[6], "program.ncptl").text, program);
    match (&responses[2], &responses[4], &responses[6]) {
        (
            Response::JobStatus {
                result: Some(t), ..
            },
            Response::JobStatus {
                result: Some(g), ..
            },
            Response::JobStatus {
                result: Some(s), ..
            },
        ) => {
            assert!(!t.cached, "first trace is fresh");
            assert!(g.cached && s.cached, "later jobs reuse the trace");
        }
        other => panic!("unexpected responses: {other:?}"),
    }
    match &responses[7] {
        Response::Stats(stats) => {
            assert_eq!(stats.jobs_done, 3);
            assert_eq!(stats.disk_hits, 2, "generate and simulate hit the cache");
            assert_eq!(stats.mem_hits, 0, "there is no memory layer to hit");
            let e2e = stats.clients.iter().find(|c| c.client == "e2e").unwrap();
            let get = |name: &str| {
                e2e.counters
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(0)
            };
            assert!(get("requests") >= 8, "every request is counted");
            assert_eq!(get("rejections"), 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_job_runs_under_a_lease_even_with_no_remote_worker() {
    let dir = temp_dir("leases");
    let state = dir.join("state");
    let params = || JobParams::new("ring", 4);
    let responses = serve_script(
        &state,
        &[],
        &[
            hello(),
            Request::Trace {
                params: params(),
                tag: Some("t".into()),
            },
            Request::Status {
                job: JobRef::Tag("t".into()),
                wait: true,
            },
            Request::Generate {
                params: params(),
                tag: Some("g".into()),
            },
            Request::Status {
                job: JobRef::Tag("g".into()),
                wait: true,
            },
            Request::Simulate {
                params: params(),
                tag: Some("s".into()),
            },
            Request::Status {
                job: JobRef::Tag("s".into()),
                wait: true,
            },
            Request::Stats,
            Request::Shutdown,
        ],
    );
    let jobs: Vec<String> = [&responses[1], &responses[3], &responses[5]]
        .into_iter()
        .map(|r| match r {
            Response::Submitted { job, .. } => job.clone(),
            other => panic!("expected submitted, got {other:?}"),
        })
        .collect();
    match &responses[7] {
        Response::Stats(stats) => {
            assert_eq!(stats.jobs_done, 3);
            assert_eq!(stats.fleet.leases_granted, 3, "one lease per job");
            assert_eq!(stats.disk_hits, 2, "generate and simulate hit the cache");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    let journal = std::fs::read_to_string(state.join("server.jsonl")).unwrap();
    let leases: Vec<protocol::json::Json> = journal
        .lines()
        .map(|l| protocol::json::parse(l).unwrap())
        .filter(|e| e.get("event").and_then(|v| v.as_str()).map(String::as_str) == Some("lease"))
        .collect();
    for job in &jobs {
        let count = |op: &str| {
            leases
                .iter()
                .filter(|e| {
                    let is = |k: &str, v: &str| {
                        e.get(k).and_then(|x| x.as_str()).map(String::as_str) == Some(v)
                    };
                    is("job", job) && is("op", op)
                })
                .count()
        };
        assert_eq!(count("granted"), 1, "{job}: one lease granted");
        assert_eq!(count("completed"), 1, "{job}: one lease completed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A done job's result, as a `status` reply carries it.
fn done(resp: &Response) -> &protocol::JobResult {
    match resp {
        Response::JobStatus {
            state,
            result: Some(r),
            ..
        } if state == "done" => r,
        other => panic!("expected a done job_status, got {other:?}"),
    }
}

#[test]
fn artifacts_are_identical_cold_warm_and_warm_after_a_restart_without_the_journal() {
    const APPS: [&str; 4] = ["ring", "is", "lu", "cg"];
    const ARTIFACTS: [&str; 3] = ["trace.st", "program.ncptl", "profile.mpip"];
    let dir = temp_dir("warm");
    let state = dir.join("state");
    let submit_and_wait = |script: &mut Vec<Request>, req: Request, tag: String| {
        script.push(req);
        script.push(Request::Status {
            job: JobRef::Tag(tag),
            wait: true,
        });
    };

    // First process: `simulate` traces each app (cold); `trace` and
    // `generate` of the same spec then load what it stored (warm).
    let mut script = vec![hello()];
    for app in APPS {
        let params = JobParams::new(app, 4);
        for (kind, req) in [
            (
                "s",
                Request::Simulate {
                    params: params.clone(),
                    tag: Some(format!("s-{app}")),
                },
            ),
            (
                "t",
                Request::Trace {
                    params: params.clone(),
                    tag: Some(format!("t-{app}")),
                },
            ),
            (
                "g",
                Request::Generate {
                    params: params.clone(),
                    tag: Some(format!("g-{app}")),
                },
            ),
        ] {
            submit_and_wait(&mut script, req, format!("{kind}-{app}"));
        }
    }
    script.push(Request::Stats);
    script.push(Request::Shutdown);
    let first = serve_script(&state, &[], &script);
    let mut cold = Vec::new();
    for (i, app) in APPS.iter().enumerate() {
        let [s, t, g] = [2, 4, 6].map(|k| &first[6 * i + k]);
        assert!(!done(s).cached, "{app}: the first job traces");
        assert!(done(t).cached && done(g).cached, "{app}: the rest load");
        assert_eq!(
            artifact(t, "trace.st").text,
            artifact(s, "trace.st").text,
            "{app}"
        );
        assert_eq!(
            artifact(g, "program.ncptl").text,
            artifact(s, "program.ncptl").text,
            "{app}"
        );
        cold.push(ARTIFACTS.map(|name| artifact(s, name).text.clone()));
    }
    match &first[first.len() - 2] {
        Response::Stats(stats) => {
            assert_eq!(stats.jobs_done, 12);
            assert_eq!(stats.disk_hits, 8, "two warm jobs an app");
            assert_eq!((stats.mem_hits, stats.mem_misses), (0, 0));
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Second process over the same state directory, journal gone: nothing
    // can be replayed, so `simulate` runs again — on the cached trace.
    std::fs::remove_file(state.join("server.jsonl")).unwrap();
    let mut script = vec![hello()];
    for app in APPS {
        let req = Request::Simulate {
            params: JobParams::new(app, 4),
            tag: Some(app.to_string()),
        };
        submit_and_wait(&mut script, req, app.to_string());
    }
    script.push(Request::Stats);
    script.push(Request::Shutdown);
    let second = serve_script(&state, &[], &script);
    for (i, app) in APPS.iter().enumerate() {
        assert!(
            matches!(
                second[1 + 2 * i],
                Response::Submitted {
                    replayed: false,
                    ..
                }
            ),
            "{app}: served by the cache, not the journal"
        );
        let status = &second[2 + 2 * i];
        assert!(done(status).cached, "{app}");
        for (name, before) in ARTIFACTS.iter().zip(&cold[i]) {
            assert_eq!(&artifact(status, name).text, before, "{app} {name}");
        }
    }
    match &second[second.len() - 2] {
        Response::Stats(stats) => {
            assert_eq!((stats.jobs_done, stats.jobs_replayed), (4, 0));
            assert_eq!(stats.disk_hits, 4);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_clients_racing_on_one_uncached_trace_leave_one_sound_cache_entry() {
    use std::sync::Barrier;

    let dir = temp_dir("race");
    let opts = server::ServerOptions {
        state_dir: dir.join("state"),
        ..server::ServerOptions::default()
    };
    let (srv, restored) = server::Server::start(opts).expect("server starts");
    assert_eq!(restored, 0);

    // Same spec, two job kinds: two jobs on the two pool threads, each
    // finding the cache empty unless the other already filled it.
    let params = JobParams::new("lu", 4);
    let scripts = ["sim", "gen"].map(|tag| {
        let hello = Request::Hello {
            proto_version: protocol::PROTO_VERSION,
            client: format!("client-{tag}"),
        };
        let (params, tagged) = (params.clone(), Some(tag.to_string()));
        let submit = match tag {
            "sim" => Request::Simulate {
                params,
                tag: tagged,
            },
            _ => Request::Generate {
                params,
                tag: tagged,
            },
        };
        let wait = Request::Status {
            job: JobRef::Tag(tag.into()),
            wait: true,
        };
        [hello, submit, wait].map(|r| r.to_line() + "\n").concat()
    });
    let start = Barrier::new(2);
    let replies: Vec<Vec<Response>> = std::thread::scope(|scope| {
        let sessions: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    start.wait();
                    srv.handle(script.as_bytes(), &mut out);
                    String::from_utf8(out)
                        .unwrap()
                        .lines()
                        .map(|l| Response::from_line(l).unwrap())
                        .collect()
                })
            })
            .collect();
        sessions.into_iter().map(|s| s.join().unwrap()).collect()
    });
    srv.shutdown();

    // `artifact` insists on a `done` job; the simulate job carries the
    // program the generate job is all about.
    let programs: Vec<&str> = replies
        .iter()
        .map(|r| artifact(&r[2], "program.ncptl").text.as_str())
        .collect();
    assert_eq!(programs[0], programs[1]);

    let cache = campaign::TraceCache::open(dir.join("state/cache")).unwrap();
    assert_eq!(cache.len(), 1, "one spec, one entry");
    let key = server::jobs::spec_of(&params).unwrap().trace_key();
    assert!(cache.load(key).is_some(), "and it loads");
    let stray: Vec<_> = std::fs::read_dir(cache.dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "{stray:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_jobs_draw_errors_and_the_job_queued_behind_them_completes() {
    // One worker. Each hostile line once wedged it (10^12 iterations) or
    // was truncated into a different job (2^32 + 4 ranks ran as 4). Now
    // each is answered with an error at submission, and the plain ring
    // behind them runs.
    let dir = temp_dir("oversized");
    let simulate = |fields: &str| format!("{{\"type\":\"simulate\",\"app\":\"ring\",{fields}}}");
    let started = std::time::Instant::now();
    let responses = serve_lines(
        &dir.join("state"),
        &["--workers", "1"],
        &[
            hello().to_line(),
            simulate("\"ranks\":4,\"iterations\":1000000000000"),
            simulate("\"ranks\":4294967300"),
            simulate("\"ranks\":4,\"iterations\":4000000000"),
            simulate("\"ranks\":5000"),
            Request::Simulate {
                params: JobParams::new("ring", 4),
                tag: Some("plain".into()),
            }
            .to_line(),
            Request::Status {
                job: JobRef::Tag("plain".into()),
                wait: true,
            }
            .to_line(),
            Request::Shutdown.to_line(),
        ],
    );
    let error = |r: &Response| match r {
        Response::Error { code, message } => format!("{code}: {message}"),
        other => panic!("expected an error, got {other:?}"),
    };
    assert_eq!(
        error(&responses[1]),
        "bad-field: bad field `iterations`: 1000000000000 does not fit in 32 bits"
    );
    assert_eq!(
        error(&responses[2]),
        "bad-field: bad field `ranks`: 4294967300 does not fit in 32 bits"
    );
    assert_eq!(
        error(&responses[3]),
        "bad-request: 4000000000 iterations exceed the cap of 8388608"
    );
    assert_eq!(
        error(&responses[4]),
        "bad-request: 5000 ranks exceed the cap of 4096"
    );
    assert!(
        matches!(responses[5], Response::Submitted { .. }),
        "{:?}",
        responses[5]
    );
    assert!(done(&responses[6]).t_gen_ns.is_some());
    assert!(matches!(responses[7], Response::Bye));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "{:?}",
        started.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_violations_get_structured_errors_and_the_session_survives() {
    let dir = temp_dir("errors");
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args([
            "serve",
            "--stdio",
            "--state",
            dir.join("state").to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    {
        let mut stdin = child.stdin.take().unwrap();
        // 1: not hello first. 2: wrong proto version. 3: real hello.
        // 4: unknown variant. 5: torn JSON. 6: bad app. 7: still alive?
        writeln!(stdin, "{}", Request::Stats.to_line()).unwrap();
        writeln!(
            stdin,
            "{{\"type\":\"hello\",\"proto_version\":999,\"client\":\"e2e\"}}"
        )
        .unwrap();
        writeln!(stdin, "{}", hello().to_line()).unwrap();
        writeln!(stdin, "{{\"type\":\"frobnicate\"}}").unwrap();
        writeln!(stdin, "{{\"type\":\"trace\",\"app\":").unwrap();
        writeln!(
            stdin,
            "{{\"type\":\"trace\",\"app\":\"nosuchapp\",\"ranks\":4}}"
        )
        .unwrap();
        writeln!(stdin, "{}", Request::Stats.to_line()).unwrap();
        writeln!(stdin, "{}", Request::Shutdown.to_line()).unwrap();
    }
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success(), "{}", stderr(&out));
    let responses: Vec<Response> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| Response::from_line(l).unwrap())
        .collect();
    let code = |r: &Response| match r {
        Response::Error { code, .. } => code.clone(),
        other => panic!("expected error, got {other:?}"),
    };
    assert_eq!(code(&responses[0]), "hello-required");
    assert_eq!(code(&responses[1]), "proto-version");
    assert!(matches!(responses[2], Response::HelloOk { .. }));
    assert_eq!(code(&responses[3]), "unknown-variant");
    assert_eq!(code(&responses[4]), "syntax");
    assert_eq!(code(&responses[5]), "bad-request");
    assert!(
        matches!(responses[6], Response::Stats(_)),
        "the connection survives every error"
    );
    assert!(matches!(responses[7], Response::Bye));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_nested_200_000_deep_is_a_syntax_error_not_an_abort() {
    let dir = temp_dir("deep");
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args([
            "serve",
            "--stdio",
            "--state",
            dir.join("state").to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "{}", hello().to_line()).unwrap();
        writeln!(
            stdin,
            "{{\"type\":\"trace\",\"app\":{}",
            "[".repeat(200_000)
        )
        .unwrap();
        writeln!(stdin, "{}", Request::Stats.to_line()).unwrap();
        writeln!(stdin, "{}", Request::Shutdown.to_line()).unwrap();
    }
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success(), "{}", stderr(&out));
    let responses: Vec<Response> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| Response::from_line(l).unwrap())
        .collect();
    assert!(matches!(responses[0], Response::HelloOk { .. }));
    assert!(
        matches!(&responses[1], Response::Error { code, .. } if code == "syntax"),
        "{:?}",
        responses[1]
    );
    assert!(matches!(responses[2], Response::Stats(_)));
    assert!(matches!(responses[3], Response::Bye));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_submission_leaves_no_dangling_tag() {
    let dir = temp_dir("dangling");
    // Burst of 1: the second (distinct) submission is rate-limited. Its
    // tag must not be registered — a status poll by that tag must come
    // back unknown-job, not crash the server on a dangling mapping.
    let responses = serve_script(
        &dir.join("state"),
        &["--rate", "0.000001", "--burst", "1"],
        &[
            hello(),
            Request::Trace {
                params: JobParams::new("ring", 4),
                tag: Some("first".into()),
            },
            Request::Generate {
                params: JobParams::new("ring", 4),
                tag: Some("gone".into()),
            },
            Request::Status {
                job: JobRef::Tag("gone".into()),
                wait: false,
            },
            Request::Status {
                job: JobRef::Tag("first".into()),
                wait: true,
            },
            // Tagless idempotent resubmit: the original tag must survive.
            Request::Trace {
                params: JobParams::new("ring", 4),
                tag: None,
            },
            Request::Status {
                job: JobRef::Tag("first".into()),
                wait: false,
            },
            // Retag: the old mapping goes away, the new one resolves.
            Request::Trace {
                params: JobParams::new("ring", 4),
                tag: Some("second".into()),
            },
            Request::Status {
                job: JobRef::Tag("first".into()),
                wait: false,
            },
            Request::Status {
                job: JobRef::Tag("second".into()),
                wait: false,
            },
            Request::Shutdown,
        ],
    );
    assert!(matches!(responses[1], Response::Submitted { .. }));
    match &responses[2] {
        Response::Error { code, .. } => assert_eq!(code, "rate-limited"),
        other => panic!("expected rate-limited, got {other:?}"),
    }
    match &responses[3] {
        Response::Error { code, .. } => {
            assert_eq!(code, "unknown-job", "rejected tag must not resolve")
        }
        other => panic!("expected unknown-job, got {other:?}"),
    }
    assert!(matches!(responses[4], Response::JobStatus { .. }));
    assert!(matches!(
        responses[5],
        Response::Submitted { replayed: true, .. }
    ));
    match &responses[6] {
        Response::JobStatus { tag, .. } => {
            assert_eq!(
                tag.as_deref(),
                Some("first"),
                "tagless resubmit must not wipe the original tag"
            );
        }
        other => panic!("expected job_status, got {other:?}"),
    }
    assert!(matches!(
        responses[7],
        Response::Submitted { replayed: true, .. }
    ));
    match &responses[8] {
        Response::Error { code, .. } => {
            assert_eq!(code, "unknown-job", "superseded tag must be unmapped")
        }
        other => panic!("expected unknown-job, got {other:?}"),
    }
    match &responses[9] {
        Response::JobStatus { tag, .. } => assert_eq!(tag.as_deref(), Some("second")),
        other => panic!("expected job_status, got {other:?}"),
    }
    assert!(matches!(responses[10], Response::Bye));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_shutdown_completes_despite_an_idle_connection() {
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let dir = temp_dir("tcp-shutdown");
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state",
            dir.join("state").to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    // The server announces its ephemeral port on stderr.
    let mut stderr_reader = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            stderr_reader.read_line(&mut line).unwrap(),
            0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    // One connection goes idle and stays open; a second one asks the
    // server to shut down. The server must still exit promptly.
    let idle = TcpStream::connect(&addr).expect("idle client connects");
    {
        let mut active = TcpStream::connect(&addr).expect("active client connects");
        writeln!(active, "{}", hello().to_line()).unwrap();
        writeln!(active, "{}", Request::Shutdown.to_line()).unwrap();
        let mut replies = String::new();
        let _ = active.read_to_string(&mut replies);
        assert!(replies.lines().count() >= 2, "hello_ok + bye expected");
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("server did not shut down while an idle connection stayed open");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "server exited cleanly");
    drop(idle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rate_limits_reject_but_resubmitting_a_known_job_is_free() {
    let dir = temp_dir("rate");
    // Burst of exactly 2 tokens and no refill to speak of.
    let responses = serve_script(
        &dir.join("state"),
        &["--rate", "0.000001", "--burst", "2"],
        &[
            hello(),
            Request::Trace {
                params: JobParams::new("ring", 4),
                tag: None,
            },
            Request::Generate {
                params: JobParams::new("ring", 4),
                tag: None,
            },
            Request::Simulate {
                params: JobParams::new("ring", 4),
                tag: None,
            },
            Request::Stats,
            Request::Shutdown,
        ],
    );
    assert!(matches!(responses[1], Response::Submitted { .. }));
    assert!(matches!(responses[2], Response::Submitted { .. }));
    match &responses[3] {
        Response::Error { code, .. } => assert_eq!(code, "rate-limited"),
        other => panic!("third submission must be rate-limited, got {other:?}"),
    }
    match &responses[4] {
        Response::Stats(stats) => {
            let e2e = stats.clients.iter().find(|c| c.client == "e2e").unwrap();
            let rejections = e2e
                .counters
                .iter()
                .find(|(k, _)| k == "rejections")
                .map(|(_, v)| *v);
            assert_eq!(rejections, Some(1), "the rejection is accounted");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // A duplicate of an already-finished job takes no token: idempotent
    // resubmission is recognised before admission control. With a burst
    // of 1 the only token goes to the first submit; the resubmission
    // still succeeds, served as a replay.
    let responses = serve_script(
        &dir.join("state2"),
        &["--rate", "0.000001", "--burst", "1"],
        &[
            hello(),
            Request::Trace {
                params: JobParams::new("ring", 4),
                tag: Some("t".into()),
            },
            Request::Status {
                job: JobRef::Tag("t".into()),
                wait: true,
            },
            Request::Trace {
                params: JobParams::new("ring", 4),
                tag: None,
            },
            Request::Shutdown,
        ],
    );
    assert!(matches!(
        responses[1],
        Response::Submitted {
            replayed: false,
            ..
        }
    ));
    assert!(matches!(
        responses[3],
        Response::Submitted { replayed: true, .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_completing_with_an_escaping_artifact_name_is_refused() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("escape");
    let state = dir.join("state");
    // No in-process workers: the test's own worker leases every job.
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args(["serve", "--stdio", "--state", state.to_str().unwrap()])
        .args(["--workers", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ask = |req: Request| {
        writeln!(stdin, "{}", req.to_line()).unwrap();
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        Response::from_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"))
    };

    assert!(matches!(ask(hello()), Response::HelloOk { .. }));
    let worker = || "w".to_string();
    assert!(matches!(
        ask(Request::WorkerRegister { worker: worker() }),
        Response::WorkerOk { .. }
    ));
    let submitted = ask(Request::Trace {
        params: JobParams::new("ring", 4),
        tag: None,
    });
    assert!(
        matches!(submitted, Response::Submitted { .. }),
        "{submitted:?}"
    );
    let (lease, job) = match ask(Request::LeaseRequest { worker: worker() }) {
        Response::LeaseGrant { lease, job, .. } => (lease, job),
        other => panic!("expected a lease, got {other:?}"),
    };
    let complete = |name: &str| {
        let text = "trace nranks=4\n".to_string();
        Request::JobComplete {
            worker: worker(),
            lease: lease.clone(),
            job: job.clone(),
            result: protocol::JobResult {
                kind: "trace".into(),
                artifacts: vec![protocol::Artifact {
                    name: name.into(),
                    fnv: campaign::hash::hex(campaign::hash::fnv1a(text.as_bytes())),
                    text,
                }],
                ..protocol::JobResult::default()
            },
        }
    };

    let absolute = dir.join("escape-abs");
    for name in ["../escape", absolute.to_str().unwrap()] {
        match ask(complete(name)) {
            Response::Error { code, message } => {
                assert_eq!(code, "bad-field", "{message}");
                assert!(message.contains("plain file name"), "{message}");
            }
            other => panic!("{name}: expected an error, got {other:?}"),
        }
    }
    // The lease survives the refusal: a well-named completion lands.
    assert!(matches!(
        ask(complete("trace.st")),
        Response::CompleteOk { accepted: true, .. }
    ));
    assert!(matches!(
        ask(Request::Status {
            job: JobRef::Id(job.clone()),
            wait: true,
        }),
        Response::JobStatus { state: ref s, .. } if s == "done"
    ));
    assert!(matches!(ask(Request::Shutdown), Response::Bye));
    drop(stdin);
    assert!(child.wait().unwrap().success());

    assert!(!absolute.exists());
    let artifacts = state.join("artifacts");
    for entry in std::fs::read_dir(&artifacts).unwrap() {
        let entry = entry.unwrap();
        assert!(entry.path().is_dir(), "{:?} escaped its job", entry.path());
    }
    let names: Vec<String> = std::fs::read_dir(artifacts.join(&job))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, ["trace.st"]);
    let _ = std::fs::remove_dir_all(&dir);
}
