//! Server round-trip: run commspec as a service and talk to it in-process.
//!
//! Starts a `commspec-server` on an ephemeral TCP port, connects a typed
//! client, and walks the paper's pipeline as three asynchronous jobs —
//! trace, generate, simulate on the ring miniapp — sharing one cached
//! trace. Submitting the same job twice demonstrates the content-hashed
//! idempotency that also powers crash replay (see DESIGN.md §13).
//!
//! Run with: `cargo run --release --example server_client`

use protocol::{JobParams, Request, Response};
use server::{Client, Server, ServerOptions};

fn main() {
    // 1. Boot the daemon on an ephemeral port, state under a temp dir.
    //    In production this is `commbench serve --addr 0.0.0.0:7411`.
    let state = std::env::temp_dir().join(format!("commspec-example-{}", std::process::id()));
    let opts = ServerOptions {
        state_dir: state.clone(),
        workers: 2,
        ..ServerOptions::default()
    };
    let (server, restored) = Server::start(opts).expect("server starts");
    println!("== server up (restored {restored} journaled job(s)) ==");
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral port");
    let handle = std::thread::spawn(move || server.serve_tcp(&addr.to_string()));
    std::thread::sleep(std::time::Duration::from_millis(50));

    // 2. Connect and negotiate the protocol version.
    let mut client = Client::connect(&addr.to_string(), "example").expect("connect");
    println!("   negotiated with {}", client.server);

    // 3. Submit the pipeline as three jobs. Submission only queues; each
    //    returns immediately with a content-hashed id.
    let params = JobParams::new("ring", 4);
    let mut ids = Vec::new();
    for kind in ["trace", "generate", "simulate"] {
        let (job, replayed) = client.submit(kind, params.clone(), None).expect(kind);
        println!("   submitted {job} (replayed: {replayed})");
        ids.push(job);
    }

    // 4. Block on each result. The trace job fills the in-memory cache;
    //    generate and simulate reuse the entry (`cached: true`).
    for job in &ids {
        match client.wait(job).expect("status") {
            Response::JobStatus {
                state,
                result: Some(r),
                ..
            } => {
                let names: Vec<&str> = r.artifacts.iter().map(|a| a.name.as_str()).collect();
                println!(
                    "   {job}: {state} (cached: {}, artifacts: {names:?})",
                    r.cached
                );
                if let Some(err) = r.err_pct {
                    println!("     timing error vs traced app: {err:.2}%");
                }
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    // 5. Same submission again: already terminal, so the server answers
    //    from its table without queueing (and, across restarts, from the
    //    journal without re-execution).
    let (job, replayed) = client.submit("simulate", params, None).expect("resubmit");
    println!("   resubmitted {job} (replayed: {replayed})");
    assert!(replayed);

    // 6. Per-client counters and cache statistics, then an orderly stop.
    if let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") {
        println!(
            "== stats: done {}, replayed {}, cache hits {} ==",
            stats.jobs_done, stats.jobs_replayed, stats.disk_hits
        );
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&state);
    println!("== server drained and stopped ==");
}
