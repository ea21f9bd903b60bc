//! The two tail folds agree on real streams. `TailCompressor` (what capture
//! runs: fingerprint-indexed window search) and `compress::append_compressed`
//! (the structural fold `core::rebuild` runs, and the reference) are fed the
//! raw per-rank event stream of every registry app at 16 ranks and must
//! produce the same compressed sequence at every window, the capture's
//! default among them. At the default, MG's V-cycle (71 nodes per rank and
//! iteration at class S) folds into one loop.

use miniapps::{registry, AppParams, Class};
use mpisim::network;
use mpisim::world::World;
use scalatrace::compress::{append_compressed, DEFAULT_MAX_WINDOW};
use scalatrace::{TailCompressor, TraceNode, Tracer};

const RANKS: usize = 16;

/// Each rank's events as single-rank RSDs, unfolded: a tracer whose fold
/// window is zero translates events and never folds.
fn raw_streams(app: &miniapps::App) -> Vec<Vec<TraceNode>> {
    let params = AppParams::class(Class::S);
    let run = app.run;
    let (_, tracers) = World::new(RANKS)
        .network(network::ethernet_cluster())
        .run_hooked(
            |r| Tracer::with_window(r, RANKS, 0),
            move |ctx| run(ctx, &params),
        )
        .unwrap_or_else(|e| panic!("{} fails: {e}", app.name));
    tracers
        .into_iter()
        .map(|t| {
            let events = t.events_seen;
            let nodes = t.into_parts().0;
            assert_eq!(nodes.len() as u64, events, "{}: stream is raw", app.name);
            nodes
        })
        .collect()
}

#[test]
fn fingerprint_and_structural_folds_agree_on_every_registry_app() {
    for app in registry::all() {
        for (rank, stream) in raw_streams(app).iter().enumerate() {
            for window in [1, 16, 32, DEFAULT_MAX_WINDOW] {
                let mut fingerprint = TailCompressor::new(window);
                let mut structural = Vec::new();
                for node in stream {
                    fingerprint.push(node.clone());
                    append_compressed(&mut structural, node.clone(), window);
                }
                assert_eq!(
                    fingerprint.nodes(),
                    structural.as_slice(),
                    "{} rank {rank} window {window}",
                    app.name
                );
                if window == 32 && stream.len() > 100 {
                    assert!(
                        structural.len() < stream.len(),
                        "{} rank {rank}: nothing folded",
                        app.name
                    );
                }
                if window == DEFAULT_MAX_WINDOW && app.name == "mg" {
                    assert!(
                        structural.len() <= 8,
                        "mg rank {rank}: {} nodes at window {window}",
                        structural.len()
                    );
                }
            }
        }
    }
}
