//! Run a small experiment campaign programmatically.
//!
//! ```text
//! cargo run --example campaign
//! ```
//!
//! Expands a three-app matrix (with one injected fault to show the fleet's
//! isolation), runs it twice against the same trace cache, and prints both
//! reports — the second run is served entirely from the cache.

use campaign::{run_campaign, CampaignSpec, Telemetry, TraceCache};

fn main() {
    let matrix = "
        # paper-pipeline demo sweep
        apps     = ring, cg, __panic__
        ranks    = 4, 8
        classes  = S
        networks = ideal
        workers  = 4
        retries  = 1
    ";
    let spec = CampaignSpec::parse(matrix).expect("matrix parses");

    let cache_dir = std::env::temp_dir().join(format!("campaign-example-{}", std::process::id()));
    let log = cache_dir.join("campaign.jsonl");

    println!("== run 1: cold cache ==");
    let cache = TraceCache::open(&cache_dir).expect("cache dir");
    std::fs::create_dir_all(&cache_dir).expect("cache dir exists");
    let telemetry = Telemetry::to_file(&log).expect("log file");
    let report = run_campaign(&spec, cache, telemetry);
    print!("{report}");

    println!("\n== run 2: warm cache ==");
    let cache = TraceCache::open(&cache_dir).expect("cache dir");
    let report = run_campaign(&spec, cache, Telemetry::sink());
    print!("{report}");
    assert_eq!(report.cache_hits(), report.ok(), "warm run is fully cached");

    println!("\ntelemetry written to {}", log.display());
    println!("first events:");
    let text = std::fs::read_to_string(&log).expect("log readable");
    for line in text.lines().take(5) {
        println!("  {line}");
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}
