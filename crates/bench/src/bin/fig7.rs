#![forbid(unsafe_code)]
//! **Figure 7 (E4)** — the §5.4 what-if study: communication performance of
//! BT under scaled computation.
//!
//! A benchmark is generated from BT on 64 ranks, then its COMPUTE
//! statements are programmatically scaled from 100% down to 0% (the
//! editability the paper demonstrates by hand-modifying the coNCePTuaL
//! text) and each variant runs on the simulated Ethernet cluster. The paper
//! observes a sublinear decrease followed by an *increase* near 0% — the
//! messaging layer's unexpected-receive copies and flow-control stalls
//! dominating once computation no longer paces the senders.
//!
//! Usage: `fig7 [--ranks N] [--class S|W|A|B|C]`

use bench_suite::{print_table, read_flags, trace_of};
use benchgen::{generate, GenOptions};
use conceptual::interp::run_program;
use conceptual::transform::scale_compute;
use miniapps::{registry, AppParams, Class};
use mpisim::network;

fn main() {
    let mut ranks: usize = 64;
    let mut class = Class::C;
    read_flags("fig7 [--ranks N] [--class S|W|A|B|C]", |flag, argv| {
        match flag {
            "--ranks" => ranks = argv.parsed()?,
            "--class" => class = argv.parsed()?,
            _ => return Ok(false),
        }
        Ok(true)
    });

    println!("Figure 7 reproduction: BT what-if compute scaling on {ranks} ranks");
    println!(
        "network: Ethernet cluster (simulated); class {}\n",
        class.name()
    );

    let app = registry::lookup("bt").expect("bt registered");
    let traced = trace_of(
        app,
        ranks,
        AppParams::class(class),
        network::ethernet_cluster(),
    )
    .expect("BT runs");
    let generated = generate(&traced.trace, &GenOptions::default()).expect("generates");

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for pct in (0..=100).rev().step_by(10) {
        let factor = pct as f64 / 100.0;
        let variant = scale_compute(&generated.program, factor);
        let outcome = run_program(&variant, ranks, network::ethernet_cluster())
            .expect("scaled benchmark runs");
        let secs = outcome.total_time.as_secs_f64();
        let stalls = outcome.report.stats.flow_control_stalls;
        let unexpected = outcome.report.stats.unexpected_messages;
        rows.push(vec![
            format!("{pct}%"),
            format!("{secs:.4}"),
            unexpected.to_string(),
            stalls.to_string(),
        ]);
        series.push((pct, secs));
    }
    print_table(
        &["compute", "time [s]", "unexpected msgs", "fc stalls"],
        &rows,
    );

    // The paper's qualitative claims.
    let at = |p: i32| series.iter().find(|&&(q, _)| q == p).unwrap().1;
    let drop_to_30 = 100.0 * (1.0 - at(30) / at(100));
    println!(
        "\n100% -> 30% compute gives {drop_to_30:.0}% total-time reduction \
         (paper: ~21% for a 3.3x compute speedup)"
    );
    let min_pct = series.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
    println!(
        "minimum at {min_pct}% compute; time at 0% is {:.2}x the minimum \
         (paper: rises again below ~30%, no speedup at 0%)",
        at(0) / series.iter().map(|&(_, s)| s).fold(f64::MAX, f64::min)
    );
}
