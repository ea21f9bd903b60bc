//! `e2e_bench` — the repo benchmark.
//!
//! ```text
//! e2e_bench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! e2e_bench run   [--seed N] [--seconds S] [--repeat K] [--out SET.json] [--smoke]
//! e2e_bench trace [--seed N] [--seconds S] [--out SET.json] [--smoke]
//! e2e_bench compare A.json B.json
//! e2e_bench selftest
//! ```
//!
//! The first form is what `BENCHMARK.json` names and what `run` / `trace`
//! spawn once per workload, so that every workload has a process — and a
//! `VmHWM`, and a CPU — of its own. See `README.md` beside this package.

mod compare;
mod harness;
mod metrics;
mod spans;
mod speed;
mod stats;
mod sys;
mod workloads;

use harness::{EndToEnd, RunConfig, RunResult};
use metrics::{END_TO_END, PER_LAYER};
use protocol::json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

/// Where the process runs. Host time on this simulator is bimodal with
/// thread placement (one pass is ~1.8× slower when the rank threads spread
/// over two CPUs than when they share one), so every timed run is pinned to
/// the first CPU it is allowed on; `par::threads()` then resolves to 1.
pub struct Pinning {
    /// CPUs the process was started with.
    pub allowed: Vec<usize>,
    pub pinned: bool,
}

static PINNING: OnceLock<Pinning> = OnceLock::new();

pub fn pinning() -> &'static Pinning {
    PINNING.get_or_init(|| {
        let allowed = sys::allowed_cpus();
        let pinned = !allowed.is_empty() && sys::set_affinity(&allowed[..1]);
        Pinning { allowed, pinned }
    })
}

/// Run `f` with the affinity mask widened to every CPU the process was
/// started with, then pin again. `None` when there is only one CPU to use or
/// the kernel refuses the mask.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> Option<T> {
    let all = &pinning().allowed;
    if all.len() < 2 || !sys::set_affinity(all) {
        return None;
    }
    let out = f();
    sys::set_affinity(&all[..1]);
    Some(out)
}

/// The directory build outputs go to: the benchmark writes nowhere else.
fn build_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("e2e_bench")
}

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: u64,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_none() && args.workload.is_none() => args.command = Some(a),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

fn usage() -> String {
    "usage: e2e_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       \
     e2e_bench run|trace [--seed N] [--seconds S] [--repeat K] [--out SET.json] [--smoke]\n       \
     e2e_bench compare A.json B.json\n       \
     e2e_bench selftest"
        .to_string()
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("e2e_bench: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(why) = stats::selftest().and_then(|()| metrics_match_benchmark_json()) {
        eprintln!("e2e_bench: {why}");
        return ExitCode::from(3);
    }
    let outcome = match (args.command.as_deref(), &args.workload) {
        (None, Some(workload)) => run_one(workload, &args, process_start),
        (Some("run"), None) => run_all(&args, false),
        (Some("trace"), None) => run_all(&args, true),
        (Some("compare"), None) if args.positional.len() == 2 => {
            compare::compare_files(&args.positional[0], &args.positional[1])
        }
        (Some("selftest"), None) => {
            println!("selftest: ok");
            Ok(true)
        }
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("e2e_bench: {why}");
            ExitCode::from(1)
        }
    }
}

/// `BENCHMARK.json` repeats the metric tables for the driver; refuse to
/// measure when the two have drifted apart. Absent file: nothing to check.
fn metrics_match_benchmark_json() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc = protocol::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.clone(),
                    m.get("unit")?.as_str()?.clone(),
                ))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    if listed("end_to_end") != own(&e2e) {
        return Err("BENCHMARK.json end_to_end differs from metrics::END_TO_END".to_string());
    }
    if listed("per_layer") != own(&PER_LAYER) {
        return Err("BENCHMARK.json per_layer differs from metrics::PER_LAYER".to_string());
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str().cloned())
        .collect();
    if workloads != workloads::NAMES {
        return Err("BENCHMARK.json workloads differ from workloads::NAMES".to_string());
    }
    Ok(())
}

fn metric_obj(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}

/// One workload in this process: pin, set up, measure, check, and print the
/// tables followed by the one-line JSON result.
fn run_one(workload: &str, args: &Args, process_start: Instant) -> Result<bool, String> {
    let pin = pinning();
    let scratch = build_dir().join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let result = harness::run_workload(&cfg, process_start, &|cfg| workloads::setup(workload, cfg));
    let _ = std::fs::remove_dir_all(&scratch);
    let result = result?;

    let timing = if pin.pinned { "pinned" } else { "unpinned" };
    println!(
        "== {workload} · seed {} · {timing} (cpu {:?} of {:?}) · nproc {} · threads {} · {} · {} ==",
        args.seed,
        pin.allowed.first(),
        pin.allowed,
        pin.allowed.len(),
        par::threads(),
        sys::rustc_version(),
        if args.trace { "trace" } else { "run" },
    );
    if !pin.pinned {
        println!(
            "!! pinning failed: every timing below is UNPINNED and not comparable with pinned runs"
        );
    }
    print_cells(&result);
    let e2e = EndToEnd::of(&result);
    let metrics: Vec<(String, Json)> = if args.trace {
        let values = metrics::per_layer_values(&result);
        println!(
            "  per-layer ({} traced passes; 0 = layer not entered by this workload):",
            result.traced_pass_s.len()
        );
        for ((name, unit), v) in PER_LAYER.iter().zip(&values) {
            if *v != 0.0 {
                println!("    {name:<44} {v:>16.6} {unit}");
            }
        }
        let path = build_dir().join(format!("spans-{workload}.jsonl"));
        spans::write_jsonl(&path, &result.logs).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans: {}", path.display());
        PER_LAYER
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), metric_obj(v, unit)))
            .collect()
    } else {
        let values = metrics::end_to_end_values(&e2e);
        println!(
            "  end to end ({} timed passes, pass quartiles {:.4}–{:.4} s, {} jobs, {} beyond p95; reference kernel {:.4} ms, nominal {} ms):",
            e2e.passes,
            e2e.pass_quartiles.0,
            e2e.pass_quartiles.1,
            result.rec.job_ms.len(),
            e2e.p95_beyond,
            result.kernel_ms,
            speed::NOMINAL_MS,
        );
        for (m, v) in END_TO_END.iter().zip(values) {
            println!(
                "    {:<22} {v:>16.6} {:<6} (bound +{:.0} %)",
                m.name,
                m.unit,
                m.bound * 100.0
            );
        }
        println!("  the same three timings in plain wall time (not contract metrics):");
        for (name, v, unit) in [
            ("pass_s", e2e.pass_s, "s"),
            ("cell_geomean_ms", e2e.cell_geomean_ms, "ms"),
            ("job_p95_ms", e2e.job_p95_ms, "ms"),
        ] {
            println!("    {name:<22} {v:>16.6} {unit}");
        }
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), metric_obj(v, m.unit)))
            .collect()
    };
    let rec = &result.rec;
    println!(
        "    {:<22} {:>16.6} ratio  ({} failed of {} jobs; must stay 0)",
        "failed_share",
        rec.failed as f64 / rec.attempted.max(1) as f64,
        rec.failed,
        rec.attempted
    );
    for why in &rec.failures {
        println!("  FAILED {why}");
    }
    let correct = rec.failed == 0 && rec.attempted > 0;
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(rec.attempted as f64)),
        ("failed".to_string(), Json::Num(rec.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_compact());
    Ok(correct)
}

fn print_cells(result: &RunResult) {
    println!(
        "  {:<30} {:>5} {:>11} {:>11} {:>11} {:>11} {:>10} {:>9}",
        "cell", "n", "median ms", "q1 ms", "q3 ms", "ref ms", "bytes", "err %"
    );
    for c in &result.rec.cells {
        let (q1, q3) = stats::quartiles(&c.samples_ms);
        println!(
            "  {:<30} {:>5} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>10} {:>9}",
            c.name,
            c.samples_ms.len(),
            stats::median(&c.samples_ms),
            q1,
            q3,
            stats::median(&c.ref_ms),
            c.bytes.unwrap_or(0),
            c.err_pct.map_or("-".to_string(), |e| format!("{e:.4}")),
        );
    }
}

/// Every workload, each in a child process of its own; optionally repeated
/// over consecutive seeds and saved as a set `compare` can read.
fn run_all(args: &Args, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for rep in 0..args.repeat {
        let seed = args.seed + rep;
        for workload in workloads::NAMES {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stdout(Stdio::piped());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .spawn()
                .and_then(|child| child.wait_with_output())
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            for l in &lines {
                println!("{l}");
            }
            println!();
            all_ok &= out.status.success();
            let Ok(result) = protocol::json::parse(last) else {
                return Err(format!(
                    "{workload}: no result line (exit {:?})",
                    out.status.code()
                ));
            };
            runs.push(Json::Obj(vec![
                ("workload".to_string(), Json::Str(workload.to_string())),
                ("seed".to_string(), Json::Num(seed as f64)),
                ("result".to_string(), result),
            ]));
        }
    }
    if let Some(path) = &args.out {
        let pin = pinning();
        let doc = Json::Obj(vec![
            (
                "mode".to_string(),
                Json::Str(if trace { "trace" } else { "run" }.to_string()),
            ),
            ("pinned".to_string(), Json::Bool(pin.pinned)),
            ("nproc".to_string(), Json::Num(pin.allowed.len() as f64)),
            ("seconds".to_string(), Json::Num(args.seconds)),
            ("smoke".to_string(), Json::Bool(args.smoke)),
            ("rustc".to_string(), Json::Str(sys::rustc_version())),
            ("runs".to_string(), Json::Arr(runs)),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("set written to {}", path.display());
    }
    Ok(all_ok)
}
