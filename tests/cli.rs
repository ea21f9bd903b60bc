//! CLI-level tests: drive the real `commgen` and `commbench` binaries as
//! subprocesses and assert on exit status, diagnostics, and artifacts.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn commgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_commgen"))
        .args(args)
        .output()
        .expect("commgen spawns")
}

fn commbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args(args)
        .output()
        .expect("commbench spawns")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "commspec-cli-test-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------- commgen

#[test]
fn commgen_generates_a_program_for_a_registry_app() {
    let out = commgen(&["--app", "ring", "--ranks", "4", "--class", "S"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ALL TASKS"), "no program emitted:\n{text}");
}

#[test]
fn commgen_rejects_unknown_apps_with_a_diagnostic() {
    let out = commgen(&["--app", "nosuch"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown app nosuch"), "{err}");
    assert!(err.contains("available:"), "lists alternatives: {err}");
}

#[test]
fn commgen_rejects_unreadable_trace_files() {
    let out = commgen(&["--trace", "/nonexistent/path/t.st"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

#[test]
fn commgen_rejects_corrupt_trace_files() {
    let dir = temp_dir("corrupt-trace");
    let path = dir.join("bad.st");
    std::fs::write(&path, "this is not a trace\n").unwrap();
    let out = commgen(&["--trace", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot parse trace"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commgen_rejects_invalid_flag_combinations() {
    let out = commgen(&["--app", "lu", "--trace", "t.st"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );

    // There is one code generator; `--backend` is gone.
    let out = commgen(&["--app", "lu", "--backend", "c"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown argument --backend"),
        "{}",
        stderr(&out)
    );

    let out = commgen(&["--app", "lu", "--machine", "cray"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown machine"), "{}", stderr(&out));

    let out = commgen(&["--app", "lu", "--ranks", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--ranks"), "{}", stderr(&out));
}

#[test]
fn commgen_rejects_invalid_rank_counts_for_an_app() {
    // BT requires a square rank count.
    let out = commgen(&["--app", "bt", "--ranks", "7", "--class", "S"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot run on 7 ranks"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn commgen_trace_file_roundtrip_through_the_cli() {
    let dir = temp_dir("emit-trace");
    let direct = commgen(&["--app", "ring", "--ranks", "4", "--class", "S"]);
    assert!(direct.status.success(), "{}", stderr(&direct));
    // Either format the extension names: the text view, and the binary file
    // a salvage or a convert leaves behind.
    for name in ["ring.st", "ring.stbs"] {
        let path = dir.join(name);
        let path = path.to_str().unwrap();
        let emitted = commgen(&[
            "--app",
            "ring",
            "--ranks",
            "4",
            "--class",
            "S",
            "--emit-trace",
            path,
        ]);
        assert!(emitted.status.success(), "{name}: {}", stderr(&emitted));
        assert_eq!(stdout(&direct), stdout(&emitted), "{name}");

        let read = commgen(&["--trace", path]);
        assert!(read.status.success(), "{name}: {}", stderr(&read));
        assert_eq!(
            stdout(&direct),
            stdout(&read),
            "{name}: trace file reproduces the program"
        );
    }
    let out = commgen(&["--app", "ring", "--emit-trace", "ring.json"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot infer trace format"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_trace_errors_name_what_was_read_not_a_checkpoint() {
    let dir = temp_dir("stbs-errors");
    let bad = dir.join("bad.stbs");
    std::fs::write(&bad, b"short").unwrap();
    let (bad, out_st) = (bad.to_str().unwrap(), dir.join("out.st"));
    let missing = dir.join("missing");
    let decode = "cannot decode trace";
    let short = "corrupt STBS file: file shorter than frame";
    for (out, wants) in [
        (
            commbench(&["convert", bad, out_st.to_str().unwrap()]),
            [decode, short],
        ),
        (commgen(&["--trace", bad]), [decode, short]),
        (
            commbench(&["salvage", "--dir", missing.to_str().unwrap()]),
            ["salvage failed on", "I/O error: "],
        ),
    ] {
        let err = stderr(&out);
        assert!(!out.status.success(), "{err}");
        assert!(!err.contains("checkpoint"), "{err}");
        for want in wants {
            assert!(err.contains(want), "{want}: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------- commbench

const ACCEPTANCE_MATRIX: &str = "
    # three apps x two rank counts, one injected fault
    apps     = ring, cg, ep, __panic__
    ranks    = 4, 8
    classes  = S
    networks = ideal
    workers  = 4
    retries  = 1
";

fn jsonl_events(path: &PathBuf) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("JSONL log exists")
        .lines()
        .map(str::to_string)
        .collect()
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn commbench_acceptance_fleet_faults_and_cache() {
    let dir = temp_dir("acceptance");
    let matrix = dir.join("matrix.txt");
    std::fs::write(&matrix, ACCEPTANCE_MATRIX).unwrap();
    let cache = dir.join("cache");
    let log1 = dir.join("run1.jsonl");

    // Run 1: cold cache. The fleet must finish despite the panicking jobs
    // (exit status reflects their failure).
    let out = commbench(&[
        "--matrix",
        matrix.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--log",
        log1.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "injected panics must fail the run");
    let report = stdout(&out);
    assert!(report.contains("6 ok"), "8 jobs minus 2 panics:\n{report}");
    assert!(report.contains("2 failed"), "{report}");
    assert!(report.contains("injected panic"), "{report}");
    assert!(
        report.contains("6 verified"),
        "E1 passes for all ok jobs: {report}"
    );

    let events = jsonl_events(&log1);
    let count = |ev: &str| {
        events
            .iter()
            .filter(|l| field(l, "event") == Some(ev))
            .count()
    };
    assert_eq!(count("queued"), 8);
    assert_eq!(count("finished"), 8);
    assert!(count("started") >= 8);
    assert_eq!(count("cached"), 0, "cold cache");
    let failed: Vec<&String> = events
        .iter()
        .filter(|l| field(l, "status") == Some("failed"))
        .collect();
    assert_eq!(failed.len(), 2);
    assert!(failed.iter().all(|l| l.contains("__panic__")));
    // Successful finishes carry the metric fields.
    let ok_line = events
        .iter()
        .find(|l| field(l, "status") == Some("ok"))
        .expect("an ok job");
    for key in [
        "t_app_us",
        "t_gen_us",
        "err_pct",
        "compression",
        "verify_errors",
        "wall_ms",
    ] {
        assert!(field(ok_line, key).is_some(), "missing {key}: {ok_line}");
    }

    // Run 2: warm cache. Every unchanged (successful) job must hit.
    let log2 = dir.join("run2.jsonl");
    let out = commbench(&[
        "--matrix",
        matrix.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--log",
        log2.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let events2 = jsonl_events(&log2);
    let cached = events2
        .iter()
        .filter(|l| field(l, "event") == Some("cached"))
        .count();
    assert_eq!(cached, 6, "every previously traced job hits the cache");
    assert!(stdout(&out).contains("6 cached"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commbench_print_matrix_lists_jobs_without_running() {
    let dir = temp_dir("print");
    let matrix = dir.join("m.txt");
    std::fs::write(&matrix, "apps = ring, bt\nranks = 4, 7\n").unwrap();
    let out = commbench(&["--matrix", matrix.to_str().unwrap(), "--print-matrix"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let listing = stdout(&out);
    let jobs: Vec<&str> = listing.lines().map(str::trim).collect();
    // ring runs on 4 and 7; bt only on 4 (square).
    assert_eq!(jobs.iter().filter(|j| j.starts_with("ring.")).count(), 2);
    assert_eq!(jobs.iter().filter(|j| j.starts_with("bt.")).count(), 1);
    assert!(stderr(&out).contains("skipped: bt cannot run on 7 ranks"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commbench_chaos_differential_over_selected_apps() {
    let dir = temp_dir("chaos");
    let cache = dir.join("cache");
    let log = dir.join("chaos.jsonl");
    let out = commbench(&[
        "chaos",
        "--seeds",
        "3",
        "--apps",
        "ring,lu",
        "--ranks",
        "4",
        "--cache",
        cache.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("chaos"), "{report}");
    assert!(report.contains("2 ok"), "{report}");
    assert!(report.contains("3/3"), "all seeds invariant:\n{report}");

    // Telemetry carries one structured "chaos" event per (job, seed) with a
    // verdict, plus the per-job summary on the finished event.
    let events = jsonl_events(&log);
    let chaos: Vec<&String> = events
        .iter()
        .filter(|l| field(l, "event") == Some("chaos"))
        .collect();
    assert_eq!(chaos.len(), 6, "2 apps x 3 seeds");
    assert!(chaos
        .iter()
        .all(|l| field(l, "verdict") == Some("invariant")));
    let ok_line = events
        .iter()
        .find(|l| field(l, "status") == Some("ok"))
        .expect("an ok job");
    assert_eq!(field(ok_line, "chaos_seeds"), Some("3"), "{ok_line}");
    assert!(field(ok_line, "chaos_invariant").is_some(), "{ok_line}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commbench_chaos_rejects_bad_flags() {
    let out = commbench(&["chaos", "--seeds", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--seeds"), "{}", stderr(&out));

    let out = commbench(&["chaos", "--apps", "nosuch"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown app nosuch"),
        "{}",
        stderr(&out)
    );

    let out = commbench(&["chaos", "--network", "myrinet"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown network"), "{}", stderr(&out));
}

#[test]
fn commbench_serve_has_no_memory_cache_flag() {
    let out = commbench(&["serve", "--mem-mb", "8"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown argument --mem-mb (try --help)"),
        "{}",
        stderr(&out)
    );
    let usage = commbench(&["serve", "--help"]);
    assert!(stderr(&usage).contains("commbench serve [--stdio"));
    assert!(!stderr(&usage).contains("--mem-mb"), "{}", stderr(&usage));
}

#[test]
fn perf_check_refuses_to_grade_a_run_against_the_file_it_writes() {
    // A baseline no real run can pass: every crossing count planted at 0.
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_pipeline.json"))
            .unwrap();
    let planted: String = committed
        .lines()
        .map(|line| match line.split_once("\"crossings\":") {
            Some((indent, rest)) => {
                let comma = if rest.ends_with(',') { "," } else { "" };
                format!("{indent}\"crossings\": 0{comma}\n")
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(planted, committed, "the plant changed the baseline");
    let dir = temp_dir("perf-self-check");
    let baseline = dir.join("BENCH_pipeline.json");
    std::fs::write(&baseline, &planted).unwrap();

    // `--out` omitted defaults to the baseline itself; spelled another way,
    // it is still the same file.
    let absolute = baseline.to_str().unwrap();
    for out_flags in [
        &[][..],
        &["--out", "./BENCH_pipeline.json"],
        &["--out", absolute],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_commbench"))
            .current_dir(&dir)
            .args(["perf", "--smoke", "--threads", "1"])
            .args(out_flags)
            .args(["--check", "BENCH_pipeline.json"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{out_flags:?} passed against itself");
        let err = stderr(&out);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(
            err.contains("--check BENCH_pipeline.json is also the --out file"),
            "{err}"
        );
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), planted);
        assert!(
            !dir.join(".commbench-cache").exists(),
            "the suite never started"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commbench_rejects_missing_and_malformed_matrices() {
    let out = commbench(&["--matrix", "/nonexistent/m.txt"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));

    let dir = temp_dir("badmatrix");
    let matrix = dir.join("m.txt");
    std::fs::write(&matrix, "apps = ring\nranks = 4\nbogus_key = 1\n").unwrap();
    let out = commbench(&["--matrix", matrix.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown key bogus_key"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commbench_convert_roundtrips_between_text_and_binary() {
    let dir = temp_dir("convert");
    // Produce a trace in both formats via a streamed capture.
    let seg_dir = dir.join("segments");
    let text_path = dir.join("trace.st");
    let out = commbench(&[
        "capture",
        "--app",
        "ring",
        "--ranks",
        "4",
        "--iterations",
        "10",
        "--dir",
        seg_dir.to_str().unwrap(),
        "--out",
        text_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // text -> binary -> text must reproduce the text byte-for-byte.
    let bin_path = dir.join("trace.stbs");
    let back_path = dir.join("back.st");
    let out = commbench(&[
        "convert",
        text_path.to_str().unwrap(),
        bin_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // Both sides are reported with format and size; the binary is written
    // at the newest version and is the smaller file.
    let sizes = format!(
        "trace.st (text, {} B) -> {} (STBS v2, {} B)",
        std::fs::metadata(&text_path).unwrap().len(),
        bin_path.display(),
        std::fs::metadata(&bin_path).unwrap().len()
    );
    assert!(stderr(&out).contains(&sizes), "{}", stderr(&out));
    assert!(
        std::fs::metadata(&bin_path).unwrap().len() < std::fs::metadata(&text_path).unwrap().len()
    );
    let out = commbench(&[
        "convert",
        bin_path.to_str().unwrap(),
        back_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&text_path).unwrap(),
        std::fs::read(&back_path).unwrap(),
        "text -> stbs -> text is not byte-identical"
    );

    // Converting is the upgrade path: a v1 file is read and said to be one.
    let v1 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/scalatrace/tests/fixtures/piecewise_v1.stbs"
    );
    let upgraded = dir.join("upgraded.stbs");
    let out = commbench(&["convert", v1, upgraded.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("piecewise_v1.stbs (STBS v1, 3027 B) -> "),
        "{}",
        stderr(&out)
    );
    assert_eq!(
        std::fs::read(&upgraded).unwrap(),
        std::fs::read(v1.replace("_v1.stbs", "_v2.stbs")).unwrap()
    );

    // binary -> text -> binary likewise (the trace is text-canonical
    // because it just came through the text format).
    let bin2_path = dir.join("trace2.stbs");
    let out = commbench(&[
        "convert",
        back_path.to_str().unwrap(),
        bin2_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&bin_path).unwrap(),
        std::fs::read(&bin2_path).unwrap(),
        "stbs -> text -> stbs is not byte-identical"
    );

    // Corrupt binary input is a structured diagnostic, not a panic.
    std::fs::write(&bin_path, b"not a trace").unwrap();
    let out = commbench(&[
        "convert",
        bin_path.to_str().unwrap(),
        back_path.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot decode"), "{}", stderr(&out));

    // Unknown extensions are rejected up front.
    let out = commbench(&["convert", "a.st", "b.json"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("cannot infer trace format"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
