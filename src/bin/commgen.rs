//! `commgen` — command-line front end for the benchmark generator.
//!
//! Traces a bundled application (or reads a ScalaTrace-style text trace)
//! and emits the generated executable communication specification.
//!
//! ```text
//! commgen --app lu --ranks 16 --class A            # trace + generate, print to stdout
//! commgen --app bt --ranks 36 -o bt.ncptl          # write the program text
//! commgen --app cg --ranks 16 --emit-trace cg.st   # also dump the trace file
//! commgen --trace cg.st                            # generate from a trace file
//! commgen --app ft --ranks 16 --run                # also execute the benchmark
//! commgen --app sp --ranks 16 --backend c          # pseudo-C+MPI backend
//! commgen --app ring --ranks 8 --extrapolate 512   # ScalaExtrap-style scaling
//! ```

use benchgen::{generate, GenOptions};
use miniapps::{registry, AppParams, Class};
use mpisim::network;
use scalatrace::trace_app;
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    app: Option<String>,
    trace_file: Option<String>,
    ranks: usize,
    class: Class,
    output: Option<String>,
    emit_trace: Option<String>,
    profile: Option<String>,
    run: bool,
    stats: bool,
    no_align: bool,
    no_resolve: bool,
    comments: bool,
    backend: String,
    machine: String,
    extrapolate: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    parse_argv(std::env::args().skip(1).collect())
}

fn parse_argv(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        app: None,
        trace_file: None,
        ranks: 16,
        class: Class::A,
        output: None,
        emit_trace: None,
        profile: None,
        run: false,
        stats: false,
        no_align: false,
        no_resolve: false,
        comments: false,
        backend: "conceptual".to_string(),
        machine: "bgl".to_string(),
        extrapolate: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--app" => args.app = Some(value(&mut i)?),
            "--trace" => args.trace_file = Some(value(&mut i)?),
            "--ranks" => {
                args.ranks = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --ranks: {e}"))?
            }
            "--class" => {
                args.class = match value(&mut i)?.as_str() {
                    "S" => Class::S,
                    "W" => Class::W,
                    "A" => Class::A,
                    "B" => Class::B,
                    "C" => Class::C,
                    other => return Err(format!("unknown class {other}")),
                }
            }
            "-o" | "--output" => args.output = Some(value(&mut i)?),
            "--emit-trace" => args.emit_trace = Some(value(&mut i)?),
            "--profile" => args.profile = Some(value(&mut i)?),
            "--run" => args.run = true,
            "--stats" => args.stats = true,
            "--no-align" => args.no_align = true,
            "--no-resolve" => args.no_resolve = true,
            "--comments" => args.comments = true,
            "--backend" => args.backend = value(&mut i)?,
            "--extrapolate" => {
                args.extrapolate = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --extrapolate: {e}"))?,
                )
            }
            "--machine" => args.machine = value(&mut i)?,
            "--help" | "-h" => {
                return Err("usage: commgen (--app NAME | --trace FILE) [--ranks N] \
                            [--class S|W|A|B|C] [-o FILE] [--emit-trace FILE] \
                            [--profile FILE] [--run] \
                            [--backend conceptual|c] [--machine bgl|ethernet] \
                            [--extrapolate N] [--stats] [--no-align] [--no-resolve] \
                            [--comments]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
        i += 1;
    }
    if args.app.is_none() && args.trace_file.is_none() {
        return Err("one of --app or --trace is required (try --help)".to_string());
    }
    if args.app.is_some() && args.trace_file.is_some() {
        return Err("--app and --trace are mutually exclusive (try --help)".to_string());
    }
    if args.ranks == 0 {
        return Err("--ranks must be at least 1".to_string());
    }
    if !matches!(args.backend.as_str(), "conceptual" | "c") {
        return Err(format!(
            "unknown backend {} (expected conceptual|c)",
            args.backend
        ));
    }
    if !matches!(args.machine.as_str(), "bgl" | "ethernet") {
        return Err(format!(
            "unknown machine {} (expected bgl|ethernet)",
            args.machine
        ));
    }
    if args.extrapolate == Some(0) {
        return Err("--extrapolate must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let machine = match args.machine.as_str() {
        "ethernet" => network::ethernet_cluster(),
        _ => network::blue_gene_l(),
    };

    // 1. Obtain a trace: run a bundled application or load a trace file.
    let trace = if let Some(file) = &args.trace_file {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match scalatrace::text::from_text(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot parse trace {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let name = args.app.as_deref().unwrap();
        let Some(app) = registry::lookup(name) else {
            let names: Vec<&str> = registry::all().iter().map(|a| a.name).collect();
            eprintln!("unknown app {name}; available: {}", names.join(", "));
            return ExitCode::FAILURE;
        };
        if !(app.valid_ranks)(args.ranks) {
            eprintln!("{name} cannot run on {} ranks", args.ranks);
            return ExitCode::FAILURE;
        }
        let params = AppParams::class(args.class);
        let traced = match trace_app(args.ranks, machine.clone(), move |ctx| {
            (app.run)(ctx, &params)
        }) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tracing failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "traced {name}: {} events -> {} trace nodes; T_app = {}",
            traced.trace.concrete_event_count(),
            traced.trace.node_count(),
            traced.report.total_time
        );
        traced.trace
    };

    let trace = match args.extrapolate {
        Some(new_n) => match scalatrace::extrap::extrapolate(&trace, new_n) {
            Ok(t) => {
                eprintln!("trace extrapolated from {} to {new_n} ranks", trace.nranks);
                t
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => trace,
    };

    if args.stats {
        eprint!("{}", scalatrace::stats::stats(&trace));
    }

    if let Some(path) = &args.emit_trace {
        if let Err(e) = std::fs::write(path, scalatrace::text::to_text(&trace)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {path}");
    }

    // 2. Generate.
    let opts = GenOptions {
        align_collectives: !args.no_align,
        resolve_wildcards: !args.no_resolve,
        emit_comments: args.comments,
        ..GenOptions::default()
    };
    let generated = match generate(&trace, &opts) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if generated.aligned {
        eprintln!("note: collectives aligned across call sites (Algorithm 1)");
    }
    if generated.wildcards_resolved > 0 {
        eprintln!(
            "note: {} wildcard receives resolved (Algorithm 2)",
            generated.wildcards_resolved
        );
    }

    // 3. Emit in the selected backend.
    let text = match args.backend.as_str() {
        "c" => {
            let mut g = benchgen::CTextGenerator::new();
            benchgen::codegen::traverse(&trace, &mut g);
            g.finish()
        }
        _ => conceptual::printer::print(&generated.program),
    };
    match &args.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("benchmark written to {path}");
        }
        None => print!("{text}"),
    }

    // 4. Optionally execute the generated benchmark under mpiP hooks and
    //    write the merged profile — the artifact the paper's E1 verification
    //    (and the commspec server's `simulate` job) consumes.
    if let Some(path) = &args.profile {
        let program = std::sync::Arc::new(generated.program.clone());
        let prog = std::sync::Arc::clone(&program);
        let result = mpisim::world::World::new(trace.nranks)
            .network(machine.clone())
            .run_hooked(
                |_| mpisim::profile::MpiP::new(),
                move |ctx| conceptual::interp::run_rank(ctx, &prog),
            );
        match result {
            Ok((_, hooks)) => {
                let profile = mpisim::profile::MpiP::merge_all(hooks.iter()).to_string();
                if let Err(e) = std::fs::write(path, profile) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("mpiP profile written to {path}");
            }
            Err(e) => {
                eprintln!("generated benchmark failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // 5. Optionally execute the generated benchmark.
    if args.run {
        match conceptual::interp::run_program(&generated.program, trace.nranks, machine) {
            Ok(outcome) => eprintln!(
                "T_gen = {} ({} simulated ops in {} rank/engine crossings)",
                outcome.total_time, outcome.report.stats.operations, outcome.report.crossings
            ),
            Err(e) => {
                eprintln!("generated benchmark failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_typical_invocations() {
        let a = parse_argv(argv("--app lu --ranks 32 --class B --run --stats")).unwrap();
        assert_eq!(a.app.as_deref(), Some("lu"));
        assert_eq!(a.ranks, 32);
        assert!(matches!(a.class, Class::B));
        assert!(a.run && a.stats);
        assert!(!a.no_align && !a.no_resolve);

        let a = parse_argv(argv("--trace t.st -o out.ncptl --backend c")).unwrap();
        assert_eq!(a.trace_file.as_deref(), Some("t.st"));
        assert_eq!(a.output.as_deref(), Some("out.ncptl"));
        assert_eq!(a.backend, "c");

        let a = parse_argv(argv("--app ring --extrapolate 512 --no-align --no-resolve")).unwrap();
        assert_eq!(a.extrapolate, Some(512));
        assert!(a.no_align && a.no_resolve);

        let a = parse_argv(argv("--app ring --ranks 4 --profile ring.mpip")).unwrap();
        assert_eq!(a.profile.as_deref(), Some("ring.mpip"));
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_argv(argv("")).is_err(), "needs --app or --trace");
        assert!(parse_argv(argv("--app")).is_err(), "missing value");
        assert!(parse_argv(argv("--app x --ranks nope")).is_err());
        assert!(parse_argv(argv("--app x --class Z")).is_err());
        assert!(parse_argv(argv("--frobnicate")).is_err());
        assert!(
            parse_argv(argv("--help")).is_err(),
            "help is surfaced as a message"
        );
    }

    #[test]
    fn rejects_invalid_flag_combinations() {
        let err = parse_argv(argv("--app lu --trace t.st")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(parse_argv(argv("--app lu --ranks 0")).is_err());
        let err = parse_argv(argv("--app lu --backend fortran")).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        let err = parse_argv(argv("--app lu --machine cray")).unwrap_err();
        assert!(err.contains("unknown machine"), "{err}");
        assert!(parse_argv(argv("--app lu --extrapolate 0")).is_err());
        // The accepted spellings still parse.
        assert!(parse_argv(argv("--app lu --backend c --machine ethernet")).is_ok());
        assert!(parse_argv(argv("--app lu --backend conceptual --machine bgl")).is_ok());
    }
}
