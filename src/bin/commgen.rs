#![forbid(unsafe_code)]
//! `commgen` — command-line front end for the benchmark generator.
//!
//! Traces a bundled application (or reads a trace file, text `.st` or
//! binary `.stbs`) and emits the generated executable communication
//! specification.
//!
//! ```text
//! commgen --app lu --ranks 16 --class A            # trace + generate, print to stdout
//! commgen --app bt --ranks 36 -o bt.ncptl          # write the program text
//! commgen --app cg --ranks 16 --emit-trace cg.st   # also dump the trace file
//! commgen --trace cg.st                            # generate from a trace file
//! commgen --trace cg.stbs                          # ... or its binary twin
//! commgen --app ft --ranks 16 --run                # also execute the benchmark
//! commgen --app ring --ranks 8 --extrapolate 512   # ScalaExtrap-style scaling
//! ```

use benchgen::generate;
use benchgen::verify::execute_profiled;
use campaign::JobSpec;
use commspec::cli::{read_trace, trace_path, write_trace, Argv};
use miniapps::Class;
use mpisim::network;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug)]
struct Args {
    app: Option<String>,
    trace_file: Option<PathBuf>,
    ranks: usize,
    class: Class,
    output: Option<String>,
    emit_trace: Option<PathBuf>,
    profile: Option<String>,
    run: bool,
    stats: bool,
    no_align: bool,
    no_resolve: bool,
    comments: bool,
    machine: String,
    extrapolate: Option<usize>,
}

impl Args {
    /// The pipeline run these flags describe. With `--trace` the file
    /// stands in for stage one and `app` is empty.
    fn job(&self) -> JobSpec {
        JobSpec {
            align: !self.no_align,
            resolve: !self.no_resolve,
            comments: self.comments,
            ..JobSpec::new(
                self.app.as_deref().unwrap_or(""),
                self.ranks,
                self.class,
                &self.machine,
            )
        }
    }
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
        machine: "bgl".to_string(),
        extrapolate: None,
    };
    let mut argv = Argv::new(&argv);
    while let Some(flag) = argv.flag() {
        match flag {
            "--app" => args.app = Some(argv.value()?),
            "--trace" => args.trace_file = Some(trace_path(argv.path()?)?),
            "--ranks" => args.ranks = argv.parsed()?,
            "--class" => args.class = argv.value()?.parse()?,
            "-o" | "--output" => args.output = Some(argv.value()?),
            "--emit-trace" => args.emit_trace = Some(trace_path(argv.path()?)?),
            "--profile" => args.profile = Some(argv.value()?),
            "--run" => args.run = true,
            "--stats" => args.stats = true,
            "--no-align" => args.no_align = true,
            "--no-resolve" => args.no_resolve = true,
            "--comments" => args.comments = true,
            "--extrapolate" => args.extrapolate = Some(argv.parsed()?),
            "--machine" => args.machine = argv.value()?,
            "--help" | "-h" => {
                return Err(format!(
                    "usage: commgen (--app NAME | --trace FILE) [--ranks N] \
                     [--class S|W|A|B|C] [-o FILE] [--emit-trace FILE] \
                     [--profile FILE] [--run] [--machine {}] \
                     [--extrapolate N] [--stats] [--no-align] [--no-resolve] \
                     [--comments]",
                    network::NAMES.join("|")
                ))
            }
            _ => return Err(argv.unknown()),
        }
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
    if network::by_name(&args.machine).is_none() {
        return Err(format!(
            "unknown machine {} (expected {})",
            args.machine,
            network::NAMES.join("|")
        ));
    }
    if args.extrapolate == Some(0) {
        return Err("--extrapolate must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let job = args.job();
    let machine = job.network_model()?;

    // 1. Obtain a trace: run a bundled application or load a trace file.
    let trace = if let Some(file) = &args.trace_file {
        read_trace(file)?.0
    } else {
        job.validate()?;
        let traced = job
            .trace(job.app()?, machine.clone())
            .map_err(|e| format!("tracing failed: {e}"))?;
        eprintln!(
            "traced {}: {} events -> {} trace nodes; T_app = {}",
            job.app,
            traced.trace.concrete_event_count(),
            traced.trace.node_count(),
            traced.report.total_time
        );
        traced.trace
    };

    let trace = match args.extrapolate {
        Some(new_n) => {
            let t = scalatrace::extrap::extrapolate(&trace, new_n).map_err(|e| e.to_string())?;
            eprintln!("trace extrapolated from {} to {new_n} ranks", trace.nranks);
            t
        }
        None => trace,
    };

    if args.stats {
        eprint!("{}", scalatrace::stats::stats(&trace));
    }

    if let Some(path) = &args.emit_trace {
        write_trace(path, &trace)?;
        eprintln!("trace written to {}", path.display());
    }

    // 2. Generate.
    let generated =
        generate(&trace, &job.gen_options()).map_err(|e| format!("generation failed: {e}"))?;
    if generated.aligned {
        eprintln!("note: collectives aligned across call sites (Algorithm 1)");
    }
    if generated.wildcards_resolved > 0 {
        eprintln!(
            "note: {} wildcard receives resolved (Algorithm 2)",
            generated.wildcards_resolved
        );
    }

    // 3. Emit the program text.
    let text = conceptual::printer::print(&generated.program);
    match &args.output {
        Some(path) => {
            write(path, &text)?;
            eprintln!("benchmark written to {path}");
        }
        None => print!("{text}"),
    }

    // 4. Optionally execute the generated benchmark, once, under mpiP
    //    hooks: `--profile` writes the merged profile — the artifact the
    //    paper's E1 verification (and the commspec server's `simulate` job)
    //    consumes — and `--run` reports the run. `generate` has validated
    //    the program already.
    if args.profile.is_none() && !args.run {
        return Ok(());
    }
    let program = Arc::new(generated.program);
    let (report, profile) = execute_profiled(&program, &trace, machine)
        .map_err(|e| format!("generated benchmark failed: {e}"))?;
    if let Some(path) = &args.profile {
        write(path, &profile.to_string())?;
        eprintln!("mpiP profile written to {path}");
    }
    if args.run {
        eprintln!(
            "T_gen = {} ({} simulated ops in {} rank/engine crossings)",
            report.total_time, report.stats.operations, report.crossings
        );
    }
    Ok(())
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

        let a = parse_argv(argv("--trace t.st -o out.ncptl")).unwrap();
        assert_eq!(a.trace_file, Some(PathBuf::from("t.st")));
        assert_eq!(a.output.as_deref(), Some("out.ncptl"));

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
        assert!(parse_argv(argv("--trace t.json")).is_err(), "no format");
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
        let err = parse_argv(argv("--app lu --machine cray")).unwrap_err();
        assert!(err.contains("unknown machine"), "{err}");
        assert!(parse_argv(argv("--app lu --extrapolate 0")).is_err());
        // The accepted spellings still parse.
        assert!(parse_argv(argv("--app lu --machine ethernet")).is_ok());
        assert!(parse_argv(argv("--app lu --machine bgl")).is_ok());
    }
}
