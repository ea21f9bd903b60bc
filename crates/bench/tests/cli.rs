//! fig6 and fig7 read their flags with `commspec::cli::Argv`: `--help`
//! prints the usage line, and a bad, missing or unknown value is refused
//! with Argv's diagnostic and exit code 2 before any experiment runs.

use std::process::Command;

/// Run `bin` with `args`: its exit code, stdout and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawns");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn refuses(bin: &str, args: &[&str], diagnostic: &str) {
    let (code, stdout, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
    assert_eq!(stderr.trim_end(), diagnostic, "{bin} {args:?}");
    assert!(stdout.is_empty(), "{bin} {args:?} ran: {stdout}");
}

#[test]
fn fig6_and_fig7_answer_help_and_refuse_bad_flags() {
    for (bin, usage) in [
        (
            env!("CARGO_BIN_EXE_fig6"),
            "Usage: fig6 [--class S|W|A|B|C] [--max-ranks N] [--replay]",
        ),
        (
            env!("CARGO_BIN_EXE_fig7"),
            "Usage: fig7 [--ranks N] [--class S|W|A|B|C]",
        ),
    ] {
        let (code, stdout, _) = run(bin, &["--help"]);
        assert_eq!(code, Some(0), "{bin} --help");
        assert_eq!(stdout.trim_end(), usage);
        refuses(
            bin,
            &["--class", "Q"],
            "bad --class: unknown class Q (expected S|W|A|B|C)",
        );
        refuses(bin, &["--class"], "missing value for --class");
        refuses(
            bin,
            &["--clas", "S"],
            "unknown argument --clas (try --help)",
        );
    }
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    refuses(
        fig6,
        &["--max-ranks", "x"],
        "bad --max-ranks: invalid digit found in string",
    );
    let fig7 = env!("CARGO_BIN_EXE_fig7");
    refuses(
        fig7,
        &["--ranks", "-1"],
        "bad --ranks: invalid digit found in string",
    );
}
