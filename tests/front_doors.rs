//! Every front end validates a job through `JobSpec` (and a class letter
//! through `Class::from_str`), so the same bad input draws the same
//! sentence from all of them: the library call, the server's wire
//! parameters, a matrix document, `commgen`, `commbench capture` and
//! `commbench chaos`.

use campaign::{CampaignSpec, JobSpec};
use miniapps::Class;
use protocol::JobParams;
use std::process::Command;

/// One bad input (everything else about the job is sound) and the
/// diagnostic it must draw everywhere.
struct Case {
    app: &'static str,
    ranks: usize,
    network: &'static str,
    class: &'static str,
    sentence: &'static str,
}

const CASES: &[Case] = &[
    Case {
        app: "nosuch",
        ranks: 4,
        network: "bgl",
        class: "S",
        sentence: "unknown app nosuch; available: \
                   ring, bt, cg, ep, ft, is, lu, mg, sp, sweep3d",
    },
    Case {
        app: "bt",
        ranks: 7,
        network: "bgl",
        class: "S",
        sentence: "bt cannot run on 7 ranks",
    },
    Case {
        app: "ring",
        ranks: 4,
        network: "etherent",
        class: "S",
        sentence: "unknown network etherent (expected one of ideal|bgl|ethernet)",
    },
    Case {
        app: "ring",
        ranks: 4,
        network: "bgl",
        class: "Z",
        sentence: "unknown class Z (expected S|W|A|B|C)",
    },
    Case {
        app: "ring",
        ranks: 4097,
        network: "bgl",
        class: "S",
        sentence: "4097 ranks exceed the cap of 4096",
    },
];

/// Stderr of a run that must fail.
fn rejected(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).output().expect("spawns");
    assert!(!out.status.success(), "{exe} {args:?} should fail");
    String::from_utf8(out.stderr).expect("utf8 diagnostics")
}

#[test]
fn the_same_bad_input_draws_the_same_sentence_from_every_front_end() {
    let commgen = env!("CARGO_BIN_EXE_commgen");
    let commbench = env!("CARGO_BIN_EXE_commbench");
    for case in CASES {
        let Case {
            app,
            ranks,
            network,
            class,
            sentence,
        } = *case;
        let line = format!("{sentence}\n");
        let n = ranks.to_string();
        let bad_class = class.parse::<Class>().is_err();

        // The library: the class letter, then the job.
        if bad_class {
            assert_eq!(class.parse::<Class>().unwrap_err(), sentence);
        } else {
            let job = JobSpec::new(app, ranks, class.parse().unwrap(), network);
            assert_eq!(job.validate().unwrap_err().to_string(), sentence);
        }

        // The server's wire parameters.
        let params = JobParams {
            class: class.to_string(),
            network: network.to_string(),
            ..JobParams::new(app, ranks as u32)
        };
        assert_eq!(server::jobs::spec_of(&params).unwrap_err(), sentence);

        // A matrix document: a rank count an app rejects is a skip, an
        // error in a list value carries its line number, and a rank count
        // over the cap refuses the whole matrix.
        let doc = format!("apps = {app}\nranks = {n}\nclasses = {class}\nnetworks = {network}\n");
        let at = match (bad_class, network) {
            (true, _) => "line 3: ",
            (_, "etherent") => "line 4: ",
            _ => "",
        };
        match CampaignSpec::parse(&doc) {
            Ok(spec) => assert_eq!(spec.expand().1, [sentence]),
            Err(e) => assert_eq!(e, format!("{at}{sentence}")),
        }

        // commgen says "machine" for the network, over the same names.
        let err = rejected(
            commgen,
            &[
                "--app",
                app,
                "--ranks",
                &n,
                "--class",
                class,
                "--machine",
                network,
            ],
        );
        if network == "etherent" {
            let names = campaign::matrix::NETWORKS.join("|");
            assert_eq!(
                err,
                format!("unknown machine etherent (expected {names})\n")
            );
        } else {
            assert_eq!(err, line);
        }

        // capture and chaos run class S and take no class letter.
        if bad_class {
            continue;
        }
        let err = rejected(
            commbench,
            &["capture", "--app", app, "--ranks", &n, "--network", network],
        );
        assert_eq!(err, line);
        let err = rejected(
            commbench,
            &["chaos", "--apps", app, "--ranks", &n, "--network", network],
        );
        if sentence.contains("cannot run on") {
            // The only requested app was skipped, which leaves nothing to do.
            assert!(err.ends_with(&format!("skipped: {line}")), "{err}");
        } else {
            assert_eq!(err, line);
        }
    }
}
