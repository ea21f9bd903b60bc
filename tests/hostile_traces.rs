//! The trace readers against input nobody vouches for, and against
//! everything the pipeline itself writes.
//!
//! Both readers (`scalatrace::text::from_text`, the STBS decoders) finish
//! with `scalatrace::trace::check_well_formed`. The five files under
//! `tests/fixtures/hostile/` each break one property it holds — at the
//! parent commit they generated silently wrong programs or panicked three
//! crates downstream. Here they must end in a structured error naming the
//! field, in either format, through every front door; and the check must
//! not have become a reason to refuse an honest trace.

use benchgen::{generate, GenOptions};
use campaign::TraceCache;
use miniapps::{registry, App, AppParams};
use mpisim::network;
use mpisim::time::SimTime;
use mpisim::world::World;
use proptest::prelude::*;
use scalatrace::extrap::extrapolate;
use scalatrace::params::{CommParam, RankParam};
use scalatrace::stream::{
    segment_name, segment_to_bytes, trace_from_bytes, trace_to_bytes, Segment,
};
use scalatrace::text::{from_text, to_text};
use scalatrace::{salvage_dir, trace_world_streamed, OpTemplate, StreamConfig, Trace, TraceNode};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Fixture name and what its diagnostic must mention.
const HOSTILE: [(&str, &str); 5] = [
    ("loop_huge.st", "loop count 18446744073709551615"),
    ("comm_missing.st", "comm: communicator 7"),
    ("table_key.st", "to: table key 99999999"),
    ("mod_zero.st", "to: (rank+1)%0"),
    ("offset_huge.st", "to: rank+9223372036854775807"),
];

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/hostile")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "commspec-hostile-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn crafted_text_traces_draw_a_diagnostic_naming_the_field_from_every_front_door() {
    let dir = temp_dir("cli");
    for (name, names_field) in HOSTILE {
        let path = fixture(name);
        let text = std::fs::read_to_string(&path).unwrap();
        let err = from_text(&text).expect_err(name);
        assert!(err.contains(names_field), "{name}: {err}");

        let out = dir.join(name).with_extension("stbs");
        for (bin, args) in [
            (
                env!("CARGO_BIN_EXE_commgen"),
                vec!["--trace", path.to_str().unwrap(), "-o", "/dev/null"],
            ),
            (
                env!("CARGO_BIN_EXE_commbench"),
                vec!["convert", path.to_str().unwrap(), out.to_str().unwrap()],
            ),
        ] {
            let run = Command::new(bin).args(&args).output().expect("spawns");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(!run.status.success(), "{bin} accepted {name}");
            assert!(stderr.contains(names_field), "{bin} {name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {name}: {stderr}");
        }
        assert!(!out.exists(), "convert wrote a binary twin of {name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixtures' common shape with nothing wrong in it.
fn benign() -> Trace {
    let text = std::fs::read_to_string(fixture("mod_zero.st")).unwrap();
    from_text(&text.replace("m1%0", "m1%4")).expect("the benign twin parses")
}

/// In-memory twins of the five fixtures: what a writer that skipped the
/// text reader could put into a binary file.
fn hostile_twins() -> Vec<(&'static str, Trace)> {
    let with_send = |edit: &dyn Fn(&mut RankParam, &mut CommParam)| {
        let mut t = benign();
        let TraceNode::Loop(p) = &mut t.nodes[0] else {
            panic!("fixture starts with a loop");
        };
        let TraceNode::Event(r) = &mut p.body[0] else {
            panic!("loop body is one event");
        };
        let OpTemplate::Send { to, comm, .. } = &mut r.op else {
            panic!("the event is a send");
        };
        edit(to, comm);
        t
    };
    let mut huge = benign();
    if let TraceNode::Loop(p) = &mut huge.nodes[0] {
        p.count = u64::MAX;
    }
    vec![
        ("loop_huge", huge),
        (
            "comm_missing",
            with_send(&|_, comm| *comm = CommParam::Const(7)),
        ),
        (
            "table_short",
            with_send(&|to, _| *to = RankParam::PerRank(BTreeMap::from([(0, 2), (1, 0), (2, 0)]))),
        ),
        (
            "mod_zero",
            with_send(&|to, _| {
                *to = RankParam::OffsetMod {
                    offset: 1,
                    modulus: 0,
                }
            }),
        ),
        (
            "offset_huge",
            with_send(&|to, _| *to = RankParam::Offset(i64::MAX)),
        ),
    ]
}

/// What a consumer does first with a trace a reader let through.
fn generates_and_prints(trace: &Trace) {
    let _ = generate(trace, &GenOptions::default());
    let _ = to_text(trace);
}

#[test]
fn an_edited_loop_count_is_refused_before_the_run_instead_of_simulated() {
    // A well-formed trace whose loop count was edited from 500 to 10^11
    // generates in milliseconds. Run, it would take about 1.2·10^12 engine
    // ops; the execute stage refuses it from its closed-form event count
    // before any rank starts, which the "before the run" wording proves.
    let commgen = env!("CARGO_BIN_EXE_commgen");
    let dir = temp_dir("edited-loop");
    let (honest, edited) = (dir.join("ring.st"), dir.join("ring_1e11.st"));
    let out = Command::new(commgen)
        .args(["--app", "ring", "--ranks", "4", "-o", "/dev/null"])
        .arg("--emit-trace")
        .arg(&honest)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&honest).unwrap();
    assert_eq!(text.matches("loop 500 {").count(), 1, "{text}");
    std::fs::write(&edited, text.replace("loop 500 {", "loop 100000000000 {")).unwrap();

    let out = Command::new(commgen)
        .arg("--trace")
        .arg(&edited)
        .args(["--run", "-o"])
        .arg(dir.join("ring.ncptl"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().last(),
        Some(
            "generated benchmark failed: operation budget exceeded before the run: \
             needs at least 1200000000004, limit 8388608"
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crafted_binary_traces_are_refused_by_every_reader_of_the_format() {
    for (name, twin) in hostile_twins() {
        let bytes = trace_to_bytes(&twin);
        let err = trace_from_bytes(&bytes).expect_err(name).to_string();
        assert!(err.starts_with("corrupt"), "{name}: {err}");

        // A cache entry whose binary is the crafted file, sidecar and all
        // checksums in order: a miss, not a panic and not a hit.
        let dir = temp_dir(name);
        let cache = TraceCache::open(dir.join("cache")).unwrap();
        cache.store(1, &benign(), SimTime::ZERO, &[]).unwrap();
        assert!(cache.load(1).is_some());
        let hex = campaign::hash::hex;
        let meta_path = cache.dir().join(format!("{}.meta", hex(1)));
        let meta: String = std::fs::read_to_string(&meta_path)
            .unwrap()
            .lines()
            .map(|l| match l.starts_with("stbs_fnv=") {
                true => format!("stbs_fnv={}\n", hex(campaign::hash::fnv1a(&bytes))),
                false => format!("{l}\n"),
            })
            .collect();
        std::fs::write(&meta_path, meta).unwrap();
        std::fs::write(cache.dir().join(format!("{}.stbs", hex(1))), &bytes).unwrap();
        assert!(cache.load(1).is_none(), "{name} loaded from the cache");

        // The same nodes as a rank's only capture segment: salvage finds
        // nothing intact.
        let seg_dir = dir.join("segments");
        std::fs::create_dir_all(&seg_dir).unwrap();
        let segment = Segment {
            rank: 0,
            nranks: twin.nranks,
            index: 0,
            events_end: 0,
            last: true,
            comms: twin.comms.clone(),
            nodes: twin.nodes.clone(),
        };
        std::fs::write(seg_dir.join(segment_name(0, 0)), segment_to_bytes(&segment)).unwrap();
        let err = salvage_dir(&seg_dir).expect_err(name).to_string();
        assert!(err.contains("no intact segment"), "{name}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn body_of(app: &'static App) -> impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static {
    let params = AppParams::quick();
    move |ctx| (app.run)(ctx, &params)
}

/// `trace` passes both readers and comes back as it went in.
fn assert_round_trips(what: &str, trace: &Trace) {
    let text = to_text(trace);
    let back = from_text(&text).unwrap_or_else(|e| panic!("{what}: text reader: {e}"));
    assert_eq!(to_text(&back), text, "{what}: text view changed");
    let back = trace_from_bytes(&trace_to_bytes(trace))
        .unwrap_or_else(|e| panic!("{what}: binary reader: {e}"));
    assert_eq!(&back, trace, "{what}: binary round trip changed the trace");
}

#[test]
fn nothing_the_pipeline_writes_is_refused() {
    for app in registry::all() {
        for ranks in [4, 16, 64] {
            if !(app.valid_ranks)(ranks) {
                continue;
            }
            let what = format!("{} r{ranks}", app.name);
            let traced = scalatrace::trace_app(ranks, network::ideal(), body_of(app))
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_round_trips(&what, &traced.trace);

            // Every extrapolation the extrapolator accepts, the one the
            // repo benchmark round-trips included.
            for to in [ranks * 4, 4096] {
                if let Ok(big) = extrapolate(&traced.trace, to) {
                    assert_round_trips(&format!("{what} -> r{to}"), &big);
                }
            }

            // A salvaged prefix: a streamed capture that lost every rank's
            // last segment.
            let dir = temp_dir("salvage");
            let cfg = StreamConfig::new(&dir, 16).with_max_window(1);
            let world = World::new(ranks).network(network::ideal());
            trace_world_streamed(world, ranks, &cfg, body_of(app))
                .unwrap_or_else(|e| panic!("{what}: streamed capture: {e}"));
            for rank in 0..ranks {
                let last = (0..)
                    .take_while(|&i| dir.join(segment_name(rank, i)).exists())
                    .last()
                    .expect("every rank seals at least one segment");
                if last > 0 {
                    std::fs::remove_file(dir.join(segment_name(rank, last))).unwrap();
                }
            }
            let (prefix, report) = salvage_dir(&dir).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(report.quarantined(), 0, "{what}: {report}");
            assert_round_trips(&format!("{what} salvaged"), &prefix);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Every registry app's text trace at its smallest rank count.
fn registry_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        registry::all()
            .iter()
            .map(|app| {
                let ranks = (1..=64).find(|&n| (app.valid_ranks)(n)).unwrap();
                let traced = scalatrace::trace_app(ranks, network::ideal(), body_of(app)).unwrap();
                to_text(&traced.trace)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// The text twin of `compat.rs`'s byte-mutation test: edit bytes of a
    /// registry trace file and read it back — an error, or a trace the
    /// generator and the writer survive.
    #[test]
    fn mutated_text_traces_never_panic_the_reader_or_the_generator(
        which in 0usize..64,
        edits in proptest::collection::vec((any::<u64>(), any::<u8>(), 0u8..4), 1..4),
    ) {
        let texts = registry_texts();
        let mut bytes = texts[which % texts.len()].clone().into_bytes();
        for (at, byte, how) in edits {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = match how {
                0 => b'0' + byte % 10,          // another digit
                1 => b" ;:>@|%=cmopwxl*"[byte as usize % 16], // another separator or tag
                2 => bytes[at].wrapping_add(1),
                _ => b'9',
            };
        }
        if let Ok(trace) = String::from_utf8(bytes).map_err(drop).and_then(|s| from_text(&s).map_err(drop)) {
            generates_and_prints(&trace);
        }
    }
}
