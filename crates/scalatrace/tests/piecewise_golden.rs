//! Golden fixtures for the piecewise-symbolic parameter encodings.
//!
//! The fixtures under `tests/fixtures/` pin the on-disk contract:
//!
//! * `piecewise_v1.txt` / `piecewise_v2.stbs` — text and binary encodings
//!   of a trace exercising every symbolic form (piecewise peers, linear
//!   and piecewise sizes, piecewise communicators, plus the dense
//!   per-rank escape hatch). Both must round-trip byte-identically.
//! * `piecewise_v1.stbs` — the same trace as STBS v1 wrote it (fixed-width
//!   integers, 64 dense histogram bins). Nothing writes v1 any more, so
//!   this file is read-only: it must decode forever, to the same trace.
//! * `dense_legacy_v1.txt` — a pre-piecewise trace using only the legacy
//!   tags (`c`/`o`/`m`/`x`/`p`). Old traces must keep parsing forever.
//!
//! Regenerate the written formats after an intentional format change with:
//!
//! ```text
//! PIECEWISE_GOLDEN_REGEN=1 cargo test -p scalatrace --test piecewise_golden
//! ```

use mpisim::time::SimDuration;
use mpisim::types::{CollKind, TagSel};
use scalatrace::params::{CommParam, RankFn, RankParam, SrcParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::stream::{trace_from_bytes, trace_to_bytes};
use scalatrace::text::{from_text, to_text};
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{OpTemplate, Prsd, Rsd, Trace, TraceNode};
use std::collections::BTreeMap;

fn ev(sig: u64, ranks: RankSet, op: OpTemplate) -> TraceNode {
    TraceNode::Event(Rsd {
        ranks,
        sig,
        op,
        compute: TimeStats::of(SimDuration::from_usecs(10)),
    })
}

/// A hand-built trace covering every parameter encoding the piecewise
/// representation added: piecewise peers (contiguous and singleton
/// pieces), linear sizes, piecewise sizes, piecewise communicators — and
/// the dense per-rank escape hatch that irregular tables still take.
fn piecewise_trace() -> Trace {
    let mut t = Trace::new(8);
    t.comms.insert(1, (0..4).collect());

    // a broken ring: interior ranks shift right, the last rank targets a
    // fixed root — the canonical two-piece peer
    t.nodes.push(ev(
        0x11,
        RankSet::all(8),
        OpTemplate::Send {
            to: RankParam::Piecewise(vec![
                (RankSet::from_ranks(0..7), RankFn::Offset(1)),
                (RankSet::single(7), RankFn::Const(3)),
            ]),
            tag: 0,
            bytes: ValParam::Linear { base: 64, slope: 8 },
            comm: CommParam::Const(0),
            blocking: false,
        },
    ));

    // piecewise sizes and communicators on the matching receive
    t.nodes.push(ev(
        0x12,
        RankSet::all(8),
        OpTemplate::Recv {
            from: SrcParam::Rank(RankParam::OffsetMod {
                offset: 7,
                modulus: 8,
            }),
            tag: TagSel::Is(0),
            bytes: ValParam::Piecewise(vec![
                (RankSet::from_ranks(0..4), 256),
                (RankSet::from_ranks(4..8), 512),
            ]),
            comm: CommParam::Piecewise(vec![
                (RankSet::from_ranks(0..4), 1),
                (RankSet::from_ranks(4..8), 0),
            ]),
            blocking: false,
        },
    ));

    t.nodes.push(ev(
        0x13,
        RankSet::all(8),
        OpTemplate::Wait {
            count: ValParam::Const(2),
        },
    ));

    // a loop whose collective carries a genuinely irregular size table —
    // the dense escape hatch must coexist with the symbolic forms
    let scattered: BTreeMap<usize, u64> = [
        (0, 96),
        (1, 32),
        (2, 640),
        (3, 8),
        (4, 416),
        (5, 80),
        (6, 1),
        (7, 7),
    ]
    .into();
    t.nodes.push(TraceNode::Loop(Prsd {
        count: 5,
        body: vec![ev(
            0x14,
            RankSet::all(8),
            OpTemplate::Coll {
                kind: CollKind::Allreduce,
                root: None,
                bytes: ValParam::PerRank(scattered),
                comm: CommParam::Const(0),
            },
        )],
    }));

    t
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare (or with `PIECEWISE_GOLDEN_REGEN=1`, rewrite) one golden file.
fn check_golden(name: &str, body: &[u8]) {
    let path = fixture_path(name);
    if std::env::var_os("PIECEWISE_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, body).unwrap();
        return;
    }
    let pinned = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with PIECEWISE_GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        body,
        pinned.as_slice(),
        "{name}: encoding changed — piecewise formats are pinned; \
         regenerate only for an intentional, documented format change"
    );
}

#[test]
fn piecewise_text_encoding_is_pinned_and_roundtrips() {
    let t = piecewise_trace();
    let text = to_text(&t);
    // the fixture must actually exercise the new tags
    assert!(text.contains("w"), "no piecewise tag in the fixture trace");
    assert!(text.contains("l64,8"), "no linear tag in the fixture trace");
    assert!(
        text.contains("p0>96"),
        "no dense escape in the fixture trace"
    );
    check_golden("piecewise_v1.txt", text.as_bytes());

    let back = from_text(&text).expect("pinned text parses");
    assert_eq!(
        to_text(&back),
        text,
        "text round-trip is not byte-identical"
    );
    scalatrace::semantically_equal(&t, &back).expect("decoded trace is semantically identical");
}

#[test]
fn piecewise_binary_encoding_is_pinned_and_roundtrips() {
    let t = piecewise_trace();
    let bytes = trace_to_bytes(&t);
    check_golden("piecewise_v2.stbs", &bytes);

    let back = trace_from_bytes(&bytes).expect("pinned STBS parses");
    assert_eq!(
        trace_to_bytes(&back),
        bytes,
        "binary round-trip is not byte-identical"
    );
    scalatrace::semantically_equal(&t, &back).expect("decoded trace is semantically identical");
}

#[test]
fn the_v1_binary_encoding_still_decodes_and_upgrades_to_v2() {
    let v1 = std::fs::read(fixture_path("piecewise_v1.stbs")).expect("v1 fixture is checked in");
    assert_eq!(scalatrace::frame::peek_version(&v1), Some(1));
    let t = trace_from_bytes(&v1).expect("v1 STBS parses");
    assert_eq!(
        t,
        piecewise_trace(),
        "v1 decodes to the trace it was written from"
    );
    // re-encoding a v1 file yields the v2 bytes of the same trace
    let v2 = trace_to_bytes(&t);
    assert_eq!(scalatrace::frame::peek_version(&v2), Some(2));
    assert_eq!(v2, trace_to_bytes(&piecewise_trace()));
    // the lossless form is the smaller one now, by a wide margin
    assert!(v2.len() * 6 < v1.len(), "{} vs {}", v2.len(), v1.len());
    assert!(v2.len() < to_text(&t).len());
}

#[test]
fn pre_piecewise_traces_still_parse() {
    let pinned = std::fs::read_to_string(fixture_path("dense_legacy_v1.txt"))
        .expect("legacy fixture is checked in");
    let t = from_text(&pinned).expect("legacy dense-tag trace parses");
    assert_eq!(t.nranks, 8);
    // re-encoding is a fixed point from the second generation on, even
    // though the first re-encode may canonicalize legacy dense tables
    // into their symbolic forms
    let second = to_text(&from_text(&to_text(&t)).expect("re-encoded trace parses"));
    assert_eq!(second, to_text(&t), "re-encoding must reach a fixed point");
}
