//! The compatibility contract of the binary formats, and the decoder's
//! stance towards files it did not write.
//!
//! **Write the newest version, read every version.** `fixtures/v1/` holds
//! what the last commit with a v1 writer left on disk — a streamed segment
//! directory (the cache entry beside it is `campaign`'s to test), and
//! `piecewise_v1.stbs` beside them a whole trace. Every file must keep
//! decoding, re-encode to the v2 bytes of the same value, and mix freely
//! with v2 files in one directory.
//!
//! **A valid checksum proves nothing.** FNV-1a is recomputable by anyone,
//! so crafted rank runs, table keys and piecewise domains, and arbitrary
//! byte mutations under a refreshed checksum, must all end in
//! `SnapshotError::Corrupt` or in a value every accessor can walk.

/// Frozen: `ring_app` and the `CKPT_*` constants in it described v1 tracer
/// checkpoints, a file family that is gone; its own `allow(dead_code)`
/// keeps them quiet, and editing the file would move the call sites the
/// segments' stack signatures hash.
#[path = "fixtures/v1/apps.rs"]
mod v1;

use mpisim::network;
use mpisim::world::World;
use proptest::prelude::*;
use scalatrace::frame::peek_version;
use scalatrace::stream::{
    segment_from_bytes, segment_name, segment_to_bytes, trace_from_bytes, trace_to_bytes,
};
use scalatrace::text::to_text;
use scalatrace::{
    fsck_dir, salvage_dir, trace_world_streamed, SnapshotError, StreamConfig, Trace, TraceNode,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

fn read_fixture(rel: &str) -> Vec<u8> {
    std::fs::read(fixture(rel)).unwrap_or_else(|e| panic!("fixture {rel} is checked in: {e}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "scalatrace-compat-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Names of the frozen v1 segment files, both ranks' whole chains.
fn v1_segment_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(fixture("v1/segments"))
        .expect("v1 segment directory is checked in")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(names.len() >= 2 * 3, "at least three segments a rank");
    names
}

/// The capture `fixtures/v1/segments` was sealed from, run again now: the
/// same files, at the current version.
fn capture_v2(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let cfg = StreamConfig::new(&dir, v1::SEG_BUDGET).with_max_window(v1::SEG_WINDOW);
    let run = trace_world_streamed(
        World::new(v1::SEG_RANKS).network(network::ideal()),
        v1::SEG_RANKS,
        &cfg,
        v1::unfoldable_app(v1::SEG_ITERS),
    )
    .expect("streamed capture");
    assert!(run.salvage.complete());
    dir
}

#[test]
fn v1_segments_decode_and_reencode_to_what_a_fresh_capture_seals() {
    let fresh = capture_v2("fresh");
    let names = v1_segment_names();
    let mut fresh_names: Vec<String> = std::fs::read_dir(&fresh)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    fresh_names.sort();
    assert_eq!(fresh_names, names, "v2 seals the same chain v1 did");
    for name in &names {
        let old = read_fixture(&format!("v1/segments/{name}"));
        assert_eq!(peek_version(&old), Some(1), "{name}");
        let seg = segment_from_bytes(&old).unwrap_or_else(|e| panic!("{name}: {e}"));
        let new = segment_to_bytes(&seg);
        assert_eq!(peek_version(&new), Some(2), "{name}");
        assert_eq!(new, std::fs::read(fresh.join(name)).unwrap(), "{name}");
        assert!(new.len() * 5 < old.len(), "{name}: {} B", new.len());
    }
    assert!(names.iter().any(|n| {
        let seg = segment_from_bytes(&read_fixture(&format!("v1/segments/{n}"))).unwrap();
        seg.last
    }));
    let _ = std::fs::remove_dir_all(&fresh);
}

/// What an operator sees of a salvage: the trace, and the printed report.
fn salvaged(dir: &Path) -> (Vec<u8>, String, usize) {
    let (trace, report) = salvage_dir(dir).expect("salvage");
    assert_eq!(report.quarantined(), 0, "{report}");
    let fsck = fsck_dir(dir).expect("fsck");
    assert!(fsck.clean(), "{fsck:?}");
    (trace_to_bytes(&trace), report.to_string(), fsck.ok)
}

#[test]
fn mixed_v1_and_v2_segments_salvage_to_the_all_v2_result() {
    let dir = capture_v2("mixed");
    let all_v2 = salvaged(&dir);

    // rank 0's chain prefix comes from the v1 writer, everything else stays
    // freshly sealed v2
    for index in 0..2 {
        let name = segment_name(0, index);
        std::fs::copy(fixture(&format!("v1/segments/{name}")), dir.join(&name)).unwrap();
    }
    let versions: Vec<u32> = v1_segment_names()
        .iter()
        .map(|n| peek_version(&std::fs::read(dir.join(n)).unwrap()).unwrap())
        .collect();
    assert!(
        versions.contains(&1) && versions.contains(&2),
        "{versions:?}"
    );
    assert_eq!(salvaged(&dir), all_v2);

    // ... and so does the directory the v1 writer left, untouched
    let all_v1 = temp_dir("all-v1");
    std::fs::create_dir_all(&all_v1).unwrap();
    for name in v1_segment_names() {
        std::fs::copy(fixture(&format!("v1/segments/{name}")), all_v1.join(&name)).unwrap();
    }
    assert_eq!(salvaged(&all_v1), all_v2);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&all_v1);
}

// ------------------------------------------------------------ hostile input

fn refresh_checksum(bytes: &mut [u8]) {
    let at = bytes.len() - 8;
    let mut h = mpisim::types::Fnv1a::new();
    h.write(&bytes[..at]);
    bytes[at..].copy_from_slice(&h.finish().to_le_bytes());
}

/// `vs` as payload integers of the given format version.
fn ints(version: u32, vs: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in vs {
        if version == 1 {
            out.extend_from_slice(&v.to_le_bytes());
            continue;
        }
        let mut v = v;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out
}

/// Replace the first occurrence of `old` in `bytes` and refresh the
/// checksum: a crafted file, valid in every way a checksum can vouch for.
fn spliced(bytes: &[u8], old: &[u8], new: &[u8]) -> Vec<u8> {
    let at = bytes
        .windows(old.len())
        .position(|w| w == old)
        .expect("the pattern occurs in the file");
    let mut out = bytes[..at].to_vec();
    out.extend_from_slice(new);
    out.extend_from_slice(&bytes[at + old.len()..]);
    refresh_checksum(&mut out);
    out
}

/// One file of each payload kind, at both versions, with the `(start,
/// stride, count)` of its first event's single rank run.
fn payloads() -> Vec<(&'static str, u32, Vec<u8>, [u64; 3])> {
    let trace = read_fixture("piecewise_v1.stbs");
    let segment = read_fixture(&format!("v1/segments/{}", segment_name(1, 1)));
    let trace_v2 = trace_to_bytes(&trace_from_bytes(&trace).unwrap());
    let segment_v2 = segment_to_bytes(&segment_from_bytes(&segment).unwrap());
    vec![
        ("trace", 1, trace, [0, 1, 8]),
        ("trace", 2, trace_v2, [0, 1, 8]),
        ("segment", 1, segment, [1, 1, 1]),
        ("segment", 2, segment_v2, [1, 1, 1]),
    ]
}

/// Decode a file of the named payload kind into a trace-shaped value, so
/// one walker serves both.
fn decode(kind: &str, bytes: &[u8]) -> Result<Trace, SnapshotError> {
    if kind == "trace" {
        return trace_from_bytes(bytes);
    }
    let seg = segment_from_bytes(bytes)?;
    Ok(Trace {
        nranks: seg.nranks,
        nodes: seg.nodes,
        comms: seg.comms,
    })
}

#[test]
fn crafted_rank_runs_are_corrupt_in_every_payload_and_version() {
    for (kind, version, bytes, run) in payloads() {
        decode(kind, &bytes).unwrap_or_else(|e| panic!("{kind} v{version}: {e}"));
        // an event node (tag 0) on one run: the triple follows
        let lead =
            |run: [u64; 3]| [&[0u8][..], &ints(version, &[1]), &ints(version, &run)].concat();
        let [start, _, count] = run;
        for (crafted, why) in [
            ([start, 2, 0], "zero count"),
            ([start, 0, 2], "zero count or stride"),
            ([0, u64::MAX / 2, 9], "past the world size"),
            ([start, 1, count + 8], "past the world size"),
            ([start, 5, 1], "canonical"),
        ] {
            let bad = spliced(&bytes, &lead(run), &lead(crafted));
            match decode(kind, &bad) {
                Err(SnapshotError::Corrupt(msg)) => {
                    assert!(msg.contains(why), "{kind} v{version} {crafted:?}: {msg}")
                }
                Err(e) => panic!("{kind} v{version} {crafted:?}: {e}"),
                Ok(_) => panic!("{kind} v{version} {crafted:?} must not decode"),
            }
        }
    }
}

#[test]
fn table_keys_and_piecewise_domains_stay_inside_the_world() {
    // byte patterns of the pinned v2 golden (8 ranks): the last pair of the
    // dense size table, `7>7`, after `6>1`; and the second piece of the
    // broken ring, `7:1:1@c3`
    let good = read_fixture("piecewise_v2.stbs");
    for (old, new, why) in [
        (&[6, 1, 7, 7][..], &[6, 1, 8, 7][..], "rank 8 out of range"),
        (
            &[1, 7, 1, 1, 1, 3][..],
            &[1, 8, 1, 1, 1, 3][..],
            "past the world size",
        ),
        (
            &[1, 7, 1, 1, 1, 3][..],
            &[1, 6, 1, 1, 1, 3][..],
            "overlapping piecewise",
        ),
    ] {
        let err = trace_from_bytes(&spliced(&good, old, new)).expect_err(why);
        assert!(err.to_string().contains(why), "{err}");
    }
}

/// Every accessor a consumer reaches for first; none may panic on a value
/// the decoder let through.
fn walk(trace: &Trace) {
    fn nodes(ns: &[TraceNode]) {
        for n in ns {
            match n {
                TraceNode::Event(r) => {
                    let _ = (r.ranks.max_rank(), r.ranks.contains(1), r.ranks.len());
                    let _ = r.compute.mean();
                }
                TraceNode::Loop(p) => nodes(&p.body),
            }
        }
    }
    nodes(&trace.nodes);
    let _ = to_text(trace);
    let _ = trace.concrete_event_count();
    let _ = trace.node_count();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Mutate payload bytes of a v1 or v2 file, refresh the checksum, and
    /// decode: an error, or a value `walk` survives.
    #[test]
    fn mutated_payloads_never_panic_a_decoder_or_an_accessor(
        which in 0usize..4,
        edits in proptest::collection::vec((any::<u64>(), any::<u8>(), 0u8..4), 1..4),
    ) {
        let (kind, _, mut bytes, _) = payloads().swap_remove(which);
        let payload = 8..bytes.len() - 8;
        for (at, byte, how) in edits {
            let at = payload.start + (at % payload.len() as u64) as usize;
            bytes[at] = match how {
                0 => byte,             // anything
                1 => bytes[at] ^ 0x80, // a continuation bit, a sign, a high byte
                2 => 0xff,
                _ => bytes[at].wrapping_add(1),
            };
        }
        refresh_checksum(&mut bytes);
        if let Ok(trace) = decode(kind, &bytes) {
            walk(&trace);
        }
    }
}
