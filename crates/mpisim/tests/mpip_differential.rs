//! `MpiP` records an event by the addresses of its call site's strings and
//! folds by text on read; every report must equal that of a profile keyed
//! by text throughout. The reference below is that text-keyed profile:
//! random events over several call sites (one file text at two addresses),
//! every routine, mixed with `absorb_raw` and `merge_all`.

use mpisim::hooks::{Event, EventKind, Hook};
use mpisim::profile::{MpiP, RoutineStats};
use mpisim::time::SimTime;
use mpisim::types::{CallSite, CollKind, Src, TagSel};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

type Site = ((String, &'static str), RoutineStats);

/// A profile keyed by text, with the report format `MpiP` prints.
#[derive(Default)]
struct Reference {
    by_routine: BTreeMap<&'static str, RoutineStats>,
    by_callsite: BTreeMap<(&'static str, u32, &'static str), RoutineStats>,
}

fn add(e: &mut RoutineStats, calls: u64, bytes: u64) {
    e.calls += calls;
    e.bytes += bytes;
}

impl Reference {
    fn on_event(&mut self, ev: &Event) {
        let (name, bytes) = (ev.kind.mpi_name(), ev.kind.local_bytes());
        add(self.by_routine.entry(name).or_default(), 1, bytes);
        let site = (ev.callsite.file, ev.callsite.line, name);
        add(self.by_callsite.entry(site).or_default(), 1, bytes);
    }

    fn absorb_raw(&mut self, entries: &[(&'static str, RoutineStats)]) {
        for &(name, s) in entries {
            add(self.by_routine.entry(name).or_default(), s.calls, s.bytes);
        }
    }

    fn merge(&mut self, other: &Reference) {
        for (&name, s) in &other.by_routine {
            add(self.by_routine.entry(name).or_default(), s.calls, s.bytes);
        }
        for (&site, s) in &other.by_callsite {
            add(self.by_callsite.entry(site).or_default(), s.calls, s.bytes);
        }
    }

    fn routines(&self) -> Vec<(&'static str, RoutineStats)> {
        self.by_routine.iter().map(|(&n, &s)| (n, s)).collect()
    }

    fn callsites(&self) -> Vec<Site> {
        let mut v: Vec<_> = self
            .by_callsite
            .iter()
            .map(|(&(file, line, name), &s)| ((format!("{file}:{line}"), name), s))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn top_callsites(&self, top: usize) -> Vec<Site> {
        let mut v = self.callsites();
        v.sort_by_key(|e| std::cmp::Reverse((e.1.bytes, e.1.calls)));
        v.truncate(top);
        v
    }

    fn render(&self) -> String {
        let mut out = format!("{:<20} {:>12} {:>16}\n", "routine", "calls", "bytes");
        for (name, s) in &self.by_routine {
            writeln!(out, "{:<20} {:>12} {:>16}", name, s.calls, s.bytes).unwrap();
        }
        let top = self.top_callsites(10);
        if !top.is_empty() {
            out.push_str("\ntop call sites by volume:\n");
            for ((site, name), s) in top {
                writeln!(
                    out,
                    "  {:<40} {:<16} {:>10} calls {:>14} bytes",
                    site, name, s.calls, s.bytes
                )
                .unwrap();
            }
        }
        out
    }

    fn diff(&self, other: &Reference) -> Vec<String> {
        let names: BTreeSet<&str> = self
            .by_routine
            .keys()
            .chain(other.by_routine.keys())
            .copied()
            .collect();
        let get = |p: &Reference, n: &str| p.by_routine.get(n).copied().unwrap_or_default();
        names
            .into_iter()
            .filter(|&n| get(self, n) != get(other, n))
            .map(|n| {
                let (a, b) = (get(self, n), get(other, n));
                format!(
                    "{n}: calls {} vs {}, bytes {} vs {}",
                    a.calls, b.calls, a.bytes, b.bytes
                )
            })
            .collect()
    }
}

/// splitmix64: a seeded, reproducible stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A leaked copy of `text`: the same file name at an address of its own.
fn copy_of(text: &str) -> &'static str {
    Box::leak(text.to_owned().into_boxed_str())
}

fn random_kind(rng: &mut Rng) -> EventKind {
    let bytes = rng.below(5) as u64 * 100;
    let blocking = rng.below(2) == 0;
    match rng.below(6) {
        0 => EventKind::Send {
            to: rng.below(4),
            tag: 0,
            bytes,
            comm: 0,
            blocking,
        },
        1 => EventKind::Recv {
            from: Src::Any,
            tag: TagSel::Any,
            bytes,
            comm: 0,
            blocking,
        },
        2 => EventKind::Wait {
            count: 1 + rng.below(3),
        },
        3 => EventKind::CommSplit {
            parent: 0,
            result: 1,
            members: Arc::new(vec![0, 1]),
        },
        _ => EventKind::Coll {
            kind: CollKind::ALL[rng.below(CollKind::ALL.len())],
            root: None,
            bytes,
            comm: 0,
        },
    }
}

/// Check every read of `got` against `want`.
fn assert_same(got: &MpiP, want: &Reference, what: &str) {
    assert_eq!(
        got.routines().collect::<Vec<_>>(),
        want.routines(),
        "{what}"
    );
    assert_eq!(
        got.callsites().collect::<Vec<_>>(),
        want.callsites(),
        "{what}"
    );
    for top in [0, 1, 3, 10, 100] {
        assert_eq!(got.top_callsites(top), want.top_callsites(top), "{what}");
    }
    assert_eq!(got.to_string(), want.render(), "{what}");
    for (name, s) in want.routines() {
        assert_eq!(got.get(name), s, "{what}: {name}");
    }
    assert_eq!(got.get("MPI_Nonexistent"), RoutineStats::default());
    let total = |f: fn(&RoutineStats) -> u64| want.by_routine.values().map(f).sum::<u64>();
    assert_eq!(got.total_calls(), total(|s| s.calls), "{what}");
    assert_eq!(got.total_bytes(), total(|s| s.bytes), "{what}");
}

#[test]
fn address_keyed_profiles_report_as_text_keyed_ones() {
    let app = "app.rs";
    let files = [app, copy_of(app), "lib.rs", "solver/halo.rs"];
    assert!(!std::ptr::eq(files[0], files[1]));
    for seed in 0..24u64 {
        let mut rng = Rng(seed);
        let ranks = 1 + rng.below(5);
        let mut profiles = Vec::new();
        let mut references = Vec::new();
        for rank in 0..ranks {
            let (mut p, mut r) = (MpiP::new(), Reference::default());
            for _ in 0..rng.below(300) {
                let ev = Event {
                    rank,
                    kind: random_kind(&mut rng),
                    callsite: CallSite {
                        file: files[rng.below(files.len())],
                        line: 1 + rng.below(6) as u32,
                        column: 1 + rng.below(3) as u32,
                    },
                    stack_sig: rng.next(),
                    t_enter: SimTime::ZERO,
                    t_exit: SimTime::ZERO,
                };
                p.on_event(&ev);
                r.on_event(&ev);
                if rng.below(100) == 0 {
                    let raw = [
                        ("MPI_Send", RoutineStats { calls: 2, bytes: 7 }),
                        ("MPI_Expected", RoutineStats { calls: 1, bytes: 0 }),
                    ];
                    p.absorb_raw(raw);
                    r.absorb_raw(&raw);
                }
            }
            assert_same(&p, &r, &format!("seed {seed} rank {rank}"));
            profiles.push(p);
            references.push(r);
        }
        let merged = MpiP::merge_all(&profiles);
        let mut reference = Reference::default();
        for r in &references {
            reference.merge(r);
        }
        assert_same(&merged, &reference, &format!("seed {seed} merged"));
        // A profile merged into itself doubles; diff rank 0 against all.
        let twice = MpiP::merge_all([&merged, &merged]);
        let mut reference_twice = Reference::default();
        reference_twice.merge(&reference);
        reference_twice.merge(&reference);
        assert_same(&twice, &reference_twice, &format!("seed {seed} twice"));
        assert_eq!(
            profiles[0].diff(&merged),
            references[0].diff(&reference),
            "seed {seed}"
        );
        assert_eq!(
            merged.diff(&profiles[0]),
            reference.diff(&references[0]),
            "seed {seed}"
        );
        assert!(merged.diff(&merged).is_empty());
        assert_eq!(
            twice.diff(&merged),
            reference_twice.diff(&reference),
            "seed {seed}"
        );
    }
}

#[test]
fn one_file_text_at_two_addresses_is_one_call_site() {
    let copy = copy_of("twice.rs");
    let event = |file| Event {
        rank: 0,
        kind: EventKind::Wait { count: 1 },
        callsite: CallSite {
            file,
            line: 9,
            column: 1,
        },
        stack_sig: 0,
        t_enter: SimTime::ZERO,
        t_exit: SimTime::ZERO,
    };
    let mut p = MpiP::new();
    p.on_event(&event("twice.rs"));
    p.on_event(&event(copy));
    p.on_event(&event(copy));
    let sites: Vec<_> = p.callsites().collect();
    assert_eq!(
        sites,
        vec![(
            ("twice.rs:9".to_string(), "MPI_Wait"),
            RoutineStats { calls: 3, bytes: 0 }
        )]
    );
    assert_eq!(p.get("MPI_Wait").calls, 3);
}
