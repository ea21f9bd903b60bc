//! An mpiP-style lightweight profiler: per-routine event counts and message
//! volumes, gathered through the [`crate::hooks::Hook`] interface.
//!
//! The paper (§5.2) links both the original application and the generated
//! benchmark against mpiP and checks that "for each type of MPI event, the
//! event count and the message volume … matched perfectly". This module
//! provides the same check for the simulated pipeline (experiment E1).

use crate::hooks::{Event, Hook};
use crate::types::FxMap;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::ptr;

/// Aggregated statistics for one MPI routine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutineStats {
    /// Number of calls.
    pub calls: u64,
    /// Bytes moved by those calls (local accounting).
    pub bytes: u64,
}

impl RoutineStats {
    /// Saturating: a profile reconstructed from a crafted trace may already
    /// stand at `u64::MAX`.
    fn add(&mut self, other: RoutineStats) {
        self.calls = self.calls.saturating_add(other.calls);
        self.bytes = self.bytes.saturating_add(other.bytes);
    }
}

/// A call site as [`MpiP::on_event`] meets it, compared and hashed by the
/// addresses of its strings: a call site's file and a routine's name are
/// `'static` strings that never move, so recording an event hashes three
/// words and compares no text. Equal text at two addresses makes two keys;
/// every read folds them together by text.
#[derive(Clone, Copy, Debug)]
struct SiteAddr {
    file: &'static str,
    line: u32,
    name: &'static str,
}

impl PartialEq for SiteAddr {
    fn eq(&self, other: &SiteAddr) -> bool {
        ptr::eq(self.file, other.file) && self.line == other.line && ptr::eq(self.name, other.name)
    }
}

impl Eq for SiteAddr {}

impl Hash for SiteAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.file.as_ptr() as u64);
        state.write_u64(self.line as u64);
        state.write_u64(self.name.as_ptr() as u64);
    }
}

/// Per-rank mpiP-style profile: per-routine aggregates plus the
/// per-call-site breakdown that is mpiP's signature feature.
#[derive(Clone, Debug, Default)]
pub struct MpiP {
    /// What [`MpiP::on_event`] recorded, by call-site address: one probe of
    /// a small Fx-hashed index per event. Folded by text on every read.
    by_site: FxMap<SiteAddr, RoutineStats>,
    /// Per-routine stats added by [`MpiP::absorb_raw`] (no call site).
    by_routine: BTreeMap<&'static str, RoutineStats>,
}

impl MpiP {
    /// Empty profile.
    pub fn new() -> MpiP {
        MpiP::default()
    }

    /// Merge another profile (e.g. another rank's) into this one.
    pub fn merge(&mut self, other: &MpiP) {
        for (key, &stats) in &other.by_site {
            self.by_site.entry(*key).or_default().add(stats);
        }
        self.absorb_raw(other.by_routine.iter().map(|(&name, &stats)| (name, stats)));
    }

    /// Insert raw per-routine stats (used when deriving expected profiles
    /// from a mapping rather than from observed events).
    pub fn absorb_raw(&mut self, entries: impl IntoIterator<Item = (&'static str, RoutineStats)>) {
        for (name, stats) in entries {
            self.by_routine.entry(name).or_default().add(stats);
        }
    }

    /// Merge a collection of per-rank profiles into a job-wide profile.
    pub fn merge_all<'a>(profiles: impl IntoIterator<Item = &'a MpiP>) -> MpiP {
        let mut total = MpiP::new();
        for p in profiles {
            total.merge(p);
        }
        total
    }

    /// Every routine's stats, folded by name.
    fn routine_view(&self) -> BTreeMap<&'static str, RoutineStats> {
        let mut view = self.by_routine.clone();
        for (k, &stats) in &self.by_site {
            view.entry(k.name).or_default().add(stats);
        }
        view
    }

    /// Per-routine aggregates in name order.
    pub fn routines(&self) -> impl Iterator<Item = (&'static str, RoutineStats)> + '_ {
        self.routine_view().into_iter()
    }

    /// Per-call-site statistics: `(("file:line", routine), stats)`, in
    /// `"file:line"` string order.
    pub fn callsites(&self) -> impl Iterator<Item = ((String, &'static str), RoutineStats)> {
        let mut sites = BTreeMap::<_, RoutineStats>::new();
        for (k, &stats) in &self.by_site {
            sites
                .entry((k.file, k.line, k.name))
                .or_default()
                .add(stats);
        }
        let mut v: Vec<_> = sites
            .into_iter()
            .map(|((file, line, name), s)| ((format!("{file}:{line}"), name), s))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v.into_iter()
    }

    /// The `top` call sites by byte volume, mpiP-report style.
    pub fn top_callsites(&self, top: usize) -> Vec<((String, &'static str), RoutineStats)> {
        let mut v: Vec<_> = self.callsites().collect();
        v.sort_by_key(|e| std::cmp::Reverse((e.1.bytes, e.1.calls)));
        v.truncate(top);
        v
    }

    /// Stats for one routine (zero if never called).
    pub fn get(&self, routine: &str) -> RoutineStats {
        self.routine_view()
            .get(routine)
            .copied()
            .unwrap_or_default()
    }

    /// Total MPI calls across all routines.
    pub fn total_calls(&self) -> u64 {
        self.routines()
            .fold(0, |t, (_, s)| t.saturating_add(s.calls))
    }

    /// Total bytes moved across all routines.
    pub fn total_bytes(&self) -> u64 {
        self.routines()
            .fold(0, |t, (_, s)| t.saturating_add(s.bytes))
    }

    /// Compare two profiles; returns a list of human-readable differences
    /// (empty iff the profiles match exactly, the paper's §5.2 criterion).
    pub fn diff(&self, other: &MpiP) -> Vec<String> {
        let mut out = Vec::new();
        let names: BTreeSet<&str> = self
            .routines()
            .chain(other.routines())
            .map(|(name, _)| name)
            .collect();
        for name in names {
            let a = self.get(name);
            let b = other.get(name);
            if a != b {
                out.push(format!(
                    "{name}: calls {} vs {}, bytes {} vs {}",
                    a.calls, b.calls, a.bytes, b.bytes
                ));
            }
        }
        out
    }
}

impl Hook for MpiP {
    fn on_event(&mut self, event: &Event) {
        let key = SiteAddr {
            file: event.callsite.file,
            line: event.callsite.line,
            name: event.kind.mpi_name(),
        };
        let stats = RoutineStats {
            calls: 1,
            bytes: event.kind.local_bytes(),
        };
        self.by_site.entry(key).or_default().add(stats);
    }
}

impl fmt::Display for MpiP {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<20} {:>12} {:>16}", "routine", "calls", "bytes")?;
        for (name, s) in self.routine_view() {
            writeln!(f, "{:<20} {:>12} {:>16}", name, s.calls, s.bytes)?;
        }
        let top = self.top_callsites(10);
        if !top.is_empty() {
            let mut block = String::new();
            writeln!(block, "\ntop call sites by volume:").unwrap();
            for ((site, name), s) in top {
                writeln!(
                    block,
                    "  {:<40} {:<16} {:>10} calls {:>14} bytes",
                    site, name, s.calls, s.bytes
                )
                .unwrap();
            }
            f.write_str(&block)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::EventKind;
    use crate::time::SimTime;
    use crate::types::{CallSite, CollKind};

    fn event(kind: EventKind) -> Event {
        Event {
            rank: 0,
            kind,
            callsite: CallSite {
                file: "test.rs",
                line: 1,
                column: 1,
            },
            stack_sig: 0,
            t_enter: SimTime::ZERO,
            t_exit: SimTime::ZERO,
        }
    }

    #[test]
    fn counts_and_volumes() {
        let mut p = MpiP::new();
        p.on_event(&event(EventKind::Send {
            to: 1,
            tag: 0,
            bytes: 100,
            comm: 0,
            blocking: true,
        }));
        p.on_event(&event(EventKind::Send {
            to: 2,
            tag: 0,
            bytes: 50,
            comm: 0,
            blocking: true,
        }));
        p.on_event(&event(EventKind::Coll {
            kind: CollKind::Allreduce,
            root: None,
            bytes: 8,
            comm: 0,
        }));
        assert_eq!(
            p.get("MPI_Send"),
            RoutineStats {
                calls: 2,
                bytes: 150
            }
        );
        assert_eq!(p.get("MPI_Allreduce"), RoutineStats { calls: 1, bytes: 8 });
        assert_eq!(p.total_calls(), 3);
        assert_eq!(p.total_bytes(), 158);
    }

    #[test]
    fn blocking_and_nonblocking_are_distinct_routines() {
        let mut p = MpiP::new();
        p.on_event(&event(EventKind::Send {
            to: 1,
            tag: 0,
            bytes: 10,
            comm: 0,
            blocking: false,
        }));
        assert_eq!(p.get("MPI_Isend").calls, 1);
        assert_eq!(p.get("MPI_Send").calls, 0);
    }

    #[test]
    fn diff_reports_mismatches_symmetrically() {
        let mut a = MpiP::new();
        let b = MpiP::new();
        a.on_event(&event(EventKind::Wait { count: 3 }));
        let d = a.diff(&b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("MPI_Waitall"));
        assert_eq!(b.diff(&a).len(), 1);
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn callsite_breakdown() {
        let mut p = MpiP::new();
        let mut ev = event(EventKind::Send {
            to: 1,
            tag: 0,
            bytes: 100,
            comm: 0,
            blocking: true,
        });
        p.on_event(&ev);
        ev.callsite.line = 2;
        p.on_event(&ev);
        p.on_event(&ev);
        assert_eq!(p.callsites().count(), 2);
        let top = p.top_callsites(1);
        assert_eq!(top[0].0 .0, "test.rs:2");
        assert_eq!(top[0].1.calls, 2);
        assert!(p.to_string().contains("top call sites"));
    }

    #[test]
    fn merge_adds() {
        let mut a = MpiP::new();
        a.on_event(&event(EventKind::Wait { count: 1 }));
        let mut b = MpiP::new();
        b.on_event(&event(EventKind::Wait { count: 1 }));
        let total = MpiP::merge_all([&a, &b]);
        assert_eq!(total.get("MPI_Wait").calls, 2);
    }
}
