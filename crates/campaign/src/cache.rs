//! Disk cache of application traces, keyed by trace-config hash.
//!
//! Layout (two files per entry, names are the 16-hex-digit key):
//!
//! ```text
//! <dir>/<key>.stbs   STBS binary trace (scalatrace::stream)
//! <dir>/<key>.meta   key=value sidecar: stbs_fnv, t_app_ns, [salvaged=true], config pairs
//! ```
//!
//! The STBS file is the trace: self-checksummed, lossless (timing
//! histograms survive exactly), and what [`TraceCache::load`] decodes — at
//! whichever format version the entry was stored; [`TraceCache::store`]
//! writes the newest. To read one, `commbench convert <key>.stbs x.st`.
//! The sidecar records the traced application's simulated wall-clock time
//! (`t_app_ns`) and the binary's FNV-1a (`stbs_fnv`), which ties the binary
//! to its entry: a binary swapped in from another entry passes its own
//! frame checksum but not this one. Both files are written atomically
//! (tmp + rename), the sidecar last, so a crash mid-store leaves a miss,
//! not a lie.
//!
//! One private function, `read_entry`, judges an entry:
//! [`TraceCache::load`] serves what it accepts and misses on the rest;
//! [`TraceCache::fsck`] quarantines exactly the rest with its refusal as
//! the reason (and moves stranded `*.stbs.*.tmp` partial writes aside), so
//! the wreckage is visible and the next campaign run regenerates the entry. Older builds also wrote a
//! `<key>.st` text view: such an entry still loads, the view is moved or
//! removed with the entry, and the next store of its key deletes it.

use crate::hash;
use mpisim::time::SimTime;
use scalatrace::frame::write_atomic;
use scalatrace::trace::Trace;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Every file an entry may own: its two, then the text view older builds
/// wrote beside them.
const ENTRY_FILES: [&str; 3] = ["stbs", "meta", "st"];

/// A trace cache rooted at one directory.
#[derive(Clone, Debug)]
pub struct TraceCache {
    dir: PathBuf,
}

/// A successfully loaded cache entry.
#[derive(Clone, Debug)]
pub struct CachedTrace {
    /// The cached trace.
    pub trace: Trace,
    /// Simulated wall-clock time of the original traced run.
    pub t_app: SimTime,
    /// Was this entry stored as a *salvaged prefix* (recovered from an
    /// interrupted streamed capture via [`TraceCache::store_salvaged`])
    /// rather than a complete capture? Salvaged entries are valid traces
    /// of a shorter run: usable as evidence, but a resume should rerun
    /// the job to replace them with the full capture.
    pub salvaged: bool,
}

/// One entry quarantined by [`TraceCache::fsck`].
#[derive(Clone, Debug)]
pub struct QuarantinedEntry {
    /// The entry's hex key (file stem).
    pub key: String,
    /// Why it was condemned.
    pub reason: String,
}

/// Result of a cache integrity sweep.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Entries that passed every check.
    pub ok: usize,
    /// Entries moved aside as corrupt (they will regenerate as misses).
    pub quarantined: Vec<QuarantinedEntry>,
    /// Stranded `.tmp` files (crash mid-write) swept away.
    pub tmp_removed: usize,
    /// Stranded binary-trace `*.stbs.*.tmp` partial writes moved aside as
    /// `*.quarantined` (kept for forensics rather than deleted: a torn
    /// binary write is evidence of the crash that produced it).
    pub tmp_quarantined: usize,
}

impl FsckReport {
    /// Did every entry check out?
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

impl std::fmt::Display for FsckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} ok, {} quarantined, {} stranded tmp file(s) removed, {} torn binary write(s) quarantined",
            self.ok,
            self.quarantined.len(),
            self.tmp_removed,
            self.tmp_quarantined
        )?;
        for q in &self.quarantined {
            writeln!(f, "quarantined {}: {}", q.key, q.reason)?;
        }
        Ok(())
    }
}

impl TraceCache {
    /// Open (and create if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<TraceCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file(&self, stem: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{stem}.{ext}"))
    }

    /// Look up a trace by key. Anything [`TraceCache::fsck`] would
    /// quarantine — missing files, malformed sidecar, checksum mismatch,
    /// corrupt binary — is a miss.
    pub fn load(&self, key: u64) -> Option<CachedTrace> {
        self.read_entry(&hash::hex(key)).ok()
    }

    /// Store a trace under `key`. `pairs` (the job's trace config) is
    /// recorded in the sidecar for human inspection. Both files go through
    /// tmp + rename — binary first, then the checksum-bearing sidecar — so
    /// no interleaving of a crash with this call can produce a loadable lie.
    pub fn store(
        &self,
        key: u64,
        trace: &Trace,
        t_app: SimTime,
        pairs: &[(String, String)],
    ) -> io::Result<()> {
        self.store_impl(key, trace, t_app, pairs, false)
    }

    /// Store a trace recovered by segment salvage: a verified *prefix* of
    /// an interrupted streamed capture. Identical to [`TraceCache::store`]
    /// except the sidecar carries a `salvaged=true` marker, which
    /// [`TraceCache::load`] surfaces so a campaign resume knows to rerun
    /// the job and upgrade the entry to a complete capture.
    pub fn store_salvaged(
        &self,
        key: u64,
        trace: &Trace,
        t_app: SimTime,
        pairs: &[(String, String)],
    ) -> io::Result<()> {
        self.store_impl(key, trace, t_app, pairs, true)
    }

    fn store_impl(
        &self,
        key: u64,
        trace: &Trace,
        t_app: SimTime,
        pairs: &[(String, String)],
        salvaged: bool,
    ) -> io::Result<()> {
        let stem = hash::hex(key);
        // A text view an older build left would describe the binary this
        // store replaces.
        let _ = std::fs::remove_file(self.file(&stem, "st"));
        let bytes = scalatrace::stream::trace_to_bytes(trace);
        write_atomic(&self.file(&stem, "stbs"), &bytes)?;
        let mut meta = format!(
            "stbs_fnv={}\nt_app_ns={}\n",
            hash::hex(hash::fnv1a(&bytes)),
            t_app.as_nanos()
        );
        if salvaged {
            meta.push_str("salvaged=true\n");
        }
        for (k, v) in pairs {
            meta.push_str(&format!("{k}={v}\n"));
        }
        write_atomic(&self.file(&stem, "meta"), meta.as_bytes())
    }

    /// Remove an entry (every file it owns) from the cache. Missing files
    /// are fine — evicting a partial or absent entry is a no-op, not an
    /// error. Used by campaign resume to drop a salvaged prefix so the
    /// rerun re-traces the application and stores the complete capture.
    pub fn evict(&self, key: u64) {
        let stem = hash::hex(key);
        for ext in ENTRY_FILES {
            let _ = std::fs::remove_file(self.file(&stem, ext));
        }
    }

    /// Number of entries currently in the cache (sidecars on disk).
    pub fn len(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "meta"))
            .count()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Integrity sweep: every entry [`TraceCache::load`] would refuse is
    /// renamed to `*.quarantined` (so the next run regenerates it), with
    /// the refusal as its reason; stranded generic `.tmp` files from
    /// interrupted writes are deleted and torn `*.stbs.*.tmp` binary
    /// writes quarantined.
    pub fn fsck(&self) -> io::Result<FsckReport> {
        let mut report = FsckReport::default();
        let mut stems = BTreeSet::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                if name.contains(".stbs.") {
                    // A torn binary write: keep the bytes for forensics,
                    // but move them out of the namespace load scans.
                    std::fs::rename(&path, path.with_file_name(format!("{name}.quarantined")))?;
                    report.tmp_quarantined += 1;
                } else {
                    std::fs::remove_file(&path)?;
                    report.tmp_removed += 1;
                }
            } else if let Some(stem) = ENTRY_FILES
                .iter()
                .find_map(|ext| name.strip_suffix(ext)?.strip_suffix('.'))
            {
                stems.insert(stem.to_string());
            }
        }
        for stem in stems {
            match self.read_entry(&stem) {
                Ok(_) => report.ok += 1,
                Err(reason) => {
                    self.quarantine(&stem)?;
                    report
                        .quarantined
                        .push(QuarantinedEntry { key: stem, reason });
                }
            }
        }
        Ok(report)
    }

    /// The one verdict on an entry, shared by `load` and `fsck`: the
    /// sidecar and binary are readable, the sidecar names the binary's
    /// checksum and the traced run's time, and the binary decodes.
    fn read_entry(&self, stem: &str) -> Result<CachedTrace, String> {
        let meta = std::fs::read_to_string(self.file(stem, "meta"))
            .map_err(|e| format!("missing or unreadable sidecar: {e}"))?;
        let bytes = std::fs::read(self.file(stem, "stbs"))
            .map_err(|e| format!("missing or unreadable binary trace: {e}"))?;
        let field = |key: &str| {
            meta.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .map(str::trim)
        };
        let t_app_ns = field("t_app_ns")
            .and_then(|v| v.parse().ok())
            .ok_or("sidecar lacks t_app_ns")?;
        let stbs_fnv = field("stbs_fnv")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or("sidecar lacks stbs_fnv")?;
        let fnv = hash::fnv1a(&bytes);
        if fnv != stbs_fnv {
            return Err(format!(
                "binary checksum mismatch: sidecar says {}, file hashes to {}",
                hash::hex(stbs_fnv),
                hash::hex(fnv)
            ));
        }
        let trace = scalatrace::stream::trace_from_bytes(&bytes)
            .map_err(|e| format!("corrupt binary trace: {e}"))?;
        Ok(CachedTrace {
            trace,
            t_app: SimTime::from_nanos(t_app_ns),
            salvaged: field("salvaged") == Some("true"),
        })
    }

    /// Move all files of an entry aside (best-effort: any may already
    /// be missing, which is part of why it was condemned).
    fn quarantine(&self, stem: &str) -> io::Result<()> {
        for ext in ENTRY_FILES {
            let from = self.file(stem, ext);
            if from.exists() {
                std::fs::rename(&from, self.file(stem, &format!("{ext}.quarantined")))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniapps::{registry, AppParams};
    use mpisim::network;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "campaign-cache-test-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_trace() -> (Trace, SimTime) {
        let app = registry::lookup("ring").unwrap();
        let params = AppParams::quick();
        let traced =
            scalatrace::trace_app(4, network::ideal(), move |ctx| (app.run)(ctx, &params)).unwrap();
        (traced.trace, traced.report.total_time)
    }

    /// `<dir>/<key>.<ext>`.
    fn path(cache: &TraceCache, key: u64, ext: &str) -> PathBuf {
        cache.file(&hash::hex(key), ext)
    }

    /// Rewrite an entry's sidecar line by line (`None` drops the line).
    fn edit_meta(cache: &TraceCache, key: u64, f: impl Fn(&str) -> Option<String>) {
        let meta = std::fs::read_to_string(path(cache, key, "meta")).unwrap();
        let edited: String = meta.lines().filter_map(f).map(|l| l + "\n").collect();
        std::fs::write(path(cache, key, "meta"), edited).unwrap();
    }

    /// Point `stbs_fnv` at whatever the binary now holds, as a hand repair
    /// would: only the frame itself can still object.
    fn rebless(cache: &TraceCache, key: u64) {
        let bytes = std::fs::read(path(cache, key, "stbs")).unwrap();
        let fnv = hash::hex(hash::fnv1a(&bytes));
        edit_meta(cache, key, |l| {
            Some(if l.starts_with("stbs_fnv=") {
                format!("stbs_fnv={fnv}")
            } else {
                l.to_string()
            })
        });
    }

    fn strip_stbs_fnv(cache: &TraceCache, key: u64) {
        edit_meta(cache, key, |l| {
            (!l.starts_with("stbs_fnv=")).then(|| l.into())
        });
    }

    fn flip_mid_byte(file: &Path) {
        let mut bytes = std::fs::read(file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(file, &bytes).unwrap();
    }

    /// The entry `store` left on disk at the last commit whose STBS writer
    /// emitted v1 (fixed-width integers, 64 dense histogram bins) — binary,
    /// text view and a sidecar with both checksums.
    const FROZEN_KEY: u64 = 0x18;

    fn frozen_file(ext: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../scalatrace/tests/fixtures/v1/cache")
            .join(format!("{}.{ext}", hash::hex(FROZEN_KEY)))
    }

    /// Copy the frozen entry's files into `cache` under `key`.
    fn plant_frozen(cache: &TraceCache, key: u64) {
        for ext in ENTRY_FILES {
            std::fs::copy(frozen_file(ext), path(cache, key, ext)).unwrap();
        }
    }

    /// An entry as written before the binary format existed: the frozen
    /// text view and a sidecar naming only its checksum.
    fn plant_text_only(cache: &TraceCache, key: u64) {
        for ext in ["st", "meta"] {
            std::fs::copy(frozen_file(ext), path(cache, key, ext)).unwrap();
        }
        edit_meta(cache, key, |l| {
            (!l.starts_with("stbs_fnv=") && !l.starts_with("format=")).then(|| l.into())
        });
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn salvaged_marker_roundtrips_and_eviction_clears_the_entry() {
        let cache = TraceCache::open(temp_dir("salvaged")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store_salvaged(7, &trace, t_app, &[]).unwrap();
        let hit = cache.load(7).expect("salvaged entry loads");
        assert!(hit.salvaged, "the marker must survive the round-trip");
        assert_eq!(hit.trace, trace);
        // An ordinary store is not flagged, and the salvaged entry still
        // passes fsck — it is valid data, just known-partial.
        cache.store(8, &trace, t_app, &[]).unwrap();
        assert!(!cache.load(8).unwrap().salvaged);
        assert!(cache.fsck().unwrap().clean());
        // Eviction removes both files; evicting again is a no-op.
        cache.evict(7);
        assert!(cache.load(7).is_none());
        cache.evict(7);
        assert_eq!(cache.len(), 1);
        assert!(cache.fsck().unwrap().clean(), "no orphans left behind");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn roundtrips_trace_and_timing() {
        let cache = TraceCache::open(temp_dir("roundtrip")).unwrap();
        let (trace, t_app) = sample_trace();
        assert!(cache.load(42).is_none());
        cache
            .store(42, &trace, t_app, &[("app".into(), "ring".into())])
            .unwrap();
        let hit = cache.load(42).expect("entry just stored");
        assert_eq!(hit.t_app, t_app);
        scalatrace::semantically_equal(&trace, &hit.trace).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(
            names(cache.dir()),
            ["000000000000002a.meta", "000000000000002a.stbs"],
            "an entry is exactly two files"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn histograms_wider_than_any_registry_trace_roundtrip_exactly() {
        // No registry trace has a histogram with more than three non-empty
        // bins, the most `TimeStats` holds inline; force the spilled form.
        let cache = TraceCache::open(temp_dir("spilled")).unwrap();
        let (mut trace, t_app) = sample_trace();
        fn first_event(nodes: &mut [scalatrace::TraceNode]) -> &mut scalatrace::Rsd {
            match &mut nodes[0] {
                scalatrace::TraceNode::Event(r) => r,
                scalatrace::TraceNode::Loop(p) => first_event(&mut p.body),
            }
        }
        let wide = first_event(&mut trace.nodes);
        for k in 0..6 {
            wide.compute
                .record_n(k + 1, mpisim::time::SimDuration::from_nanos(5 << (k * 10)));
        }
        assert!(wide.compute.non_empty_bins().count() > 3);
        cache.store(9, &trace, t_app, &[]).unwrap();
        let hit = cache.load(9).expect("entry just stored");
        assert_eq!(hit.trace, trace);
        assert_eq!(
            scalatrace::stream::trace_to_bytes(&hit.trace),
            std::fs::read(path(&cache, 9, "stbs")).unwrap()
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_v1_entry_still_loads_and_the_next_store_upgrades_it() {
        let cache = TraceCache::open(temp_dir("v1-entry")).unwrap();
        plant_frozen(&cache, FROZEN_KEY);
        let key = FROZEN_KEY;
        let v1 = std::fs::read(path(&cache, key, "stbs")).unwrap();
        assert_eq!(scalatrace::frame::peek_version(&v1), Some(1));
        let hit = cache.load(key).expect("v1 entry loads");
        assert_eq!(hit.t_app, SimTime::from_nanos(159_392));
        assert!(!hit.salvaged);
        // Its text view is a file the entry owns, not one fsck judges.
        let report = cache.fsck().unwrap();
        assert!(report.clean() && report.ok == 1, "{report}");
        let view_len = std::fs::metadata(path(&cache, key, "st")).unwrap().len() as usize;

        cache.store(key, &hit.trace, hit.t_app, &[]).unwrap();
        let v2 = std::fs::read(path(&cache, key, "stbs")).unwrap();
        assert_eq!(scalatrace::frame::peek_version(&v2), Some(2));
        assert!(v2.len() < view_len && view_len < v1.len());
        assert_eq!(
            cache.load(key).expect("upgraded entry loads").trace,
            hit.trace
        );
        // The stale view went with the binary it described.
        assert_eq!(
            names(cache.dir()),
            ["0000000000000018.meta", "0000000000000018.stbs"]
        );

        // Evicting a three-file entry leaves nothing behind.
        plant_frozen(&cache, key);
        cache.evict(key);
        assert!(names(cache.dir()).is_empty(), "{:?}", names(cache.dir()));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Every way an entry can go wrong that a test in this module builds,
    /// applied to a freshly stored entry, and whether what is left loads.
    const CASES: [(&str, bool); 13] = [
        ("intact", true),
        ("flipped binary byte", false),
        ("flipped binary byte, sidecar re-blessed", false),
        ("binary swapped in from another entry", false),
        ("truncated binary", false),
        ("missing binary", false),
        ("mangled sidecar", false),
        ("missing sidecar", false),
        ("checksum-less sidecar", false),
        ("text-only entry from before STBS", false),
        ("orphaned text view", false),
        ("entry an older build wrote", true),
        ("entry an older build wrote, view deleted", true),
    ];

    fn damage(case: &str, cache: &TraceCache, key: u64, foreign: &[u8]) {
        let stbs = path(cache, key, "stbs");
        match case {
            "intact" => {}
            "flipped binary byte" => flip_mid_byte(&stbs),
            "flipped binary byte, sidecar re-blessed" => {
                flip_mid_byte(&stbs);
                rebless(cache, key);
            }
            "binary swapped in from another entry" => std::fs::write(&stbs, foreign).unwrap(),
            "truncated binary" => {
                let bytes = std::fs::read(&stbs).unwrap();
                std::fs::write(&stbs, &bytes[..bytes.len() / 2]).unwrap();
            }
            "missing binary" => std::fs::remove_file(&stbs).unwrap(),
            "mangled sidecar" => std::fs::write(path(cache, key, "meta"), "t_app_ns=x\n").unwrap(),
            "missing sidecar" => std::fs::remove_file(path(cache, key, "meta")).unwrap(),
            "checksum-less sidecar" => strip_stbs_fnv(cache, key),
            "text-only entry from before STBS" => {
                cache.evict(key);
                plant_text_only(cache, key);
            }
            "orphaned text view" => {
                cache.evict(key);
                std::fs::copy(frozen_file("st"), path(cache, key, "st")).unwrap();
            }
            "entry an older build wrote" => plant_frozen(cache, key),
            "entry an older build wrote, view deleted" => {
                plant_frozen(cache, key);
                std::fs::remove_file(path(cache, key, "st")).unwrap();
            }
            other => unreachable!("{other}"),
        }
    }

    #[test]
    fn load_and_fsck_agree_on_every_entry() {
        let cache = TraceCache::open(temp_dir("agree")).unwrap();
        let (trace, t_app) = sample_trace();
        let mut other = trace.clone();
        other.nodes.truncate(other.nodes.len().saturating_sub(1));
        let foreign = scalatrace::stream::trace_to_bytes(&other);
        for (i, &(case, loads)) in CASES.iter().enumerate() {
            let key = i as u64 + 1;
            cache.store(key, &trace, t_app, &[]).unwrap();
            damage(case, &cache, key, &foreign);
            assert_eq!(cache.load(key).is_some(), loads, "{case}: load");
        }
        let report = cache.fsck().unwrap();
        for (i, &(case, loads)) in CASES.iter().enumerate() {
            let key = i as u64 + 1;
            let quarantined = report.quarantined.iter().any(|q| q.key == hash::hex(key));
            assert_eq!(
                quarantined, !loads,
                "{case}: fsck must quarantine exactly what load refuses\n{report}"
            );
            assert_eq!(cache.load(key).is_some(), loads, "{case}: after fsck");
        }
        let ok = CASES.iter().filter(|(_, loads)| *loads).count();
        assert_eq!(report.ok, ok, "{report}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = TraceCache::open(temp_dir("corrupt")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(7, &trace, t_app, &[]).unwrap();

        // Not a binary trace at all: the sidecar cross-check refuses it.
        std::fs::write(path(&cache, 7, "stbs"), b"STBS-but-not-really").unwrap();
        assert!(cache.load(7).is_none());
        // Re-blessed to match: the frame decoder refuses it.
        rebless(&cache, 7);
        assert!(cache.load(7).is_none());

        // Valid trace, mangled sidecar.
        cache.store(7, &trace, t_app, &[]).unwrap();
        std::fs::write(path(&cache, 7, "meta"), "t_app_ns=notanumber\n").unwrap();
        assert!(cache.load(7).is_none());

        // Valid trace, missing sidecar.
        cache.store(7, &trace, t_app, &[]).unwrap();
        std::fs::remove_file(path(&cache, 7, "meta")).unwrap();
        assert!(cache.load(7).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn single_flipped_byte_is_detected() {
        let cache = TraceCache::open(temp_dir("bitflip")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(9, &trace, t_app, &[]).unwrap();
        // Flip one byte mid-payload in the binary: only a checksum can tell
        // it is not the trace that was stored — the sidecar's first...
        flip_mid_byte(&path(&cache, 9, "stbs"));
        assert!(cache.load(9).is_none(), "corrupt entry must not load");
        // ...and the frame's own once the sidecar is patched to match.
        rebless(&cache, 9);
        assert!(cache.load(9).is_none(), "corrupt entry must not load");
        let report = cache.fsck().unwrap();
        assert_eq!(report.quarantined.len(), 1, "{report}");
        assert!(
            report.quarantined[0].reason.contains("checksum"),
            "{report}"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn swapped_binaries_between_entries_are_detected() {
        // Each entry's .stbs is internally checksum-clean; only the sidecar
        // cross-check can notice the files were exchanged.
        let cache = TraceCache::open(temp_dir("swap")).unwrap();
        let (trace, t_app) = sample_trace();
        let mut other = trace.clone();
        other.nodes.truncate(other.nodes.len().saturating_sub(1));
        cache.store(1, &trace, t_app, &[]).unwrap();
        cache.store(2, &other, t_app, &[]).unwrap();
        let a = std::fs::read(path(&cache, 1, "stbs")).unwrap();
        let b = std::fs::read(path(&cache, 2, "stbs")).unwrap();
        std::fs::write(path(&cache, 1, "stbs"), &b).unwrap();
        std::fs::write(path(&cache, 2, "stbs"), &a).unwrap();
        assert!(cache.load(1).is_none(), "swapped binary must not load");
        assert!(cache.load(2).is_none(), "swapped binary must not load");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_text_only_entry_is_a_miss_until_the_next_store_replaces_it() {
        let cache = TraceCache::open(temp_dir("text-only")).unwrap();
        plant_text_only(&cache, 4);
        assert!(cache.load(4).is_none(), "nothing reads the text view");
        let report = cache.fsck().unwrap();
        assert_eq!(report.quarantined.len(), 1, "{report}");
        assert!(
            report.quarantined[0].reason.contains("binary trace"),
            "{report}"
        );

        // The campaign re-traces and stores: a hit from then on.
        let (trace, t_app) = sample_trace();
        cache.store(4, &trace, t_app, &[]).unwrap();
        assert_eq!(cache.load(4).expect("re-stored entry loads").trace, trace);
        let report = cache.fsck().unwrap();
        assert!(report.clean() && report.ok == 1, "{report}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = TraceCache::open(temp_dir("keys")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(1, &trace, t_app, &[]).unwrap();
        assert!(cache.load(2).is_none());
        assert!(cache.load(1).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn store_leaves_no_tmp_files() {
        let cache = TraceCache::open(temp_dir("atomic")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(3, &trace, t_app, &[]).unwrap();
        for name in names(cache.dir()) {
            assert!(!name.ends_with(".tmp"), "tmp residue: {name}");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fsck_quarantines_corruption_and_next_load_misses() {
        let cache = TraceCache::open(temp_dir("fsck")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(1, &trace, t_app, &[]).unwrap();
        cache.store(2, &trace, t_app, &[]).unwrap();
        cache.store(3, &trace, t_app, &[]).unwrap();

        // Entry 2: flip a byte. Entry 3: orphan the sidecar. Plus a
        // stranded tmp file from a hypothetical crash mid-write.
        flip_mid_byte(&path(&cache, 2, "stbs"));
        std::fs::remove_file(path(&cache, 3, "stbs")).unwrap();
        std::fs::write(cache.dir().join("0000.meta.12345.tmp"), "partial").unwrap();

        let report = cache.fsck().unwrap();
        assert!(!report.clean());
        assert_eq!(report.ok, 1);
        assert_eq!(report.tmp_removed, 1);
        let keys: Vec<&str> = report.quarantined.iter().map(|q| q.key.as_str()).collect();
        assert_eq!(keys, vec![hash::hex(2).as_str(), hash::hex(3).as_str()]);
        assert!(report.quarantined[0].reason.contains("checksum"));
        assert!(report.quarantined[1].reason.contains("binary trace"));
        assert!(path(&cache, 2, "stbs.quarantined").exists());

        // Quarantined entries are invisible: the campaign regenerates.
        assert!(cache.load(2).is_none());
        assert!(cache.load(1).is_some(), "healthy entries survive fsck");
        cache.store(2, &trace, t_app, &[]).unwrap();
        assert!(cache.load(2).is_some());

        // A second sweep over the repaired cache is clean.
        let report2 = cache.fsck().unwrap();
        assert!(report2.clean(), "{report2}");
        assert_eq!(report2.ok, 2);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fsck_quarantines_torn_binary_writes_and_binary_corruption() {
        let cache = TraceCache::open(temp_dir("fsck-stbs")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(1, &trace, t_app, &[]).unwrap();
        cache.store(2, &trace, t_app, &[]).unwrap();
        cache.store(3, &trace, t_app, &[]).unwrap();

        // A torn binary write stranded by a crash mid-store: quarantined
        // (kept for forensics), not deleted like generic tmp files.
        let torn = cache.dir().join("0001.stbs.4242.tmp");
        std::fs::write(&torn, b"half a frame").unwrap();
        // Entry 2: flip one byte mid-payload in the binary.
        flip_mid_byte(&path(&cache, 2, "stbs"));
        // Entry 3: truncate the binary and patch the sidecar to match, so
        // only the frame decoder can object.
        let bytes = std::fs::read(path(&cache, 3, "stbs")).unwrap();
        std::fs::write(path(&cache, 3, "stbs"), &bytes[..bytes.len() - 1]).unwrap();
        rebless(&cache, 3);

        let report = cache.fsck().unwrap();
        assert_eq!(report.tmp_quarantined, 1, "{report}");
        assert_eq!(report.tmp_removed, 0);
        assert_eq!(report.ok, 1);
        assert!(!torn.exists(), "torn tmp must be moved aside");
        assert!(
            cache.dir().join("0001.stbs.4242.tmp.quarantined").exists(),
            "torn tmp is kept under a .quarantined name"
        );
        let keys: Vec<&str> = report.quarantined.iter().map(|q| q.key.as_str()).collect();
        assert_eq!(keys, vec![hash::hex(2).as_str(), hash::hex(3).as_str()]);
        assert!(report.quarantined[0].reason.contains("binary checksum"));
        assert!(report.quarantined[1].reason.contains("corrupt binary"));
        assert!(cache.load(2).is_none());
        assert!(cache.load(3).is_none());
        assert!(cache.load(1).is_some(), "healthy entry survives");

        // A second sweep finds nothing further to condemn.
        let report2 = cache.fsck().unwrap();
        assert!(report2.clean(), "{report2}");
        assert_eq!(report2.tmp_quarantined, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_without_checksum_are_not_trusted() {
        // A sidecar that does not name the binary's checksum (hand-edited,
        // or from before checksums) must not load.
        let cache = TraceCache::open(temp_dir("legacy")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(5, &trace, t_app, &[]).unwrap();
        strip_stbs_fnv(&cache, 5);
        assert!(cache.load(5).is_none());
        let report = cache.fsck().unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].reason.contains("stbs_fnv"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
