//! Disk cache of application traces, keyed by trace-config hash.
//!
//! Layout (one triple of files per entry, names are the 16-hex-digit key):
//!
//! ```text
//! <dir>/<key>.stbs   STBS binary trace (scalatrace::stream) — authoritative
//! <dir>/<key>.st     ScalaTrace-style text view (scalatrace::text)
//! <dir>/<key>.meta   key=value sidecar: stbs_fnv, trace_fnv, t_app_ns, …
//! ```
//!
//! The STBS file is the authoritative copy: self-checksummed, lossless
//! (timing histograms survive exactly where the text view summarises them
//! to count × mean), smaller than the text view, and what
//! [`TraceCache::load`] decodes — at whichever format version the entry
//! was stored; [`TraceCache::store`] writes the newest. The text file
//! is the human-readable view of the same trace, kept in lockstep so
//! `less <key>.st` always shows what the binary holds. The sidecar records
//! the traced application's simulated wall-clock time (`t_app_ns`) plus
//! FNV-1a checksums of both representations, so silent corruption is
//! detected rather than replayed. All files are written atomically
//! (tmp + rename) and the sidecar last, so a crash mid-store leaves a
//! miss, not a lie. Corrupt or partially written entries are treated as
//! misses on load; [`TraceCache::fsck`] goes further and quarantines them
//! (including stranded `*.stbs.*.tmp` partial writes) so the wreckage is
//! visible and the next campaign run regenerates the entry. Entries from
//! before the binary format (text + sidecar only) still load.

use crate::hash;
use crate::journal::write_atomic;
use mpisim::time::SimTime;
use scalatrace::trace::Trace;
use std::io;
use std::path::{Path, PathBuf};

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

    fn trace_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.st", hash::hex(key)))
    }

    fn stbs_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.stbs", hash::hex(key)))
    }

    fn meta_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.meta", hash::hex(key)))
    }

    /// Look up a trace by key. Any read, parse, or integrity failure —
    /// missing files, truncated trace, malformed sidecar, checksum
    /// mismatch — is a miss. The STBS binary is authoritative when
    /// present (lossless timing histograms); entries from before the
    /// binary format fall back to the checksummed text view.
    pub fn load(&self, key: u64) -> Option<CachedTrace> {
        let meta = std::fs::read_to_string(self.meta_path(key)).ok()?;
        let (fnv, t_app_ns) = parse_meta(&meta)?;
        let t_app = SimTime::from_nanos(t_app_ns);
        if let Ok(bytes) = std::fs::read(self.stbs_path(key)) {
            // Sidecar cross-check on top of the file's internal checksum:
            // a swapped or stale .stbs file hashes clean internally but
            // not against its own entry's sidecar.
            let stbs_fnv = parse_meta_key(&meta, "stbs_fnv")?;
            if stbs_fnv != hash::fnv1a(&bytes) {
                return None;
            }
            let trace = scalatrace::stream::trace_from_bytes(&bytes).ok()?;
            return Some(CachedTrace {
                trace,
                t_app,
                salvaged: meta_is_salvaged(&meta),
            });
        }
        let text = std::fs::read_to_string(self.trace_path(key)).ok()?;
        if fnv != hash::fnv1a(text.as_bytes()) {
            return None;
        }
        let trace = scalatrace::text::from_text(&text).ok()?;
        Some(CachedTrace {
            trace,
            t_app,
            salvaged: meta_is_salvaged(&meta),
        })
    }

    /// Store a trace under `key`. `pairs` (the job's trace config) is
    /// recorded in the sidecar for human inspection. All files go through
    /// tmp + rename — binary first, text view, then the checksum-bearing
    /// sidecar last — so no interleaving of a crash with this call can
    /// produce a loadable lie.
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
        let bytes = scalatrace::stream::trace_to_bytes(trace);
        let text = scalatrace::text::to_text(trace);
        write_atomic(&self.stbs_path(key), &bytes)?;
        write_atomic(&self.trace_path(key), text.as_bytes())?;
        let mut meta = String::from("format=stbs\n");
        meta.push_str(&format!("stbs_fnv={}\n", hash::hex(hash::fnv1a(&bytes))));
        meta.push_str(&format!(
            "trace_fnv={}\n",
            hash::hex(hash::fnv1a(text.as_bytes()))
        ));
        meta.push_str(&format!("t_app_ns={}\n", t_app.as_nanos()));
        if salvaged {
            meta.push_str("salvaged=true\n");
        }
        for (k, v) in pairs {
            meta.push_str(&format!("{k}={v}\n"));
        }
        write_atomic(&self.meta_path(key), meta.as_bytes())
    }

    /// Remove an entry (all three files) from the cache. Missing files
    /// are fine — evicting a partial or absent entry is a no-op, not an
    /// error. Used by campaign resume to drop a salvaged prefix so the
    /// rerun re-traces the application and stores the complete capture.
    pub fn evict(&self, key: u64) {
        for path in [
            self.stbs_path(key),
            self.trace_path(key),
            self.meta_path(key),
        ] {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Number of complete entries currently in the cache.
    pub fn len(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "st"))
            .count()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Integrity sweep: verify every entry's checksums (the STBS binary's
    /// internal frame, the sidecar's hashes of both representations, and
    /// the text view's syntax); rename corrupt entries to `*.quarantined`
    /// (making them invisible to [`TraceCache::load`], so the next run
    /// regenerates them); delete stranded generic `.tmp` files from
    /// interrupted writes and quarantine torn `*.stbs.*.tmp` binary
    /// writes.
    pub fn fsck(&self) -> io::Result<FsckReport> {
        let mut report = FsckReport::default();
        let mut stems: Vec<String> = Vec::new();
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
            } else if let Some(stem) = name.strip_suffix(".stbs") {
                stems.push(stem.to_string());
            } else if let Some(stem) = name.strip_suffix(".st") {
                stems.push(stem.to_string());
            } else if let Some(stem) = name.strip_suffix(".meta") {
                // An orphaned sidecar (trace gone) is condemned below when
                // its stem has no trace partner.
                if !self.dir.join(format!("{stem}.st")).exists()
                    && !self.dir.join(format!("{stem}.stbs")).exists()
                {
                    stems.push(stem.to_string());
                }
            }
        }
        stems.sort();
        stems.dedup();
        for stem in stems {
            match self.check_entry(&stem) {
                Ok(()) => report.ok += 1,
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

    /// Every invariant `load` relies on, as a named verdict.
    fn check_entry(&self, stem: &str) -> Result<(), String> {
        let trace_path = self.dir.join(format!("{stem}.st"));
        let stbs_path = self.dir.join(format!("{stem}.stbs"));
        let meta_path = self.dir.join(format!("{stem}.meta"));
        let text =
            std::fs::read_to_string(&trace_path).map_err(|e| format!("unreadable trace: {e}"))?;
        let meta = std::fs::read_to_string(&meta_path)
            .map_err(|e| format!("missing or unreadable sidecar: {e}"))?;
        let (fnv, _) = parse_meta(&meta).ok_or("sidecar lacks trace_fnv/t_app_ns")?;
        if fnv != hash::fnv1a(text.as_bytes()) {
            return Err(format!(
                "checksum mismatch: sidecar says {}, trace hashes to {}",
                hash::hex(fnv),
                hash::hex(hash::fnv1a(text.as_bytes()))
            ));
        }
        let parsed =
            scalatrace::text::from_text(&text).map_err(|e| format!("unparsable trace: {e}"))?;
        if stbs_path.exists() {
            let bytes =
                std::fs::read(&stbs_path).map_err(|e| format!("unreadable binary trace: {e}"))?;
            let stbs_fnv =
                parse_meta_key(&meta, "stbs_fnv").ok_or("sidecar lacks stbs_fnv for binary")?;
            if stbs_fnv != hash::fnv1a(&bytes) {
                return Err(format!(
                    "binary checksum mismatch: sidecar says {}, file hashes to {}",
                    hash::hex(stbs_fnv),
                    hash::hex(hash::fnv1a(&bytes))
                ));
            }
            let trace = scalatrace::stream::trace_from_bytes(&bytes)
                .map_err(|e| format!("corrupt binary trace: {e}"))?;
            // The text file is a *view* of the binary; the two drifting
            // apart means one of them lies about the entry's contents.
            if scalatrace::text::to_text(&trace) != text {
                return Err("text view disagrees with binary trace".into());
            }
            let _ = parsed; // binary is authoritative; text already verified
        } else if parse_meta_key(&meta, "stbs_fnv").is_some() {
            return Err("sidecar names a binary trace but the .stbs file is missing".into());
        }
        Ok(())
    }

    /// Move all files of an entry aside (best-effort: any may already
    /// be missing, which is part of why it was condemned).
    fn quarantine(&self, stem: &str) -> io::Result<()> {
        for ext in ["stbs", "st", "meta"] {
            let from = self.dir.join(format!("{stem}.{ext}"));
            if from.exists() {
                std::fs::rename(&from, self.dir.join(format!("{stem}.{ext}.quarantined")))?;
            }
        }
        Ok(())
    }
}

/// Extract one hex-valued sidecar key.
/// Does the sidecar mark this entry as a salvaged prefix?
fn meta_is_salvaged(meta: &str) -> bool {
    meta.lines().any(|l| l.trim() == "salvaged=true")
}

fn parse_meta_key(meta: &str, key: &str) -> Option<u64> {
    meta.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
}

/// Extract `(trace_fnv, t_app_ns)` from sidecar text.
fn parse_meta(meta: &str) -> Option<(u64, u64)> {
    let fnv = meta
        .lines()
        .find_map(|l| l.strip_prefix("trace_fnv="))
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())?;
    let t_app_ns = meta
        .lines()
        .find_map(|l| l.strip_prefix("t_app_ns="))
        .and_then(|v| v.trim().parse().ok())?;
    Some((fnv, t_app_ns))
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
        // Eviction removes all three files; evicting again is a no-op.
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
            std::fs::read(cache.stbs_path(9)).unwrap()
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_v1_entry_still_loads_and_the_next_store_upgrades_it() {
        // What `store` left on disk at the last commit whose STBS writer
        // emitted v1 (fixed-width integers, 64 dense histogram bins).
        let frozen =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../scalatrace/tests/fixtures/v1/cache");
        let cache = TraceCache::open(temp_dir("v1-entry")).unwrap();
        for entry in std::fs::read_dir(&frozen).expect("v1 cache entry is checked in") {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), cache.dir().join(entry.file_name())).unwrap();
        }
        let key = 0x18;
        let v1 = std::fs::read(cache.stbs_path(key)).unwrap();
        assert_eq!(scalatrace::frame::peek_version(&v1), Some(1));
        let hit = cache.load(key).expect("v1 entry loads");
        let view = std::fs::read_to_string(cache.trace_path(key)).unwrap();
        assert_eq!(scalatrace::text::to_text(&hit.trace), view);
        assert_eq!(hit.t_app, SimTime::from_nanos(159_392));
        assert!(!hit.salvaged);
        assert!(cache.fsck().unwrap().clean());

        cache.store(key, &hit.trace, hit.t_app, &[]).unwrap();
        let v2 = std::fs::read(cache.stbs_path(key)).unwrap();
        assert_eq!(scalatrace::frame::peek_version(&v2), Some(2));
        assert!(v2.len() < view.len() && view.len() < v1.len());
        assert_eq!(
            cache.load(key).expect("upgraded entry loads").trace,
            hit.trace
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = TraceCache::open(temp_dir("corrupt")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(7, &trace, t_app, &[]).unwrap();

        // Truncated binary trace (the frame checksum catches it).
        std::fs::write(cache.stbs_path(7), b"STBS-but-not-really").unwrap();
        assert!(cache.load(7).is_none());

        // Valid traces, mangled sidecar.
        cache.store(7, &trace, t_app, &[]).unwrap();
        std::fs::write(cache.meta_path(7), "t_app_ns=notanumber\n").unwrap();
        assert!(cache.load(7).is_none());

        // Valid traces, missing sidecar.
        cache.store(7, &trace, t_app, &[]).unwrap();
        std::fs::remove_file(cache.meta_path(7)).unwrap();
        assert!(cache.load(7).is_none());

        // Legacy path (no binary): garbage text is a miss.
        cache.store(7, &trace, t_app, &[]).unwrap();
        std::fs::remove_file(cache.stbs_path(7)).unwrap();
        std::fs::write(cache.trace_path(7), "nranks 4\ngarbage").unwrap();
        assert!(cache.load(7).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn single_flipped_byte_is_detected() {
        let cache = TraceCache::open(temp_dir("bitflip")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(9, &trace, t_app, &[]).unwrap();
        // Flip one byte mid-payload in the authoritative binary: only the
        // checksum can tell it is not the trace that was stored.
        let mut bytes = std::fs::read(cache.stbs_path(9)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(cache.stbs_path(9), &bytes).unwrap();
        assert!(cache.load(9).is_none(), "corrupt entry must not load");

        // Same property on the legacy text-only path: flip a numeric digit
        // (still parses as a trace, so only the sidecar hash catches it).
        cache.store(9, &trace, t_app, &[]).unwrap();
        std::fs::remove_file(cache.stbs_path(9)).unwrap();
        let mut bytes = std::fs::read(cache.trace_path(9)).unwrap();
        let pos = bytes
            .iter()
            .position(|b| b.is_ascii_digit())
            .expect("traces contain numbers");
        bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
        std::fs::write(cache.trace_path(9), &bytes).unwrap();
        assert!(cache.load(9).is_none(), "corrupt entry must not load");
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
        let a = std::fs::read(cache.stbs_path(1)).unwrap();
        let b = std::fs::read(cache.stbs_path(2)).unwrap();
        std::fs::write(cache.stbs_path(1), &b).unwrap();
        std::fs::write(cache.stbs_path(2), &a).unwrap();
        assert!(cache.load(1).is_none(), "swapped binary must not load");
        assert!(cache.load(2).is_none(), "swapped binary must not load");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn legacy_text_only_entries_still_load() {
        let cache = TraceCache::open(temp_dir("legacy-load")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(4, &trace, t_app, &[]).unwrap();
        // Simulate an entry written before the binary format existed.
        std::fs::remove_file(cache.stbs_path(4)).unwrap();
        let meta = std::fs::read_to_string(cache.meta_path(4)).unwrap();
        let stripped: String = meta
            .lines()
            .filter(|l| !l.starts_with("stbs_fnv=") && !l.starts_with("format="))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(cache.meta_path(4), stripped).unwrap();
        let hit = cache.load(4).expect("legacy entry loads");
        assert_eq!(hit.t_app, t_app);
        scalatrace::semantically_equal(&trace, &hit.trace).unwrap();
        let report = cache.fsck().unwrap();
        assert!(report.clean(), "{report}");
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
        for entry in std::fs::read_dir(cache.dir()).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
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
        let mut bytes = std::fs::read(cache.trace_path(2)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(cache.trace_path(2), &bytes).unwrap();
        std::fs::remove_file(cache.trace_path(3)).unwrap();
        std::fs::write(cache.dir().join("0000.st.12345.tmp"), "partial").unwrap();

        let report = cache.fsck().unwrap();
        assert!(!report.clean());
        assert_eq!(report.ok, 1);
        assert_eq!(report.tmp_removed, 1);
        let keys: Vec<&str> = report.quarantined.iter().map(|q| q.key.as_str()).collect();
        assert_eq!(keys, vec![hash::hex(2).as_str(), hash::hex(3).as_str()]);
        assert!(report.quarantined[0].reason.contains("checksum"));

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
        // Entry 2: flip one byte mid-payload in the binary. The text view
        // and its checksum stay pristine, so only the binary checks see it.
        let mut bytes = std::fs::read(cache.stbs_path(2)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(cache.stbs_path(2), &bytes).unwrap();
        // Entry 3: text view drifts from the binary (both individually
        // checksum-clean — regenerate the sidecar to match the new text).
        let mut other = trace.clone();
        other.nodes.truncate(other.nodes.len().saturating_sub(1));
        let drifted = scalatrace::text::to_text(&other);
        std::fs::write(cache.trace_path(3), &drifted).unwrap();
        let meta = std::fs::read_to_string(cache.meta_path(3)).unwrap();
        let patched: String = meta
            .lines()
            .map(|l| {
                if l.starts_with("trace_fnv=") {
                    format!("trace_fnv={}\n", hash::hex(hash::fnv1a(drifted.as_bytes())))
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(cache.meta_path(3), patched).unwrap();

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
        assert!(report.quarantined[1].reason.contains("disagrees"));
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
        // A sidecar from before checksums (or hand-edited) must not load.
        let cache = TraceCache::open(temp_dir("legacy")).unwrap();
        let (trace, t_app) = sample_trace();
        cache.store(5, &trace, t_app, &[]).unwrap();
        let meta = std::fs::read_to_string(cache.meta_path(5)).unwrap();
        let stripped: String = meta
            .lines()
            .filter(|l| !l.starts_with("trace_fnv="))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(cache.meta_path(5), stripped).unwrap();
        assert!(cache.load(5).is_none());
        let report = cache.fsck().unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].reason.contains("trace_fnv"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
