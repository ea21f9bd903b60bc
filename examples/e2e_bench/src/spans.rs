//! In-memory spans around each call into a layer's public functions.
//!
//! The benchmark times the layers from outside: nothing under `src/` or
//! `crates/` is instrumented. A span is `{name, start_ns, end_ns, parent,
//! job}`; spans of one job (one cell visit, one request) share `job`. They
//! stay in memory while the run measures and are written out as JSON lines
//! when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<u32>,
    pub job: u32,
}

/// One driver thread's spans. Every thread shares the epoch, so logs from
/// several threads line up on one time axis.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    job: u32,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Spans opened from now on belong to `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Nanoseconds since the epoch every log of the run shares.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children are clipped to the parent and
/// overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Write every log as JSON lines: one span per line, `thread` telling the
/// logs apart and `id`/`parent` local to a thread.
pub fn write_jsonl(path: &Path, logs: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, log) in logs.iter().enumerate() {
        for (id, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
    }
    out.flush()
}
