//! The fleet coordinator: lease-based distribution of queued jobs to
//! standalone worker processes, with crash-safe reassignment.
//!
//! ## Lease state machine
//!
//! A queued job handed to a worker becomes a *lease*: a unique id, the
//! worker's name, and a monotonic (`Instant`-based) deadline. Heartbeats
//! renew the deadline; a missed deadline — or the worker's connection
//! dropping — expires the lease and sends the job to a backoff pen, from
//! which it is reassigned to the next worker that asks (capped
//! exponential backoff plus jitter, so a flapping worker cannot make the
//! coordinator hot-loop a doomed job). Every transition is journaled
//! (`event: "lease"`, `op: granted|renewed|expired|reassigned|completed|
//! failed|discarded|quarantined`) *before* it takes effect, so a
//! `kill -9` of the coordinator replays to a consistent per-job health
//! state: leases themselves die with the process (their connections are
//! gone), but the count of workers a job has killed survives restart and
//! keeps counting toward quarantine.
//!
//! ## Poison quarantine
//!
//! A job that kills [`FleetConfig::poison_threshold`] *distinct* workers
//! is quarantined — failed with a diagnostic instead of reassigned — on
//! the theory that the job, not the fleet, is at fault. Deterministic
//! failures a worker *reports* (`job_fail` with `transient: false`) fail
//! immediately, reusing `campaign::journal`'s classification: only
//! transient causes earn a rerun.
//!
//! ## Why completions stay idempotent
//!
//! Lease ids are namespaced by coordinator pid and never reused, and a
//! completion is accepted only while its exact lease is live. A worker
//! that lost its lease (expiry, reassignment, coordinator restart) gets
//! `accepted: false` and its artifacts are discarded — the job either
//! already finished elsewhere (same content-hashed id, same bytes) or is
//! owned by a newer lease.

use crate::queue::QueuedJob;
use campaign::executor::backoff_delay;
use campaign::telemetry::Telemetry;
use protocol::json::Json;
use protocol::FleetStats;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fleet tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// How long a lease stays valid without a heartbeat.
    pub lease_ttl: Duration,
    /// Base reassignment delay after a worker death.
    pub reassign_backoff: Duration,
    /// Reassignment delay cap.
    pub backoff_cap: Duration,
    /// Quarantine a job once this many distinct workers died holding it.
    pub poison_threshold: u32,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            lease_ttl: Duration::from_secs(10),
            reassign_backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            poison_threshold: 3,
        }
    }
}

struct WorkerInfo {
    last_seen: Instant,
    connected: bool,
    held: BTreeSet<String>,
}

struct Lease {
    job: QueuedJob,
    worker: String,
    deadline: Instant,
}

/// Per-job failure budget. Lives while the job is non-terminal and
/// survives coordinator restart via journal replay.
#[derive(Default)]
struct Health {
    /// Distinct workers that died (or vanished) while holding this job.
    killers: BTreeSet<String>,
    /// Grant attempts so far (drives the backoff exponent).
    attempts: u64,
}

struct PenEntry {
    due: Instant,
    job: QueuedJob,
}

#[derive(Default)]
struct FleetCounters {
    granted: u64,
    renewed: u64,
    expired: u64,
    reassigned: u64,
    quarantined: u64,
    discarded: u64,
}

#[derive(Default)]
struct Inner {
    workers: BTreeMap<String, WorkerInfo>,
    leases: BTreeMap<String, Lease>,
    health: BTreeMap<String, Health>,
    pen: Vec<PenEntry>,
    next_lease: u64,
    rng: u64,
    counters: FleetCounters,
}

/// Jobs the server must act on after a [`Fleet::tick`] or
/// [`Fleet::disconnect`]: requeue these, quarantine those.
#[derive(Default)]
pub struct Actions {
    /// Matured reassignments: put back at the queue head (their admission
    /// slots are still held).
    pub requeue: Vec<QueuedJob>,
    /// Poison jobs: fail with the given diagnostic instead of rerunning.
    pub quarantine: Vec<(QueuedJob, String)>,
}

impl Actions {
    fn is_empty(&self) -> bool {
        self.requeue.is_empty() && self.quarantine.is_empty()
    }
}

/// Verdict on a worker's `job_complete`.
pub enum Completion {
    /// The lease was live: commit the result. `client` owns the admission
    /// slot to release.
    Accepted { client: String },
    /// No such live lease: the result is discarded idempotently.
    Stale { reason: &'static str },
}

/// Verdict on a worker's `job_fail`.
pub enum FailVerdict {
    /// Deterministic failure: record it, job is done failing.
    Fatal { client: String },
    /// Transient failure: the job is penned and will be reassigned.
    Retry { delay: Duration },
    /// No such live lease: ignored.
    Stale { reason: &'static str },
}

/// The coordinator's lease table. All methods take `now` explicitly so
/// tests drive time without sleeping.
pub struct Fleet {
    cfg: FleetConfig,
    inner: Mutex<Inner>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(cfg: FleetConfig) -> Fleet {
        Fleet {
            cfg,
            inner: Mutex::new(Inner {
                rng: 0x9e3779b97f4a7c15 ^ u64::from(std::process::id()),
                ..Inner::default()
            }),
        }
    }

    /// The configured lease TTL (sent to workers in `worker_ok`).
    pub fn lease_ttl(&self) -> Duration {
        self.cfg.lease_ttl
    }

    /// Register (or refresh) a worker.
    pub fn register(&self, worker: &str, now: Instant) {
        let mut inner = crate::sync::lock(&self.inner);
        let info = inner
            .workers
            .entry(worker.to_string())
            .or_insert(WorkerInfo {
                last_seen: now,
                connected: true,
                held: BTreeSet::new(),
            });
        info.last_seen = now;
        info.connected = true;
    }

    /// Grant a lease on `job` to `worker`. The caller has already claimed
    /// the job (queue pop + table Queued→Running).
    pub fn grant(
        &self,
        worker: &str,
        job: QueuedJob,
        now: Instant,
        journal: &Telemetry,
    ) -> (String, Duration) {
        let mut inner = crate::sync::lock(&self.inner);
        inner.next_lease += 1;
        let lease = format!("lease.{}.{}", std::process::id(), inner.next_lease);
        let attempt = {
            let health = inner.health.entry(job.id.clone()).or_default();
            health.attempts += 1;
            health.attempts
        };
        journal_lease(journal, "granted", &lease, &job.id, worker, attempt, None);
        if let Some(info) = inner.workers.get_mut(worker) {
            info.last_seen = now;
            info.held.insert(lease.clone());
        }
        inner.leases.insert(
            lease.clone(),
            Lease {
                job,
                worker: worker.to_string(),
                deadline: now + self.cfg.lease_ttl,
            },
        );
        inner.counters.granted += 1;
        (lease, self.cfg.lease_ttl)
    }

    /// Process a heartbeat: refresh the worker, renew the leases it still
    /// holds, and return the ids in `held` that are no longer its —
    /// expired or reassigned — so the worker can abandon them.
    pub fn heartbeat(
        &self,
        worker: &str,
        held: &[String],
        now: Instant,
        journal: &Telemetry,
    ) -> Vec<String> {
        let mut inner = crate::sync::lock(&self.inner);
        if let Some(info) = inner.workers.get_mut(worker) {
            info.last_seen = now;
            info.connected = true;
        }
        let mut lost = Vec::new();
        for id in held {
            match inner.leases.get_mut(id) {
                Some(lease) if lease.worker == worker => {
                    lease.deadline = now + self.cfg.lease_ttl;
                    let (job, attempt) = (lease.job.id.clone(), 0);
                    journal_lease(journal, "renewed", id, &job, worker, attempt, None);
                    inner.counters.renewed += 1;
                }
                _ => lost.push(id.clone()),
            }
        }
        lost
    }

    /// Judge a `job_complete`: accepted exactly when the named lease is
    /// live, held by this worker, and covers this job.
    pub fn complete(
        &self,
        worker: &str,
        lease_id: &str,
        job_id: &str,
        journal: &Telemetry,
    ) -> Completion {
        let mut inner = crate::sync::lock(&self.inner);
        let valid = matches!(
            inner.leases.get(lease_id),
            Some(l) if l.worker == worker && l.job.id == job_id
        );
        if !valid {
            inner.counters.discarded += 1;
            journal_lease(journal, "discarded", lease_id, job_id, worker, 0, None);
            return Completion::Stale {
                reason: "lease not held; result discarded",
            };
        }
        let lease = inner.leases.remove(lease_id).expect("checked above");
        if let Some(info) = inner.workers.get_mut(worker) {
            info.held.remove(lease_id);
        }
        inner.health.remove(job_id);
        journal_lease(journal, "completed", lease_id, job_id, worker, 0, None);
        Completion::Accepted {
            client: lease.job.client,
        }
    }

    /// Judge a `job_fail`. Transient causes earn a penned retry (the same
    /// classification a resumed campaign uses); anything else is a
    /// deterministic failure and sticks. A retry budget equal to the
    /// poison threshold stops a transiently-failing job from looping
    /// forever.
    pub fn fail(
        &self,
        worker: &str,
        lease_id: &str,
        job_id: &str,
        transient: bool,
        now: Instant,
        journal: &Telemetry,
    ) -> FailVerdict {
        let mut inner = crate::sync::lock(&self.inner);
        let valid = matches!(
            inner.leases.get(lease_id),
            Some(l) if l.worker == worker && l.job.id == job_id
        );
        if !valid {
            inner.counters.discarded += 1;
            journal_lease(journal, "discarded", lease_id, job_id, worker, 0, None);
            return FailVerdict::Stale {
                reason: "lease not held; failure ignored",
            };
        }
        let lease = inner.leases.remove(lease_id).expect("checked above");
        if let Some(info) = inner.workers.get_mut(worker) {
            info.held.remove(lease_id);
        }
        // Reuse the campaign journal's deterministic-vs-transient rule.
        let record = failure_record(if transient { "transient" } else { "error" });
        let rerun = record.action() == campaign::journal::ResumeAction::Rerun;
        let attempts = inner.health.get(job_id).map_or(0, |h| h.attempts);
        if !rerun || attempts >= u64::from(self.cfg.poison_threshold) {
            inner.health.remove(job_id);
            journal_lease(journal, "failed", lease_id, job_id, worker, attempts, None);
            return FailVerdict::Fatal {
                client: lease.job.client,
            };
        }
        let delay = self.backoff(&mut inner, attempts);
        journal_lease(
            journal,
            "expired",
            lease_id,
            job_id,
            worker,
            attempts,
            Some("transient"),
        );
        inner.counters.expired += 1;
        inner.pen.push(PenEntry {
            due: now + delay,
            job: lease.job,
        });
        FailVerdict::Retry { delay }
    }

    /// Advance time: expire leases past their deadline, release matured
    /// pen entries for requeue, quarantine poison jobs.
    pub fn tick(&self, now: Instant, journal: &Telemetry) -> Actions {
        let mut inner = crate::sync::lock(&self.inner);
        let overdue: Vec<String> = inner
            .leases
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(id, _)| id.clone())
            .collect();
        let mut actions = Actions::default();
        for id in overdue {
            self.expire(&mut inner, &id, "lease-timeout", now, journal, &mut actions);
        }
        let mut due = Vec::new();
        inner.pen.retain_mut(|entry| {
            if entry.due <= now {
                due.push(std::mem::replace(
                    &mut entry.job,
                    QueuedJob {
                        id: String::new(),
                        client: String::new(),
                    },
                ));
                false
            } else {
                true
            }
        });
        for job in due {
            let attempt = inner.health.get(&job.id).map_or(0, |h| h.attempts);
            journal_lease(journal, "reassigned", "-", &job.id, "-", attempt, None);
            inner.counters.reassigned += 1;
            actions.requeue.push(job);
        }
        if !actions.is_empty() {
            journal.flush();
        }
        actions
    }

    /// A worker's connection dropped: expire everything it holds right
    /// away (the fast path the heartbeat timeout backstops).
    pub fn disconnect(&self, worker: &str, now: Instant, journal: &Telemetry) -> Actions {
        let mut inner = crate::sync::lock(&self.inner);
        let mut actions = Actions::default();
        let held: Vec<String> = inner
            .workers
            .get_mut(worker)
            .map(|info| {
                info.connected = false;
                info.held.iter().cloned().collect()
            })
            .unwrap_or_default();
        for id in held {
            self.expire(&mut inner, &id, "disconnect", now, journal, &mut actions);
        }
        if !actions.is_empty() {
            journal.flush();
        }
        actions
    }

    /// Shared expiry path: account the death, then pen or quarantine.
    fn expire(
        &self,
        inner: &mut Inner,
        lease_id: &str,
        cause: &'static str,
        now: Instant,
        journal: &Telemetry,
        actions: &mut Actions,
    ) {
        let Some(lease) = inner.leases.remove(lease_id) else {
            return;
        };
        if let Some(info) = inner.workers.get_mut(&lease.worker) {
            info.held.remove(lease_id);
        }
        inner.counters.expired += 1;
        let (deaths, attempts) = {
            let health = inner.health.entry(lease.job.id.clone()).or_default();
            health.killers.insert(lease.worker.clone());
            (health.killers.len() as u32, health.attempts)
        };
        journal_lease(
            journal,
            "expired",
            lease_id,
            &lease.job.id,
            &lease.worker,
            attempts,
            Some(cause),
        );
        if deaths >= self.cfg.poison_threshold {
            inner.health.remove(&lease.job.id);
            inner.counters.quarantined += 1;
            journal_lease(
                journal,
                "quarantined",
                lease_id,
                &lease.job.id,
                &lease.worker,
                attempts,
                Some(cause),
            );
            let reason = format!(
                "quarantined: job killed {deaths} distinct workers (last: {} via {cause})",
                lease.worker
            );
            actions.quarantine.push((lease.job, reason));
        } else {
            let delay = self.backoff(inner, attempts);
            inner.pen.push(PenEntry {
                due: now + delay,
                job: lease.job,
            });
        }
    }

    /// Capped exponential backoff with jitter: `base * 2^(attempt-1)`,
    /// capped, plus up to 25% random extra so simultaneous deaths don't
    /// reassign in lockstep.
    fn backoff(&self, inner: &mut Inner, attempt: u64) -> Duration {
        let base = self.cfg.reassign_backoff.max(Duration::from_millis(1));
        let attempt = u32::try_from(attempt).unwrap_or(u32::MAX);
        let raw = backoff_delay(base, attempt, self.cfg.backoff_cap);
        // xorshift64: deterministic per-process jitter without a clock.
        inner.rng ^= inner.rng << 13;
        inner.rng ^= inner.rng >> 7;
        inner.rng ^= inner.rng << 17;
        let jitter_ns = (raw.as_nanos() as u64 / 4).max(1);
        raw + Duration::from_nanos(inner.rng % jitter_ns)
    }

    /// Work the fleet still owes the queue: live leases plus penned
    /// reassignments. Shutdown drains until this reaches zero.
    pub fn outstanding(&self) -> usize {
        let inner = crate::sync::lock(&self.inner);
        inner.leases.len() + inner.pen.len()
    }

    /// Counters for the `stats` response.
    pub fn snapshot(&self, now: Instant) -> FleetStats {
        let inner = crate::sync::lock(&self.inner);
        FleetStats {
            workers_seen: inner.workers.len() as u64,
            // Connected, or heard from within two TTLs.
            workers_live: inner
                .workers
                .values()
                .filter(|w| {
                    w.connected
                        || now.saturating_duration_since(w.last_seen) < 2 * self.cfg.lease_ttl
                })
                .count() as u64,
            leases_granted: inner.counters.granted,
            leases_renewed: inner.counters.renewed,
            leases_expired: inner.counters.expired,
            leases_reassigned: inner.counters.reassigned,
            jobs_quarantined: inner.counters.quarantined,
            completions_discarded: inner.counters.discarded,
        }
    }

    /// Replay one journaled `lease` event (decoded by the campaign
    /// journal's reader) during coordinator restart.
    /// Leases themselves died with the old process — only per-job failure
    /// budgets are rebuilt, so a job that killed workers before the crash
    /// keeps counting toward quarantine after it.
    pub fn replay(&self, event: &Json) {
        let field = |k| event.get(k).and_then(Json::as_str);
        let (Some(op), Some(job)) = (field("op"), field("job")) else {
            return;
        };
        let attempt = event.get("attempt").and_then(Json::as_u64);
        let mut inner = crate::sync::lock(&self.inner);
        match op.as_str() {
            "expired" => {
                let health = inner.health.entry(job.clone()).or_default();
                if let Some(worker) = field("worker") {
                    health.killers.insert(worker.clone());
                }
                if let Some(att) = attempt {
                    health.attempts = health.attempts.max(att);
                }
            }
            "granted" => {
                if let Some(att) = attempt {
                    let health = inner.health.entry(job.clone()).or_default();
                    health.attempts = health.attempts.max(att);
                }
            }
            // Terminal ops clear the budget: the job's outcome is decided
            // (and `finished` replay serves it), so stale health must not
            // poison an unrelated future resubmission.
            "completed" | "failed" | "quarantined" => {
                inner.health.remove(job);
            }
            _ => {}
        }
    }

    /// Health budget already charged against `job` (for tests and
    /// diagnostics).
    #[cfg(test)]
    fn deaths(&self, job: &str) -> u32 {
        let inner = crate::sync::lock(&self.inner);
        inner.health.get(job).map_or(0, |h| h.killers.len() as u32)
    }
}

fn journal_lease(
    journal: &Telemetry,
    op: &str,
    lease: &str,
    job: &str,
    worker: &str,
    attempt: u64,
    cause: Option<&str>,
) {
    let mut fields: Vec<(&str, Json)> = vec![
        ("op", op.into()),
        ("lease", lease.into()),
        ("job", job.into()),
        ("worker", worker.into()),
        ("attempt", attempt.into()),
    ];
    if let Some(c) = cause {
        fields.push(("cause", c.into()));
    }
    journal.emit("lease", &fields);
}

/// A synthetic `JobRecord` carrying just the failure cause, so the fleet
/// asks the exact same question a resumed campaign asks.
fn failure_record(cause: &str) -> campaign::journal::JobRecord {
    campaign::journal::JobRecord {
        status: "failed".to_string(),
        fields: Json::Obj(vec![("cause".to_string(), cause.into())]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str) -> QueuedJob {
        QueuedJob {
            id: id.to_string(),
            client: "c".to_string(),
        }
    }

    fn fleet(ttl_ms: u64, poison: u32) -> Fleet {
        Fleet::new(FleetConfig {
            lease_ttl: Duration::from_millis(ttl_ms),
            reassign_backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            poison_threshold: poison,
        })
    }

    #[test]
    fn grant_heartbeat_complete_is_the_happy_path() {
        let f = fleet(100, 3);
        let t0 = Instant::now();
        let sink = Telemetry::sink();
        f.register("w1", t0);
        assert_eq!(f.snapshot(t0).workers_live, 1);
        let (lease, ttl) = f.grant("w1", job("j1"), t0, &sink);
        assert_eq!(ttl, Duration::from_millis(100));
        assert_eq!(f.outstanding(), 1);
        // Renewal pushes the deadline: at t0+150 the lease is still live
        // because it was renewed at t0+80.
        let lost = f.heartbeat(
            "w1",
            std::slice::from_ref(&lease),
            t0 + Duration::from_millis(80),
            &sink,
        );
        assert!(lost.is_empty());
        let actions = f.tick(t0 + Duration::from_millis(150), &sink);
        assert!(actions.requeue.is_empty() && actions.quarantine.is_empty());
        match f.complete("w1", &lease, "j1", &sink) {
            Completion::Accepted { client } => assert_eq!(client, "c"),
            Completion::Stale { .. } => panic!("live lease must be accepted"),
        }
        assert_eq!(f.outstanding(), 0);
        let snap = f.snapshot(t0);
        assert_eq!(snap.leases_granted, 1);
        assert_eq!(snap.leases_renewed, 1);
        assert_eq!(snap.completions_discarded, 0);
    }

    #[test]
    fn missed_heartbeats_expire_and_reassign_with_backoff() {
        let f = fleet(100, 3);
        let t0 = Instant::now();
        let sink = Telemetry::sink();
        f.register("w1", t0);
        let (lease, _) = f.grant("w1", job("j1"), t0, &sink);
        // Deadline passes with no heartbeat: expired, penned with backoff
        // — not requeued in the same tick.
        let t1 = t0 + Duration::from_millis(101);
        let actions = f.tick(t1, &sink);
        assert!(actions.requeue.is_empty(), "backoff delays the requeue");
        assert_eq!(f.snapshot(t1).leases_expired, 1);
        // Once the pen matures the job comes back for reassignment.
        let t2 = t1 + Duration::from_millis(200);
        let actions = f.tick(t2, &sink);
        assert_eq!(actions.requeue.len(), 1);
        assert_eq!(actions.requeue[0].id, "j1");
        assert_eq!(f.snapshot(t2).leases_reassigned, 1);
        // The dead worker's late completion is discarded idempotently.
        match f.complete("w1", &lease, "j1", &sink) {
            Completion::Stale { .. } => {}
            Completion::Accepted { .. } => panic!("expired lease must not commit"),
        }
        assert_eq!(f.snapshot(t2).completions_discarded, 1);
        // And its heartbeat learns the lease is gone.
        let lost = f.heartbeat("w1", &[lease], t2, &sink);
        assert_eq!(lost.len(), 1);
    }

    #[test]
    fn disconnect_expires_held_leases_immediately() {
        let f = fleet(10_000, 3);
        let t0 = Instant::now();
        let sink = Telemetry::sink();
        f.register("w1", t0);
        let (_lease, _) = f.grant("w1", job("j1"), t0, &sink);
        let actions = f.disconnect("w1", t0, &sink);
        // Penned, not yet requeued; worker no longer live.
        assert!(actions.quarantine.is_empty());
        assert_eq!(f.outstanding(), 1);
        assert_eq!(f.snapshot(t0 + Duration::from_secs(30)).workers_live, 0);
        assert_eq!(f.deaths("j1"), 1);
    }

    #[test]
    fn a_job_that_kills_n_distinct_workers_is_quarantined() {
        let f = fleet(100, 2);
        let t0 = Instant::now();
        let sink = Telemetry::sink();
        for w in ["w1", "w2"] {
            f.register(w, t0);
        }
        let (_l1, _) = f.grant("w1", job("j1"), t0, &sink);
        let a = f.disconnect("w1", t0, &sink);
        assert!(a.quarantine.is_empty(), "first death: reassign");
        // Drain the pen (the job requeues) before the next grant, as the
        // coordinator's monitor would.
        let t1 = t0 + Duration::from_millis(200);
        let a = f.tick(t1, &sink);
        assert_eq!(a.requeue.len(), 1);
        let (_l2, _) = f.grant("w2", job("j1"), t1, &sink);
        let a = f.disconnect("w2", t1, &sink);
        assert_eq!(a.quarantine.len(), 1, "second distinct death: poison");
        assert!(a.quarantine[0].1.contains("quarantined"));
        assert_eq!(f.snapshot(t0).jobs_quarantined, 1);
        assert_eq!(f.outstanding(), 0, "quarantined jobs leave the pen");
    }

    #[test]
    fn the_same_worker_dying_twice_counts_once() {
        let f = fleet(100, 2);
        let t0 = Instant::now();
        let sink = Telemetry::sink();
        f.register("w1", t0);
        let (_, _) = f.grant("w1", job("j1"), t0, &sink);
        f.disconnect("w1", t0, &sink);
        f.register("w1", t0);
        let (_, _) = f.grant("w1", job("j1"), t0, &sink);
        let a = f.disconnect("w1", t0, &sink);
        assert!(
            a.quarantine.is_empty(),
            "poison counts *distinct* workers; one flapping worker is its own problem"
        );
        assert_eq!(f.deaths("j1"), 1);
    }

    #[test]
    fn reported_failures_classify_like_the_campaign_journal() {
        let f = fleet(100, 3);
        let t0 = Instant::now();
        let sink = Telemetry::sink();
        f.register("w1", t0);
        let (l1, _) = f.grant("w1", job("j1"), t0, &sink);
        match f.fail("w1", &l1, "j1", false, t0, &sink) {
            FailVerdict::Fatal { client } => assert_eq!(client, "c"),
            _ => panic!("deterministic failure must be fatal"),
        }
        let (l2, _) = f.grant("w1", job("j2"), t0, &sink);
        match f.fail("w1", &l2, "j2", true, t0, &sink) {
            FailVerdict::Retry { delay } => assert!(delay >= Duration::from_millis(10)),
            _ => panic!("transient failure earns a retry"),
        }
        // Stale lease id: ignored either way.
        assert!(matches!(
            f.fail("w1", "lease.0.999", "j2", true, t0, &sink),
            FailVerdict::Stale { .. }
        ));
    }

    #[test]
    fn transient_retries_are_capped_by_the_poison_budget() {
        let f = fleet(1000, 2);
        let t0 = Instant::now();
        let sink = Telemetry::sink();
        f.register("w1", t0);
        let (l1, _) = f.grant("w1", job("j1"), t0, &sink);
        assert!(matches!(
            f.fail("w1", &l1, "j1", true, t0, &sink),
            FailVerdict::Retry { .. }
        ));
        let (l2, _) = f.grant("w1", job("j1"), t0, &sink);
        assert!(matches!(
            f.fail("w1", &l2, "j1", true, t0, &sink),
            FailVerdict::Fatal { .. },
        ));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let f = fleet(100, 10);
        let mut inner = crate::sync::lock(&f.inner);
        let d1 = f.backoff(&mut inner, 1);
        let d4 = f.backoff(&mut inner, 4);
        let d16 = f.backoff(&mut inner, 16);
        assert!(d1 >= Duration::from_millis(10) && d1 <= Duration::from_millis(13));
        assert!(d4 >= Duration::from_millis(80), "10ms * 2^3");
        assert!(
            d16 <= Duration::from_millis(101),
            "capped at 80ms + 25% jitter, got {d16:?}"
        );
    }

    #[test]
    fn journal_replay_restores_failure_budgets_not_leases() {
        let f = fleet(100, 2);
        let line = |op: &str, worker: &str| {
            Json::Obj(vec![
                ("event".to_string(), "lease".into()),
                ("op".to_string(), op.into()),
                ("job".to_string(), "j1".into()),
                ("worker".to_string(), worker.into()),
                ("attempt".to_string(), 1u64.into()),
            ])
        };
        f.replay(&line("granted", "w1"));
        f.replay(&line("expired", "w1"));
        assert_eq!(f.deaths("j1"), 1);
        assert_eq!(f.outstanding(), 0, "no lease objects resurrect");
        // One more distinct death after restart hits the threshold of 2.
        let t0 = Instant::now();
        let sink = Telemetry::sink();
        f.register("w2", t0);
        let (_l, _) = f.grant("w2", job("j1"), t0, &sink);
        let a = f.disconnect("w2", t0, &sink);
        assert_eq!(
            a.quarantine.len(),
            1,
            "poison budget survived the coordinator restart"
        );
        // A terminal op clears the budget.
        f.replay(&line("completed", "w2"));
        assert_eq!(f.deaths("j1"), 0);
    }
}
