//! Multi-tenant FIFO job queue: admission control (per-client in-flight
//! caps and token-bucket rate limits) in front of a blocking FIFO that
//! the fleet's lease requests drain.
//!
//! Admission is decided at submit time, synchronously, so a rejected
//! client gets an immediate `error` response instead of a job that later
//! dies in the queue. In-flight counts cover queued *and* running jobs and
//! are released only when the job reaches a terminal state, so a client
//! cannot amplify its share of the worker pool by submitting faster than
//! it drains.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Admission limits, applied per client identity.
#[derive(Clone, Copy, Debug)]
pub struct QueueLimits {
    /// Maximum queued + running jobs per client.
    pub max_inflight: usize,
    /// Token-bucket refill rate, submissions per second.
    pub rate_per_sec: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
}

impl Default for QueueLimits {
    fn default() -> QueueLimits {
        QueueLimits {
            max_inflight: 16,
            rate_per_sec: 50.0,
            burst: 100.0,
        }
    }
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The client's token bucket is empty.
    RateLimited,
    /// The client already has `max_inflight` jobs queued or running.
    TooManyInFlight,
}

impl Reject {
    /// Stable machine-readable code for the `error` response.
    pub fn code(&self) -> &'static str {
        match self {
            Reject::RateLimited => "rate-limited",
            Reject::TooManyInFlight => "too-many-in-flight",
        }
    }
}

/// Classic token bucket: `rate` tokens per second up to `burst`, one token
/// per submission. Time is passed in so tests don't sleep.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket.
    pub fn new(rate_per_sec: f64, burst: f64, now: Instant) -> TokenBucket {
        TokenBucket {
            tokens: burst,
            rate: rate_per_sec,
            burst,
            last: now,
        }
    }

    /// Refill for the time elapsed since the last call, then try to take
    /// one token.
    pub fn try_take(&mut self, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Outcome of a bounded pop ([`JobQueue::pop_timeout`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PopResult {
    /// A job was dequeued.
    Job(QueuedJob),
    /// The deadline passed with the FIFO still empty.
    Empty,
    /// The queue is closed and fully drained; the worker should exit.
    Closed,
}

/// One queued unit of work: the job id plus the client it accounts to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueuedJob {
    /// Job id (key into the server's job table).
    pub id: String,
    /// Submitting client.
    pub client: String,
}

#[derive(Default)]
struct Inner {
    fifo: VecDeque<QueuedJob>,
    inflight: BTreeMap<String, usize>,
    buckets: BTreeMap<String, TokenBucket>,
    closed: bool,
}

/// The shared queue: submitters push through admission control, lease
/// requests block on [`JobQueue::pop_timeout`].
pub struct JobQueue {
    limits: QueueLimits,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl JobQueue {
    /// An open queue with the given per-client limits.
    pub fn new(limits: QueueLimits) -> JobQueue {
        JobQueue {
            limits,
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
        }
    }

    /// Submit a job for `client`, checking rate and in-flight limits.
    pub fn submit(&self, client: &str, id: &str) -> Result<(), Reject> {
        self.submit_at(client, id, Instant::now())
    }

    /// [`JobQueue::submit`] with an explicit clock, for tests.
    pub fn submit_at(&self, client: &str, id: &str, now: Instant) -> Result<(), Reject> {
        let mut inner = crate::sync::lock(&self.inner);
        // Check the in-flight cap before touching the token bucket: a
        // client pinned at max_inflight must not also drain its tokens on
        // every rejected retry (it would come back rate-limited once slots
        // free up).
        if inner.inflight.get(client).copied().unwrap_or(0) >= self.limits.max_inflight {
            return Err(Reject::TooManyInFlight);
        }
        let bucket = inner
            .buckets
            .entry(client.to_string())
            .or_insert_with(|| TokenBucket::new(self.limits.rate_per_sec, self.limits.burst, now));
        if !bucket.try_take(now) {
            return Err(Reject::RateLimited);
        }
        *inner.inflight.entry(client.to_string()).or_default() += 1;
        inner.fifo.push_back(QueuedJob {
            id: id.to_string(),
            client: client.to_string(),
        });
        self.cv.notify_one();
        Ok(())
    }

    /// Take the head of the FIFO, blocking until a job arrives, the queue
    /// closes and drains, or `dur` elapses. An idle worker's
    /// `lease_request` waits here, so a job starts the moment it is
    /// queued and the wait is bounded for the worker to ask again.
    pub fn pop_timeout(&self, dur: std::time::Duration) -> PopResult {
        let deadline = Instant::now() + dur;
        let mut inner = crate::sync::lock(&self.inner);
        loop {
            if let Some(job) = inner.fifo.pop_front() {
                return PopResult::Job(job);
            }
            if inner.closed {
                return PopResult::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return PopResult::Empty;
            }
            let (guard, _timed_out) = crate::sync::wait_timeout(&self.cv, inner, deadline - now);
            inner = guard;
        }
    }

    /// Put a job back at the *front* of the FIFO without re-running
    /// admission. Used when a lease expires or a worker dies: the job was
    /// already admitted and its client's in-flight slot is still held (it
    /// is released only at a terminal state), so re-admission would
    /// double-count it — and could even bounce a legitimately-accepted
    /// job off its own rate limit. Front insertion preserves the original
    /// FIFO position as closely as possible.
    pub fn requeue(&self, job: QueuedJob) {
        let mut inner = crate::sync::lock(&self.inner);
        inner.fifo.push_front(job);
        self.cv.notify_one();
    }

    /// True once the queue is closed *and* the FIFO has drained. The
    /// shutdown path uses this together with the fleet's outstanding-lease
    /// count to decide when the daemon may exit.
    pub fn closed_and_drained(&self) -> bool {
        let inner = crate::sync::lock(&self.inner);
        inner.closed && inner.fifo.is_empty()
    }

    /// Release `client`'s in-flight slot after its job reaches a terminal
    /// state (done, failed, or cancelled).
    pub fn release(&self, client: &str) {
        let mut inner = crate::sync::lock(&self.inner);
        if let Some(n) = inner.inflight.get_mut(client) {
            *n = n.saturating_sub(1);
        }
    }

    /// Remove a still-queued job. Returns the entry if it was found (the
    /// caller releases the slot and marks the job cancelled); a job already
    /// popped by a worker cannot be cancelled.
    pub fn cancel(&self, id: &str) -> Option<QueuedJob> {
        let mut inner = crate::sync::lock(&self.inner);
        let pos = inner.fifo.iter().position(|j| j.id == id)?;
        inner.fifo.remove(pos)
    }

    /// Close the queue: already-accepted jobs still drain, new pops return
    /// [`PopResult::Closed`] once the FIFO empties, and submissions are refused by the
    /// server before they reach here.
    pub fn close(&self) {
        let mut inner = crate::sync::lock(&self.inner);
        inner.closed = true;
        self.cv.notify_all();
    }

    /// Jobs currently queued (not yet popped).
    pub fn queued(&self) -> usize {
        crate::sync::lock(&self.inner).fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// The head of the FIFO if one is ready, without waiting.
    fn pop(q: &JobQueue) -> Option<QueuedJob> {
        match q.pop_timeout(Duration::ZERO) {
            PopResult::Job(job) => Some(job),
            PopResult::Empty | PopResult::Closed => None,
        }
    }

    fn limits(max_inflight: usize, rate: f64, burst: f64) -> QueueLimits {
        QueueLimits {
            max_inflight,
            rate_per_sec: rate,
            burst,
        }
    }

    #[test]
    fn fifo_order_is_preserved_across_clients() {
        let q = JobQueue::new(QueueLimits::default());
        q.submit("a", "j1").unwrap();
        q.submit("b", "j2").unwrap();
        q.submit("a", "j3").unwrap();
        assert_eq!(pop(&q).unwrap().id, "j1");
        assert_eq!(pop(&q).unwrap().id, "j2");
        assert_eq!(pop(&q).unwrap().id, "j3");
    }

    #[test]
    fn inflight_cap_rejects_until_released() {
        let q = JobQueue::new(limits(2, 1000.0, 1000.0));
        q.submit("a", "j1").unwrap();
        q.submit("a", "j2").unwrap();
        assert_eq!(q.submit("a", "j3"), Err(Reject::TooManyInFlight));
        // Another tenant is unaffected.
        q.submit("b", "j4").unwrap();
        // A terminal job frees the slot even before being popped-and-run.
        q.release("a");
        q.submit("a", "j5").unwrap();
    }

    #[test]
    fn token_bucket_rate_limits_and_refills() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, 2.0, t0);
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst of 2 exhausted");
        // 100 ms at 10/s refills one token.
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.try_take(t1));
        assert!(!b.try_take(t1));
        // A long idle period caps at burst, not unbounded.
        let t2 = t1 + Duration::from_secs(3600);
        assert!(b.try_take(t2));
        assert!(b.try_take(t2));
        assert!(!b.try_take(t2));
    }

    #[test]
    fn inflight_rejection_does_not_consume_tokens() {
        let q = JobQueue::new(limits(1, 0.0, 2.0));
        let t0 = Instant::now();
        q.submit_at("a", "j1", t0).unwrap();
        // Pinned at max_inflight: rejected retries must not drain the
        // bucket, or the client comes back rate-limited once a slot frees.
        for _ in 0..10 {
            assert_eq!(q.submit_at("a", "j2", t0), Err(Reject::TooManyInFlight));
        }
        q.release("a");
        assert!(q.submit_at("a", "j2", t0).is_ok(), "one token must remain");
    }

    #[test]
    fn queue_rejects_rate_limited_submissions_per_client() {
        let q = JobQueue::new(limits(100, 0.0, 1.0));
        let t0 = Instant::now();
        assert!(q.submit_at("a", "j1", t0).is_ok());
        assert_eq!(q.submit_at("a", "j2", t0), Err(Reject::RateLimited));
        assert!(q.submit_at("b", "j3", t0).is_ok(), "buckets are per-client");
        assert_eq!(Reject::RateLimited.code(), "rate-limited");
        assert_eq!(Reject::TooManyInFlight.code(), "too-many-in-flight");
    }

    #[test]
    fn cancel_removes_only_queued_jobs() {
        let q = JobQueue::new(QueueLimits::default());
        q.submit("a", "j1").unwrap();
        q.submit("a", "j2").unwrap();
        let popped = pop(&q).unwrap();
        assert_eq!(popped.id, "j1");
        assert!(q.cancel("j1").is_none(), "already running");
        assert_eq!(q.cancel("j2").unwrap().client, "a");
        assert!(q.cancel("j2").is_none(), "already cancelled");
        assert_eq!(q.queued(), 0);
    }

    #[test]
    fn requeue_restores_the_fifo_head() {
        let q = JobQueue::new(QueueLimits::default());
        assert!(pop(&q).is_none());
        q.submit("a", "j1").unwrap();
        q.submit("a", "j2").unwrap();
        let j1 = pop(&q).unwrap();
        assert_eq!(j1.id, "j1");
        // A reassigned job goes back to the *front*: it was admitted
        // before j2 and must not lose its place.
        q.requeue(j1);
        assert_eq!(pop(&q).unwrap().id, "j1");
        assert_eq!(pop(&q).unwrap().id, "j2");
    }

    #[test]
    fn requeue_bypasses_admission() {
        // burst=1: the client has no tokens left after its one submit, yet
        // requeue must still succeed (the slot is already accounted for).
        let q = JobQueue::new(limits(1, 0.0, 1.0));
        let t0 = Instant::now();
        q.submit_at("a", "j1", t0).unwrap();
        let j = pop(&q).unwrap();
        q.requeue(j);
        assert_eq!(q.queued(), 1);
    }

    #[test]
    fn pop_timeout_times_out_then_sees_new_work_and_close() {
        let q = JobQueue::new(QueueLimits::default());
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), PopResult::Empty);
        q.submit("a", "j1").unwrap();
        match q.pop_timeout(Duration::from_millis(5)) {
            PopResult::Job(j) => assert_eq!(j.id, "j1"),
            other => panic!("expected job, got {other:?}"),
        }
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), PopResult::Closed);
        assert!(q.closed_and_drained());
    }

    #[test]
    fn close_drains_then_unblocks_workers() {
        let q = Arc::new(JobQueue::new(QueueLimits::default()));
        q.submit("a", "j1").unwrap();
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let PopResult::Job(job) = q.pop_timeout(Duration::from_secs(60)) {
                    seen.push(job.id);
                }
                seen
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(worker.join().unwrap(), vec!["j1"]);
    }
}
