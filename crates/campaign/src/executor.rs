//! Fault-isolated parallel fleet executor.
//!
//! `run_fleet` drains a job list on a fixed pool of scoped worker threads
//! (std-only). Every attempt of a job runs on the worker that took the
//! job, and two failure domains are isolated per job:
//!
//! * **Panics** — each attempt runs under `catch_unwind` ([`isolate`]); a
//!   panicking job becomes a `Failed` outcome and the fleet carries on.
//! * **Transient errors** — a job may ask for a retry (`JobError::transient`);
//!   retries are capped and spaced with exponential backoff.
//!
//! A job's cost is bounded where it is spent, not here: every simulated
//! world runs under [`benchgen::OP_BUDGET`], and exceeding it is a
//! deterministic error the job returns like any other.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fleet-level execution knobs.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Retry budget for transient failures (0 = no retries).
    pub retries: u32,
    /// Base backoff delay; attempt `k` waits `backoff * 2^(k-1)`, capped.
    pub backoff: Duration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: Duration,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            workers: 4,
            retries: 1,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// Why an attempt failed — recorded in [`Outcome::Failed`] and surfaced in
/// telemetry so a log reader can separate crashes from give-ups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// The attempt panicked and was caught at the isolation boundary.
    Panic,
    /// The job reported a transient error (and the retry budget ran out).
    Transient,
    /// The job reported a permanent error.
    Fatal,
}

impl FailureCause {
    /// Stable lower-case label for logs and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            FailureCause::Panic => "panic",
            FailureCause::Transient => "transient",
            FailureCause::Fatal => "error",
        }
    }
}

/// A job-level error. `transient: true` requests a retry (within budget);
/// `transient: false` fails the job immediately.
#[derive(Clone, Debug)]
pub struct JobError {
    /// Human-readable description.
    pub message: String,
    /// May a retry succeed?
    pub transient: bool,
    /// Failure classification for diagnostics.
    pub cause: FailureCause,
}

impl JobError {
    /// A retryable error.
    pub fn transient(message: impl Into<String>) -> JobError {
        JobError {
            message: message.into(),
            transient: true,
            cause: FailureCause::Transient,
        }
    }

    /// A permanent error.
    pub fn fatal(message: impl Into<String>) -> JobError {
        JobError {
            message: message.into(),
            transient: false,
            cause: FailureCause::Fatal,
        }
    }
}

/// The isolation boundary every job body runs behind, here and in the
/// server: a panic inside `f` becomes a [`FailureCause::Panic`] error
/// whose message is `panic: <payload>`, never an unwinding worker.
pub fn isolate<T>(f: impl FnOnce() -> Result<T, JobError>) -> Result<T, JobError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>");
        Err(JobError {
            message: format!("panic: {what}"),
            transient: false,
            cause: FailureCause::Panic,
        })
    })
}

/// Capped exponential backoff: the wait before attempt `attempt + 1` is
/// `base * 2^(attempt - 1)`, at most `cap`. Attempts count from 1.
pub fn backoff_delay(base: Duration, attempt: u32, cap: Duration) -> Duration {
    let doublings = attempt.saturating_sub(1).min(31);
    base.saturating_mul(1 << doublings).min(cap)
}

/// Final disposition of one job.
#[derive(Clone, Debug)]
pub enum Outcome<R> {
    /// The job succeeded.
    Done(R),
    /// The job failed (panic or returned error) after `attempts` attempts.
    Failed {
        /// Last error message.
        error: String,
        /// Attempts consumed.
        attempts: u32,
        /// What kind of failure ended the job.
        cause: FailureCause,
    },
}

/// Progress notifications, delivered from worker threads as they happen.
#[derive(Debug)]
pub enum ExecEvent<'a, R> {
    /// An attempt is starting.
    Started {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A transient failure; the job will be retried after `delay`.
    Retried {
        /// The attempt that failed.
        attempt: u32,
        /// The transient error.
        error: &'a str,
        /// Backoff before the next attempt.
        delay: Duration,
    },
    /// The job reached a final outcome.
    Finished {
        /// The outcome (also returned from `run_fleet`).
        outcome: &'a Outcome<R>,
        /// Wall-clock time the job occupied a worker, including retries.
        wall: Duration,
    },
}

/// Execute `jobs` with `work` on a worker pool, reporting progress through
/// `observe` (called from worker threads; index identifies the job). The
/// returned outcomes are index-aligned with `jobs`.
pub fn run_fleet<J, R, W, O>(
    jobs: Vec<J>,
    opts: &FleetOptions,
    work: W,
    observe: O,
) -> Vec<Outcome<R>>
where
    J: Sync,
    R: Send,
    W: Fn(&J, u32) -> Result<R, JobError> + Sync,
    O: Fn(usize, ExecEvent<'_, R>) + Sync,
{
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let (jobs, work, observe) = (&jobs, &work, &observe);
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Outcome<R>>>> = (0..total).map(|_| Mutex::new(None)).collect();

    let workers = opts.workers.clamp(1, total);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    return;
                }
                let job_start = Instant::now();
                let mut attempt = 1u32;
                let outcome = loop {
                    observe(index, ExecEvent::Started { attempt });
                    match isolate(|| work(&jobs[index], attempt)) {
                        Ok(r) => break Outcome::Done(r),
                        Err(e) if e.transient && attempt <= opts.retries => {
                            let delay = backoff_delay(opts.backoff, attempt, opts.backoff_cap);
                            observe(
                                index,
                                ExecEvent::Retried {
                                    attempt,
                                    error: &e.message,
                                    delay,
                                },
                            );
                            std::thread::sleep(delay);
                            attempt += 1;
                        }
                        Err(e) => {
                            break Outcome::Failed {
                                error: e.message,
                                attempts: attempt,
                                cause: e.cause,
                            }
                        }
                    }
                };
                observe(
                    index,
                    ExecEvent::Finished {
                        outcome: &outcome,
                        wall: job_start.elapsed(),
                    },
                );
                *results[index].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without recording an outcome")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn opts() -> FleetOptions {
        FleetOptions {
            workers: 3,
            retries: 2,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        }
    }

    #[test]
    fn runs_all_jobs_and_aligns_results() {
        let jobs: Vec<u32> = (0..20).collect();
        let out = run_fleet(jobs, &opts(), |&j, _| Ok::<_, JobError>(j * 2), |_, _| {});
        assert_eq!(out.len(), 20);
        for (i, o) in out.iter().enumerate() {
            match o {
                Outcome::Done(v) => assert_eq!(*v as usize, i * 2),
                other => panic!("job {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_panicking_job_does_not_sink_the_fleet() {
        let jobs = vec!["ok", "boom", "ok"];
        let out = run_fleet(
            jobs,
            &opts(),
            |&j, _| {
                if j == "boom" {
                    panic!("injected failure");
                }
                Ok::<_, JobError>(j.len())
            },
            |_, _| {},
        );
        assert!(matches!(out[0], Outcome::Done(2)));
        match &out[1] {
            Outcome::Failed {
                error,
                attempts,
                cause,
            } => {
                assert!(error.contains("injected failure"), "{error}");
                assert_eq!(*attempts, 1, "panics are not retried");
                assert_eq!(*cause, FailureCause::Panic);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(out[2], Outcome::Done(2)));
    }

    #[test]
    fn transient_errors_retry_with_backoff_then_succeed() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let events = Mutex::new(Vec::new());
        let out = run_fleet(
            vec![()],
            &opts(),
            |_, attempt| {
                CALLS.fetch_add(1, Ordering::Relaxed);
                if attempt < 3 {
                    Err(JobError::transient(format!("flaky on attempt {attempt}")))
                } else {
                    Ok(attempt)
                }
            },
            |_, ev| {
                if let ExecEvent::Retried { attempt, delay, .. } = ev {
                    events.lock().unwrap().push((attempt, delay));
                }
            },
        );
        assert!(matches!(out[0], Outcome::Done(3)));
        assert_eq!(CALLS.load(Ordering::Relaxed), 3);
        let retries = events.into_inner().unwrap();
        assert_eq!(retries.len(), 2);
        assert!(retries[1].1 >= retries[0].1, "backoff grows");
    }

    #[test]
    fn backoff_delay_doubles_from_the_base_and_never_overflows() {
        let (base, cap) = (Duration::from_millis(100), Duration::from_secs(5));
        assert_eq!(backoff_delay(base, 1, cap), base);
        assert_eq!(backoff_delay(base, 2, cap), 2 * base);
        assert_eq!(backoff_delay(base, 17, cap), cap);
        assert_eq!(backoff_delay(base, 64, cap), cap);
        // Uncapped, attempt 17 is the 16th doubling; attempt 0 is attempt 1.
        assert_eq!(backoff_delay(base, 17, Duration::MAX), base * (1 << 16));
        assert_eq!(backoff_delay(base, 0, cap), base);
    }

    #[test]
    fn transient_errors_exhaust_the_retry_budget() {
        let out = run_fleet(
            vec![()],
            &opts(),
            |_, _| Err::<(), _>(JobError::transient("always flaky")),
            |_, _| {},
        );
        match &out[0] {
            Outcome::Failed {
                error,
                attempts,
                cause,
            } => {
                assert!(error.contains("always flaky"));
                assert_eq!(*attempts, 3, "initial attempt + 2 retries");
                assert_eq!(*cause, FailureCause::Transient);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let out = run_fleet(
            vec![()],
            &opts(),
            |_, _| Err::<(), _>(JobError::fatal("no point")),
            |_, _| {},
        );
        match &out[0] {
            Outcome::Failed {
                attempts, cause, ..
            } => {
                assert_eq!(*attempts, 1);
                assert_eq!(*cause, FailureCause::Fatal);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn every_attempt_of_a_job_runs_on_the_worker_that_took_it() {
        // Each job fails transiently twice, recording the thread of every
        // attempt: all three attempts share one thread, and it is one of
        // the fleet's own workers, never a thread spawned per attempt.
        let threads = Mutex::new(vec![Vec::new(); 6]);
        let out = run_fleet(
            (0..6usize).collect(),
            &opts(),
            |&j, attempt| {
                threads.lock().unwrap()[j].push(std::thread::current().id());
                if attempt < 3 {
                    Err(JobError::transient("again"))
                } else {
                    Ok(j)
                }
            },
            |_, _| {},
        );
        assert!(out.iter().all(|o| matches!(o, Outcome::Done(_))));
        let threads = threads.into_inner().unwrap();
        let mut workers = std::collections::BTreeSet::new();
        for (j, ids) in threads.iter().enumerate() {
            assert_eq!(ids.len(), 3, "job {j}");
            assert!(ids.iter().all(|id| *id == ids[0]), "job {j}: {ids:?}");
            workers.insert(format!("{:?}", ids[0]));
        }
        assert!(workers.len() <= opts().workers, "{workers:?}");
    }

    #[test]
    fn finished_events_fire_for_every_job() {
        let finished = AtomicU32::new(0);
        let out = run_fleet(
            (0..10u32).collect(),
            &opts(),
            |&j, _| {
                if j % 3 == 0 {
                    panic!("boom {j}");
                }
                Ok(j)
            },
            |_, ev| {
                if matches!(ev, ExecEvent::Finished { .. }) {
                    finished.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(out.len(), 10);
        assert_eq!(finished.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn empty_fleet_is_a_noop() {
        let out = run_fleet(
            Vec::<()>::new(),
            &opts(),
            |_, _| Ok::<_, JobError>(()),
            |_, _| {},
        );
        assert!(out.is_empty());
    }
}
