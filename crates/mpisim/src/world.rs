//! `World`: configures and launches a simulated run.

use crate::ctx::{Ctx, SigMemo, SimAbort, WINDOW};
use crate::engine::{Engine, EngineStats, MatchPolicy};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::fiber::Fiber;
use crate::hooks::Hook;
use crate::network::{self, NetworkModel};
use crate::time::SimTime;
use crate::types::Rank;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};

/// Outcome of a successful run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// World size of the run.
    pub ranks: usize,
    /// Virtual time at which the last rank finished — the simulated
    /// application wall-clock time.
    pub total_time: SimTime,
    /// Final virtual clock of each rank.
    pub per_rank_time: Vec<SimTime>,
    /// Engine counters (messages, stalls, collectives, …).
    pub stats: EngineStats,
    /// How often a rank yielded to the engine: one per call under
    /// `op_batching(false)` (not one per op — a blocking send is two ops),
    /// about one per window otherwise. Repeats exactly for a given program
    /// and window. Kept out of `stats` because it is the one number the
    /// window is *meant* to change.
    pub crossings: u64,
    /// Name of the network model the run used.
    pub network: String,
}

/// Builder for a simulated MPI job.
///
/// ```
/// use mpisim::{network, world::World};
/// let report = World::new(2)
///     .network(network::ideal())
///     .run(|ctx| { ctx.barrier(&ctx.world()); })
///     .unwrap();
/// assert_eq!(report.ranks, 2);
/// ```
pub struct World {
    n: usize,
    model: Arc<dyn NetworkModel>,
    policy: MatchPolicy,
    faults: Option<FaultPlan>,
    op_budget: Option<u64>,
    time_budget: Option<SimTime>,
    /// Deferred-queue bound handed to every rank's [`Ctx`].
    window: usize,
}

impl World {
    /// A world of `n` ranks on the ideal (zero-cost) network.
    pub fn new(n: usize) -> World {
        assert!(n > 0, "world needs at least one rank");
        World {
            n,
            model: network::ideal(),
            policy: MatchPolicy::default(),
            faults: None,
            op_budget: None,
            time_budget: None,
            window: WINDOW,
        }
    }

    /// Select the network timing model.
    pub fn network(mut self, model: Arc<dyn NetworkModel>) -> World {
        self.model = model;
        self
    }

    /// Select the wildcard-receive matching policy (see
    /// [`MatchPolicy`]).
    pub fn match_policy(mut self, policy: MatchPolicy) -> World {
        self.policy = policy;
        self
    }

    /// Inject a fault plan. It is validated against the world size before
    /// any rank starts; an invalid plan fails the run with
    /// [`SimError::InvalidFaultPlan`].
    pub fn faults(mut self, plan: FaultPlan) -> World {
        self.faults = Some(plan);
        self
    }

    /// Cut the run off deterministically after `ops` MPI-level operations
    /// ([`SimError::BudgetExceeded`]); the virtual-time analogue of a
    /// watchdog for livelocked runs.
    pub fn op_budget(mut self, ops: u64) -> World {
        self.op_budget = Some(ops);
        self
    }

    /// Cut the run off deterministically once any rank's virtual clock
    /// passes `deadline` ([`SimError::BudgetExceeded`]).
    pub fn time_budget(mut self, deadline: SimTime) -> World {
        self.time_budget = Some(deadline);
        self
    }

    /// Choose how far a rank may run ahead of the engine (on by default).
    /// Every call whose reply the rank cannot observe — nonblocking ops,
    /// computes, blocking sends, status-ignoring receives and waits, void
    /// collectives — is deferred: its op waits in the rank's queue, and the
    /// rank yields to the engine only at the next value-returning call or
    /// when the window of deferred ops fills, to be resumed once every
    /// queued op has its reply. `true`
    /// is the production window of 128 entries; `false` is the same code
    /// with a window of one call, so a rank crosses after *every* call (a
    /// blocking send or receive still queues its two ops together). Virtual
    /// times, schedules, hook events, and reports are identical either way
    /// — the differential tests' reference; only the host-side cost of
    /// switching between rank and engine (and [`RunReport::crossings`])
    /// changes.
    pub fn op_batching(mut self, enabled: bool) -> World {
        self.window = if enabled { WINDOW } else { 1 };
        self
    }

    /// Run `body` on every rank without interposition hooks.
    pub fn run<F>(self, body: F) -> Result<RunReport, SimError>
    where
        F: Fn(&mut Ctx) + Send + Sync + 'static,
    {
        let (result, _hooks) = self.launch(|_| None::<Box<dyn Hook>>, body);
        result
    }

    /// Run `body` with a per-rank interposition [`Hook`] created by `mk`,
    /// returning the hooks afterwards (e.g. per-rank trace collectors).
    pub fn run_hooked<H, MK, F>(self, mk: MK, body: F) -> Result<(RunReport, Vec<H>), SimError>
    where
        H: Hook + 'static,
        MK: FnMut(Rank) -> H,
        F: Fn(&mut Ctx) + Send + Sync + 'static,
    {
        let (result, hooks) = self.run_hooked_partial(mk, body);
        result.map(|report| (report, hooks))
    }

    /// As [`World::run_hooked`], but the hooks are returned even when the
    /// run fails — the basis of partial tracing: when a fault plan crashes a
    /// rank ([`SimError::RankFailed`]), every rank's hook still holds what
    /// it observed up to the failure.
    pub fn run_hooked_partial<H, MK, F>(
        self,
        mk: MK,
        body: F,
    ) -> (Result<RunReport, SimError>, Vec<H>)
    where
        H: Hook + 'static,
        MK: FnMut(Rank) -> H,
        F: Fn(&mut Ctx) + Send + Sync + 'static,
    {
        let mut mk = mk;
        let (result, hooks) = self.launch(|r| Some(Box::new(mk(r)) as Box<dyn Hook>), body);
        let mut out = Vec::with_capacity(hooks.len());
        for h in hooks {
            let any: Box<dyn Any> = h;
            out.push(
                *any.downcast::<H>()
                    .expect("hook type is the one we created"),
            );
        }
        (result, out)
    }

    fn launch<F>(
        self,
        mut mk: impl FnMut(Rank) -> Option<Box<dyn Hook>>,
        body: F,
    ) -> (Result<RunReport, SimError>, Vec<Box<dyn Hook>>)
    where
        F: Fn(&mut Ctx) + Send + Sync + 'static,
    {
        install_quiet_abort_hook();
        let n = self.n;
        // Validate and install the fault plan before any rank starts.
        let plan = match &self.faults {
            Some(p) => match p.validate(n) {
                Ok(()) => Some(Arc::new(p.clone())),
                Err(e) => return (Err(SimError::InvalidFaultPlan(e.to_string())), Vec::new()),
            },
            None => None,
        };
        // Per-link skew lives in a pure network decorator, keeping
        // `NetworkModel` implementations stateless.
        let model = match &plan {
            Some(p) if p.link_skew > 0.0 => network::skewed(self.model, p.seed, p.link_skew),
            _ => self.model,
        };
        let body = Arc::new(body);
        let window = self.window;
        let sigs = SigMemo::default();
        // `MPI_COMM_WORLD`'s members, once per run: every rank's world
        // communicator and the engine's share this one list, so what a rank
        // holds does not grow with the world.
        let world: Arc<Vec<Rank>> = Arc::new((0..n).collect());
        let fibers = (0..n)
            .map(|rank| {
                let hook = mk(rank);
                let body = Arc::clone(&body);
                let sigs = sigs.clone();
                let world = Arc::clone(&world);
                Fiber::new(Default::default(), move |link| {
                    let mut ctx = Ctx::new(rank, &world, link, hook, window, sigs);
                    match panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                        Ok(()) => ctx.send_exited(),
                        Err(payload) => {
                            if !payload.is::<SimAbort>() {
                                ctx.send_panicked(panic_message(&payload));
                            }
                        }
                    }
                    ctx.finish();
                })
            })
            .collect();

        let mut engine = Engine::new(world, model.clone(), self.policy, fibers);
        if let Some(p) = plan {
            engine.set_faults(p);
        }
        engine.set_budgets(self.op_budget, self.time_budget);
        let engine_result = engine.run();

        // Two cases leave a rank suspended with replies it has not taken: an
        // `Exited` queued behind other ops, and the `Fatal` the engine gave
        // every unfinished rank when it gave up. Let each drain them and
        // finish, so every rank's hook (a partial trace) comes back.
        let mut hooks = Vec::new();
        for (rank, fiber) in engine.fibers.iter_mut().enumerate() {
            while !fiber.is_done() {
                assert!(
                    !fiber.mailbox().replies.is_empty(),
                    "engine bug: rank {rank} is still suspended with no replies after the run"
                );
                fiber.resume();
            }
            hooks.extend(fiber.mailbox().hook.take());
        }

        let result = engine_result.map(|()| RunReport {
            ranks: n,
            total_time: engine.max_clock(),
            per_rank_time: engine.clocks().to_vec(),
            stats: engine.stats.clone(),
            crossings: engine.crossings,
            network: model.name().to_string(),
        });
        (result, hooks)
    }
}

fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Suppress the default "thread panicked" stderr noise for the controlled
/// [`SimAbort`] teardown panics; real panics still print.
fn install_quiet_abort_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimAbort>().is_none() {
                default(info);
            }
        }));
    });
}
