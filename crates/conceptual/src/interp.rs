//! The interpreter: executes a [`Program`] on the simulated MPI runtime.
//!
//! This component stands in for the coNCePTuaL compiler's C+MPI backend:
//! every statement maps onto the same MPI calls the compiled benchmark
//! would issue, so profiles of the interpreted program are comparable to
//! profiles of the original application (experiment E1):
//!
//! | statement                   | MPI mapping                                |
//! |-----------------------------|--------------------------------------------|
//! | SEND / ASYNCHRONOUSLY SEND  | `MPI_Send` / `MPI_Isend`                   |
//! | RECEIVE / ASYNC RECEIVE     | `MPI_Recv` / `MPI_Irecv` (FROM ANY TASK → `MPI_ANY_SOURCE`) |
//! | AWAIT COMPLETION            | `MPI_Waitall` over outstanding requests    |
//! | SYNCHRONIZE                 | `MPI_Barrier`                              |
//! | TASK r MULTICASTS … TO S    | `MPI_Bcast(root=r)` over S ∪ {r}           |
//! | S MULTICAST … TO EACH OTHER | `MPI_Alltoall` over S                      |
//! | REDUCE … TO TASK r          | `MPI_Reduce(root=r)`                       |
//! | REDUCE … TO ALL TASKS       | `MPI_Allreduce`                            |
//! | PARTITION … INTO …          | `MPI_Comm_split`                           |
//! | COMPUTE FOR                 | spin loop (virtual-time advance)           |
//!
//! If the program contains no explicit `RECEIVE` statements, `SEND`
//! statements auto-post the matching receives on the destination tasks
//! (the convenient coNCePTuaL default, §3.2); generated benchmarks always
//! carry explicit receives for precise posting-order control.
//!
//! ## Per-rank projection of loops
//!
//! A program describes every task, but a rank executes only its own part.
//! Statements outside loops run once, so a rank just tests its membership
//! as it reaches them. A loop body runs many times: when a rank reaches an
//! outermost loop that repeats, it first *projects* the body (nested loops
//! included) onto itself in one pass over its statements ([`project`]) and
//! iterates over the projection. In it, statements over a task set that
//! provably excludes the rank are gone, and so are inner loops whose
//! projected body is empty; the rank's own point-to-point statements have
//! shrunk to `TASK <rank>` with loop-invariant operands folded to
//! literals; an `IF` with a loop-invariant condition is replaced by the
//! taken branch. Whatever cannot be decided before the first iteration
//! stays as written: task sets or operands that mention a `FOR EACH`
//! variable, `GROUP` subjects (the group table is run-time state), `SEND`s
//! while receives are auto-posted (any rank may be a destination), a
//! `MULTICAST` whose root is not known to be another task, and the
//! statements that concern every rank (`GROUP … IS`, `PARTITION`, `RESET`,
//! `LOG`). The projection is executed by the same statement walker as the
//! rest of the program, so it issues exactly the operations the loop as
//! written would.

use crate::analyze::{expand_runs, validate};
use crate::ast::*;
use mpisim::comm::Comm;
use mpisim::ctx::Ctx;
use mpisim::error::SimError;
use mpisim::network::NetworkModel;
use mpisim::time::{SimDuration, SimTime};
use mpisim::types::{ReqHandle, Src, TagSel};
use mpisim::world::{RunReport, World};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::sync::Mutex;

/// Execution failure: static validation errors or a simulation error.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The program failed static validation ([`crate::analyze::validate`]).
    Validation(Vec<String>),
    /// The simulated execution failed (deadlock, panic, …).
    Sim(SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Validation(errs) => {
                writeln!(f, "program validation failed:")?;
                for e in errs {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            RunError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// One `LOG` record: `(task, label, virtual time since last counter reset)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// The logging task.
    pub task: usize,
    /// The metric label.
    pub label: String,
    /// Virtual time since the task's last counter reset.
    pub elapsed: SimDuration,
}

/// Result of executing a program.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The simulated run report.
    pub report: RunReport,
    /// All LOG records, sorted by `(task, label)`.
    pub logs: Vec<LogEntry>,
    /// The run's simulated wall-clock time (alias of `report.total_time`).
    pub total_time: SimTime,
}

/// Execute `program` with `n` tasks over `model`.
pub fn run_program(
    program: &Program,
    n: usize,
    model: Arc<dyn NetworkModel>,
) -> Result<RunOutcome, RunError> {
    run_program_on(program, World::new(n).network(model), n)
}

/// Execute on a fully configured [`World`] (custom match policy etc.).
pub fn run_program_on(program: &Program, world: World, n: usize) -> Result<RunOutcome, RunError> {
    let errors = validate(program, n);
    if !errors.is_empty() {
        return Err(RunError::Validation(errors));
    }
    let program = Arc::new(program.clone());
    let logs: Arc<Mutex<Vec<LogEntry>>> = Arc::new(Mutex::new(Vec::new()));
    let logs_in = Arc::clone(&logs);
    let report = world
        .run(move |ctx| Exec::execute(ctx, &program, logs_in.clone(), true))
        .map_err(RunError::Sim)?;
    let mut logs = Arc::try_unwrap(logs)
        .map(|m| m.into_inner().expect("log mutex poisoned"))
        .unwrap_or_else(|arc| arc.lock().expect("log mutex poisoned").clone());
    logs.sort_by(|a, b| (a.task, &a.label).cmp(&(b.task, &b.label)));
    Ok(RunOutcome {
        total_time: report.total_time,
        report,
        logs,
    })
}

/// Evaluate a constant expression (validation guarantees constness where
/// this is used).
pub fn eval_const(e: &Expr) -> i64 {
    eval(e, &Env::default())
}

/// Execute a program within an existing rank context (no validation, logs
/// discarded). This is the building block for callers that manage their own
/// [`World`] — e.g. tracing or profiling the generated benchmark by running
/// it under interposition hooks.
pub fn run_rank(ctx: &mut Ctx, program: &Program) {
    Exec::execute(ctx, program, Arc::default(), true);
}

/// [`run_rank`] without projecting loops: the rank walks every statement of
/// every iteration and tests its membership each time. The oracle that
/// tests compare the projection against.
#[doc(hidden)]
pub fn run_rank_unprojected(ctx: &mut Ctx, program: &Program) {
    Exec::execute(ctx, program, Arc::default(), false);
}

/// Variable bindings during execution. Binding pushes a borrowed stack
/// frame instead of cloning a map, so loop bodies bind their iteration
/// variable without allocating; lookup walks the (shallow) frame chain.
#[derive(Clone, Copy, Default)]
pub struct Env<'a> {
    parent: Option<&'a Env<'a>>,
    binding: Option<(&'a str, i64)>,
    num_tasks: i64,
}

impl<'a> Env<'a> {
    fn bind<'b>(&'b self, name: &'b str, value: i64) -> Env<'b> {
        Env {
            parent: Some(self),
            binding: Some((name, value)),
            num_tasks: self.num_tasks,
        }
    }

    fn get(&self, name: &str) -> Option<i64> {
        let mut cur = Some(self);
        while let Some(e) = cur {
            if let Some((n, v)) = e.binding {
                if n == name {
                    return Some(v);
                }
            }
            cur = e.parent;
        }
        None
    }
}

/// Why an expression has no value.
enum EvalError<'e> {
    Unbound(&'e str),
    DivByZero,
    ModByZero,
}

impl std::fmt::Display for EvalError<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Unbound(v) => write!(f, "unbound variable {v} (validation gap)"),
            EvalError::DivByZero => f.write_str("division by zero"),
            EvalError::ModByZero => f.write_str("MOD by zero"),
        }
    }
}

/// Evaluate `e` with variables resolved by `var`: the run-time [`Env`], or
/// the projection's static scope, where a variable may have no value yet.
fn try_eval<'e>(
    e: &'e Expr,
    num_tasks: i64,
    var: &impl Fn(&str) -> Option<i64>,
) -> Result<i64, EvalError<'e>> {
    let ev = |e| try_eval(e, num_tasks, var);
    Ok(match e {
        Expr::Num(v) => *v,
        Expr::NumTasks => num_tasks,
        Expr::Var(v) => var(v).ok_or(EvalError::Unbound(v))?,
        Expr::Add(a, b) => ev(a)? + ev(b)?,
        Expr::Sub(a, b) => ev(a)? - ev(b)?,
        Expr::Mul(a, b) => ev(a)? * ev(b)?,
        Expr::Div(a, b) => match ev(b)? {
            0 => return Err(EvalError::DivByZero),
            d => ev(a)? / d,
        },
        Expr::Mod(a, b) => match ev(b)? {
            0 => return Err(EvalError::ModByZero),
            d => ev(a)?.rem_euclid(d),
        },
        Expr::Xor(a, b) => ev(a)? ^ ev(b)?,
    })
}

fn try_eval_cond<'e>(
    c: &'e Cond,
    num_tasks: i64,
    var: &impl Fn(&str) -> Option<i64>,
) -> Result<bool, EvalError<'e>> {
    let ev = |e| try_eval(e, num_tasks, var);
    let evc = |c| try_eval_cond(c, num_tasks, var);
    Ok(match c {
        Cond::Cmp(a, op, b) => {
            let (x, y) = (ev(a)?, ev(b)?);
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        Cond::Divides(a, b) => {
            let d = ev(a)?;
            d != 0 && ev(b)?.rem_euclid(d) == 0
        }
        Cond::And(a, b) => evc(a)? && evc(b)?,
        Cond::Or(a, b) => evc(a)? || evc(b)?,
        Cond::Not(a) => !evc(a)?,
    })
}

fn eval(e: &Expr, env: &Env) -> i64 {
    try_eval(e, env.num_tasks, &|v| env.get(v)).unwrap_or_else(|err| panic!("{err}"))
}

fn eval_cond(c: &Cond, env: &Env) -> bool {
    try_eval_cond(c, env.num_tasks, &|v| env.get(v)).unwrap_or_else(|err| panic!("{err}"))
}

/// Is `task` in the set `runs` describe?
fn in_runs(runs: &[TaskRun], task: usize) -> bool {
    runs.iter().any(|r| r.count > 0 && r.contains(task))
}

/// The part of a loop body that task `me` of `n` can take part in (see the
/// module docs), given the bindings in force where the loop starts and its
/// own variable (`FOR EACH` only). `explicit_receives` is the whole
/// program's property.
fn project(
    body: &[Stmt],
    env: &Env,
    loop_var: Option<&str>,
    me: usize,
    explicit_receives: bool,
) -> Vec<Stmt> {
    let mut scope: Vec<_> = std::iter::successors(Some(env), |e| e.parent)
        .filter_map(|e| e.binding)
        .map(|(name, value)| (name, Some(value)))
        .collect();
    scope.reverse();
    scope.extend(loop_var.map(|v| (v, None)));
    let mut p = Projector {
        me,
        n: env.num_tasks as usize,
        explicit_receives,
        scope,
    };
    p.block(body)
}

struct Projector<'p> {
    me: usize,
    n: usize,
    explicit_receives: bool,
    /// Variables in scope, innermost last: `t`, task binders, and `FOR EACH`
    /// variables (`None`: the value differs from iteration to iteration).
    scope: Vec<(&'p str, Option<i64>)>,
}

impl<'p> Projector<'p> {
    fn eval<'e>(&self, e: &'e Expr) -> Result<i64, EvalError<'e>> {
        try_eval(e, self.n as i64, &|v| self.lookup(v))
    }

    fn lookup(&self, name: &str) -> Option<i64> {
        let (_, value) = self.scope.iter().rev().find(|(n, _)| *n == name)?;
        *value
    }

    /// `e` as a literal if it has a value now, else as written.
    fn fold(&self, e: &Expr) -> Expr {
        self.eval(e).map_or_else(|_| e.clone(), Expr::Num)
    }

    /// Does `ts` select this rank? `None`: not decidable before execution.
    fn selects_me(&self, ts: &TaskSet) -> Option<bool> {
        match &ts.sel {
            TaskSel::All => Some(true),
            TaskSel::Single(e) => {
                let task = self.eval(e).ok()?;
                Some(task.rem_euclid(self.n as i64) as usize == self.me)
            }
            TaskSel::Runs(runs) => Some(in_runs(runs, self.me)),
            TaskSel::Group(_) => None,
        }
    }

    /// This rank's own instance of a statement over `ts`: `operands` folds
    /// what the statement evaluates under the set's binder, and the set
    /// becomes `TASK me` — keeping the binder only for operands that are
    /// still expressions.
    fn own<const N: usize>(
        &mut self,
        ts: &'p TaskSet,
        operands: [Option<&Expr>; N],
    ) -> (TaskSet, [Option<Expr>; N]) {
        if let Some(v) = &ts.var {
            self.scope.push((v, Some(self.me as i64)));
        }
        let folded = operands.map(|e| e.map(|e| self.fold(e)));
        if ts.var.is_some() {
            self.scope.pop();
        }
        let all_literal = folded
            .iter()
            .all(|e| matches!(e, None | Some(Expr::Num(_))));
        let own = TaskSet {
            var: ts.var.clone().filter(|_| !all_literal),
            sel: TaskSel::Single(Expr::Num(self.me as i64)),
        };
        (own, folded)
    }

    fn block(&mut self, stmts: &'p [Stmt]) -> Vec<Stmt> {
        let mut out = Vec::new();
        for s in stmts {
            self.stmt(s, &mut out);
        }
        out
    }

    fn stmt(&mut self, s: &'p Stmt, out: &mut Vec<Stmt>) {
        // Loops and conditionals first; what is left has one subject set.
        let selected = match s {
            Stmt::Comment(_) => return,
            Stmt::For { count, body } => {
                let (count, body) = (self.fold(count), self.block(body));
                // Bounds without a value yet stay even around an empty
                // body: evaluating them is the loop's only effect.
                if !(body.is_empty() && matches!(count, Expr::Num(_))) {
                    out.push(Stmt::For { count, body });
                }
                return;
            }
            Stmt::ForEach {
                var,
                from,
                to,
                body,
            } => {
                let (from, to) = (self.fold(from), self.fold(to));
                self.scope.push((var, None));
                let body = self.block(body);
                self.scope.pop();
                if !(body.is_empty() && matches!((&from, &to), (Expr::Num(_), Expr::Num(_)))) {
                    out.push(Stmt::ForEach {
                        var: var.clone(),
                        from,
                        to,
                        body,
                    });
                }
                return;
            }
            Stmt::If { cond, then_, else_ } => {
                match try_eval_cond(cond, self.n as i64, &|v| self.lookup(v)) {
                    Ok(taken) => {
                        for s in if taken { then_ } else { else_ } {
                            self.stmt(s, out);
                        }
                    }
                    Err(_) => out.push(Stmt::If {
                        cond: cond.clone(),
                        then_: self.block(then_),
                        else_: self.block(else_),
                    }),
                }
                return;
            }
            // The group table, communicator creation and the counters
            // concern every rank.
            Stmt::DeclareGroup { .. }
            | Stmt::Partition { .. }
            | Stmt::ResetCounters
            | Stmt::Log { .. } => None,
            // With auto-posted receives any rank may be a destination.
            Stmt::Send { .. } if !self.explicit_receives => None,
            Stmt::Send { src: tasks, .. }
            | Stmt::Receive { dst: tasks, .. }
            | Stmt::Compute { tasks, .. }
            | Stmt::Await { tasks }
            | Stmt::Sync { tasks }
            | Stmt::Reduce { tasks, .. }
            | Stmt::Multicast {
                root: None, tasks, ..
            } => self.selects_me(tasks),
            // The root takes part even from outside the set.
            Stmt::Multicast {
                root: Some(root),
                tasks,
                ..
            } => match (self.selects_me(tasks), self.eval(root)) {
                (Some(false), Ok(r)) if r.rem_euclid(self.n as i64) as usize != self.me => {
                    Some(false)
                }
                (Some(true), _) => Some(true),
                _ => None,
            },
        };
        let kept = |e: Option<Expr>| e.expect("folded operand");
        match (selected, s) {
            (Some(false), _) => {}
            (
                Some(true),
                Stmt::Compute {
                    tasks,
                    amount,
                    unit,
                },
            ) => {
                let (tasks, [amount]) = self.own(tasks, [Some(amount)]);
                out.push(Stmt::Compute {
                    tasks,
                    amount: kept(amount),
                    unit: *unit,
                });
            }
            (
                Some(true),
                Stmt::Send {
                    src,
                    dst,
                    bytes,
                    tag,
                    is_async,
                },
            ) => {
                let (src, [dst, bytes]) = self.own(src, [Some(dst), Some(bytes)]);
                out.push(Stmt::Send {
                    src,
                    dst: kept(dst),
                    bytes: kept(bytes),
                    tag: *tag,
                    is_async: *is_async,
                });
            }
            (
                Some(true),
                Stmt::Receive {
                    dst,
                    src,
                    bytes,
                    tag,
                    is_async,
                },
            ) => {
                let (dst, [src, bytes]) = self.own(dst, [src.as_ref(), Some(bytes)]);
                out.push(Stmt::Receive {
                    dst,
                    src,
                    bytes: kept(bytes),
                    tag: *tag,
                    is_async: *is_async,
                });
            }
            (Some(true), Stmt::Await { tasks }) => {
                let (tasks, []) = self.own(tasks, []);
                out.push(Stmt::Await { tasks });
            }
            // Collectives keep their subject: it names the communicator.
            _ => out.push(s.clone()),
        }
    }
}

struct Exec<'c> {
    ctx: &'c mut Ctx,
    /// Cached world communicator (avoids a clone per statement).
    world: Comm,
    explicit_receives: bool,
    /// Project the body of the next repeating loop. Off inside a projection
    /// (inner loops were projected with it) and for the oracle.
    project_loops: bool,
    /// group name → members (absolute task ids)
    groups: HashMap<String, Vec<usize>>,
    /// group name → live communicator (only for partition-created groups
    /// this rank belongs to)
    group_comms: HashMap<String, Comm>,
    /// member set → communicator, for ad-hoc collective subjects
    adhoc_comms: HashMap<Vec<usize>, Comm>,
    outstanding: Vec<ReqHandle>,
    t0: SimTime,
    logs: Arc<Mutex<Vec<LogEntry>>>,
    n: usize,
}

impl<'c> Exec<'c> {
    /// Execute `program` on this rank; `project_loops` is off only for the
    /// test oracle.
    fn execute(
        ctx: &'c mut Ctx,
        program: &Program,
        logs: Arc<Mutex<Vec<LogEntry>>>,
        project_loops: bool,
    ) {
        let n = ctx.size();
        let world = ctx.world();
        let mut exec = Exec {
            ctx,
            world,
            explicit_receives: program.has_explicit_receives(),
            project_loops,
            groups: HashMap::new(),
            group_comms: HashMap::new(),
            adhoc_comms: HashMap::new(),
            outstanding: Vec::new(),
            t0: SimTime::ZERO,
            logs,
            n,
        };
        let env = Env {
            parent: None,
            binding: Some(("t", exec.ctx.rank() as i64)),
            num_tasks: n as i64,
        };
        exec.prepass(program);
        exec.block(&program.stmts, &env);
    }

    /// Run `iterate` over a loop body: over this rank's projection of it
    /// if the loop repeats and is not already part of a projection.
    fn with_own_body(
        &mut self,
        body: &[Stmt],
        env: &Env,
        loop_var: Option<&str>,
        repeats: bool,
        iterate: impl FnOnce(&mut Self, &[Stmt]),
    ) {
        if !(self.project_loops && repeats) {
            return iterate(self, body);
        }
        let me = self.ctx.rank();
        let own = project(body, env, loop_var, me, self.explicit_receives);
        self.project_loops = false;
        iterate(self, &own);
        self.project_loops = true;
    }

    /// Create communicators for every ad-hoc collective subject up front.
    /// `MPI_Comm_split` is collective over the parent, so *all* tasks must
    /// participate — including those outside the subset. Generated
    /// benchmarks carry explicit PARTITION statements instead and never
    /// reach this path.
    fn prepass(&mut self, program: &Program) {
        let me = self.ctx.rank();
        for members in collect_adhoc_sets(program, self.n) {
            let (color, key) = match members.iter().position(|&m| m == me) {
                Some(idx) => (1, idx as i64),
                None => (0, me as i64),
            };
            let comm = self.ctx.comm_split(&self.world, color, key);
            if color == 1 {
                self.adhoc_comms.insert(members, comm);
            }
        }
    }

    fn block(&mut self, stmts: &[Stmt], env: &Env) {
        for s in stmts {
            self.stmt(s, env);
        }
    }

    /// Members of a task set (absolute ids, sorted). Callers that only need
    /// a membership test should use [`Exec::is_member`], which does not
    /// allocate.
    fn members(&self, ts: &TaskSet, env: &Env) -> Vec<usize> {
        match &ts.sel {
            TaskSel::All => (0..self.n).collect(),
            TaskSel::Single(e) => vec![eval(e, env).rem_euclid(self.n as i64) as usize],
            TaskSel::Runs(runs) => expand_runs(runs),
            TaskSel::Group(g) => self.groups.get(g).cloned().unwrap_or_default(),
        }
    }

    /// Is `task` a member of `ts`? Allocation-free equivalent of
    /// `self.members(ts, env).contains(&task)`.
    fn is_member(&self, ts: &TaskSet, env: &Env, task: usize) -> bool {
        match &ts.sel {
            TaskSel::All => task < self.n,
            TaskSel::Single(e) => eval(e, env).rem_euclid(self.n as i64) as usize == task,
            TaskSel::Runs(runs) => in_runs(runs, task),
            TaskSel::Group(g) => self.groups.get(g).is_some_and(|m| m.contains(&task)),
        }
    }

    /// Communicator for a member set. Ad-hoc subsets were pre-created in
    /// [`Exec::prepass`]; PARTITION groups get theirs when the partition
    /// executes.
    fn comm_for(&mut self, ts: &TaskSet, env: &Env) -> Comm {
        match &ts.sel {
            TaskSel::All => return self.world.clone(),
            TaskSel::Group(g) => {
                if let Some(c) = self.group_comms.get(g) {
                    return c.clone();
                }
            }
            _ => {}
        }
        let members = self.members(ts, env);
        self.comm_for_members(&members)
    }

    fn comm_for_members(&mut self, members: &[usize]) -> Comm {
        if members.len() == self.n {
            return self.world.clone();
        }
        self.adhoc_comms.get(members).cloned().unwrap_or_else(|| {
            panic!(
                "no communicator for task set {members:?} (collective over an undeclared subset?)"
            )
        })
    }

    fn stmt(&mut self, s: &Stmt, env: &Env) {
        let me = self.ctx.rank();
        match s {
            Stmt::Comment(_) => {}
            Stmt::DeclareGroup { name, tasks } => {
                let members = self.members(tasks, env);
                self.groups.insert(name.clone(), members);
            }
            Stmt::Partition { parent, groups } => {
                let me_in_parent = match parent {
                    None => true,
                    Some(g) => self.groups.get(g).is_some_and(|m| m.contains(&me)),
                };
                let parent_comm = match parent {
                    None => self.world.clone(),
                    Some(g) => match self.group_comms.get(g) {
                        Some(c) => c.clone(),
                        None => {
                            // this rank is outside the parent: record the
                            // groups and skip the collective
                            for (name, runs) in groups {
                                self.groups.insert(name.clone(), expand_runs(runs));
                            }
                            return;
                        }
                    },
                };
                for (name, runs) in groups {
                    self.groups.insert(name.clone(), expand_runs(runs));
                }
                if !me_in_parent {
                    return;
                }
                // The color is the group's smallest task id: globally unique
                // across disjoint groups, so sibling PARTITION statements
                // that realise different groups of the *same* original
                // `MPI_Comm_split` cooperate in one collective split.
                let found = groups.iter().find_map(|(name, runs)| {
                    let members = expand_runs(runs);
                    members
                        .iter()
                        .position(|&m| m == me)
                        .map(|idx| (members[0] as i64, idx as i64, name.clone()))
                });
                let Some((color, key, my_group)) = found else {
                    return; // this parent rank joins a sibling PARTITION
                };
                let comm = self.ctx.comm_split(&parent_comm, color, key);
                self.group_comms.insert(my_group, comm);
            }
            Stmt::For { count, body } => {
                let count = eval(count, env).max(0);
                self.with_own_body(body, env, None, count > 1, |exec, body| {
                    for _ in 0..count {
                        exec.block(body, env);
                    }
                });
            }
            Stmt::ForEach {
                var,
                from,
                to,
                body,
            } => {
                let (from, to) = (eval(from, env), eval(to, env));
                self.with_own_body(body, env, Some(var), to > from, |exec, body| {
                    for i in from..=to {
                        let env = env.bind(var, i);
                        exec.block(body, &env);
                    }
                });
            }
            Stmt::If { cond, then_, else_ } => {
                if eval_cond(cond, env) {
                    self.block(then_, env);
                } else {
                    self.block(else_, env);
                }
            }
            Stmt::Compute {
                tasks,
                amount,
                unit,
            } => {
                if self.is_member(tasks, env, me) {
                    let env = bind_task_var(tasks, env, me);
                    let ns = unit.nanos(eval(amount, &env));
                    self.ctx.compute(SimDuration::from_nanos(ns));
                }
            }
            Stmt::Send {
                src,
                dst,
                bytes,
                tag,
                is_async,
            } => {
                if self.is_member(src, env, me) {
                    let env = bind_task_var(src, env, me);
                    let to = eval(dst, &env).rem_euclid(self.n as i64) as usize;
                    let nbytes = eval(bytes, &env).max(0) as u64;
                    if *is_async {
                        let h = self.ctx.isend(to, *tag, nbytes, &self.world);
                        self.outstanding.push(h);
                    } else {
                        self.ctx.send(to, *tag, nbytes, &self.world);
                    }
                }
                if !self.explicit_receives {
                    // auto-post matching receives on destinations
                    let senders = self.members(src, env);
                    for &s in &senders {
                        let env = bind_task_var(src, env, s);
                        let to = eval(dst, &env).rem_euclid(self.n as i64) as usize;
                        if to == me {
                            let nbytes = eval(bytes, &env).max(0) as u64;
                            if *is_async {
                                let h = self.ctx.irecv(
                                    Src::Rank(s),
                                    TagSel::Is(*tag),
                                    nbytes,
                                    &self.world,
                                );
                                self.outstanding.push(h);
                            } else {
                                self.ctx.recv_ignore(
                                    Src::Rank(s),
                                    TagSel::Is(*tag),
                                    nbytes,
                                    &self.world,
                                );
                            }
                        }
                    }
                }
            }
            Stmt::Receive {
                dst,
                src,
                bytes,
                tag,
                is_async,
            } => {
                if self.is_member(dst, env, me) {
                    let env = bind_task_var(dst, env, me);
                    let from = match src {
                        None => Src::Any,
                        Some(e) => Src::Rank(eval(e, &env).rem_euclid(self.n as i64) as usize),
                    };
                    let nbytes = eval(bytes, &env).max(0) as u64;
                    if *is_async {
                        let h = self.ctx.irecv(from, TagSel::Is(*tag), nbytes, &self.world);
                        self.outstanding.push(h);
                    } else {
                        self.ctx
                            .recv_ignore(from, TagSel::Is(*tag), nbytes, &self.world);
                    }
                }
            }
            Stmt::Await { tasks } => {
                if !self.outstanding.is_empty() && self.is_member(tasks, env, me) {
                    let hs = std::mem::take(&mut self.outstanding);
                    self.ctx.waitall_ignore(&hs);
                }
            }
            Stmt::Sync { tasks } => {
                if self.is_member(tasks, env, me) {
                    let comm = self.comm_for(tasks, env);
                    self.ctx.barrier(&comm);
                }
            }
            Stmt::Multicast { root, tasks, bytes } => {
                match root {
                    Some(root_expr) => {
                        let root = eval(root_expr, env).rem_euclid(self.n as i64) as usize;
                        let members = self.members(tasks, env);
                        let participates = members.contains(&me) || root == me;
                        if participates {
                            // participants = tasks ∪ {root}
                            let env = bind_task_var(tasks, env, me);
                            let nbytes = eval(bytes, &env).max(0) as u64;
                            let comm = if members.contains(&root) {
                                self.comm_for(tasks, &env)
                            } else {
                                let mut all = members;
                                all.push(root);
                                all.sort_unstable();
                                self.comm_for_members(&all)
                            };
                            let root_rel =
                                comm.relative_of(root).expect("root in participant comm");
                            self.ctx.bcast(root_rel, nbytes, &comm);
                        }
                    }
                    None => {
                        if self.is_member(tasks, env, me) {
                            let env = bind_task_var(tasks, env, me);
                            let nbytes = eval(bytes, &env).max(0) as u64;
                            let comm = self.comm_for(tasks, &env);
                            self.ctx.alltoall(nbytes, &comm);
                        }
                    }
                }
            }
            Stmt::Reduce { tasks, to, bytes } => {
                if self.is_member(tasks, env, me) {
                    let env = bind_task_var(tasks, env, me);
                    let nbytes = eval(bytes, &env).max(0) as u64;
                    let comm = self.comm_for(tasks, &env);
                    match to {
                        ReduceTo::All => self.ctx.allreduce(nbytes, &comm),
                        ReduceTo::Task(root_expr) => {
                            let root = eval(root_expr, &env).rem_euclid(self.n as i64) as usize;
                            let root_rel = comm
                                .relative_of(root)
                                .expect("REDUCE target inside participant set");
                            self.ctx.reduce(root_rel, nbytes, &comm);
                        }
                    }
                }
            }
            Stmt::ResetCounters => {
                self.t0 = self.ctx.now();
            }
            Stmt::Log { label } => {
                let elapsed = self.ctx.now().since(self.t0);
                self.logs
                    .lock()
                    .expect("log mutex poisoned")
                    .push(LogEntry {
                        task: me,
                        label: label.clone(),
                        elapsed,
                    });
            }
        }
    }
}

fn bind_task_var<'b>(ts: &'b TaskSet, env: &'b Env<'b>, task: usize) -> Env<'b> {
    match &ts.var {
        Some(v) => env.bind(v, task as i64),
        None => *env,
    }
}

/// Scan a program for collective subjects over ad-hoc (non-ALL,
/// non-PARTITION-group) task sets, in first-occurrence order. These need
/// world-collective communicator creation before execution starts.
fn collect_adhoc_sets(program: &Program, n: usize) -> Vec<Vec<usize>> {
    struct Scan {
        n: usize,
        /// group name → (members, has a partition-created communicator)
        groups: BTreeMap<String, (Vec<usize>, bool)>,
        sets: Vec<Vec<usize>>,
    }
    impl Scan {
        fn add_set(&mut self, members: Vec<usize>) {
            if members.len() < self.n && !members.is_empty() && !self.sets.contains(&members) {
                self.sets.push(members);
            }
        }

        fn subject(&mut self, ts: &TaskSet) -> Option<Vec<usize>> {
            match &ts.sel {
                TaskSel::All => None,
                TaskSel::Single(_) => None,
                TaskSel::Runs(runs) => Some(expand_runs(runs)),
                TaskSel::Group(g) => match self.groups.get(g) {
                    Some((_, true)) => None, // partition-created comm exists
                    Some((members, false)) => Some(members.clone()),
                    None => None, // validation reports this
                },
            }
        }

        fn collective_subject(&mut self, ts: &TaskSet) {
            if let Some(members) = self.subject(ts) {
                self.add_set(members);
            }
        }

        fn block(&mut self, stmts: &[Stmt]) {
            for s in stmts {
                self.stmt(s);
            }
        }

        fn stmt(&mut self, s: &Stmt) {
            match s {
                Stmt::DeclareGroup { name, tasks } => {
                    let members = match &tasks.sel {
                        TaskSel::All => (0..self.n).collect(),
                        TaskSel::Runs(runs) => expand_runs(runs),
                        TaskSel::Group(g) => self
                            .groups
                            .get(g)
                            .map(|(m, _)| m.clone())
                            .unwrap_or_default(),
                        TaskSel::Single(e) if e.is_const() => {
                            vec![eval_const(e).max(0) as usize]
                        }
                        _ => Vec::new(),
                    };
                    self.groups.insert(name.clone(), (members, false));
                }
                Stmt::Partition { groups, .. } => {
                    for (name, runs) in groups {
                        self.groups.insert(name.clone(), (expand_runs(runs), true));
                    }
                }
                Stmt::For { body, .. } | Stmt::ForEach { body, .. } => self.block(body),
                Stmt::If { then_, else_, .. } => {
                    self.block(then_);
                    self.block(else_);
                }
                Stmt::Sync { tasks } | Stmt::Reduce { tasks, .. } => {
                    self.collective_subject(tasks);
                }
                Stmt::Multicast { root, tasks, .. } => {
                    let members = match &tasks.sel {
                        TaskSel::All => None,
                        TaskSel::Runs(runs) => Some(expand_runs(runs)),
                        TaskSel::Group(g) => self.groups.get(g).map(|(m, _)| m.clone()),
                        TaskSel::Single(_) => None,
                    };
                    match (root, members) {
                        (Some(r), Some(mut members)) if r.is_const() => {
                            let root = eval_const(r).max(0) as usize;
                            if !members.contains(&root) {
                                // participants = set ∪ {root}: always ad hoc
                                members.push(root);
                                members.sort_unstable();
                                self.add_set(members);
                            } else {
                                self.collective_subject(tasks);
                            }
                        }
                        (_, Some(_)) => self.collective_subject(tasks),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }
    let mut scan = Scan {
        n,
        groups: BTreeMap::new(),
        sets: Vec::new(),
    };
    scan.block(&program.stmts);
    scan.sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::printer::print;

    /// Project the body of the loop `src` consists of for task `me` of `n`,
    /// printed back as text.
    fn projected(src: &str, me: usize, n: usize) -> String {
        let program = parse(src).unwrap();
        let env = Env {
            parent: None,
            binding: Some(("t", me as i64)),
            num_tasks: n as i64,
        };
        let (body, var) = match &program.stmts[..] {
            [Stmt::For { body, .. }] => (body, None),
            [Stmt::ForEach { body, var, .. }] => (body, Some(var.as_str())),
            other => panic!("not a single loop: {other:?}"),
        };
        let own = project(body, &env, var, me, program.has_explicit_receives());
        print(&Program::new(own))
    }

    const EXCHANGE: &str = r#"
FOR 10 REPETITIONS {
  TASKS t SUCH THAT t IS IN {0-3} COMPUTE FOR 100 + t NANOSECONDS
  TASKS t SUCH THAT t IS IN {0-3} ASYNCHRONOUSLY RECEIVE A 64 BYTE MESSAGE FROM TASK t XOR 1
  TASKS t SUCH THAT t IS IN {0-3} ASYNCHRONOUSLY SEND A 64 BYTE MESSAGE TO TASK t XOR 1
  TASKS t SUCH THAT t IS IN {0-3} AWAIT COMPLETION
  FOR 3 REPETITIONS {
    TASKS t SUCH THAT t IS IN {4-7} COMPUTE FOR 5 NANOSECONDS
  }
  IF t < 4 THEN {
    TASKS t SUCH THAT t IS IN {0-6:2} SYNCHRONIZE
  } OTHERWISE {
    TASK 5 SEND A 8 BYTE MESSAGE TO TASK 6
    TASK 6 RECEIVE A 8 BYTE MESSAGE FROM TASK 5
  }
}
"#;

    #[test]
    fn own_statements_shrink_to_the_rank_and_foreign_ones_disappear() {
        assert_eq!(
            projected(EXCHANGE, 2, 8),
            "TASK 2 COMPUTES FOR 102 NANOSECONDS\n\
             TASK 2 ASYNCHRONOUSLY RECEIVES A 64 BYTE MESSAGE FROM TASK 3\n\
             TASK 2 ASYNCHRONOUSLY SENDS A 64 BYTE MESSAGE TO TASK 3\n\
             TASK 2 AWAITS COMPLETION\n\
             TASKS t SUCH THAT t IS IN {0-6:2} SYNCHRONIZE\n"
        );
        assert_eq!(
            projected(EXCHANGE, 5, 8),
            "FOR 3 REPETITIONS {\n  TASK 5 COMPUTES FOR 5 NANOSECONDS\n}\n\
             TASK 5 SENDS A 8 BYTE MESSAGE TO TASK 6\n"
        );
        // Task 3 takes the IF's first branch and is not in its set.
        assert_eq!(
            projected(EXCHANGE, 3, 8),
            "TASK 3 COMPUTES FOR 103 NANOSECONDS\n\
             TASK 3 ASYNCHRONOUSLY RECEIVES A 64 BYTE MESSAGE FROM TASK 2\n\
             TASK 3 ASYNCHRONOUSLY SENDS A 64 BYTE MESSAGE TO TASK 2\n\
             TASK 3 AWAITS COMPLETION\n"
        );
    }

    #[test]
    fn what_depends_on_a_loop_variable_or_on_run_time_state_stays_as_written() {
        let src = r#"
FOR EACH i IN {0, ..., 3} {
  TASK i COMPUTE FOR 1 MICROSECONDS
  TASK 1 SEND A 8 * i BYTE MESSAGE TO TASK 0
  TASK 0 RECEIVE A 8 * i BYTE MESSAGE FROM TASK 1
  GROUP g SYNCHRONIZE
  GROUP g IS TASKS t SUCH THAT t IS IN {2-3}
  PARTITION ALL TASKS INTO GROUP a = {2-3}
  TASK 0 MULTICASTS A 8 BYTE MESSAGE TO TASKS t SUCH THAT t IS IN {2-3}
  TASK i MULTICASTS A 8 BYTE MESSAGE TO TASKS t SUCH THAT t IS IN {2-3}
  FOR i REPETITIONS {
    TASK 3 COMPUTE FOR 1 MICROSECONDS
  }
  IF i > t THEN {
    TASK 3 COMPUTE FOR 2 MICROSECONDS
  }
  ALL TASKS RESET THEIR COUNTERS
  ALL TASKS LOG "x"
}
"#;
        // Task 1 owns the SEND (its size still an expression) and is
        // provably outside everything else that is decidable.
        assert_eq!(
            projected(src, 1, 4),
            "TASK i COMPUTES FOR 1 MICROSECONDS\n\
             TASK 1 SENDS A 8 * i BYTE MESSAGE TO TASK 0\n\
             GROUP g SYNCHRONIZE\n\
             GROUP g IS TASKS t SUCH THAT t IS IN {2-3}\n\
             PARTITION ALL TASKS INTO GROUP a = {2-3}\n\
             TASK i MULTICASTS A 8 BYTE MESSAGE TO TASKS t SUCH THAT t IS IN {2-3}\n\
             FOR i REPETITIONS {\n}\n\
             IF i > t THEN {\n}\n\
             ALL TASKS RESET THEIR COUNTERS\n\
             ALL TASKS LOG \"x\"\n"
        );
    }

    #[test]
    fn sends_stay_whole_while_receives_are_auto_posted() {
        let src = "FOR 2 REPETITIONS {\n  TASK 0 SEND A 8 BYTE MESSAGE TO TASK 1\n}\n";
        assert_eq!(
            projected(src, 3, 4),
            "TASK 0 SENDS A 8 BYTE MESSAGE TO TASK 1\n"
        );
    }

    #[test]
    fn bindings_in_force_at_the_loop_are_known_values() {
        // An enclosing, non-repeating FOR EACH shadowed `t` with 1: inside,
        // `TASK t` is task 1 whatever rank projects.
        let program =
            parse("FOR 4 REPETITIONS {\n  TASK t COMPUTE FOR t MICROSECONDS\n}\n").unwrap();
        let Stmt::For { body, .. } = &program.stmts[0] else {
            unreachable!()
        };
        let top = Env {
            parent: None,
            binding: Some(("t", 2)),
            num_tasks: 4,
        };
        let shadowed = top.bind("t", 1);
        assert_eq!(project(body, &shadowed, None, 2, true), vec![]);
        assert_eq!(
            print(&Program::new(project(body, &shadowed, None, 1, true))),
            "TASK 1 COMPUTES FOR 1 MICROSECONDS\n"
        );
        assert_eq!(project(body, &top, None, 2, true).len(), 1);
    }
}
