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
        .run(move |ctx| {
            let mut exec = Exec::new(ctx, &program, logs_in.clone());
            exec.run();
        })
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
    let logs = Arc::new(Mutex::new(Vec::new()));
    let mut exec = Exec::new(ctx, program, logs);
    exec.run();
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

fn eval(e: &Expr, env: &Env) -> i64 {
    match e {
        Expr::Num(v) => *v,
        Expr::NumTasks => env.num_tasks,
        Expr::Var(v) => env
            .get(v)
            .unwrap_or_else(|| panic!("unbound variable {v} (validation gap)")),
        Expr::Add(a, b) => eval(a, env) + eval(b, env),
        Expr::Sub(a, b) => eval(a, env) - eval(b, env),
        Expr::Mul(a, b) => eval(a, env) * eval(b, env),
        Expr::Div(a, b) => {
            let d = eval(b, env);
            assert!(d != 0, "division by zero");
            eval(a, env) / d
        }
        Expr::Mod(a, b) => {
            let d = eval(b, env);
            assert!(d != 0, "MOD by zero");
            eval(a, env).rem_euclid(d)
        }
        Expr::Xor(a, b) => eval(a, env) ^ eval(b, env),
    }
}

fn eval_cond(c: &Cond, env: &Env) -> bool {
    match c {
        Cond::Cmp(a, op, b) => {
            let (x, y) = (eval(a, env), eval(b, env));
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
            let d = eval(a, env);
            d != 0 && eval(b, env).rem_euclid(d) == 0
        }
        Cond::And(a, b) => eval_cond(a, env) && eval_cond(b, env),
        Cond::Or(a, b) => eval_cond(a, env) || eval_cond(b, env),
        Cond::Not(a) => !eval_cond(a, env),
    }
}

struct Exec<'c, 'p> {
    ctx: &'c mut Ctx,
    program: &'p Program,
    /// Cached world communicator (avoids a clone per statement).
    world: Comm,
    explicit_receives: bool,
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

impl<'c, 'p> Exec<'c, 'p> {
    fn new(ctx: &'c mut Ctx, program: &'p Program, logs: Arc<Mutex<Vec<LogEntry>>>) -> Self {
        let n = ctx.size();
        let world = ctx.world();
        Exec {
            ctx,
            program,
            world,
            explicit_receives: program.has_explicit_receives(),
            groups: HashMap::new(),
            group_comms: HashMap::new(),
            adhoc_comms: HashMap::new(),
            outstanding: Vec::new(),
            t0: SimTime::ZERO,
            logs,
            n,
        }
    }

    fn run(&mut self) {
        let env = Env {
            parent: None,
            binding: Some(("t", self.ctx.rank() as i64)),
            num_tasks: self.n as i64,
        };
        self.prepass();
        let stmts = &self.program.stmts;
        self.block(stmts, &env);
    }

    /// Create communicators for every ad-hoc collective subject up front.
    /// `MPI_Comm_split` is collective over the parent, so *all* tasks must
    /// participate — including those outside the subset. Generated
    /// benchmarks carry explicit PARTITION statements instead and never
    /// reach this path.
    fn prepass(&mut self) {
        let me = self.ctx.rank();
        for members in collect_adhoc_sets(self.program, self.n) {
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

    fn block(&mut self, stmts: &'p [Stmt], env: &Env) {
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
            TaskSel::Runs(runs) => expand_runs(runs).contains(&task),
            TaskSel::Group(g) => self.groups.get(g).is_some_and(|m| m.contains(&task)),
        }
    }

    /// Communicator for a member set. Ad-hoc subsets were pre-created in
    /// [`Exec::prepass`]; PARTITION groups get theirs when the partition
    /// executes.
    fn comm_for(&mut self, ts: &TaskSet, env: &Env) -> Comm {
        if let TaskSel::Group(g) = &ts.sel {
            if let Some(c) = self.group_comms.get(g) {
                return c.clone();
            }
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

    fn stmt(&mut self, s: &'p Stmt, env: &Env) {
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
                for _ in 0..count {
                    self.block(body, env);
                }
            }
            Stmt::ForEach {
                var,
                from,
                to,
                body,
            } => {
                let (from, to) = (eval(from, env), eval(to, env));
                for i in from..=to {
                    let env = env.bind(var, i);
                    self.block(body, &env);
                }
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
