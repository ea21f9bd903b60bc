//! Abstract syntax of the coNCePTuaL-style specification language.
//!
//! The subset implemented here is the subset the benchmark generator emits
//! plus the constructs the paper's examples use: counted and indexed loops,
//! task-set selectors with a bound task variable, point-to-point SEND /
//! RECEIVE (blocking or ASYNCHRONOUSLY) with AWAIT COMPLETION, SYNCHRONIZE,
//! MULTICAST and REDUCE collectives, COMPUTE delays, IF/OTHERWISE, GROUP
//! declarations (the absolute-rank image of MPI communicators), counter
//! reset and logging. Programs are plain data: the printer renders them as
//! readable English-like text, the parser round-trips that text, and the
//! interpreter executes them against `mpisim` (standing in for the
//! coNCePTuaL compiler's C+MPI backend).

use std::fmt;

/// Integer expressions over the bound task variable, loop variables, and
/// `NUM_TASKS`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// A variable: the task binder (`t`) or a `FOR EACH` loop variable.
    Var(String),
    /// The number of tasks in the job (`NUM_TASKS`).
    NumTasks,
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Truncating division.
    Div(Box<Expr>, Box<Expr>),
    /// Euclidean modulo (`MOD`).
    Mod(Box<Expr>, Box<Expr>),
    /// Bitwise XOR — hypercube/butterfly peers (`t XOR 4`).
    Xor(Box<Expr>, Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // AST constructors, not arithmetic
impl Expr {
    /// Integer literal.
    pub fn num(v: i64) -> Expr {
        Expr::Num(v)
    }

    /// Variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// `a / b` (truncating).
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Box::new(a), Box::new(b))
    }

    /// `a MOD b` (Euclidean).
    pub fn modulo(a: Expr, b: Expr) -> Expr {
        Expr::Mod(Box::new(a), Box::new(b))
    }

    /// `a XOR b` (bitwise).
    pub fn xor(a: Expr, b: Expr) -> Expr {
        Expr::Xor(Box::new(a), Box::new(b))
    }

    /// Is this a literal (no variables)?
    pub fn is_const(&self) -> bool {
        match self {
            Expr::Num(_) => true,
            Expr::Var(_) | Expr::NumTasks => false,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Xor(a, b) => a.is_const() && b.is_const(),
        }
    }
}

/// Comparison operators in conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Boolean conditions for `IF`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cond {
    /// A comparison between two expressions.
    Cmp(Expr, CmpOp, Expr),
    /// `<a> DIVIDES <b>` — the paper's §4.1 example predicate.
    Divides(Expr, Expr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

/// One arithmetic run of task ids (mirrors a `RankSet` run).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskRun {
    /// First task id.
    pub start: usize,
    /// Distance between consecutive ids.
    pub stride: usize,
    /// Number of tasks in the run.
    pub count: usize,
}

impl TaskRun {
    /// Largest task id in the run.
    pub fn last(&self) -> usize {
        self.start + self.stride * (self.count - 1)
    }

    /// Is task `t` in the run?
    pub fn contains(&self, t: usize) -> bool {
        t >= self.start
            && t <= self.last()
            && (self.stride == 0 || (t - self.start).is_multiple_of(self.stride))
    }
}

/// Which tasks execute a statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TaskSel {
    /// `ALL TASKS`
    All,
    /// `TASK <expr>` — a single task.
    Single(Expr),
    /// `TASKS t SUCH THAT t IS IN {…}` — an explicit (strided) set.
    Runs(Vec<TaskRun>),
    /// `GROUP <name>` — a previously declared group.
    Group(String),
}

/// A task set with an optionally bound task variable (`ALL TASKS t …`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaskSet {
    /// The bound task variable, if any (`ALL TASKS t …`).
    pub var: Option<String>,
    /// Which tasks the set selects.
    pub sel: TaskSel,
}

impl TaskSet {
    /// `ALL TASKS` without a binder.
    pub fn all() -> TaskSet {
        TaskSet {
            var: None,
            sel: TaskSel::All,
        }
    }

    /// `ALL TASKS <var>` with a bound task variable.
    pub fn all_bound(var: &str) -> TaskSet {
        TaskSet {
            var: Some(var.to_string()),
            sel: TaskSel::All,
        }
    }

    /// `TASK <expr>`.
    pub fn single(e: Expr) -> TaskSet {
        TaskSet {
            var: None,
            sel: TaskSel::Single(e),
        }
    }

    /// `TASKS v SUCH THAT v IS IN {…}`.
    pub fn runs(runs: Vec<TaskRun>, var: Option<&str>) -> TaskSet {
        TaskSet {
            var: var.map(str::to_string),
            sel: TaskSel::Runs(runs),
        }
    }

    /// `GROUP <name>`.
    pub fn group(name: &str) -> TaskSet {
        TaskSet {
            var: None,
            sel: TaskSel::Group(name.to_string()),
        }
    }
}

/// Time units for `COMPUTE FOR`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimeUnit {
    /// `NANOSECONDS`
    Nanoseconds,
    /// `MICROSECONDS`
    Microseconds,
    /// `MILLISECONDS`
    Milliseconds,
    /// `SECONDS`
    Seconds,
}

impl TimeUnit {
    /// `amount` of this unit, in nanoseconds (negatives clamp to zero).
    pub fn nanos(self, amount: i64) -> u64 {
        let amount = amount.max(0) as u64;
        match self {
            TimeUnit::Nanoseconds => amount,
            TimeUnit::Microseconds => amount * 1_000,
            TimeUnit::Milliseconds => amount * 1_000_000,
            TimeUnit::Seconds => amount * 1_000_000_000,
        }
    }

    /// The printed keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            TimeUnit::Nanoseconds => "NANOSECONDS",
            TimeUnit::Microseconds => "MICROSECONDS",
            TimeUnit::Milliseconds => "MILLISECONDS",
            TimeUnit::Seconds => "SECONDS",
        }
    }
}

/// Target of a REDUCE.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReduceTo {
    /// `TO TASK <expr>` → `MPI_Reduce`
    Task(Expr),
    /// `TO ALL TASKS` → `MPI_Allreduce`
    All,
}

/// Statements.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// `GROUP <name> IS <tasks>` — names a static task set (a pure alias;
    /// no communication).
    DeclareGroup {
        /// The group's name.
        name: String,
        /// The tasks it aliases.
        tasks: TaskSet,
    },
    /// `PARTITION ALL TASKS INTO GROUP a = {…}, GROUP b = {…}` (or
    /// `PARTITION GROUP <parent> INTO …`) — the image of one
    /// `MPI_Comm_split` in the original application: every parent task joins
    /// exactly one group, and each group gets a dedicated communicator for
    /// subsequent collectives. Task ids are absolute.
    Partition {
        /// `None` = all tasks.
        parent: Option<String>,
        /// `(group name, members)` pairs; members are absolute task ids.
        groups: Vec<(String, Vec<TaskRun>)>,
    },
    /// `FOR <count> REPETITIONS { … }`
    For {
        /// Iteration count.
        count: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `FOR EACH <var> IN {<from>, …, <to>} { … }`
    ForEach {
        /// The loop variable.
        var: String,
        /// First value (inclusive).
        from: Expr,
        /// Last value (inclusive).
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `IF <cond> THEN { … } OTHERWISE { … }` — evaluated per task.
    If {
        /// The condition, evaluated per task (with `t` bound).
        cond: Cond,
        /// Statements when true.
        then_: Vec<Stmt>,
        /// Statements when false (`OTHERWISE`).
        else_: Vec<Stmt>,
    },
    /// `<tasks> COMPUTE FOR <amount> <unit>`
    Compute {
        /// The computing tasks.
        tasks: TaskSet,
        /// How long, in `unit`s.
        amount: Expr,
        /// Time unit of `amount`.
        unit: TimeUnit,
    },
    /// `<tasks> [ASYNCHRONOUSLY] SEND A <bytes> BYTE MESSAGE [WITH TAG <tag>]
    /// TO TASK <dst>`
    Send {
        /// The sending tasks (binder available in `dst`/`bytes`).
        src: TaskSet,
        /// Destination task id.
        dst: Expr,
        /// Message size.
        bytes: Expr,
        /// Message tag (0 is omitted when printing).
        tag: i32,
        /// `ASYNCHRONOUSLY` → `MPI_Isend`.
        is_async: bool,
    },
    /// `<tasks> [ASYNCHRONOUSLY] RECEIVE A <bytes> BYTE MESSAGE [WITH TAG
    /// <tag>] FROM TASK <src> | FROM ANY TASK`
    Receive {
        /// The receiving tasks.
        dst: TaskSet,
        /// `None` = `FROM ANY TASK` (`MPI_ANY_SOURCE`).
        src: Option<Expr>,
        /// Expected message size.
        bytes: Expr,
        /// Message tag.
        tag: i32,
        /// `ASYNCHRONOUSLY` → `MPI_Irecv`.
        is_async: bool,
    },
    /// `<tasks> AWAIT COMPLETION` — completes all outstanding asynchronous
    /// operations of the executing tasks.
    Await {
        /// The tasks completing their outstanding operations.
        tasks: TaskSet,
    },
    /// `<tasks> SYNCHRONIZE` → `MPI_Barrier`
    Sync {
        /// The synchronising tasks.
        tasks: TaskSet,
    },
    /// `TASK <root> MULTICASTS …` or `<tasks> MULTICAST …` (all-sources) —
    /// one-to-many → `MPI_Bcast`; all-to-all → `MPI_Alltoall`.
    Multicast {
        /// `None` = every participant is a source (many-to-many).
        root: Option<Expr>,
        /// The destination task set.
        tasks: TaskSet,
        /// Message size (per-task total for many-to-many).
        bytes: Expr,
    },
    /// `<tasks> REDUCE A <bytes> BYTE MESSAGE TO <target>`
    Reduce {
        /// The participating tasks.
        tasks: TaskSet,
        /// Where the result goes.
        to: ReduceTo,
        /// Per-task contribution size.
        bytes: Expr,
    },
    /// `ALL TASKS RESET THEIR COUNTERS`
    ResetCounters,
    /// `ALL TASKS LOG "<label>"` — records elapsed virtual time since the
    /// last counter reset.
    Log {
        /// The metric label.
        label: String,
    },
    /// `# <text>` — retained comment.
    Comment(String),
}

/// A complete program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Leading `#` comment block (provenance, generator metadata).
    pub header: Vec<String>,
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// A program with the given statements and no header.
    pub fn new(stmts: Vec<Stmt>) -> Program {
        Program {
            header: Vec::new(),
            stmts,
        }
    }

    /// Total statement count, descending into blocks (a readability /
    /// scalability metric: the paper's generated-code size).
    pub fn stmt_count(&self) -> usize {
        fn walk(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::For { body, .. } | Stmt::ForEach { body, .. } => 1 + walk(body),
                    Stmt::If { then_, else_, .. } => 1 + walk(then_) + walk(else_),
                    _ => 1,
                })
                .sum()
        }
        walk(&self.stmts)
    }

    /// Does the program contain explicit RECEIVE statements? If so, SEND
    /// statements do *not* auto-post matching receives (the generator always
    /// emits explicit receives for precise posting-order control; see the
    /// paper's §3.2 remark).
    pub fn has_explicit_receives(&self) -> bool {
        fn walk(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Receive { .. } => true,
                Stmt::For { body, .. } | Stmt::ForEach { body, .. } => walk(body),
                Stmt::If { then_, else_, .. } => walk(then_) || walk(else_),
                _ => false,
            })
        }
        walk(&self.stmts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_constness() {
        assert!(Expr::num(5).is_const());
        assert!(Expr::add(Expr::num(1), Expr::num(2)).is_const());
        assert!(!Expr::var("t").is_const());
        assert!(!Expr::add(Expr::num(1), Expr::NumTasks).is_const());
    }

    #[test]
    fn task_run_membership() {
        let r = TaskRun {
            start: 2,
            stride: 3,
            count: 4,
        }; // 2,5,8,11
        assert!(r.contains(2) && r.contains(11));
        assert!(!r.contains(3) && !r.contains(14));
        assert_eq!(r.last(), 11);
    }

    #[test]
    fn stmt_count_descends() {
        let p = Program::new(vec![Stmt::For {
            count: Expr::num(10),
            body: vec![
                Stmt::Sync {
                    tasks: TaskSet::all(),
                },
                Stmt::If {
                    cond: Cond::Cmp(Expr::var("t"), CmpOp::Lt, Expr::num(2)),
                    then_: vec![Stmt::ResetCounters],
                    else_: vec![],
                },
            ],
        }]);
        assert_eq!(p.stmt_count(), 4);
    }

    #[test]
    fn explicit_receive_detection() {
        let send_only = Program::new(vec![Stmt::Send {
            src: TaskSet::all_bound("t"),
            dst: Expr::add(Expr::var("t"), Expr::num(1)),
            bytes: Expr::num(1024),
            tag: 0,
            is_async: false,
        }]);
        assert!(!send_only.has_explicit_receives());
        let with_recv = Program::new(vec![Stmt::For {
            count: Expr::num(2),
            body: vec![Stmt::Receive {
                dst: TaskSet::all(),
                src: None,
                bytes: Expr::num(8),
                tag: 0,
                is_async: false,
            }],
        }]);
        assert!(with_recv.has_explicit_receives());
    }

    #[test]
    fn time_units() {
        assert_eq!(TimeUnit::Nanoseconds.nanos(5), 5);
        assert_eq!(TimeUnit::Microseconds.nanos(5), 5_000);
        assert_eq!(TimeUnit::Milliseconds.nanos(5), 5_000_000);
        assert_eq!(TimeUnit::Seconds.nanos(5), 5_000_000_000);
        assert_eq!(TimeUnit::Seconds.nanos(-1), 0);
    }
}
