//! Static validation of programs before execution: group declarations,
//! partition coverage, variable scoping, and collective-subject rules.

use crate::ast::*;
use std::collections::{BTreeMap, BTreeSet};

/// Validate `program` for a world of `n` tasks; returns all diagnostics
/// (empty = valid).
pub fn validate(program: &Program, n: usize) -> Vec<String> {
    let mut v = Validator {
        n,
        groups: BTreeMap::new(),
        errors: Vec::new(),
    };
    let mut vars = BTreeSet::new();
    // `t` is predefined as the executing task id (shadowable by binders).
    vars.insert("t".to_string());
    v.block(&program.stmts, &vars);
    v.errors
}

struct Validator {
    n: usize,
    /// Known group name → members (absolute task ids).
    groups: BTreeMap<String, Vec<usize>>,
    errors: Vec<String>,
}

impl Validator {
    fn block(&mut self, stmts: &[Stmt], vars: &BTreeSet<String>) {
        for s in stmts {
            self.stmt(s, vars);
        }
    }

    fn stmt(&mut self, s: &Stmt, vars: &BTreeSet<String>) {
        match s {
            Stmt::Comment(_) | Stmt::ResetCounters | Stmt::Log { .. } => {}
            Stmt::DeclareGroup { name, tasks } => {
                let members = self.static_members(tasks, &format!("GROUP {name}"));
                self.task_set(tasks, vars);
                self.groups.insert(name.clone(), members);
            }
            Stmt::Partition { parent, groups } => {
                // Per task: is it in the parent, and has a group of this
                // PARTITION claimed it yet?
                let mut in_parent = vec![parent.is_none(); self.n];
                if let Some(g) = parent {
                    let Some(members) = self.groups.get(g) else {
                        self.errors
                            .push(format!("PARTITION references undeclared group {g}"));
                        return;
                    };
                    for &m in members.iter().filter(|&&m| m < self.n) {
                        in_parent[m] = true;
                    }
                }
                let mut seen = vec![false; self.n];
                for (name, runs) in groups {
                    let members = expand_runs(runs);
                    for &m in &members {
                        if !in_parent.get(m).copied().unwrap_or(false) {
                            self.errors
                                .push(format!("group {name}: task {m} is not in the parent set"));
                        }
                        // A task past the world is reported once above.
                        if let Some(claimed) = seen.get_mut(m) {
                            if std::mem::replace(claimed, true) {
                                self.errors
                                    .push(format!("group {name}: task {m} appears in two groups"));
                            }
                        }
                    }
                    self.groups.insert(name.clone(), members);
                }
                // Note: a PARTITION need not cover its whole parent —
                // sibling PARTITION statements may realise the remaining
                // groups of the same original MPI_Comm_split (the benchmark
                // generator emits one statement per adjacency run of split
                // RSDs in the trace).
            }
            Stmt::For { count, body } => {
                self.expr(count, vars);
                self.block(body, vars);
            }
            Stmt::ForEach {
                var,
                from,
                to,
                body,
            } => {
                self.expr(from, vars);
                self.expr(to, vars);
                let mut inner = vars.clone();
                inner.insert(var.clone());
                self.block(body, &inner);
            }
            Stmt::If { cond, then_, else_ } => {
                self.cond(cond, vars);
                self.block(then_, vars);
                self.block(else_, vars);
            }
            Stmt::Compute { tasks, amount, .. } => {
                let inner = self.task_set(tasks, vars);
                self.expr(amount, &inner);
            }
            Stmt::Send {
                src, dst, bytes, ..
            } => {
                let inner = self.task_set(src, vars);
                self.expr(dst, &inner);
                self.expr(bytes, &inner);
            }
            Stmt::Receive {
                dst, src, bytes, ..
            } => {
                let inner = self.task_set(dst, vars);
                if let Some(src) = src {
                    self.expr(src, &inner);
                }
                self.expr(bytes, &inner);
            }
            Stmt::Await { tasks } => {
                self.task_set(tasks, vars);
            }
            Stmt::Sync { tasks } => {
                self.collective_subject(tasks, vars, "SYNCHRONIZE");
            }
            Stmt::Multicast { root, tasks, bytes } => {
                let inner = self.collective_subject(tasks, vars, "MULTICAST");
                if let Some(root) = root {
                    self.expr(root, &inner);
                }
                self.expr(bytes, &inner);
            }
            Stmt::Reduce { tasks, to, bytes } => {
                let inner = self.collective_subject(tasks, vars, "REDUCE");
                if let ReduceTo::Task(e) = to {
                    self.expr(e, &inner);
                }
                self.expr(bytes, &inner);
            }
        }
    }

    /// Check a task set and return the variable scope inside it (binder
    /// added).
    fn task_set(&mut self, ts: &TaskSet, vars: &BTreeSet<String>) -> BTreeSet<String> {
        let mut inner = vars.clone();
        if let Some(v) = &ts.var {
            inner.insert(v.clone());
        }
        match &ts.sel {
            TaskSel::All => {}
            TaskSel::Single(e) => self.expr(e, vars),
            TaskSel::Runs(runs) => {
                for r in runs {
                    if r.count > 0 && r.last() >= self.n {
                        self.errors.push(format!(
                            "task set references task {} but NUM_TASKS is {}",
                            r.last(),
                            self.n
                        ));
                    }
                }
            }
            TaskSel::Group(g) => {
                if !self.groups.contains_key(g) {
                    self.errors.push(format!("undeclared group {g}"));
                }
            }
        }
        inner
    }

    /// Collectives need a statically resolvable participant set.
    fn collective_subject(
        &mut self,
        ts: &TaskSet,
        vars: &BTreeSet<String>,
        what: &str,
    ) -> BTreeSet<String> {
        if let TaskSel::Single(_) = ts.sel {
            self.errors
                .push(format!("{what} requires a multi-task subject"));
        }
        self.task_set(ts, vars)
    }

    fn static_members(&mut self, ts: &TaskSet, what: &str) -> Vec<usize> {
        match &ts.sel {
            TaskSel::All => (0..self.n).collect(),
            TaskSel::Runs(runs) => expand_runs(runs),
            TaskSel::Group(g) => self.groups.get(g).cloned().unwrap_or_default(),
            TaskSel::Single(e) if e.is_const() => {
                vec![crate::interp::eval_const(e).max(0) as usize]
            }
            _ => {
                self.errors
                    .push(format!("{what} must be a static task set"));
                Vec::new()
            }
        }
    }

    fn expr(&mut self, e: &Expr, vars: &BTreeSet<String>) {
        match e {
            Expr::Num(_) | Expr::NumTasks => {}
            Expr::Var(v) => {
                if !vars.contains(v) {
                    self.errors.push(format!("unbound variable {v}"));
                }
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Xor(a, b) => {
                self.expr(a, vars);
                self.expr(b, vars);
            }
        }
    }

    fn cond(&mut self, c: &Cond, vars: &BTreeSet<String>) {
        match c {
            Cond::Cmp(a, _, b) | Cond::Divides(a, b) => {
                self.expr(a, vars);
                self.expr(b, vars);
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                self.cond(a, vars);
                self.cond(b, vars);
            }
            Cond::Not(a) => self.cond(a, vars),
        }
    }
}

/// Expand run specs to a sorted member list.
pub fn expand_runs(runs: &[TaskRun]) -> Vec<usize> {
    let mut v: Vec<usize> = runs
        .iter()
        .flat_map(|r| (0..r.count).map(move |i| r.start + i * r.stride))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(v: &[(usize, usize, usize)]) -> Vec<TaskRun> {
        v.iter()
            .map(|&(start, stride, count)| TaskRun {
                start,
                stride,
                count,
            })
            .collect()
    }

    #[test]
    fn valid_program_passes() {
        let p = Program::new(vec![
            Stmt::Partition {
                parent: None,
                groups: vec![
                    ("a".into(), runs(&[(0, 1, 2)])),
                    ("b".into(), runs(&[(2, 1, 2)])),
                ],
            },
            Stmt::Sync {
                tasks: TaskSet::group("a"),
            },
            Stmt::ForEach {
                var: "i".into(),
                from: Expr::num(0),
                to: Expr::num(3),
                body: vec![Stmt::Compute {
                    tasks: TaskSet::all(),
                    amount: Expr::var("i"),
                    unit: TimeUnit::Microseconds,
                }],
            },
        ]);
        assert_eq!(validate(&p, 4), Vec::<String>::new());
    }

    #[test]
    fn undeclared_group_is_an_error() {
        let p = Program::new(vec![Stmt::Sync {
            tasks: TaskSet::group("nope"),
        }]);
        let errs = validate(&p, 4);
        assert!(errs.iter().any(|e| e.contains("undeclared group")));
    }

    #[test]
    fn partial_partitions_are_allowed() {
        // sibling partitions of one original split, emitted separately
        let p = Program::new(vec![
            Stmt::Partition {
                parent: None,
                groups: vec![("a".into(), runs(&[(0, 1, 2)]))],
            },
            Stmt::Partition {
                parent: None,
                groups: vec![("b".into(), runs(&[(2, 1, 2)]))],
            },
        ]);
        assert_eq!(validate(&p, 4), Vec::<String>::new());
    }

    #[test]
    fn partition_groups_must_be_disjoint() {
        let p = Program::new(vec![Stmt::Partition {
            parent: None,
            groups: vec![
                ("a".into(), runs(&[(0, 1, 3)])),
                ("b".into(), runs(&[(2, 1, 2)])),
            ],
        }]);
        let errs = validate(&p, 4);
        assert!(errs.iter().any(|e| e.contains("two groups")));
    }

    #[test]
    fn unbound_variable_detected() {
        let p = Program::new(vec![Stmt::Compute {
            tasks: TaskSet::all(),
            amount: Expr::var("k"),
            unit: TimeUnit::Microseconds,
        }]);
        let errs = validate(&p, 4);
        assert!(errs.iter().any(|e| e.contains("unbound variable k")));
    }

    #[test]
    fn predefined_t_is_in_scope() {
        let p = Program::new(vec![Stmt::If {
            cond: Cond::Cmp(Expr::var("t"), CmpOp::Lt, Expr::num(2)),
            then_: vec![Stmt::ResetCounters],
            else_: vec![],
        }]);
        assert!(validate(&p, 4).is_empty());
    }

    #[test]
    fn task_set_beyond_world_detected() {
        let p = Program::new(vec![Stmt::Sync {
            tasks: TaskSet::runs(runs(&[(0, 1, 9)]), Some("t")),
        }]);
        let errs = validate(&p, 4);
        assert!(errs.iter().any(|e| e.contains("NUM_TASKS")));
    }

    #[test]
    fn singular_collective_subject_rejected() {
        let p = Program::new(vec![Stmt::Reduce {
            tasks: TaskSet::single(Expr::num(0)),
            to: ReduceTo::All,
            bytes: Expr::num(8),
        }]);
        let errs = validate(&p, 4);
        assert!(errs.iter().any(|e| e.contains("multi-task")));
    }
}
