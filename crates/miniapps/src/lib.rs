#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # miniapps — communication skeletons of the paper's evaluation codes
//!
//! The paper evaluates on the NAS Parallel Benchmarks 3.3 (BT, CG, EP, FT,
//! IS, LU, MG, SP) with class C inputs and the Sweep3D neutron-transport
//! kernel. We cannot run the Fortran/C originals inside the simulator, so
//! each application is reproduced as a *communication skeleton*: the
//! published communication structure (message pattern, counts, sizes and
//! collective usage as functions of problem size and rank count) plus an
//! analytic computation-time model. The trace/generate/replay pipeline only
//! observes MPI events and inter-event times, so skeletons exercise exactly
//! the same code paths the original applications would (substitution
//! documented in DESIGN.md).
//!
//! Properties deliberately preserved because the paper's algorithms depend
//! on them:
//! * **LU** uses `MPI_ANY_SOURCE` receives in its wavefront sweeps — the
//!   paper's motivating case for Algorithm 2 (§4.4).
//! * **Sweep3D** invokes collectives from *different call sites* on
//!   different ranks — the motivating case for Algorithm 1 (§4.3).
//! * **CG** splits communicators (row/column groups); **IS** uses
//!   `MPI_Alltoallv` with rank-dependent volumes (Table 1 averaging).
//! * **EP** is compute-dominated; **CG/FT/MG** are memory-bound in the
//!   original suite, which the paper notes stresses the spin-loop compute
//!   replay — here compute is virtual time, so the equivalent stress is
//!   large `compute` fractions.
//!
//! Problem classes follow the NPB naming (S, W, A, B, C) with sizes taken
//! from the published class tables; iteration counts are scaled down by a
//! fixed per-app factor (documented in each module) so that simulations
//! finish in seconds — the *per-iteration* structure is unchanged.

pub mod bt;
pub mod cg;
pub mod ep;
pub mod ft;
pub mod is_sort;
pub mod lu;
pub mod mg;
pub mod ring;
pub mod sp;
pub mod sweep3d;
pub mod util;

use mpisim::ctx::Ctx;

/// NPB problem classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Sample (tiny).
    S,
    /// Workstation.
    W,
    /// Class A.
    A,
    /// Class B.
    B,
    /// Class C — the paper's evaluation size.
    C,
}

impl Class {
    /// One-letter class name.
    pub fn name(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
        }
    }
}

/// Inverse of [`Class::name`].
impl std::str::FromStr for Class {
    type Err = String;

    fn from_str(s: &str) -> Result<Class, String> {
        [Class::S, Class::W, Class::A, Class::B, Class::C]
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| format!("unknown class {s} (expected S|W|A|B|C)"))
    }
}

/// Run parameters for a skeleton.
#[derive(Clone, Copy, Debug)]
pub struct AppParams {
    /// Problem class.
    pub class: Class,
    /// Override the class's (already scaled) iteration count.
    pub iterations: Option<usize>,
    /// Scale factor applied to all computation times (1.0 = unmodified);
    /// the knob behind the paper's §5.4 what-if experiment.
    pub compute_scale: f64,
}

impl AppParams {
    /// Defaults for `class` (class iteration counts, unscaled compute).
    pub fn class(class: Class) -> AppParams {
        AppParams {
            class,
            iterations: None,
            compute_scale: 1.0,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn quick() -> AppParams {
        AppParams {
            class: Class::S,
            iterations: Some(3),
            compute_scale: 1.0,
        }
    }

    pub(crate) fn iters(&self, class_default: usize) -> usize {
        self.iterations.unwrap_or(class_default)
    }
}

/// A runnable application skeleton.
#[derive(Clone, Copy)]
pub struct App {
    /// Registry name (e.g. `"lu"`).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The skeleton entry point, run on every rank.
    pub run: fn(&mut Ctx, &AppParams),
    /// Is `n` a valid rank count for this app's decomposition?
    pub valid_ranks: fn(usize) -> bool,
    /// Rank counts used by the Figure 6 sweep (ascending).
    pub fig6_ranks: &'static [usize],
}

/// The application registry.
pub mod registry {
    use super::*;

    /// All bundled applications.
    pub fn all() -> &'static [App] {
        &[
            ring::APP,
            bt::APP,
            cg::APP,
            ep::APP,
            ft::APP,
            is_sort::APP,
            lu::APP,
            mg::APP,
            sp::APP,
            sweep3d::APP,
        ]
    }

    /// The paper's evaluation suite (NPB + Sweep3D, without the ring demo).
    pub fn paper_suite() -> Vec<&'static App> {
        all().iter().filter(|a| a.name != "ring").collect()
    }

    /// Find an application by registry name.
    pub fn lookup(name: &str) -> Option<&'static App> {
        all().iter().find(|a| a.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_paper_suite() {
        let names: Vec<&str> = registry::paper_suite().iter().map(|a| a.name).collect();
        for expected in ["bt", "cg", "ep", "ft", "is", "lu", "mg", "sp", "sweep3d"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(registry::lookup("ring").is_some());
        assert!(registry::lookup("nope").is_none());
    }

    #[test]
    fn class_letters_parse_back_and_nothing_else_does() {
        for class in [Class::S, Class::W, Class::A, Class::B, Class::C] {
            assert_eq!(class.name().parse::<Class>(), Ok(class));
        }
        for bad in ["Z", "s", "", "AB"] {
            let err = bad.parse::<Class>().unwrap_err();
            assert_eq!(err, format!("unknown class {bad} (expected S|W|A|B|C)"));
        }
    }

    #[test]
    fn fig6_ranks_are_valid_for_each_app() {
        for app in registry::all() {
            for &n in app.fig6_ranks {
                assert!(
                    (app.valid_ranks)(n),
                    "{}: fig6 rank count {n} is invalid",
                    app.name
                );
            }
        }
    }
}
