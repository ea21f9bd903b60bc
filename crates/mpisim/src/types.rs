//! Shared MPI-level vocabulary types: ranks, tags, wildcards, request
//! handles, message metadata, and collective kinds.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Absolute rank within `MPI_COMM_WORLD`. Communicator-relative ranks are
/// always translated at the [`crate::ctx::Ctx`] boundary, so the engine and
/// all hooks deal exclusively in absolute ranks (paper §4.2).
pub type Rank = usize;

/// Message tag. MPI uses non-negative `int` tags.
pub type Tag = i32;

/// Source selector for receive operations: a concrete rank or the
/// `MPI_ANY_SOURCE` wildcard whose elimination is the subject of the paper's
/// Algorithm 2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Src {
    /// A concrete source rank.
    Rank(Rank),
    /// `MPI_ANY_SOURCE`.
    Any,
}

impl Src {
    /// Does a message from `actual` satisfy this selector?
    pub fn matches(self, actual: Rank) -> bool {
        match self {
            Src::Rank(r) => r == actual,
            Src::Any => true,
        }
    }

    /// Is this `MPI_ANY_SOURCE`?
    pub fn is_wildcard(self) -> bool {
        matches!(self, Src::Any)
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Rank(r) => write!(f, "{r}"),
            Src::Any => write!(f, "ANY_SOURCE"),
        }
    }
}

/// Tag selector for receive operations (`MPI_ANY_TAG` supported).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TagSel {
    /// A concrete tag.
    Is(Tag),
    /// `MPI_ANY_TAG`.
    Any,
}

impl TagSel {
    /// Does a message with tag `actual` satisfy this selector?
    pub fn matches(self, actual: Tag) -> bool {
        match self {
            TagSel::Is(t) => t == actual,
            TagSel::Any => true,
        }
    }
}

impl fmt::Display for TagSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagSel::Is(t) => write!(f, "{t}"),
            TagSel::Any => write!(f, "ANY_TAG"),
        }
    }
}

/// Handle for an outstanding nonblocking operation, comparable to an
/// `MPI_Request`. Handles are rank-local and must be completed with
/// [`crate::ctx::Ctx::wait`] or [`crate::ctx::Ctx::waitall`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ReqHandle(pub(crate) u64);

impl ReqHandle {
    /// The rank-local numeric id of the request.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Completion metadata for a receive, comparable to `MPI_Status`: the actual
/// (resolved) source rank, tag, and byte count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MsgInfo {
    /// Actual source, as an absolute rank (resolves `MPI_ANY_SOURCE`).
    pub source: Rank,
    /// Actual tag (resolves `MPI_ANY_TAG`).
    pub tag: Tag,
    /// Actual payload size.
    pub bytes: u64,
}

/// The collective operations of the paper's Table 1 plus `Barrier`,
/// `Bcast`, `Allreduce`, and the `Finalize` pseudo-collective.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CollKind {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Reduce`.
    Reduce,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Gather`.
    Gather,
    /// `MPI_Gatherv`.
    Gatherv,
    /// `MPI_Scatter`.
    Scatter,
    /// `MPI_Scatterv`.
    Scatterv,
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Allgatherv`.
    Allgatherv,
    /// `MPI_Alltoall`.
    Alltoall,
    /// `MPI_Alltoallv`.
    Alltoallv,
    /// `MPI_Reduce_scatter`.
    ReduceScatter,
    /// `MPI_Finalize`, treated as a collective over the world communicator as
    /// in the paper's Algorithms 1 and 2.
    Finalize,
    /// `MPI_Comm_split` — a synchronising operation over the parent
    /// communicator.
    CommSplit,
}

impl CollKind {
    /// Every collective kind, in declaration order.
    pub const ALL: &'static [CollKind] = &[
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
        CollKind::Gather,
        CollKind::Gatherv,
        CollKind::Scatter,
        CollKind::Scatterv,
        CollKind::Allgather,
        CollKind::Allgatherv,
        CollKind::Alltoall,
        CollKind::Alltoallv,
        CollKind::ReduceScatter,
        CollKind::Finalize,
        CollKind::CommSplit,
    ];

    /// MPI-style routine name, used in traces and profiles.
    pub fn mpi_name(self) -> &'static str {
        match self {
            CollKind::Barrier => "MPI_Barrier",
            CollKind::Bcast => "MPI_Bcast",
            CollKind::Reduce => "MPI_Reduce",
            CollKind::Allreduce => "MPI_Allreduce",
            CollKind::Gather => "MPI_Gather",
            CollKind::Gatherv => "MPI_Gatherv",
            CollKind::Scatter => "MPI_Scatter",
            CollKind::Scatterv => "MPI_Scatterv",
            CollKind::Allgather => "MPI_Allgather",
            CollKind::Allgatherv => "MPI_Allgatherv",
            CollKind::Alltoall => "MPI_Alltoall",
            CollKind::Alltoallv => "MPI_Alltoallv",
            CollKind::ReduceScatter => "MPI_Reduce_scatter",
            CollKind::Finalize => "MPI_Finalize",
            CollKind::CommSplit => "MPI_Comm_split",
        }
    }

    /// Does the collective take a root rank?
    pub fn rooted(self) -> bool {
        matches!(
            self,
            CollKind::Bcast
                | CollKind::Reduce
                | CollKind::Gather
                | CollKind::Gatherv
                | CollKind::Scatter
                | CollKind::Scatterv
        )
    }
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mpi_name())
    }
}

/// A source-code call site (captured via `#[track_caller]` on every `Ctx`
/// operation), the analogue of ScalaTrace's instruction-address component of
/// the stack signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CallSite {
    /// Source file of the call.
    pub file: &'static str,
    /// Line number.
    pub line: u32,
    /// Column number.
    pub column: u32,
}

impl CallSite {
    /// Capture from a `#[track_caller]` location.
    pub fn from_location(loc: &'static std::panic::Location<'static>) -> Self {
        CallSite {
            file: loc.file(),
            line: loc.line(),
            column: loc.column(),
        }
    }
}

impl fmt::Display for CallSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

/// FNV-1a — a small, dependency-free hash used for stack signatures.
/// `Copy`, so a state can be saved and resumed: [`Fnv1a::finish`] is the
/// whole state.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher in its initial state.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb one little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// An Fx-style multiplicative hasher for keys the crate makes itself
/// (sequential ids, string addresses). Multiplying spreads a small key into
/// the top bits, which hashbrown's control bytes are taken from.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`FxHasher`].
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn src_matching() {
        assert!(Src::Any.matches(7));
        assert!(Src::Rank(7).matches(7));
        assert!(!Src::Rank(7).matches(8));
        assert!(Src::Any.is_wildcard());
        assert!(!Src::Rank(0).is_wildcard());
    }

    #[test]
    fn tag_matching() {
        assert!(TagSel::Any.matches(42));
        assert!(TagSel::Is(42).matches(42));
        assert!(!TagSel::Is(42).matches(43));
    }

    #[test]
    fn coll_kind_names_unique() {
        let mut names: Vec<_> = CollKind::ALL.iter().map(|k| k.mpi_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), CollKind::ALL.len());
    }

    #[test]
    fn rooted_collectives() {
        assert!(CollKind::Bcast.rooted());
        assert!(CollKind::Scatterv.rooted());
        assert!(!CollKind::Allreduce.rooted());
        assert!(!CollKind::Barrier.rooted());
    }

    #[test]
    fn fnv_is_deterministic_and_sensitive() {
        let mut a = Fnv1a::new();
        a.write(b"hello");
        let mut b = Fnv1a::new();
        b.write(b"hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv1a::new();
        c.write(b"hellp");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Src::Any.to_string(), "ANY_SOURCE");
        assert_eq!(Src::Rank(3).to_string(), "3");
        assert_eq!(TagSel::Any.to_string(), "ANY_TAG");
        assert_eq!(CollKind::ReduceScatter.to_string(), "MPI_Reduce_scatter");
    }
}
