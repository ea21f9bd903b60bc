//! Communicators: subsets of ranks, renumbered and possibly reordered.
//!
//! Following the paper (§4.2), the engine and all hooks operate exclusively
//! in *absolute* ranks (positions within `MPI_COMM_WORLD`); the
//! communicator-relative view exists only at the [`crate::ctx::Ctx`] API
//! boundary, where [`Comm::translate`]/[`Comm::relative_of`] convert.

use crate::types::Rank;
use std::sync::Arc;

/// Engine-side communicator identifier. The world communicator is id 0.
pub type CommId = u32;

/// The id of `MPI_COMM_WORLD`.
pub const WORLD: CommId = 0;

/// A handle to a communicator, carried by rank code. Cheap to clone.
#[derive(Clone, Debug)]
pub struct Comm {
    /// Engine-side communicator id.
    pub id: CommId,
    /// This rank's position within the communicator.
    pub rank: usize,
    /// Number of members.
    pub size: usize,
    /// Absolute (world) rank of each member, indexed by communicator rank.
    pub members: Arc<Vec<Rank>>,
}

impl Comm {
    /// The world communicator as seen by absolute rank `rank`, over the
    /// world's one member list (`0..n`, made once per run by
    /// [`crate::world::World`]): every rank's handle shares it.
    pub fn world(rank: Rank, members: &Arc<Vec<Rank>>) -> Comm {
        Comm {
            id: WORLD,
            rank,
            size: members.len(),
            members: Arc::clone(members),
        }
    }

    /// Absolute rank of communicator-relative rank `rel`.
    ///
    /// # Panics
    /// Panics if `rel` is out of range — the simulated analogue of an MPI
    /// invalid-rank error.
    pub fn translate(&self, rel: usize) -> Rank {
        assert!(
            rel < self.size,
            "rank {rel} out of range for communicator {} (size {})",
            self.id,
            self.size
        );
        self.members[rel]
    }

    /// Communicator-relative rank of absolute rank `abs`, if a member.
    pub fn relative_of(&self, abs: Rank) -> Option<usize> {
        self.members.iter().position(|&m| m == abs)
    }

    /// Is absolute rank `abs` a member?
    pub fn contains(&self, abs: Rank) -> bool {
        self.members.contains(&abs)
    }
}

/// Compute the member groups of an `MPI_Comm_split`: one group per distinct
/// color, each ordered by `(key, parent rank)`. Input is
/// `(absolute rank, color, key)` per participant. Groups are returned in
/// ascending color order.
pub fn split_groups(mut entries: Vec<(Rank, i64, i64)>) -> Vec<(i64, Vec<Rank>)> {
    entries.sort_by_key(|&(rank, color, key)| (color, key, rank));
    let mut groups: Vec<(i64, Vec<Rank>)> = Vec::new();
    for (rank, color, _key) in entries {
        match groups.last_mut() {
            Some((c, members)) if *c == color => members.push(rank),
            _ => groups.push((color, vec![rank])),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_translation_is_identity() {
        let w = Comm::world(3, &Arc::new((0..8).collect()));
        assert_eq!(w.translate(5), 5);
        assert_eq!(w.relative_of(5), Some(5));
        assert_eq!(w.rank, 3);
        assert_eq!(w.size, 8);
    }

    #[test]
    fn subset_translation() {
        let c = Comm {
            id: 1,
            rank: 0,
            size: 3,
            members: Arc::new(vec![2, 5, 7]),
        };
        // "rank 1 in the communicator" is really absolute rank 5 — the
        // disturbing consequence the paper notes in §4.2.
        assert_eq!(c.translate(1), 5);
        assert_eq!(c.relative_of(7), Some(2));
        assert_eq!(c.relative_of(3), None);
        assert!(c.contains(2));
        assert!(!c.contains(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn translate_out_of_range_panics() {
        let c = Comm::world(0, &Arc::new((0..4).collect()));
        c.translate(4);
    }

    #[test]
    fn split_groups_by_color_then_key() {
        // ranks 0..6 split by parity, with rank 4 requesting key -1 so it
        // leads its group despite a higher parent rank.
        let entries = vec![
            (0, 0, 0),
            (1, 1, 0),
            (2, 0, 0),
            (3, 1, 0),
            (4, 0, -1),
            (5, 1, 0),
        ];
        let groups = split_groups(entries);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (0, vec![4, 0, 2]));
        assert_eq!(groups[1], (1, vec![1, 3, 5]));
    }

    #[test]
    fn split_single_group() {
        let groups = split_groups(vec![(1, 9, 0), (0, 9, 0)]);
        assert_eq!(groups, vec![(9, vec![0, 1])]);
    }
}
