//! Network timing models.
//!
//! The paper's evaluation ran on two machines: *Ocracoke*, an IBM Blue
//! Gene/L, and *ARC*, an Ethernet cluster. We substitute parameterised
//! analytic models (latency/bandwidth/overheads in the LogGP tradition, plus
//! the messaging-layer mechanisms — the unexpected-message queue and
//! credit-based flow control — that the paper uses to explain Figure 7's
//! non-monotonic what-if curve). The absolute constants are calibrations,
//! not claims; what the experiments compare is *original application vs.
//! generated benchmark on the same model*.

use crate::time::SimDuration;
use crate::types::{CollKind, Rank};
use std::sync::Arc;

/// Timing and protocol parameters of the simulated machine.
///
/// All methods take and return virtual time; implementations must be pure
/// functions of their arguments so that simulation stays deterministic.
pub trait NetworkModel: Send + Sync {
    /// Human-readable platform name (appears in reports).
    fn name(&self) -> &str;

    /// CPU overhead on the sender for initiating a message.
    fn send_overhead(&self, bytes: u64) -> SimDuration;

    /// CPU overhead on the receiver for completing a message.
    fn recv_overhead(&self, bytes: u64) -> SimDuration;

    /// Wire time from injection at `src` to arrival at `dst`.
    fn transit(&self, src: Rank, dst: Rank, bytes: u64) -> SimDuration;

    /// Largest message sent eagerly (buffered at the receiver if no receive
    /// is posted); larger messages use a rendezvous protocol.
    fn eager_limit(&self) -> u64;

    /// Extra copy cost paid when a message landed in the unexpected queue
    /// and must later be copied into the application buffer.
    fn unexpected_copy(&self, bytes: u64) -> SimDuration;

    /// Per-node capacity (bytes) for buffering unexpected eager messages.
    /// When exhausted, senders stall (flow control).
    fn unexpected_capacity(&self) -> u64;

    /// Latency penalty paid by a sender resuming from a flow-control stall.
    fn stall_resume_penalty(&self) -> SimDuration;

    /// Cost of a collective over `participants` ranks moving `total_bytes`
    /// in aggregate. The default builds log-tree estimates from the
    /// point-to-point parameters.
    fn collective(&self, kind: CollKind, participants: usize, total_bytes: u64) -> SimDuration {
        default_collective_cost(self, kind, participants, total_bytes)
    }
}

/// Log-tree collective cost built from a model's point-to-point parameters.
///
/// `total_bytes` is the sum of all participants' contributions; per-stage
/// volume is derived per collective shape. These are the standard
/// first-order estimates (binomial trees for rooted/one-to-all shapes,
/// ring/pairwise terms for all-to-all shapes).
pub fn default_collective_cost<M: NetworkModel + ?Sized>(
    model: &M,
    kind: CollKind,
    participants: usize,
    total_bytes: u64,
) -> SimDuration {
    let p = participants.max(1) as u64;
    let log_p = (usize::BITS - (participants.max(1) - 1).leading_zeros()) as u64; // ceil(log2 p)
    let lat = model.transit(0, 1.min(participants.saturating_sub(1)), 0);
    let per_rank = total_bytes / p;
    // Wire time for a `b`-byte hop, ignoring topology (src/dst 0→1).
    let wire = |b: u64| model.transit(0, 1.min(participants.saturating_sub(1)), b);
    match kind {
        CollKind::Barrier | CollKind::CommSplit | CollKind::Finalize => lat * (2 * log_p).max(1),
        CollKind::Bcast | CollKind::Scatter | CollKind::Scatterv => wire(per_rank) * log_p.max(1),
        CollKind::Reduce | CollKind::Gather | CollKind::Gatherv => {
            (wire(per_rank) + model.recv_overhead(per_rank)) * log_p.max(1)
        }
        CollKind::Allreduce | CollKind::Allgather | CollKind::Allgatherv => {
            // reduce/gather + broadcast
            (wire(per_rank) + model.recv_overhead(per_rank)) * log_p.max(1)
                + wire(per_rank) * log_p.max(1)
        }
        CollKind::Alltoall | CollKind::Alltoallv => {
            // pairwise exchange: p-1 rounds of per-pair volume
            let per_pair = per_rank / p.max(1);
            (wire(per_pair) + model.send_overhead(per_pair)) * (p - 1).max(1)
        }
        CollKind::ReduceScatter => {
            (wire(per_rank) + model.recv_overhead(per_rank)) * log_p.max(1) + wire(per_rank / p)
        }
    }
}

/// A flat latency/bandwidth machine with tunable messaging-layer constants.
#[derive(Clone, Debug)]
pub struct FlatNetwork {
    /// Platform name shown in reports.
    pub name: String,
    /// One-way wire latency.
    pub latency: SimDuration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Fixed CPU overhead per send/receive.
    pub cpu_overhead: SimDuration,
    /// Per-byte CPU cost of a local memory copy (unexpected-queue drain),
    /// in seconds per byte.
    pub copy_secs_per_byte: f64,
    /// Largest eagerly-sent message.
    pub eager_limit: u64,
    /// Unexpected-message buffer capacity per node.
    pub unexpected_capacity: u64,
    /// Base penalty for resuming a flow-control-stalled sender.
    pub stall_resume_penalty: SimDuration,
}

impl NetworkModel for FlatNetwork {
    fn name(&self) -> &str {
        &self.name
    }

    fn send_overhead(&self, _bytes: u64) -> SimDuration {
        self.cpu_overhead
    }

    fn recv_overhead(&self, _bytes: u64) -> SimDuration {
        self.cpu_overhead
    }

    fn transit(&self, _src: Rank, _dst: Rank, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    fn eager_limit(&self) -> u64 {
        self.eager_limit
    }

    fn unexpected_copy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * self.copy_secs_per_byte)
    }

    fn unexpected_capacity(&self) -> u64 {
        self.unexpected_capacity
    }

    fn stall_resume_penalty(&self) -> SimDuration {
        self.stall_resume_penalty
    }
}

/// A 3-D torus with per-hop latency, standing in for the Blue Gene/L
/// interconnect. Rank → coordinate mapping is row-major over `dims`.
#[derive(Clone, Debug)]
pub struct TorusNetwork {
    /// Platform name shown in reports.
    pub name: String,
    /// Torus dimensions (x, y, z).
    pub dims: [usize; 3],
    /// Added latency per torus hop.
    pub per_hop_latency: SimDuration,
    /// Fixed injection latency.
    pub base_latency: SimDuration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Fixed CPU overhead per send/receive.
    pub cpu_overhead: SimDuration,
    /// Per-byte CPU cost of an unexpected-queue copy (seconds per byte).
    pub copy_secs_per_byte: f64,
    /// Largest eagerly-sent message.
    pub eager_limit: u64,
    /// Unexpected-message buffer capacity per node.
    pub unexpected_capacity: u64,
    /// Base penalty for resuming a flow-control-stalled sender.
    pub stall_resume_penalty: SimDuration,
}

impl TorusNetwork {
    fn coords(&self, rank: Rank) -> [usize; 3] {
        let [x, y, _] = self.dims;
        [rank % x, (rank / x) % y, rank / (x * y)]
    }

    /// Minimal hop count between two ranks on the torus (ranks beyond the
    /// torus volume wrap around, which only matters for degenerate configs).
    pub fn hops(&self, a: Rank, b: Rank) -> usize {
        let ca = self.coords(a % self.dims.iter().product::<usize>().max(1));
        let cb = self.coords(b % self.dims.iter().product::<usize>().max(1));
        (0..3)
            .map(|i| {
                let d = ca[i].abs_diff(cb[i]);
                d.min(self.dims[i] - d)
            })
            .sum()
    }
}

impl NetworkModel for TorusNetwork {
    fn name(&self) -> &str {
        &self.name
    }

    fn send_overhead(&self, _bytes: u64) -> SimDuration {
        self.cpu_overhead
    }

    fn recv_overhead(&self, _bytes: u64) -> SimDuration {
        self.cpu_overhead
    }

    fn transit(&self, src: Rank, dst: Rank, bytes: u64) -> SimDuration {
        let hops = if src == dst {
            0
        } else {
            self.hops(src, dst).max(1)
        };
        self.base_latency
            + self.per_hop_latency * hops as u64
            + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    fn eager_limit(&self) -> u64 {
        self.eager_limit
    }

    fn unexpected_copy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * self.copy_secs_per_byte)
    }

    fn unexpected_capacity(&self) -> u64 {
        self.unexpected_capacity
    }

    fn stall_resume_penalty(&self) -> SimDuration {
        self.stall_resume_penalty
    }
}

/// Zero-cost network: every operation is free. Useful for unit tests that
/// check semantics (matching, ordering, deadlock) independent of timing.
#[derive(Clone, Debug, Default)]
pub struct IdealNetwork;

impl NetworkModel for IdealNetwork {
    fn name(&self) -> &str {
        "ideal"
    }

    fn send_overhead(&self, _bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }

    fn recv_overhead(&self, _bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }

    fn transit(&self, _src: Rank, _dst: Rank, _bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }

    fn eager_limit(&self) -> u64 {
        u64::MAX
    }

    fn unexpected_copy(&self, _bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }

    fn unexpected_capacity(&self) -> u64 {
        u64::MAX
    }

    fn stall_resume_penalty(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn collective(&self, _kind: CollKind, _p: usize, _bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Calibration standing in for the paper's Blue Gene/L ("Ocracoke"):
/// ~3 µs nearest-neighbour latency, ~150 MB/s per torus link, small eager
/// limit and generous unexpected buffering (BG/L had dedicated memory for
/// the torus FIFOs).
pub fn blue_gene_l() -> Arc<dyn NetworkModel> {
    Arc::new(TorusNetwork {
        name: "BlueGene/L (simulated)".into(),
        dims: [8, 8, 16],
        per_hop_latency: SimDuration::from_nanos(100),
        base_latency: SimDuration::from_usecs(3),
        bandwidth_bps: 150.0e6,
        cpu_overhead: SimDuration::from_nanos(800),
        copy_secs_per_byte: 1.0 / 2.0e9,
        eager_limit: 1024,
        unexpected_capacity: 8 << 20,
        stall_resume_penalty: SimDuration::from_usecs(10),
    })
}

/// Calibration standing in for the paper's Ethernet cluster ("ARC"):
/// ~50 µs latency, 1 Gb/s, 64 KiB eager limit, socket-buffer-sized
/// unexpected-message capacity (128 KiB, the classic default SO_RCVBUF),
/// and an expensive flow-control stall — the regime where Figure 7's
/// upturn at 0% compute appears.
pub fn ethernet_cluster() -> Arc<dyn NetworkModel> {
    Arc::new(FlatNetwork {
        name: "Ethernet cluster (simulated)".into(),
        latency: SimDuration::from_usecs(50),
        bandwidth_bps: 125.0e6,
        cpu_overhead: SimDuration::from_usecs(5),
        copy_secs_per_byte: 1.0 / 1.0e9,
        eager_limit: 64 << 10,
        unexpected_capacity: 128 << 10,
        stall_resume_penalty: SimDuration::from_usecs(400),
    })
}

/// Zero-cost network as a trait object.
pub fn ideal() -> Arc<dyn NetworkModel> {
    Arc::new(IdealNetwork)
}

/// The names [`by_name`] knows, in the order front ends list them.
pub const NAMES: &[&str] = &["ideal", "bgl", "ethernet"];

/// The preset called `name`. Every front end resolves network names here,
/// so an unknown name is `None` for all of them and never a default model.
pub fn by_name(name: &str) -> Option<Arc<dyn NetworkModel>> {
    match name {
        "ideal" => Some(ideal()),
        "bgl" => Some(blue_gene_l()),
        "ethernet" => Some(ethernet_cluster()),
        _ => None,
    }
}

/// A decorator scaling an inner model's wire time by a fixed per-link
/// factor in `[1, 1+skew]`, keyed by `(seed, src, dst)` — the network-level
/// half of a [`crate::faults::FaultPlan`]'s latency perturbation. The
/// factor is a pure function of its arguments (no mutable state), so the
/// determinism contract of [`NetworkModel`] is preserved; and because every
/// factor is ≥ 1 and constant per link, relative message order within one
/// `(src, dst, comm, tag)` channel is untouched.
pub struct SkewedNetwork {
    inner: Arc<dyn NetworkModel>,
    seed: u64,
    skew: f64,
    name: String,
}

impl NetworkModel for SkewedNetwork {
    fn name(&self) -> &str {
        &self.name
    }

    fn send_overhead(&self, bytes: u64) -> SimDuration {
        self.inner.send_overhead(bytes)
    }

    fn recv_overhead(&self, bytes: u64) -> SimDuration {
        self.inner.recv_overhead(bytes)
    }

    fn transit(&self, src: Rank, dst: Rank, bytes: u64) -> SimDuration {
        let factor = crate::faults::skew_factor_of(self.seed, self.skew, src, dst);
        self.inner.transit(src, dst, bytes).scale(factor)
    }

    fn eager_limit(&self) -> u64 {
        self.inner.eager_limit()
    }

    fn unexpected_copy(&self, bytes: u64) -> SimDuration {
        self.inner.unexpected_copy(bytes)
    }

    fn unexpected_capacity(&self) -> u64 {
        self.inner.unexpected_capacity()
    }

    fn stall_resume_penalty(&self) -> SimDuration {
        self.inner.stall_resume_penalty()
    }

    fn collective(&self, kind: CollKind, participants: usize, total_bytes: u64) -> SimDuration {
        self.inner.collective(kind, participants, total_bytes)
    }
}

/// Wrap `inner` with per-link latency skew (see [`SkewedNetwork`]).
pub fn skewed(inner: Arc<dyn NetworkModel>, seed: u64, skew: f64) -> Arc<dyn NetworkModel> {
    let name = format!("{} (skewed)", inner.name());
    Arc::new(SkewedNetwork {
        inner,
        seed,
        skew,
        name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_knows_exactly_the_listed_names() {
        let presets: Vec<String> = NAMES
            .iter()
            .map(|n| by_name(n).expect("listed").name().to_string())
            .collect();
        assert_eq!(
            presets,
            [
                ideal().name(),
                blue_gene_l().name(),
                ethernet_cluster().name()
            ]
        );
        // A near miss is unknown, not the ideal network.
        assert!(by_name("etherent").is_none());
        assert!(by_name("").is_none());
    }

    #[test]
    fn flat_transit_scales_with_bytes() {
        let net = FlatNetwork {
            name: "t".into(),
            latency: SimDuration::from_usecs(10),
            bandwidth_bps: 1e9,
            cpu_overhead: SimDuration::ZERO,
            copy_secs_per_byte: 0.0,
            eager_limit: 1024,
            unexpected_capacity: 1 << 20,
            stall_resume_penalty: SimDuration::ZERO,
        };
        let t0 = net.transit(0, 1, 0);
        let t1 = net.transit(0, 1, 1_000_000);
        assert_eq!(t0, SimDuration::from_usecs(10));
        assert_eq!(
            t1,
            SimDuration::from_usecs(10) + SimDuration::from_millis(1)
        );
    }

    #[test]
    fn torus_hops_wrap() {
        let net = TorusNetwork {
            name: "t".into(),
            dims: [4, 4, 4],
            per_hop_latency: SimDuration::from_nanos(100),
            base_latency: SimDuration::ZERO,
            bandwidth_bps: 1e9,
            cpu_overhead: SimDuration::ZERO,
            copy_secs_per_byte: 0.0,
            eager_limit: 1024,
            unexpected_capacity: 1 << 20,
            stall_resume_penalty: SimDuration::ZERO,
        };
        assert_eq!(net.hops(0, 1), 1);
        assert_eq!(net.hops(0, 3), 1); // wraps: 0 → 3 is one hop backwards
        assert_eq!(net.hops(0, 2), 2);
        assert_eq!(net.hops(0, 0), 0);
        // across planes: rank 16 is (0,0,1)
        assert_eq!(net.hops(0, 16), 1);
    }

    #[test]
    fn collective_costs_grow_with_participants() {
        let net = ethernet_cluster();
        let small = net.collective(CollKind::Barrier, 4, 0);
        let large = net.collective(CollKind::Barrier, 256, 0);
        assert!(large > small);
    }

    #[test]
    fn collective_costs_grow_with_bytes() {
        let net = ethernet_cluster();
        let small = net.collective(CollKind::Allreduce, 16, 16 * 8);
        let large = net.collective(CollKind::Allreduce, 16, 16 * 1_000_000);
        assert!(large > small);
    }

    #[test]
    fn ideal_network_is_free() {
        let net = ideal();
        assert_eq!(net.transit(0, 5, 1 << 30), SimDuration::ZERO);
        assert_eq!(
            net.collective(CollKind::Alltoall, 64, 1 << 30),
            SimDuration::ZERO
        );
    }

    #[test]
    fn skewed_network_is_deterministic_bounded_and_delegates() {
        let net = skewed(ethernet_cluster(), 11, 0.25);
        let base = ethernet_cluster();
        assert!(net.name().contains("skewed"));
        for (s, d) in [(0usize, 1usize), (1, 0), (2, 7)] {
            let t = net.transit(s, d, 4096);
            let b = base.transit(s, d, 4096);
            assert!(t >= b, "skew only delays");
            assert!(t.as_nanos() as f64 <= b.as_nanos() as f64 * 1.2501);
            assert_eq!(t, net.transit(s, d, 4096), "pure function");
        }
        assert_eq!(net.eager_limit(), base.eager_limit());
        assert_eq!(
            net.collective(CollKind::Barrier, 16, 0),
            base.collective(CollKind::Barrier, 16, 0),
        );
        // A different seed picks different link factors somewhere.
        let other = skewed(ethernet_cluster(), 12, 0.25);
        assert!((0..8).any(|d| other.transit(0, d, 4096) != net.transit(0, d, 4096)));
    }

    #[test]
    fn all_collectives_have_finite_cost() {
        let net = blue_gene_l();
        for &k in CollKind::ALL {
            let c = net.collective(k, 64, 64 * 4096);
            assert!(c.as_nanos() < u64::MAX / 2, "{k} cost overflow");
        }
    }
}
