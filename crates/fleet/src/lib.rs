//! # optimus-fleet — elastic autoscaling with P2P chunk-multicast warming
//!
//! The paper's thesis — warm inference by transforming resident models
//! instead of cold-starting — assumes a fleet that can actually *grow*
//! under a flash crowd. A static node set makes every joining node pay an
//! independent `Remote` fetch of the hot model, so time-to-all-warm grows
//! linearly in the number of joiners and the origin link saturates exactly
//! when demand spikes. λScale showed serverless model scaling becomes fast
//! when nodes distribute weights peer-to-peer in `O(log N)` multicast
//! rounds; the content-addressed chunks of `optimus-store` make that tree
//! a plain plan over chunk sets already resident in peer `NodeStore`s.
//!
//! Two pieces, both deterministic pure functions of observed state (so
//! simulation runs stay byte-identical at any thread count):
//!
//! - [`Autoscaler`] — scale-out on sustained slot pressure with
//!   hysteresis ([`FleetConfig::sustain_s`]) and a cooldown between
//!   events; scale-in rides the existing keep-alive machinery (a node
//!   past [`FleetConfig::scale_in_idle_s`] with no containers drains).
//! - [`plan_multicast`] — a binomial transfer tree over the joining
//!   nodes: every node that holds the chunks forwards them to one cold
//!   node per round, so the warm set doubles each round and `N` joiners
//!   warm in `⌈log2⌉` rounds instead of `N` origin fetches. Per-edge cost
//!   is the inter-node [`TierParams`] of
//!   [`StoreConfig::interconnect`](optimus_store::StoreConfig).
//!
//! [`FleetReport`] is the run-level summary the simulator embeds in its
//! `SimReport` (omitted entirely when the fleet layer is disabled).

#![forbid(unsafe_code)]

mod autoscaler;
mod config;
mod multicast;

pub use autoscaler::{Autoscaler, FleetSignals, ScaleDecision};
pub use config::FleetConfig;
pub use multicast::{plan_multicast, remote_only_seconds, MulticastPlan, PeerSource, TransferEdge};

use serde::{Deserialize, Serialize};

/// Run-level fleet summary: scale events, multicast traffic, and the
/// resilience counters of the elastic layer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetReport {
    /// Scale-out decisions taken.
    pub scale_outs: u64,
    /// Scale-in (drain) decisions taken.
    pub scale_ins: u64,
    /// Nodes that finished warming and joined the fleet.
    pub nodes_added: u64,
    /// Nodes drained back out of the fleet.
    pub nodes_removed: u64,
    /// Peak concurrently active node count.
    pub peak_nodes: usize,
    /// Multicast waves planned (one per scale-out with a store).
    pub multicast_waves: u64,
    /// Total transfer rounds across all waves (including re-roots).
    pub multicast_rounds: u64,
    /// Bytes moved over peer-to-peer interconnect edges.
    pub multicast_bytes: u64,
    /// Bytes fetched from the remote origin to warm joiners (tree
    /// injections and remote-only mode).
    pub remote_warm_bytes: u64,
    /// Multicast trees re-rooted after a node crash mid-transfer.
    pub reroots: u64,
    /// Worst provision-to-all-warm latency over all waves (seconds).
    pub time_to_all_warm: f64,
}
