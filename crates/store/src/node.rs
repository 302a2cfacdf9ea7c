//! Per-node store state: reference-counted chunk residency with tiered
//! LRU demotion.
//!
//! Lifecycle of a chunk on one node:
//!
//! 1. **admit** — a container starts holding a model: every chunk the
//!    model needs is promoted to [`Tier::Container`] (reference counted);
//!    the returned [`FetchCost`] prices the bytes by the tier they were
//!    found at (missing chunks transport from [`Tier::Remote`]).
//! 2. **release** — the container is evicted or repurposed: references
//!    drop, and chunks nobody references any more are *demoted* to
//!    [`Tier::NodeMemory`] instead of being dropped, so keep-alive
//!    expiry keeps the bytes warm on the node.
//! 3. **LRU demotion** — when node memory overflows its budget, the
//!    least-recently-touched unpinned chunks demote to [`Tier::NodeDisk`];
//!    when the disk cache overflows, they are forgotten back to
//!    [`Tier::Remote`]. Pinned chunks (cached-plan working set) are
//!    exempt.
//!
//! Cost contract: every chunk-list operation ([`NodeStore::admit`],
//! [`NodeStore::produce`], [`NodeStore::warm`], [`NodeStore::release`],
//! [`NodeStore::estimate`], [`NodeStore::pin`], [`NodeStore::unpin`])
//! costs O(chunks passed in), independent of how many chunks the node
//! holds: per-tier byte totals are kept incrementally, so the capacity
//! check is O(1), and only a tier that is actually over budget pays an
//! O(v log v) sort of its v demotion candidates. The lists must hold
//! unique ids (checked by `debug_assert!`); callers deduplicate once
//! with [`dedup_chunks`](crate::dedup_chunks) where they cache a list.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::chunk::{ChunkId, ChunkRef};
use crate::tier::{StoreConfig, Tier};

struct ChunkEntry {
    bytes: u64,
    tier: Tier,
    /// Live containers referencing this chunk (only meaningful at
    /// [`Tier::Container`]).
    refs: u32,
    /// Pinned chunks are never demoted or forgotten by capacity pressure.
    pinned: bool,
    /// Logical LRU clock value of the last touch.
    touch: u64,
}

/// Pass-through hasher for [`ChunkId`] keys: ids are already
/// avalanche-mixed content hashes, so hashing them again buys nothing.
/// Iteration order of the map is never observed (victims are sorted by
/// `(touch, id)`; stats and crash are order-free).
#[derive(Default)]
struct ChunkIdHasher(u64);

impl Hasher for ChunkIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type ChunkMap = HashMap<ChunkId, ChunkEntry, BuildHasherDefault<ChunkIdHasher>>;

/// The entry of `c`; a chunk the node has never seen enters as an
/// unreferenced, unpinned [`Tier::Remote`] placeholder touched at `clock`.
fn entry_of<'a>(
    chunks: &'a mut ChunkMap,
    tier_bytes: &mut [u64; 4],
    c: ChunkRef,
    clock: u64,
) -> &'a mut ChunkEntry {
    match chunks.entry(c.id) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(v) => {
            tier_bytes[Tier::Remote as usize] += c.bytes;
            v.insert(ChunkEntry {
                bytes: c.bytes,
                tier: Tier::Remote,
                refs: 0,
                pinned: false,
                touch: clock,
            })
        }
    }
}

/// Move `e` to tier `to`, keeping the per-tier byte totals in step.
fn retier(tier_bytes: &mut [u64; 4], e: &mut ChunkEntry, to: Tier) {
    tier_bytes[e.tier as usize] -= e.bytes;
    tier_bytes[to as usize] += e.bytes;
    e.tier = to;
}

/// Whether every id in `chunks` is distinct: the precondition of every
/// chunk-list operation (checked in debug builds only).
fn unique_ids(chunks: &[ChunkRef]) -> bool {
    let mut seen = HashSet::with_capacity(chunks.len());
    chunks.iter().all(|c| seen.insert(c.id))
}

/// Byte breakdown of one admit/estimate by the tier the chunks were found
/// at, plus the resulting transport latency.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FetchCost {
    /// Bytes already mapped in a live container (free).
    pub container_bytes: u64,
    /// Bytes copied from node memory.
    pub memory_bytes: u64,
    /// Bytes read from the node's disk cache.
    pub disk_bytes: u64,
    /// Bytes fetched from the remote repository.
    pub remote_bytes: u64,
    /// Total transport latency in seconds.
    pub seconds: f64,
}

impl FetchCost {
    /// Bytes that were not already in a live container.
    pub fn missing_bytes(&self) -> u64 {
        self.memory_bytes + self.disk_bytes + self.remote_bytes
    }
}

/// Point-in-time store statistics (also the `/metrics` source).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StoreStats {
    /// Bytes resident at [`Tier::Container`].
    pub container_bytes: u64,
    /// Bytes resident at [`Tier::NodeMemory`].
    pub memory_bytes: u64,
    /// Bytes resident at [`Tier::NodeDisk`].
    pub disk_bytes: u64,
    /// Resident chunk entries (any local tier).
    pub chunks: u64,
    /// Pinned entries.
    pub pinned: u64,
    /// Admit lookups that found the chunk resident on the node.
    pub hits: u64,
    /// Admit lookups that had to fetch from the remote repository.
    pub misses: u64,
    /// Cumulative logical bytes admitted (every reference counts).
    pub admitted_bytes: u64,
    /// Cumulative bytes actually transported from the remote repository.
    pub fetched_bytes: u64,
    /// Current Σ max(refs, 1)·bytes over resident chunks — what the node
    /// would hold without content addressing.
    pub referenced_bytes: u64,
    /// Current Σ bytes over resident chunks (each chunk once).
    pub unique_bytes: u64,
    /// `referenced_bytes / unique_bytes`; 1.0 when empty.
    pub dedup_ratio: f64,
}

impl StoreStats {
    /// Sum per-node stats into a fleet aggregate; the dedup ratio is
    /// recomputed from the summed byte counters.
    pub fn merge(&mut self, other: &StoreStats) {
        self.container_bytes += other.container_bytes;
        self.memory_bytes += other.memory_bytes;
        self.disk_bytes += other.disk_bytes;
        self.chunks += other.chunks;
        self.pinned += other.pinned;
        self.hits += other.hits;
        self.misses += other.misses;
        self.admitted_bytes += other.admitted_bytes;
        self.fetched_bytes += other.fetched_bytes;
        self.referenced_bytes += other.referenced_bytes;
        self.unique_bytes += other.unique_bytes;
        self.dedup_ratio = if self.unique_bytes == 0 {
            1.0
        } else {
            self.referenced_bytes as f64 / self.unique_bytes as f64
        };
    }
}

/// The per-node content-addressed chunk store.
///
/// Every chunk-list argument must hold unique ids (deduplicate with
/// [`dedup_chunks`](crate::dedup_chunks) where the list is cached): a
/// container holding the same content twice references it once.
pub struct NodeStore {
    config: StoreConfig,
    chunks: ChunkMap,
    /// Σ bytes of the entries at each tier, indexed by `Tier as usize`
    /// ([`Tier::Remote`] counts pinned placeholders).
    tier_bytes: [u64; 4],
    clock: u64,
    hits: u64,
    misses: u64,
    admitted_bytes: u64,
    fetched_bytes: u64,
}

impl NodeStore {
    /// An empty store under `config`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration violates the tier ordering invariant
    /// ([`StoreConfig::validate`]).
    pub fn new(config: StoreConfig) -> Self {
        config.validate().expect("store config must be valid");
        NodeStore {
            config,
            chunks: ChunkMap::default(),
            tier_bytes: [0; 4],
            clock: 0,
            hits: 0,
            misses: 0,
            admitted_bytes: 0,
            fetched_bytes: 0,
        }
    }

    /// The configuration this store runs under.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Bytes of the chunks currently at `tier`, kept incrementally (for
    /// [`Tier::Remote`]: the pinned placeholders of non-resident chunks).
    pub fn tier_bytes(&self, tier: Tier) -> u64 {
        self.tier_bytes[tier as usize]
    }

    /// Price bytes found at each tier (indexed by `Tier as usize`).
    fn cost_of(&self, found: [u64; 4]) -> FetchCost {
        let [remote, disk, memory, container] = found;
        FetchCost {
            container_bytes: container,
            memory_bytes: memory,
            disk_bytes: disk,
            remote_bytes: remote,
            seconds: self.config.transport_seconds(Tier::NodeMemory, memory)
                + self.config.transport_seconds(Tier::NodeDisk, disk)
                + self.config.transport_seconds(Tier::Remote, remote),
        }
    }

    /// Read-only estimate of what admitting `chunks` would cost right now.
    pub fn estimate(&self, chunks: &[ChunkRef]) -> FetchCost {
        debug_assert!(unique_ids(chunks), "chunk ids must be unique");
        let mut found = [0u64; 4];
        for c in chunks {
            let tier = self.chunks.get(&c.id).map_or(Tier::Remote, |e| e.tier);
            found[tier as usize] += c.bytes;
        }
        self.cost_of(found)
    }

    /// A container starts holding `chunks`: promote them to
    /// [`Tier::Container`], add one reference each, and return the
    /// transport cost by source tier.
    pub fn admit(&mut self, chunks: &[ChunkRef]) -> FetchCost {
        debug_assert!(unique_ids(chunks), "chunk ids must be unique");
        let mut found = [0u64; 4];
        for &c in chunks {
            self.clock += 1;
            self.admitted_bytes += c.bytes;
            let e = entry_of(&mut self.chunks, &mut self.tier_bytes, c, self.clock);
            // A known but non-resident chunk (pinned placeholder) is a
            // miss like an unknown one.
            if e.tier == Tier::Remote {
                self.misses += 1;
            } else {
                self.hits += 1;
            }
            found[e.tier as usize] += c.bytes;
            retier(&mut self.tier_bytes, e, Tier::Container);
            e.refs += 1;
            e.touch = self.clock;
        }
        self.fetched_bytes += found[Tier::Remote as usize];
        self.enforce_capacity();
        self.cost_of(found)
    }

    /// A transformation synthesized `chunks` inside a live container
    /// (reshaped/reduced weights computed from source content already in
    /// place): register them at [`Tier::Container`] with a reference each,
    /// free of transport. Not an admission — the hit/miss and fetch
    /// counters are untouched, because no lookup against the tiers
    /// happened; the bytes were *written*, not read.
    pub fn produce(&mut self, chunks: &[ChunkRef]) {
        debug_assert!(unique_ids(chunks), "chunk ids must be unique");
        for &c in chunks {
            self.clock += 1;
            let e = entry_of(&mut self.chunks, &mut self.tier_bytes, c, self.clock);
            retier(&mut self.tier_bytes, e, Tier::Container);
            e.refs += 1;
            e.touch = self.clock;
        }
        self.enforce_capacity();
    }

    /// A multicast (or prefetch) delivered `chunks` into the node's page
    /// cache: place them at [`Tier::NodeMemory`] with no references — the
    /// first container to admit them pays memory transport instead of the
    /// remote fetch. Chunks already resident at a warmer-or-equal tier are
    /// untouched (warming never demotes). Returns the bytes newly made
    /// resident. Like [`NodeStore::produce`], this is not an admission:
    /// the hit/miss and fetch counters track container loads only; the
    /// transfer itself is priced by the caller's multicast plan.
    pub fn warm(&mut self, chunks: &[ChunkRef]) -> u64 {
        debug_assert!(unique_ids(chunks), "chunk ids must be unique");
        let mut delivered = 0;
        for &c in chunks {
            self.clock += 1;
            let e = entry_of(&mut self.chunks, &mut self.tier_bytes, c, self.clock);
            if e.tier < Tier::NodeMemory {
                delivered += c.bytes;
                retier(&mut self.tier_bytes, e, Tier::NodeMemory);
                e.touch = self.clock;
            }
        }
        self.enforce_capacity();
        delivered
    }

    /// A container stops holding `chunks` (eviction or repurposing): drop
    /// one reference each; chunks nobody references demote to
    /// [`Tier::NodeMemory`] — keep-alive expiry keeps the bytes warm.
    pub fn release(&mut self, chunks: &[ChunkRef]) {
        debug_assert!(unique_ids(chunks), "chunk ids must be unique");
        for c in chunks {
            if let Some(e) = self.chunks.get_mut(&c.id) {
                e.refs = e.refs.saturating_sub(1);
                if e.refs == 0 && e.tier == Tier::Container {
                    retier(&mut self.tier_bytes, e, Tier::NodeMemory);
                }
            }
        }
        self.enforce_capacity();
    }

    /// Pin `chunks`: capacity pressure will never demote or forget them.
    /// Unknown chunks are remembered as pinned [`Tier::Remote`]
    /// placeholders (pinning declares intent, it does not fetch).
    pub fn pin(&mut self, chunks: &[ChunkRef]) {
        debug_assert!(unique_ids(chunks), "chunk ids must be unique");
        for &c in chunks {
            self.clock += 1;
            entry_of(&mut self.chunks, &mut self.tier_bytes, c, self.clock).pinned = true;
        }
    }

    /// Unpin `chunks`, making them ordinary LRU citizens again.
    pub fn unpin(&mut self, chunks: &[ChunkRef]) {
        debug_assert!(unique_ids(chunks), "chunk ids must be unique");
        for c in chunks {
            if let Some(e) = self.chunks.get_mut(&c.id) {
                e.pinned = false;
            }
        }
        self.enforce_capacity();
    }

    /// The node loses power: every volatile tier is wiped. Containers are
    /// gone, so all references drop to zero; chunks resident at
    /// [`Tier::Container`] or [`Tier::NodeMemory`] are lost (pinned ones
    /// survive as [`Tier::Remote`] placeholders — the pin declares the
    /// plan working set, which recovery re-fetches). The disk cache and
    /// cumulative counters survive the crash. Returns the volatile bytes
    /// lost.
    pub fn crash(&mut self) -> u64 {
        let lost =
            self.tier_bytes[Tier::Container as usize] + self.tier_bytes[Tier::NodeMemory as usize];
        let tier_bytes = &mut self.tier_bytes;
        self.chunks.retain(|_, e| {
            e.refs = 0;
            match e.tier {
                Tier::Container | Tier::NodeMemory if e.pinned => {
                    retier(tier_bytes, e, Tier::Remote);
                    true
                }
                Tier::Container | Tier::NodeMemory => {
                    tier_bytes[e.tier as usize] -= e.bytes;
                    false
                }
                Tier::NodeDisk | Tier::Remote => true,
            }
        });
        lost
    }

    /// Demote LRU overflow: node memory over budget spills to disk, disk
    /// over budget forgets back to remote. Pinned and referenced chunks
    /// are exempt, so the budgets are soft under pinning pressure.
    fn enforce_capacity(&mut self) {
        self.demote_tier(
            Tier::NodeMemory,
            Tier::NodeDisk,
            self.config.node_memory_bytes,
        );
        self.demote_tier(Tier::NodeDisk, Tier::Remote, self.config.node_disk_bytes);
    }

    fn demote_tier(&mut self, from: Tier, to: Tier, budget: u64) {
        if self.tier_bytes[from as usize] <= budget {
            return;
        }
        // Oldest-first among unpinned entries of the tier; ties break on
        // the id for determinism.
        let mut victims: Vec<(u64, ChunkId)> = self
            .chunks
            .iter()
            .filter(|(_, e)| e.tier == from && !e.pinned)
            .map(|(id, e)| (e.touch, *id))
            .collect();
        victims.sort_unstable();
        for (_, id) in victims {
            if self.tier_bytes[from as usize] <= budget {
                break;
            }
            if to == Tier::Remote {
                // Victims are unpinned, so no placeholder is kept.
                if let Some(e) = self.chunks.remove(&id) {
                    self.tier_bytes[from as usize] -= e.bytes;
                }
            } else if let Some(e) = self.chunks.get_mut(&id) {
                retier(&mut self.tier_bytes, e, to);
            }
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats {
            hits: self.hits,
            misses: self.misses,
            admitted_bytes: self.admitted_bytes,
            fetched_bytes: self.fetched_bytes,
            ..StoreStats::default()
        };
        for e in self.chunks.values() {
            match e.tier {
                Tier::Container => s.container_bytes += e.bytes,
                Tier::NodeMemory => s.memory_bytes += e.bytes,
                Tier::NodeDisk => s.disk_bytes += e.bytes,
                Tier::Remote => continue, // pinned placeholder, not resident
            }
            s.chunks += 1;
            if e.pinned {
                s.pinned += 1;
            }
            s.referenced_bytes += u64::from(e.refs.max(1)) * e.bytes;
            s.unique_bytes += e.bytes;
        }
        s.dedup_ratio = if s.unique_bytes == 0 {
            1.0
        } else {
            s.referenced_bytes as f64 / s.unique_bytes as f64
        };
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{model_chunks, weights_chunks};
    use optimus_model::{WeightSpec, Weights};

    fn chunks_of(seed: u64, numel: usize) -> Vec<ChunkRef> {
        weights_chunks(&Weights::new(vec![WeightSpec::seeded([numel], seed)]), 1024)
    }

    fn test_config() -> StoreConfig {
        StoreConfig {
            chunk_bytes: 1024,
            node_memory_bytes: 8 * 1024,
            node_disk_bytes: 16 * 1024,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn admit_prices_by_tier_and_warms_up() {
        let mut store = NodeStore::new(StoreConfig::default());
        let chunks = chunks_of(1, 4096); // 16 KiB
        let cold = store.admit(&chunks);
        assert_eq!(cold.remote_bytes, 16 * 1024);
        assert_eq!(cold.container_bytes, 0);
        // Second container of the same model: everything is already mapped.
        let shared = store.admit(&chunks);
        assert_eq!(shared.container_bytes, 16 * 1024);
        assert_eq!(shared.seconds, 0.0);
        // Both containers gone: chunks demote to node memory, and the next
        // admit pays memory transport — strictly cheaper than the cold one.
        store.release(&chunks);
        store.release(&chunks);
        let warm = store.admit(&chunks);
        assert_eq!(warm.memory_bytes, 16 * 1024);
        assert!(warm.seconds > 0.0 && warm.seconds < cold.seconds);
    }

    #[test]
    fn release_demotes_instead_of_dropping() {
        let mut store = NodeStore::new(StoreConfig::default());
        let chunks = chunks_of(2, 2048);
        store.admit(&chunks);
        store.release(&chunks);
        let s = store.stats();
        assert_eq!(s.container_bytes, 0);
        assert_eq!(s.memory_bytes, 8 * 1024);
        assert_eq!(s.chunks, 8);
    }

    #[test]
    fn shared_chunks_stay_in_container_until_last_release() {
        let mut store = NodeStore::new(StoreConfig::default());
        let chunks = chunks_of(3, 1024);
        store.admit(&chunks);
        store.admit(&chunks);
        store.release(&chunks);
        assert_eq!(store.stats().container_bytes, 4096, "one reference remains");
        store.release(&chunks);
        assert_eq!(store.stats().container_bytes, 0);
    }

    #[test]
    fn lru_overflow_demotes_memory_to_disk_then_forgets() {
        let mut store = NodeStore::new(test_config());
        // Three 4 KiB tensors through the container lifecycle: 12 KiB of
        // released state against an 8 KiB memory budget.
        let a = chunks_of(10, 1024);
        let b = chunks_of(11, 1024);
        let c = chunks_of(12, 1024);
        for w in [&a, &b, &c] {
            store.admit(w);
            store.release(w);
        }
        let s = store.stats();
        assert_eq!(s.memory_bytes + s.disk_bytes, 12 * 1024);
        assert_eq!(s.memory_bytes, 8 * 1024, "memory budget enforced");
        assert_eq!(s.disk_bytes, 4 * 1024, "oldest spilled to disk");
        // The oldest tensor (a) was demoted: re-admitting it reads disk.
        let back = store.admit(&a);
        assert_eq!(back.disk_bytes, 4 * 1024);
        assert_eq!(back.remote_bytes, 0);
    }

    #[test]
    fn disk_overflow_forgets_back_to_remote() {
        let mut config = test_config();
        config.node_memory_bytes = 0;
        config.node_disk_bytes = 4 * 1024;
        let mut store = NodeStore::new(config);
        let a = chunks_of(20, 1024);
        let b = chunks_of(21, 1024);
        store.admit(&a);
        store.release(&a); // memory budget 0 → straight to disk
        store.admit(&b);
        store.release(&b); // disk now over budget → a forgotten
        let again = store.estimate(&a);
        assert_eq!(again.remote_bytes, 4 * 1024, "a was evicted to remote");
        assert_eq!(store.estimate(&b).disk_bytes, 4 * 1024);
    }

    #[test]
    fn pinned_chunks_survive_capacity_pressure() {
        let mut config = test_config();
        config.node_memory_bytes = 4 * 1024;
        config.node_disk_bytes = 0;
        let mut store = NodeStore::new(config);
        let plan_set = chunks_of(30, 1024);
        store.pin(&plan_set);
        store.admit(&plan_set);
        store.release(&plan_set);
        // 4 KiB pinned in a 4 KiB budget; an unpinned tensor cycles through
        // and must be the one forgotten.
        let other = chunks_of(31, 1024);
        store.admit(&other);
        store.release(&other);
        assert_eq!(store.estimate(&plan_set).memory_bytes, 4 * 1024);
        assert_eq!(store.estimate(&other).remote_bytes, 4 * 1024);
        // Unpinning makes it evictable again.
        store.unpin(&plan_set);
        store.admit(&other);
        store.release(&other);
        assert_eq!(store.estimate(&plan_set).remote_bytes, 4 * 1024);
    }

    #[test]
    fn warm_places_chunks_in_node_memory_without_counting_admissions() {
        let mut store = NodeStore::new(StoreConfig::default());
        let chunks = chunks_of(70, 2048); // 8 KiB
        let delivered = store.warm(&chunks);
        assert_eq!(delivered, 8 * 1024);
        let s = store.stats();
        assert_eq!(s.memory_bytes, 8 * 1024);
        assert_eq!(s.hits + s.misses, 0, "warming is not an admission");
        assert_eq!(s.fetched_bytes, 0, "no origin fetch was charged");
        // The first container load after warming is a full memory hit.
        let cost = store.admit(&chunks);
        assert_eq!(cost.memory_bytes, 8 * 1024);
        assert_eq!(cost.remote_bytes, 0);
        // Re-warming resident chunks delivers nothing new and never
        // demotes container-resident state.
        assert_eq!(store.warm(&chunks), 0);
        assert_eq!(store.stats().container_bytes, 8 * 1024);
    }

    #[test]
    fn warm_respects_memory_budget() {
        let mut store = NodeStore::new(test_config()); // 8 KiB memory budget
        let big = chunks_of(71, 4096); // 16 KiB
        store.warm(&big);
        let s = store.stats();
        assert_eq!(s.memory_bytes, 8 * 1024, "LRU demotion still applies");
        assert_eq!(s.disk_bytes, 8 * 1024);
    }

    #[test]
    fn stats_track_dedup_and_hit_rate() {
        let mut store = NodeStore::new(StoreConfig::default());
        let chunks = chunks_of(40, 4096);
        store.admit(&chunks);
        store.admit(&chunks); // second container, same content
        let s = store.stats();
        assert_eq!(s.misses, 16, "first admit fetched 16 chunks");
        assert_eq!(s.hits, 16, "second admit hit all 16");
        assert_eq!(s.unique_bytes, 16 * 1024);
        assert_eq!(s.referenced_bytes, 32 * 1024);
        assert!((s.dedup_ratio - 2.0).abs() < 1e-12);
        assert_eq!(s.admitted_bytes, 32 * 1024);
        assert_eq!(
            s.fetched_bytes,
            16 * 1024,
            "content addressing halved the fetches"
        );
    }

    #[test]
    fn stats_merge_recomputes_ratio() {
        let mut store_a = NodeStore::new(StoreConfig::default());
        let mut store_b = NodeStore::new(StoreConfig::default());
        let chunks = chunks_of(50, 1024);
        store_a.admit(&chunks);
        store_a.admit(&chunks);
        store_b.admit(&chunks);
        let mut agg = store_a.stats();
        agg.merge(&store_b.stats());
        assert_eq!(agg.unique_bytes, 8 * 1024);
        assert!((agg.dedup_ratio - 1.5).abs() < 1e-12);
    }

    #[test]
    fn real_models_share_zero_chunks_across_distinct_seeds() {
        // Catalog models carry unique seeds, so cross-model dedup on raw
        // catalogs is ≈1.0 — the >1.0 ratios come from plan payloads and
        // multi-container residency (exp_store demonstrates both).
        let mut store = NodeStore::new(StoreConfig::default());
        let a = model_chunks(&optimus_zoo::vgg::vgg11(), 4 * 1024 * 1024);
        let b = model_chunks(&optimus_zoo::vgg::vgg16(), 4 * 1024 * 1024);
        store.admit(&a);
        let second = store.admit(&b);
        assert_eq!(second.container_bytes, 0, "distinct seeds, no sharing");
        let s = store.stats();
        assert!((s.dedup_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crash_wipes_volatile_tiers_but_keeps_disk_and_pins() {
        let mut store = NodeStore::new(test_config());
        let live = chunks_of(60, 1024); // 4 KiB at Container
        let warm = chunks_of(61, 1024); // 4 KiB demoted to NodeMemory
        let cold = chunks_of(62, 4096); // 16 KiB, overflows memory to disk
        let pinned = chunks_of(63, 1024); // 4 KiB pinned plan payload
        store.admit(&live);
        store.admit(&warm);
        store.release(&warm);
        store.admit(&cold);
        store.release(&cold);
        store.pin(&pinned);
        store.admit(&pinned);
        store.release(&pinned);
        let before = store.stats();
        assert!(before.disk_bytes > 0, "setup must spill to disk");

        let lost = store.crash();
        let after = store.stats();
        assert_eq!(after.container_bytes, 0);
        assert_eq!(after.memory_bytes, 0);
        assert_eq!(
            after.disk_bytes, before.disk_bytes,
            "disk cache survives a crash"
        );
        assert_eq!(
            lost,
            before.container_bytes + before.memory_bytes,
            "lost bytes account for every volatile tier"
        );
        // Pinned chunks survive as remote placeholders: re-admitting them
        // fetches from remote but they are still marked pinned.
        let refetch = store.admit(&pinned);
        assert_eq!(refetch.remote_bytes, 4 * 1024);
        assert_eq!(store.stats().pinned, 4);
        // Disk-resident chunks are still a disk hit after the crash; only
        // the portion that was volatile at crash time re-fetches remotely.
        let disk_hit = store.admit(&cold);
        assert!(disk_hit.disk_bytes > 0);
        assert_eq!(disk_hit.disk_bytes + disk_hit.remote_bytes, 16 * 1024);
    }
}
