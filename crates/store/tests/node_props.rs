//! Property test of `NodeStore` against a plain reference model.
//!
//! Random sequences of admit / produce / warm / release / pin / unpin /
//! estimate / crash run over small memory and disk budgets, so the
//! demote-to-disk and forget-to-remote paths fire often. After every
//! operation the store's incrementally kept per-tier byte totals must
//! equal a recount over its entries (the three local tiers, via
//! `stats()`) and the reference model's totals, and every return value
//! and `stats()` must match the reference model exactly.

use std::collections::BTreeMap;

use optimus_store::{ChunkId, ChunkRef, FetchCost, NodeStore, StoreConfig, StoreStats, Tier};
use proptest::prelude::*;

/// One resident (or pinned-placeholder) chunk of the reference model.
#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    tier: Tier,
    refs: u32,
    pinned: bool,
    touch: u64,
}

/// The store's documented semantics, written for clarity: a sorted map,
/// full rescans for every capacity check and every statistic.
struct Reference {
    config: StoreConfig,
    entries: BTreeMap<ChunkId, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    admitted_bytes: u64,
    fetched_bytes: u64,
}

impl Reference {
    fn new(config: StoreConfig) -> Self {
        Reference {
            config,
            entries: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            admitted_bytes: 0,
            fetched_bytes: 0,
        }
    }

    fn tier_of(&self, id: ChunkId) -> Tier {
        self.entries.get(&id).map_or(Tier::Remote, |e| e.tier)
    }

    fn cost(&self, container: u64, memory: u64, disk: u64, remote: u64) -> FetchCost {
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

    fn estimate(&self, chunks: &[ChunkRef]) -> FetchCost {
        let (mut con, mut mem, mut disk, mut rem) = (0, 0, 0, 0);
        for c in chunks {
            match self.tier_of(c.id) {
                Tier::Container => con += c.bytes,
                Tier::NodeMemory => mem += c.bytes,
                Tier::NodeDisk => disk += c.bytes,
                Tier::Remote => rem += c.bytes,
            }
        }
        self.cost(con, mem, disk, rem)
    }

    fn admit(&mut self, chunks: &[ChunkRef]) -> FetchCost {
        let cost = self.estimate(chunks);
        for c in chunks {
            self.clock += 1;
            self.admitted_bytes += c.bytes;
            if self.tier_of(c.id) == Tier::Remote {
                self.misses += 1;
            } else {
                self.hits += 1;
            }
            self.hold(*c);
        }
        self.fetched_bytes += cost.remote_bytes;
        self.enforce_capacity();
        cost
    }

    /// Move `c` to the container tier with one more reference.
    fn hold(&mut self, c: ChunkRef) {
        let clock = self.clock;
        let e = self.entries.entry(c.id).or_insert(Entry {
            bytes: c.bytes,
            tier: Tier::Remote,
            refs: 0,
            pinned: false,
            touch: clock,
        });
        e.tier = Tier::Container;
        e.refs += 1;
        e.touch = clock;
    }

    fn produce(&mut self, chunks: &[ChunkRef]) {
        for c in chunks {
            self.clock += 1;
            self.hold(*c);
        }
        self.enforce_capacity();
    }

    fn warm(&mut self, chunks: &[ChunkRef]) -> u64 {
        let mut delivered = 0;
        for c in chunks {
            self.clock += 1;
            let clock = self.clock;
            match self.entries.get_mut(&c.id) {
                Some(e) if e.tier >= Tier::NodeMemory => {}
                Some(e) => {
                    delivered += c.bytes;
                    e.tier = Tier::NodeMemory;
                    e.touch = clock;
                }
                None => {
                    delivered += c.bytes;
                    self.entries.insert(
                        c.id,
                        Entry {
                            bytes: c.bytes,
                            tier: Tier::NodeMemory,
                            refs: 0,
                            pinned: false,
                            touch: clock,
                        },
                    );
                }
            }
        }
        self.enforce_capacity();
        delivered
    }

    fn release(&mut self, chunks: &[ChunkRef]) {
        for c in chunks {
            if let Some(e) = self.entries.get_mut(&c.id) {
                e.refs = e.refs.saturating_sub(1);
                if e.refs == 0 && e.tier == Tier::Container {
                    e.tier = Tier::NodeMemory;
                }
            }
        }
        self.enforce_capacity();
    }

    fn pin(&mut self, chunks: &[ChunkRef]) {
        for c in chunks {
            self.clock += 1;
            let clock = self.clock;
            self.entries
                .entry(c.id)
                .and_modify(|e| e.pinned = true)
                .or_insert(Entry {
                    bytes: c.bytes,
                    tier: Tier::Remote,
                    refs: 0,
                    pinned: true,
                    touch: clock,
                });
        }
    }

    fn unpin(&mut self, chunks: &[ChunkRef]) {
        for c in chunks {
            if let Some(e) = self.entries.get_mut(&c.id) {
                e.pinned = false;
            }
        }
        self.enforce_capacity();
    }

    fn crash(&mut self) -> u64 {
        let mut lost = 0;
        self.entries.retain(|_, e| {
            e.refs = 0;
            if matches!(e.tier, Tier::Container | Tier::NodeMemory) {
                lost += e.bytes;
                e.tier = Tier::Remote;
                e.pinned
            } else {
                true
            }
        });
        lost
    }

    fn bytes_at(&self, tier: Tier) -> u64 {
        self.entries
            .values()
            .filter(|e| e.tier == tier)
            .map(|e| e.bytes)
            .sum()
    }

    fn enforce_capacity(&mut self) {
        self.demote(
            Tier::NodeMemory,
            Tier::NodeDisk,
            self.config.node_memory_bytes,
        );
        self.demote(Tier::NodeDisk, Tier::Remote, self.config.node_disk_bytes);
    }

    /// Oldest-first (ties on id) unpinned entries of `from` move to `to`
    /// until the tier fits its budget; moving to remote forgets them.
    fn demote(&mut self, from: Tier, to: Tier, budget: u64) {
        let mut victims: Vec<(u64, ChunkId)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.tier == from && !e.pinned)
            .map(|(id, e)| (e.touch, *id))
            .collect();
        victims.sort();
        for (_, id) in victims {
            if self.bytes_at(from) <= budget {
                break;
            }
            if to == Tier::Remote {
                self.entries.remove(&id);
            } else {
                self.entries.get_mut(&id).expect("victim exists").tier = to;
            }
        }
    }

    fn stats(&self) -> StoreStats {
        let resident = || self.entries.values().filter(|e| e.tier != Tier::Remote);
        let referenced_bytes: u64 = resident().map(|e| u64::from(e.refs.max(1)) * e.bytes).sum();
        let unique_bytes: u64 = resident().map(|e| e.bytes).sum();
        StoreStats {
            container_bytes: self.bytes_at(Tier::Container),
            memory_bytes: self.bytes_at(Tier::NodeMemory),
            disk_bytes: self.bytes_at(Tier::NodeDisk),
            chunks: resident().count() as u64,
            pinned: resident().filter(|e| e.pinned).count() as u64,
            hits: self.hits,
            misses: self.misses,
            admitted_bytes: self.admitted_bytes,
            fetched_bytes: self.fetched_bytes,
            referenced_bytes,
            unique_bytes,
            dedup_ratio: if unique_bytes == 0 {
                1.0
            } else {
                referenced_bytes as f64 / unique_bytes as f64
            },
        }
    }
}

/// One store operation over a chunk list drawn from the pool.
#[derive(Debug, Clone)]
enum Op {
    Admit(Vec<usize>),
    Produce(Vec<usize>),
    Warm(Vec<usize>),
    Release(Vec<usize>),
    Pin(Vec<usize>),
    Unpin(Vec<usize>),
    Estimate(Vec<usize>),
    Crash,
}

/// Chunk pool: 16 chunks of 1–4 KiB (the final one of a tensor may be
/// short), ids spread like real content hashes.
const POOL: usize = 16;

fn pool() -> Vec<ChunkRef> {
    (0..POOL as u64)
        .map(|k| ChunkRef {
            id: ChunkId(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED),
            bytes: 1024 * (1 + k % 4) - 100 * (k % 3),
        })
        .collect()
}

/// Indices into the pool with duplicates removed (first occurrence
/// kept): every store operation takes unique ids.
fn arb_list() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..POOL, 0..8).prop_map(|mut v| {
        let mut seen = [false; POOL];
        v.retain(|&i| !std::mem::replace(&mut seen[i], true));
        v
    })
}

/// Operations weighted toward the container lifecycle (admit/release),
/// with crashes rare enough that state builds up between them.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..16, arb_list()).prop_map(|(kind, list)| match kind {
        0..=3 => Op::Admit(list),
        4..=5 => Op::Produce(list),
        6..=7 => Op::Warm(list),
        8..=11 => Op::Release(list),
        12 => Op::Pin(list),
        13 => Op::Unpin(list),
        14 => Op::Estimate(list),
        _ => Op::Crash,
    })
}

fn check_totals(store: &NodeStore, reference: &Reference) -> Result<(), TestCaseError> {
    let recount = store.stats();
    prop_assert_eq!(store.tier_bytes(Tier::Container), recount.container_bytes);
    prop_assert_eq!(store.tier_bytes(Tier::NodeMemory), recount.memory_bytes);
    prop_assert_eq!(store.tier_bytes(Tier::NodeDisk), recount.disk_bytes);
    for tier in Tier::ALL {
        prop_assert_eq!(
            store.tier_bytes(tier),
            reference.bytes_at(tier),
            "{:?}",
            tier
        );
    }
    prop_assert_eq!(recount, reference.stats());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn node_store_matches_reference_model(
        memory_kib in 0u64..12,
        disk_kib in 0u64..16,
        ops in prop::collection::vec(arb_op(), 1..80),
    ) {
        let config = StoreConfig {
            chunk_bytes: 4096,
            node_memory_bytes: memory_kib * 1024,
            node_disk_bytes: disk_kib * 1024,
            ..StoreConfig::default()
        };
        let pool = pool();
        let mut store = NodeStore::new(config);
        let mut reference = Reference::new(config);
        for op in ops {
            let chunks = |idx: &[usize]| idx.iter().map(|&i| pool[i]).collect::<Vec<_>>();
            match &op {
                Op::Admit(i) => prop_assert_eq!(store.admit(&chunks(i)), reference.admit(&chunks(i))),
                Op::Produce(i) => {
                    store.produce(&chunks(i));
                    reference.produce(&chunks(i));
                }
                Op::Warm(i) => prop_assert_eq!(store.warm(&chunks(i)), reference.warm(&chunks(i))),
                Op::Release(i) => {
                    store.release(&chunks(i));
                    reference.release(&chunks(i));
                }
                Op::Pin(i) => {
                    store.pin(&chunks(i));
                    reference.pin(&chunks(i));
                }
                Op::Unpin(i) => {
                    store.unpin(&chunks(i));
                    reference.unpin(&chunks(i));
                }
                Op::Estimate(i) => {
                    prop_assert_eq!(store.estimate(&chunks(i)), reference.estimate(&chunks(i)))
                }
                Op::Crash => prop_assert_eq!(store.crash(), reference.crash()),
            }
            check_totals(&store, &reference)?;
        }
    }
}
