//! # optimus-store — content-addressed, tiered weight storage
//!
//! The paper's premise is that model state already resident on a node is
//! cheaper to reuse than to fetch and load from scratch, yet a flat
//! per-model `load_cost` scalar cannot say *which bytes* are already
//! there. This crate models model state at the granularity of fixed-size
//! **weight chunks**, content-addressed by the deterministic
//! [`WeightSpec::fingerprint`](optimus_model::WeightSpec::fingerprint)
//! hash, so that:
//!
//! - identical tensors stored by different models (or duplicated between
//!   the catalog and cached transformation-plan payloads) occupy the
//!   store **once** — the dedup the §7 repository layout ("models …
//!   stored with the models in JSON format") gets for free from content
//!   addressing;
//! - a node knows the **residency tier** of every chunk — [`Tier::Remote`]
//!   → [`Tier::NodeDisk`] → [`Tier::NodeMemory`] → [`Tier::Container`] —
//!   and prices a model load by the bytes actually missing at each tier
//!   (per-tier bandwidth + latency, [`TierParams`]), instead of always
//!   charging a from-scratch fetch;
//! - keep-alive expiry *demotes* a container's chunks to node memory
//!   rather than dropping them, so the next cold start of the same (or an
//!   overlapping) model pays memory bandwidth, not the remote fetch;
//! - chunks referenced by cached transformation plans can be **pinned**
//!   so LRU eviction never pushes the transformation working set off the
//!   node.
//!
//! [`NodeStore`] is the per-node state machine (admit / release / pin /
//! LRU demotion); [`chunk`] provides the content-addressed chunking of
//! specs, weight sets and whole model graphs; [`ChunkSet`] is the
//! catalog-level dedup accountant used by the `exp_store` experiment.

#![forbid(unsafe_code)]

mod chunk;
mod node;
mod tier;

pub use chunk::{
    blob_chunks, chunk_spec, dedup_chunks, model_chunks, weights_chunks, ChunkId, ChunkIndex,
    ChunkRef, ChunkSet, DEFAULT_CHUNK_BYTES,
};
pub use node::{FetchCost, NodeStore, StoreStats};
pub use tier::{StoreConfig, Tier, TierParams};
