//! Content-addressed chunking of weight tensors.
//!
//! A tensor is split into fixed-size chunks; each chunk's identity is a
//! stable hash of the tensor's content fingerprint
//! ([`WeightSpec::fingerprint`]) mixed with the chunk index and length.
//! Equal specs therefore yield equal chunk ids — two models (or a model
//! and a cached plan payload) holding the same tensor reference the same
//! chunks, which is what makes catalog-level dedup and transformation
//! "fetch only the delta" fall out of plain set operations.

use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;

use optimus_model::{InternKey, ModelGraph, WeightSpec, Weights};
use serde::{Deserialize, Serialize};

/// Default chunk size: 4 MiB, a common object-store part size.
pub const DEFAULT_CHUNK_BYTES: u64 = 4 * 1024 * 1024;

/// Content identity of one weight chunk.
///
/// Derived purely from tensor content (never host state), so ids are
/// stable across processes and across a serialize/deserialize round trip
/// of the owning model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChunkId(pub u64);

/// A content-addressed reference to one chunk: identity plus size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkRef {
    /// Content identity.
    pub id: ChunkId,
    /// Chunk length in bytes (only the final chunk of a tensor may be
    /// shorter than the configured chunk size).
    pub bytes: u64,
}

fn mix(acc: &mut u64, v: u64) {
    // Same FNV-1a-with-avalanche mixer as the model crate's content hash.
    *acc ^= v;
    *acc = acc.wrapping_mul(0x1000_0000_01B3);
    *acc ^= *acc >> 29;
}

fn chunk_id(fingerprint: u64, index: u64, len: u64) -> ChunkId {
    let mut acc = fingerprint;
    mix(&mut acc, 0x4348_4E4B); // "CHNK"
    mix(&mut acc, index);
    mix(&mut acc, len);
    ChunkId(acc)
}

/// Append the chunk references of one tensor to `out`.
///
/// A tensor of `B` bytes becomes `ceil(B / chunk_bytes)` chunks; chunk
/// `j`'s id mixes the spec fingerprint with `j` and the chunk length, so
/// different chunk-size configurations never alias.
pub fn chunk_spec(spec: &WeightSpec, chunk_bytes: u64, out: &mut Vec<ChunkRef>) {
    assert!(chunk_bytes > 0, "chunk size must be positive");
    let total = (spec.count() * 4) as u64;
    if total == 0 {
        return;
    }
    let fp = spec.fingerprint();
    let n = total.div_ceil(chunk_bytes);
    for j in 0..n {
        let len = chunk_bytes.min(total - j * chunk_bytes);
        out.push(ChunkRef {
            id: chunk_id(fp, j, len),
            bytes: len,
        });
    }
}

/// Chunk references of an opaque byte blob (e.g. a serialized plan
/// artifact), addressed by the blob's content fingerprint.
///
/// Blob chunk ids mix a distinct tag, so an artifact payload can never
/// alias a weight chunk even if their fingerprints collide.
pub fn blob_chunks(fingerprint: u64, total_bytes: u64, chunk_bytes: u64) -> Vec<ChunkRef> {
    assert!(chunk_bytes > 0, "chunk size must be positive");
    let mut out = Vec::new();
    if total_bytes == 0 {
        return out;
    }
    let mut fp = fingerprint;
    mix(&mut fp, 0x424C_4F42); // "BLOB"
    let n = total_bytes.div_ceil(chunk_bytes);
    for j in 0..n {
        let len = chunk_bytes.min(total_bytes - j * chunk_bytes);
        out.push(ChunkRef {
            id: chunk_id(fp, j, len),
            bytes: len,
        });
    }
    out
}

/// Chunk references of a whole weight set, in tensor order.
pub fn weights_chunks(weights: &Weights, chunk_bytes: u64) -> Vec<ChunkRef> {
    let mut out = Vec::new();
    for t in &weights.tensors {
        chunk_spec(t, chunk_bytes, &mut out);
    }
    out
}

/// Chunk references of every weighted operation of a model, in the
/// graph's deterministic op order.
pub fn model_chunks(model: &ModelGraph, chunk_bytes: u64) -> Vec<ChunkRef> {
    let mut out = Vec::new();
    for (_, op) in model.ops() {
        if let Some(w) = &op.weights {
            for t in &w.tensors {
                chunk_spec(t, chunk_bytes, &mut out);
            }
        }
    }
    out
}

/// Deduplicate a chunk list by id, keeping first occurrences: the form
/// every [`NodeStore`](crate::NodeStore) operation takes (a container
/// holding the same content twice references and transports it once).
/// Deduplicate once, where a list is cached, not per store operation.
pub fn dedup_chunks(mut chunks: Vec<ChunkRef>) -> Vec<ChunkRef> {
    let mut seen = HashSet::with_capacity(chunks.len());
    chunks.retain(|c| seen.insert(c.id));
    chunks
}

/// Per-model chunk lists keyed by a dense interned id
/// (`optimus_model::FunctionId` / `ModelId`).
///
/// The hot-path replacement for `HashMap<String, Vec<ChunkRef>>`: a store
/// admission/release looks its model's chunk list up by a `Vec` index
/// instead of hashing the function name on every container event.
#[derive(Debug, Clone)]
pub struct ChunkIndex<K> {
    lists: Vec<Option<Vec<ChunkRef>>>,
    _key: PhantomData<K>,
}

impl<K> Default for ChunkIndex<K> {
    fn default() -> Self {
        ChunkIndex {
            lists: Vec::new(),
            _key: PhantomData,
        }
    }
}

impl<K: InternKey> ChunkIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        ChunkIndex::default()
    }

    /// Store the chunk list of `id` (replacing any previous list).
    pub fn insert(&mut self, id: K, chunks: Vec<ChunkRef>) {
        if id.index() >= self.lists.len() {
            self.lists.resize_with(id.index() + 1, || None);
        }
        self.lists[id.index()] = Some(chunks);
    }

    /// The chunk list of `id`, if one was inserted.
    pub fn get(&self, id: K) -> Option<&[ChunkRef]> {
        self.lists.get(id.index())?.as_deref()
    }

    /// Number of ids with a stored chunk list.
    pub fn len(&self) -> usize {
        self.lists.iter().filter(|l| l.is_some()).count()
    }

    /// Whether no chunk lists are stored.
    pub fn is_empty(&self) -> bool {
        self.lists.iter().all(|l| l.is_none())
    }
}

/// Catalog-level dedup accountant: tracks the *logical* bytes referenced
/// (every chunk occurrence counts) against the *unique* bytes a
/// content-addressed store would hold.
#[derive(Debug, Clone, Default)]
pub struct ChunkSet {
    unique: HashMap<ChunkId, u64>,
    logical_bytes: u64,
    references: u64,
}

impl ChunkSet {
    /// An empty set.
    pub fn new() -> Self {
        ChunkSet::default()
    }

    /// Record one chunk reference.
    pub fn add(&mut self, chunk: ChunkRef) {
        self.logical_bytes += chunk.bytes;
        self.references += 1;
        self.unique.insert(chunk.id, chunk.bytes);
    }

    /// Record a batch of chunk references.
    pub fn extend(&mut self, chunks: &[ChunkRef]) {
        for &c in chunks {
            self.add(c);
        }
    }

    /// Total bytes referenced, counting duplicates.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Bytes a content-addressed store holds (each chunk once).
    pub fn unique_bytes(&self) -> u64 {
        self.unique.values().sum()
    }

    /// Number of distinct chunks.
    pub fn unique_count(&self) -> usize {
        self.unique.len()
    }

    /// Number of references recorded.
    pub fn references(&self) -> u64 {
        self.references
    }

    /// `logical / unique` bytes — 1.0 means no duplication, larger means
    /// content addressing saved storage and fetches.
    pub fn dedup_ratio(&self) -> f64 {
        let unique = self.unique_bytes();
        if unique == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / unique as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_specs_share_chunk_ids() {
        let a = WeightSpec::seeded([64, 64, 3, 3], 7);
        let b = WeightSpec::seeded([64, 64, 3, 3], 7);
        let mut ca = Vec::new();
        let mut cb = Vec::new();
        chunk_spec(&a, 4096, &mut ca);
        chunk_spec(&b, 4096, &mut cb);
        assert!(!ca.is_empty());
        assert_eq!(ca, cb);
        let c = WeightSpec::seeded([64, 64, 3, 3], 8);
        let mut cc = Vec::new();
        chunk_spec(&c, 4096, &mut cc);
        assert_eq!(cc.len(), ca.len());
        assert!(ca.iter().zip(&cc).all(|(x, y)| x.id != y.id));
    }

    #[test]
    fn chunk_sizes_cover_the_tensor() {
        // 64*64*3*3*4 = 147456 bytes over 4096-byte chunks: 36 full chunks.
        let spec = WeightSpec::seeded([64, 64, 3, 3], 1);
        let mut chunks = Vec::new();
        chunk_spec(&spec, 4096, &mut chunks);
        assert_eq!(
            chunks.iter().map(|c| c.bytes).sum::<u64>() as usize,
            spec.count() * 4
        );
        assert!(chunks.iter().all(|c| c.bytes <= 4096));
        // An uneven split produces one short tail chunk.
        let odd = WeightSpec::seeded([1000], 1); // 4000 bytes
        let mut oc = Vec::new();
        chunk_spec(&odd, 1024, &mut oc);
        assert_eq!(oc.len(), 4);
        assert_eq!(oc.last().unwrap().bytes, 4000 - 3 * 1024);
    }

    #[test]
    fn different_chunk_sizes_never_alias() {
        let spec = WeightSpec::seeded([256, 256], 3);
        let mut a = Vec::new();
        let mut b = Vec::new();
        chunk_spec(&spec, 4096, &mut a);
        chunk_spec(&spec, 8192, &mut b);
        let ids: std::collections::HashSet<ChunkId> = a.iter().map(|c| c.id).collect();
        assert!(b.iter().all(|c| !ids.contains(&c.id)));
    }

    #[test]
    fn model_chunks_are_deterministic_and_sized() {
        let m = optimus_zoo::resnet::resnet18();
        let a = model_chunks(&m, DEFAULT_CHUNK_BYTES);
        let b = model_chunks(&m, DEFAULT_CHUNK_BYTES);
        assert_eq!(a, b);
        assert_eq!(
            a.iter().map(|c| c.bytes).sum::<u64>(),
            m.byte_size() as u64,
            "chunks cover exactly the model's weight bytes"
        );
    }

    #[test]
    fn chunk_ids_survive_serialization_roundtrip() {
        // The content-addressing prerequisite: save/load preserves chunk
        // hashes, because ids derive from tensor content only.
        let m = optimus_zoo::mobilenet::mobilenet_v1(0.5, 0);
        let json = optimus_model::serialize::to_json(&m).unwrap();
        let back = optimus_model::serialize::from_json(&json).unwrap();
        assert_eq!(
            model_chunks(&m, DEFAULT_CHUNK_BYTES),
            model_chunks(&back, DEFAULT_CHUNK_BYTES)
        );
    }

    #[test]
    fn chunk_index_stores_by_dense_id() {
        use optimus_model::FunctionId;
        let mut idx: ChunkIndex<FunctionId> = ChunkIndex::new();
        assert!(idx.is_empty());
        let spec = WeightSpec::seeded([64, 64], 1);
        let mut chunks = Vec::new();
        chunk_spec(&spec, 4096, &mut chunks);
        idx.insert(FunctionId(2), chunks.clone());
        assert_eq!(idx.get(FunctionId(2)), Some(chunks.as_slice()));
        assert!(idx.get(FunctionId(0)).is_none());
        assert!(idx.get(FunctionId(9)).is_none());
        assert_eq!(idx.len(), 1);
        idx.insert(FunctionId(2), Vec::new());
        assert_eq!(idx.get(FunctionId(2)), Some(&[][..]), "insert replaces");
    }

    #[test]
    fn chunk_set_accounts_dedup() {
        let shared = WeightSpec::seeded([512, 512], 9);
        let solo = WeightSpec::seeded([512, 512], 10);
        let mut set = ChunkSet::new();
        let mut chunks = Vec::new();
        chunk_spec(&shared, 4096, &mut chunks);
        chunk_spec(&shared, 4096, &mut chunks); // second reference
        chunk_spec(&solo, 4096, &mut chunks);
        set.extend(&chunks);
        assert_eq!(set.logical_bytes(), 3 * 512 * 512 * 4);
        assert_eq!(set.unique_bytes(), 2 * 512 * 512 * 4);
        assert!((set.dedup_ratio() - 1.5).abs() < 1e-12);
        assert_eq!(ChunkSet::new().dedup_ratio(), 1.0);
    }
}
