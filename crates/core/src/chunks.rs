//! Chunk-level accounting of transformation plans.
//!
//! A cached plan rewrites some destination tensors (`Replace`/`Add`
//! payloads) and carries the rest over from the source in place. Content
//! addressing turns that split into plain set arithmetic: the payload
//! tensors chunk to the ids a store must **fetch**, and the remaining
//! destination chunks are **reused** source content. This is the "a
//! transform fetches only the delta" contract the simulator and the live
//! workers price loads with.

use std::collections::{BTreeMap, HashSet};

use optimus_store::{weights_chunks, ChunkId, ChunkRef};

use crate::metaop::{MetaOp, TransformPlan};

/// Chunk split of one transformation: what must move vs. what is already
/// in the container.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChunks {
    /// Chunks of the `Replace`/`Add` payloads — the transformation delta
    /// the store fetches (deduplicated).
    pub fetched: Vec<ChunkRef>,
    /// Destination-model chunks *not* written by the plan: source content
    /// kept in place.
    pub reused: Vec<ChunkRef>,
}

impl PlanChunks {
    /// Bytes the transformation fetches.
    pub fn fetched_bytes(&self) -> u64 {
        self.fetched.iter().map(|c| c.bytes).sum()
    }

    /// Bytes the transformation reuses in place.
    pub fn reused_bytes(&self) -> u64 {
        self.reused.iter().map(|c| c.bytes).sum()
    }
}

/// Split `plan`'s effect on the destination into fetched and reused
/// chunks. `dst_chunks` is the destination model's chunk list
/// ([`model_chunks`](optimus_store::model_chunks), or its
/// [`dedup_chunks`](optimus_store::dedup_chunks) form where the caller
/// caches one); `reused` keeps its order and multiplicity.
pub fn plan_chunks(plan: &TransformPlan, dst_chunks: &[ChunkRef], chunk_bytes: u64) -> PlanChunks {
    let mut fetched: Vec<ChunkRef> = Vec::new();
    let mut seen: HashSet<ChunkId> = HashSet::new();
    for step in &plan.steps {
        let payload = match step {
            MetaOp::Replace { weights, .. } => Some(weights),
            MetaOp::Add { op, .. } => op.weights.as_ref(),
            _ => None,
        };
        if let Some(w) = payload {
            for c in weights_chunks(w, chunk_bytes) {
                if seen.insert(c.id) {
                    fetched.push(c);
                }
            }
        }
    }
    let reused = dst_chunks
        .iter()
        .copied()
        .filter(|c| !seen.contains(&c.id))
        .collect();
    PlanChunks { fetched, reused }
}

/// Deduplicated union of the `Replace`/`Add` payload chunks of many
/// plans, sorted by id — the working set a node pins so LRU pressure
/// never evicts the bytes cached plans are about to write.
pub fn plans_referenced_chunks<'a>(
    plans: impl Iterator<Item = &'a TransformPlan>,
    chunk_bytes: u64,
) -> Vec<ChunkRef> {
    let mut unique: BTreeMap<ChunkId, ChunkRef> = BTreeMap::new();
    for plan in plans {
        for step in &plan.steps {
            let payload = match step {
                MetaOp::Replace { weights, .. } => Some(weights),
                MetaOp::Add { op, .. } => op.weights.as_ref(),
                _ => None,
            };
            if let Some(w) = payload {
                for c in weights_chunks(w, chunk_bytes) {
                    unique.entry(c.id).or_insert(c);
                }
            }
        }
    }
    unique.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{GroupPlanner, Planner};
    use optimus_profile::CostModel;
    use optimus_store::{model_chunks, DEFAULT_CHUNK_BYTES};

    #[test]
    fn plan_chunks_partition_the_destination() {
        let src = optimus_zoo::vgg::vgg16();
        let dst = optimus_zoo::vgg::vgg19();
        let cost = CostModel::default();
        let plan = GroupPlanner.plan(&src, &dst, &cost);
        let split = plan_chunks(
            &plan,
            &model_chunks(&dst, DEFAULT_CHUNK_BYTES),
            DEFAULT_CHUNK_BYTES,
        );
        assert!(!split.fetched.is_empty(), "cross-model plans move bytes");
        assert_eq!(
            split.fetched_bytes() + split.reused_bytes(),
            dst.byte_size() as u64,
            "fetched + reused must cover the destination"
        );
        // The chunk-level split agrees with the executor's byte accounting.
        let mut g = src.clone();
        let report = crate::executor::execute_plan(&mut g, &plan, &dst).unwrap();
        assert_eq!(split.fetched_bytes(), report.fetched_bytes);
        assert_eq!(split.reused_bytes(), report.reused_bytes);
    }

    #[test]
    fn identity_plan_fetches_nothing() {
        let m = optimus_zoo::resnet::resnet18();
        let cost = CostModel::default();
        let plan = GroupPlanner.plan(&m, &m, &cost);
        let split = plan_chunks(
            &plan,
            &model_chunks(&m, DEFAULT_CHUNK_BYTES),
            DEFAULT_CHUNK_BYTES,
        );
        assert_eq!(split.fetched_bytes(), 0);
        assert_eq!(split.reused_bytes(), m.byte_size() as u64);
    }

    #[test]
    fn referenced_chunks_are_unique_and_sorted() {
        let a = optimus_zoo::vgg::vgg11();
        let b = optimus_zoo::vgg::vgg16();
        let cost = CostModel::default();
        let ab = GroupPlanner.plan(&a, &b, &cost);
        let ba = GroupPlanner.plan(&b, &a, &cost);
        let refs = plans_referenced_chunks([&ab, &ba].into_iter(), DEFAULT_CHUNK_BYTES);
        assert!(!refs.is_empty());
        assert!(refs.windows(2).all(|w| w[0].id < w[1].id), "sorted, unique");
        // Payload chunks are destination-model content, so every id also
        // appears in one of the two catalogs — the dedup the store gets
        // from content addressing.
        let catalog: std::collections::HashSet<ChunkId> = model_chunks(&a, DEFAULT_CHUNK_BYTES)
            .into_iter()
            .chain(model_chunks(&b, DEFAULT_CHUNK_BYTES))
            .map(|c| c.id)
            .collect();
        assert!(refs.iter().all(|c| catalog.contains(&c.id)));
    }
}
