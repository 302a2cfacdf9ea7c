//! Property tests of the KV-cache state meta-operators: on arbitrary
//! cache shapes a transform round-trips to valid shapes, the byte
//! accounting partitions the destination exactly like the
//! fetched/reused chunk split of `plan_chunks`, and a same-spec
//! transform is the identity. On real GPT sibling pairs the weight-side
//! and state-side accountings are checked together.

use optimus_core::{plan_chunks, plan_kv_transform, GroupPlanner, KvMetaOp, Planner};
use optimus_model::{KvCache, KvCacheSpec};
use optimus_profile::CostModel;
use optimus_store::DEFAULT_CHUNK_BYTES;
use optimus_zoo::{gpt, GptConfig, GptSize};
use proptest::prelude::*;

/// Arbitrary decoder cache shapes: power-of-two head counts (as real
/// decoders use) over a spread of layer counts, head dims and context
/// windows.
fn arb_spec() -> impl Strategy<Value = KvCacheSpec> {
    (1usize..=48, 0u32..=5, 1usize..=16, 1usize..=4096).prop_map(
        |(layers, head_pow, head_dim, context)| {
            KvCacheSpec::new(layers, 1 << head_pow, head_dim, context)
        },
    )
}

/// GPT siblings along the context and depth axes (the transform pairs
/// `exp_llm_transform` exercises, scaled down).
fn sibling_configs() -> Vec<GptConfig> {
    vec![
        GptConfig::new(GptSize::G125M),
        GptConfig::new(GptSize::G125M).context(256),
        GptConfig::new(GptSize::G125M).context(2048),
        GptConfig::new(GptSize::G350M),
        GptConfig::new(GptSize::G350M).context(256),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round-trip shape validity: transforming any cache to any
    /// destination spec yields a cache valid for that spec, and
    /// transforming back yields one valid for the source — with the fill
    /// level never growing along the way (a transform can only carry or
    /// drop state, never invent it).
    #[test]
    fn round_trip_shapes_stay_valid(
        src_spec in arb_spec(),
        dst_spec in arb_spec(),
        fill in 0usize..=4096,
    ) {
        let src = KvCache::filled(src_spec, fill);
        let there = plan_kv_transform(&src, &dst_spec);
        let moved = there.apply(&src);
        prop_assert_eq!(moved.spec, dst_spec);
        prop_assert!(moved.filled <= dst_spec.context);
        prop_assert!(moved.filled <= src.filled);
        prop_assert_eq!(moved.filled, there.carried);

        let back = plan_kv_transform(&moved, &src_spec);
        let returned = back.apply(&moved);
        prop_assert_eq!(returned.spec, src_spec);
        prop_assert!(returned.filled <= src.filled);
        // Between row-compatible specs nothing is lost on the way back
        // except positions beyond the smaller window.
        if src_spec.row_compatible(&dst_spec) {
            prop_assert_eq!(
                returned.filled,
                src.filled.min(dst_spec.context).min(src_spec.context)
            );
        }
    }

    /// The byte-accounting partition mirrors `plan_chunks`: carried +
    /// materialized bytes cover the destination reservation exactly, and
    /// carried + dropped bytes cover the live source state exactly.
    #[test]
    fn byte_accounting_partitions_source_and_destination(
        src_spec in arb_spec(),
        dst_spec in arb_spec(),
        fill in 0usize..=4096,
    ) {
        let src = KvCache::filled(src_spec, fill);
        let plan = plan_kv_transform(&src, &dst_spec);
        prop_assert_eq!(
            plan.carried_bytes + plan.materialized_bytes,
            dst_spec.byte_size()
        );
        prop_assert_eq!(plan.carried_bytes + plan.dropped_bytes, src.live_bytes());
        prop_assert_eq!(plan.carried_bytes, dst_spec.bytes_at(plan.carried));
        // Every step kind is accounted: a Drop step exists iff bytes
        // were dropped, a Carry step iff bytes were carried.
        let has_drop = plan.steps.iter().any(|s| matches!(s, KvMetaOp::Drop { .. }));
        let has_carry = plan.steps.iter().any(|s| matches!(s, KvMetaOp::Carry { .. }));
        prop_assert_eq!(has_drop, plan.dropped_bytes > 0);
        prop_assert_eq!(has_carry, plan.carried_bytes > 0);
    }

    /// A same-spec transform is the identity: nothing dropped, no
    /// resize/reshape steps, and `apply` returns the source unchanged.
    #[test]
    fn noop_transform_is_identity(spec in arb_spec(), fill in 0usize..=4096) {
        let src = KvCache::filled(spec, fill);
        let plan = plan_kv_transform(&src, &spec);
        prop_assert!(plan.is_identity());
        prop_assert_eq!(plan.dropped_bytes, 0);
        prop_assert_eq!(plan.apply(&src), src);
        prop_assert_eq!(plan.carried, src.filled);
        // The only reserved bytes to materialize are the empty tail of
        // the (unchanged) window.
        prop_assert_eq!(
            plan.materialized_bytes,
            src.reserved_bytes() - src.live_bytes()
        );
    }
}

proptest! {
    // Each case plans a real decoder pair; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On GPT sibling pairs, the weight-side chunk split and the
    /// state-side KV plan each fully account their destination, and
    /// sibling caches (row-compatible by construction) carry all state
    /// that fits the destination window.
    #[test]
    fn gpt_siblings_account_weights_and_state(
        a in 0usize..5,
        b in 0usize..5,
        fill in 0usize..=2048,
    ) {
        let configs = sibling_configs();
        let src = gpt(configs[a]);
        let dst = gpt(configs[b]);
        let cost = CostModel::default();

        // Weight side: fetched and reused chunks partition the
        // destination's content-addressed chunk set. (The partition is
        // exact at the id level; naive byte sums would double-count
        // content the decoder deduplicates internally, e.g. identical
        // zero-initialized LayerNorm tensors across layers.)
        let plan = GroupPlanner.plan(&src, &dst, &cost);
        let dst_chunks = optimus_store::model_chunks(&dst, DEFAULT_CHUNK_BYTES);
        let split = plan_chunks(&plan, &dst_chunks, DEFAULT_CHUNK_BYTES);
        let dst_unique: std::collections::HashMap<_, u64> =
            dst_chunks.iter().map(|c| (c.id, c.bytes)).collect();
        let fetched_ids: std::collections::HashSet<_> =
            split.fetched.iter().map(|c| c.id).collect();
        let reused_ids: std::collections::HashSet<_> =
            split.reused.iter().map(|c| c.id).collect();
        prop_assert!(fetched_ids.is_disjoint(&reused_ids));
        let union: std::collections::HashSet<_> =
            fetched_ids.union(&reused_ids).copied().collect();
        let dst_ids: std::collections::HashSet<_> = dst_unique.keys().copied().collect();
        prop_assert_eq!(union, dst_ids);
        let reused_unique: u64 = dst_unique
            .iter()
            .filter(|(id, _)| reused_ids.contains(id))
            .map(|(_, b)| b)
            .sum();
        let unique_total: u64 = dst_unique.values().sum();
        prop_assert_eq!(split.fetched_bytes() + reused_unique, unique_total);

        // State side: the KV plan partitions the destination reservation.
        let src_kv = KvCacheSpec::of_model(&src).expect("decoders have KV specs");
        let dst_kv = KvCacheSpec::of_model(&dst).expect("decoders have KV specs");
        let cache = KvCache::filled(src_kv, fill);
        let kv = plan_kv_transform(&cache, &dst_kv);
        prop_assert_eq!(kv.carried_bytes + kv.materialized_bytes, dst_kv.byte_size());
        prop_assert_eq!(kv.carried_bytes + kv.dropped_bytes, cache.live_bytes());
        // Same-size siblings differ only in context length: their caches
        // are row-compatible and all live state within the destination
        // window survives.
        if configs[a].size == configs[b].size {
            prop_assert!(src_kv.row_compatible(&dst_kv));
            prop_assert_eq!(kv.carried, cache.filled.min(dst_kv.context));
        }
    }
}
