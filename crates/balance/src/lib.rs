//! # optimus-balance — the model-sharing-aware load balancer (§5.1)
//!
//! Optimus places serverless ML functions onto worker nodes so that
//! functions on the same node have *similar model structures* (cheap
//! inter-function transformation) and *complementary demand dynamics*
//! (when one function is idle, another is busy, so idle donors exist).
//!
//! The §5.1 construction: treat each function as a point, define the
//! pairwise distance
//!
//! ```text
//! dist(A, B) = γ_d · D(A, B)  +  γ_k · K(A, B)
//! ```
//!
//! where `D` is the (normalised) model editing distance from the §4.4
//! planner and `K` is the Pearson correlation of the functions' historical
//! demand, then cluster with K-medoids and map clusters onto nodes.
//!
//! Baseline placements ([`hash_placement`], [`least_loaded_placement`])
//! reproduce the hash-based / resource-usage-based routing the paper says
//! existing systems use, for the ablation in the evaluation.

#![forbid(unsafe_code)]

mod correlation;
mod kmedoids;
mod placement;

pub use correlation::pearson;
pub use kmedoids::{kmedoids, KMedoidsResult};
pub use placement::{
    failover_node, hash_placement, least_loaded_placement, spill_node, FunctionPoint,
    SharingAwareBalancer,
};
