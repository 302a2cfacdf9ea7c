//! # optimus-core — inter-function model transformation
//!
//! The paper's primary contribution (§4): transforming the ML model held by
//! a warm-but-idle container into the model another function needs, instead
//! of loading the new model from scratch.
//!
//! The crate implements the full §4 pipeline:
//!
//! - **Meta-operators** ([`MetaOp`], §4.3): `Replace`, `Reshape`, `Reduce`,
//!   `Add` and `Edge`, operating on `optimus-model` graphs with real
//!   semantics (e.g. `Reshape` crops/zero-pads the overlapping weight
//!   region).
//! - **Planning** (§4.4): the transformation is a bipartite graph-edit
//!   problem. [`MunkresPlanner`] is Module 2 — a Riesen–Bunke
//!   `(n+m)×(n+m)` cost matrix solved by a from-scratch O(k³) Hungarian
//!   algorithm; [`GroupPlanner`] is Module 2⁺ — the O(n+m) group-based
//!   heuristic; [`BruteForcePlanner`] is the factorial oracle used to
//!   verify optimality on small instances; [`NaivePlanner`]
//!   (delete-everything-then-add-everything) is the ablation baseline.
//! - **Execution** ([`execute_plan`]): applies a plan's meta-operators to
//!   the source graph in place and verifies the result is structurally and
//!   weight-identical to the destination model.
//! - **Plan cache & safeguard** ([`ModelRepository`], §4.4 Module 3): plans
//!   are computed offline when a model registers and cached; at request
//!   time the scheduler only reads the cache, and falls back to a scratch
//!   load whenever transformation would be slower. Bulk registration
//!   ([`ModelRepository::register_all`]) fans the O(N²) pairwise sweep
//!   across a scoped worker pool, holding the repository lock only to
//!   snapshot the catalog and to install the finished batch.
//! - **Container lifecycle** ([`scheduler`], §4.2, §6.3): the one policy
//!   the simulator and the live worker share — warm match, idle-donor
//!   identification, min-cost source selection, the safeguard repurpose,
//!   eviction and keep-alive expiry.
//!
//! ```
//! use optimus_core::{GroupPlanner, Planner, execute_plan};
//! use optimus_profile::CostModel;
//!
//! let src = optimus_zoo::vgg::vgg16();
//! let dst = optimus_zoo::vgg::vgg19();
//! let cost = CostModel::default();
//! let plan = GroupPlanner.plan(&src, &dst, &cost);
//! assert!(plan.cost.total() < cost_of_scratch(&dst, &cost));
//!
//! let mut container_model = src.clone();
//! let report = execute_plan(&mut container_model, &plan, &dst).unwrap();
//! assert!(container_model.structurally_equal(&dst));
//! assert_eq!(report.steps_applied, plan.steps.len());
//!
//! fn cost_of_scratch(
//!     m: &optimus_model::ModelGraph,
//!     c: &CostModel,
//! ) -> f64 {
//!     use optimus_profile::CostProvider;
//!     c.model_load_cost(m)
//! }
//! ```

#![forbid(unsafe_code)]

mod artifact;
mod cache;
mod chunks;
mod executor;
mod kv;
mod matrix;
mod metaop;
mod munkres;
mod persist;
mod planner;
pub mod scheduler;

pub use artifact::{PlanArtifact, PlanArtifactEntry, PlanArtifactError, PLAN_ARTIFACT_VERSION};
pub use cache::{ModelRepository, PlanScope, TransformDecision};
pub use chunks::{plan_chunks, plans_referenced_chunks, PlanChunks};
pub use executor::{execute_plan, ExecutionReport};
pub use kv::{plan_kv_transform, KvMetaOp, KvPlan};
pub use matrix::CostMatrix;
pub use metaop::{MetaOp, PlanCost, TransformPlan};
pub use munkres::{solve_assignment, solve_assignment_flat, MunkresScratch};
pub use persist::{RepositorySnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use planner::{BruteForcePlanner, GroupPlanner, MunkresPlanner, NaivePlanner, Planner};
