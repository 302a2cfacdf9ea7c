//! # Optimus — warming serverless ML inference via inter-function model
//! transformation
//!
//! A from-scratch Rust reproduction of the EuroSys '24 paper *Optimus:
//! Warming Serverless ML Inference via Inter-Function Model
//! Transformation* (Hong et al.).
//!
//! This facade re-exports the whole system:
//!
//! - [`model`] — computational-graph IR with typed operations, lazy
//!   deterministic weights, and a forward-pass engine;
//! - [`zoo`] — VGG / ResNet / DenseNet / MobileNet / Xception / Inception /
//!   BERT / NAS-Bench-201 builders and the Imgclsmob-style catalog;
//! - [`profile`] — the offline profiler and calibrated latency cost model;
//! - [`core`] — the paper's contribution: meta-operators
//!   (Replace/Reshape/Reduce/Add/Edge), the Munkres and group-based
//!   planners, plan cache, safeguard, and container scheduling;
//! - [`balance`] — the §5.1 model-sharing-aware K-medoids load balancer;
//! - [`workload`] — Poisson and Azure-style trace generators;
//! - [`sim`] — the serverless-platform simulator with the four compared
//!   systems (OpenWhisk, Pagurus, Tetris, Optimus);
//! - [`serve`] — a live in-process serving engine (threads as containers)
//!   that really executes transformations and inference, mirroring the
//!   paper's §7 prototype;
//! - [`telemetry`] — the shared metrics + request-tracing substrate:
//!   lock-free counters/gauges/histograms, per-request phase spans, a
//!   Prometheus text renderer, and JSONL trace sinks, wired through the
//!   gateway, the simulator, the plan cache, and the balancer.
//!
//! ## Quickstart
//!
//! ```
//! use optimus::core::{GroupPlanner, Planner, execute_plan};
//! use optimus::profile::{CostModel, CostProvider};
//!
//! // A warm container holds VGG16; a request for VGG19 arrives.
//! let src = optimus::zoo::vgg::vgg16();
//! let dst = optimus::zoo::vgg::vgg19();
//! let cost = CostModel::default();
//!
//! // Plan the transformation (offline) and execute it (in-container).
//! let plan = GroupPlanner.plan(&src, &dst, &cost);
//! assert!(plan.cost.total() < cost.model_load_cost(&dst));
//!
//! let mut in_container = src.clone();
//! execute_plan(&mut in_container, &plan, &dst).unwrap();
//! assert!(in_container.structurally_equal(&dst));
//! ```

#![forbid(unsafe_code)]

pub use optimus_balance as balance;
pub use optimus_core as core;
pub use optimus_model as model;
pub use optimus_profile as profile;
pub use optimus_serve as serve;
pub use optimus_sim as sim;
pub use optimus_telemetry as telemetry;
pub use optimus_workload as workload;
pub use optimus_zoo as zoo;
