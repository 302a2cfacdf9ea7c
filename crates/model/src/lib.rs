//! # optimus-model — computational-graph model IR
//!
//! This crate provides the model substrate the Optimus system operates on:
//! a computational graph (DAG) whose nodes are typed ML *operations*
//! (convolutions, dense layers, attention projections, …) and whose edges
//! are data flows, mirroring the paper's §3.2 decomposition of a model into
//! layers and operations.
//!
//! The IR plays the role that `tf.keras` layer objects play in the paper's
//! prototype: Optimus' in-container transformation meta-operators edit these
//! graphs in place, and the planner reasons about them as a graph-edit
//! problem.
//!
//! Main types:
//! - [`ModelGraph`] — a named DAG of [`Operation`]s with mutation APIs used
//!   by the transformation executor.
//! - [`OpAttrs`] / [`OpKind`] — the operation taxonomy covering the CNN
//!   operations of §3.2 and the transformer operations of §5.2.
//! - [`Weights`] — lazily materialisable, deterministic weight tensors, so
//!   transformation semantics are observable without storing every float of
//!   every zoo model.
//! - [`infer`] — a minimal forward-pass engine used to check that
//!   transformed graphs are actually runnable.
//!
//! ```
//! use optimus_model::{GraphBuilder, Activation};
//!
//! let mut b = GraphBuilder::new("tiny-cnn");
//! let input = b.input([1, 3, 8, 8]);
//! let conv = b.conv2d_after(input, 3, 4, (3, 3), (1, 1), 1);
//! let _act = b.activation_after(conv, Activation::Relu);
//! let model = b.finish().unwrap();
//! assert_eq!(model.op_count(), 3);
//! assert!(model.validate().is_ok());
//! ```

#![forbid(unsafe_code)]

mod builder;
mod error;
mod graph;
mod intern;
mod kv;
mod op;
mod shape;
mod stats;
mod weights;

pub mod dot;
pub mod infer;
pub mod serialize;
pub mod signature;
pub mod tensor;

pub use builder::GraphBuilder;
pub use error::ModelError;
pub use graph::{Edge, ModelGraph, OpId};
pub use intern::{FunctionId, InternKey, Interner, ModelId};
pub use kv::{KvCache, KvCacheSpec, KV_ELEMENT_BYTES};
pub use op::{Activation, OpAttrs, OpKind, Operation, Padding, PoolKind};
pub use shape::TensorShape;
pub use stats::{ModelStats, OpHistogram};
pub use weights::{WeightId, WeightInit, WeightSpec, Weights};

/// Model family tags used by the zoo and by family-aware experiments
/// (e.g. Figure 11 groups the transformation matrix by family).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum ModelFamily {
    /// VGG image classifiers (Simonyan & Zisserman).
    Vgg,
    /// Residual networks (He et al.).
    ResNet,
    /// Densely connected networks.
    DenseNet,
    /// MobileNet efficient CNNs.
    MobileNet,
    /// Xception (depthwise-separable convolutions).
    Xception,
    /// Inception / GoogLeNet style.
    Inception,
    /// BERT transformer encoders.
    Bert,
    /// GPT-style causal decoder transformers.
    Gpt,
    /// NAS-Bench-201 cell-search-space models.
    NasBench,
    /// Anything else (hand-built or test models).
    Custom,
}

impl ModelFamily {
    /// `true` for transformer families, `false` for CNN families.
    ///
    /// The paper observes (§8.2) that CNN↔transformer transformations always
    /// cost more than loading from scratch, so the safeguard rejects them;
    /// this predicate lets schedulers short-circuit that case.
    pub fn is_transformer(self) -> bool {
        matches!(self, ModelFamily::Bert | ModelFamily::Gpt)
    }

    /// Human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::Vgg => "VGG",
            ModelFamily::ResNet => "ResNet",
            ModelFamily::DenseNet => "DenseNet",
            ModelFamily::MobileNet => "MobileNet",
            ModelFamily::Xception => "Xception",
            ModelFamily::Inception => "Inception",
            ModelFamily::Bert => "BERT",
            ModelFamily::Gpt => "GPT",
            ModelFamily::NasBench => "NASBench",
            ModelFamily::Custom => "Custom",
        }
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
