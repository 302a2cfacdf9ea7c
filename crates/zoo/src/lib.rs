//! # optimus-zoo — the model populations of the paper's evaluation
//!
//! Programmatic builders for every architecture family the paper uses:
//!
//! - **Imgclsmob-style CNNs** (§8.1): VGG, ResNet, DenseNet, MobileNet,
//!   Xception and Inception, each a faithful construction of the published
//!   architecture (parameter counts are asserted against the published
//!   numbers in tests), plus a [`catalog()`] of several hundred width/depth
//!   variants standing in for the 389-model Imgclsmob zoo.
//! - **BERT** (§5.2, §8.1): Tiny/Mini/Small/Medium/Base sizes, Cased and
//!   Uncased vocabularies, and the five downstream-task heads the paper
//!   lists (SC, TC, QA, NSP, MC).
//! - **NAS-Bench-201** (§8.1): the real 15,625-architecture cell search
//!   space, deterministically buildable by index.
//!
//! All builders are deterministic: the same call always yields a
//! structurally identical graph with identical weight ids, which makes
//! every experiment in this repository reproducible.

#![forbid(unsafe_code)]

pub mod bert;
pub mod catalog;
pub mod densenet;
pub mod efficientnet;
pub mod gpt;
pub mod inception;
pub mod mobilenet;
pub mod nasbench;
pub mod resnet;
pub mod resnext;
pub mod squeezenet;
pub mod textrnn;
pub mod vgg;
pub mod wideresnet;
pub mod xception;

pub use bert::{bert, BertConfig, BertSize, BertTask, BertVocab};
pub use catalog::{catalog, figure13_models, find, imgclsmob_catalog, ModelEntry};
pub use gpt::{gpt, gpt_zoo, GptConfig, GptSize, GPT_VOCAB};
pub use nasbench::{nasbench_model, CellOp, CellSpec, NASBENCH_SPACE_SIZE};

/// Default image-classification input: ImageNet-style 224×224 RGB.
pub const IMAGE_INPUT: [usize; 4] = [1, 3, 224, 224];

/// Default classifier width (ImageNet classes).
pub const NUM_CLASSES: usize = 1000;

#[cfg(test)]
mod tests {
    use super::*;

    /// Published parameter counts the paper's Figure 2c reports, within 1%.
    #[test]
    fn figure_2c_param_counts_match_paper() {
        let cases: [(&str, optimus_model::ModelGraph, f64); 6] = [
            ("VGG11", vgg::vgg11(), 132.9),
            ("VGG16", vgg::vgg16(), 138.4),
            ("VGG19", vgg::vgg19(), 143.7),
            ("ResNet50", resnet::resnet50(), 25.6),
            ("ResNet101", resnet::resnet101(), 44.7),
            ("ResNet152", resnet::resnet152(), 60.4),
        ];
        for (name, model, expected_m) in cases {
            let params_m = model.param_count() as f64 / 1e6;
            let rel = (params_m - expected_m).abs() / expected_m;
            assert!(
                rel < 0.01,
                "{name}: {params_m:.1}M params, paper says {expected_m}M (rel err {rel:.3})"
            );
        }
    }
}
