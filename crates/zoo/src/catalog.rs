//! Model catalog: a population of several hundred named CNN variants plus
//! the BERT zoo, standing in for the paper's Imgclsmob workload (§8.1).
//!
//! Imgclsmob ships 389 pretrained classifiers spanning many families; our
//! catalog reproduces the *population structure* the paper exploits —
//! families of structurally similar models at different widths/depths and
//! weight variants of the same structure — with deterministic builders.
//! (DESIGN.md records this substitution.)

use optimus_model::{ModelFamily, ModelGraph};
use serde::{Deserialize, Serialize};

use crate::bert::{bert, BertConfig};
use crate::{
    densenet, efficientnet, inception, mobilenet, nasbench, resnet, resnext, squeezenet, vgg,
    wideresnet, xception,
};

/// The function population for the end-to-end runs (Figures 13/14/16):
/// a CNN mix across all six families (several widths and weight variants)
/// plus the ten BERT variants — 37 functions on 2 nodes × 12 slots, the
/// paper's "not enough warm containers for every model type" regime.
pub fn figure13_models() -> Vec<ModelGraph> {
    let mut models = Vec::new();
    for depth in [11usize, 16, 19] {
        models.push(vgg::vgg_scaled(depth, 1.0, 0));
        models.push(vgg::vgg_scaled(depth, 0.5, 0));
    }
    models.push(vgg::vgg_scaled(16, 1.0, 1));
    for depth in [18usize, 34, 50, 101] {
        models.push(resnet::resnet_scaled(depth, 1.0, 0));
        models.push(resnet::resnet_scaled(depth, 0.5, 0));
    }
    models.push(resnet::resnet_scaled(50, 1.0, 1));
    for depth in [121usize, 169] {
        models.push(densenet::densenet_variant(depth, 0));
    }
    models.push(densenet::densenet_variant(121, 1));
    for alpha in [0.5, 1.0] {
        models.push(mobilenet::mobilenet_v1(alpha, 0));
        models.push(mobilenet::mobilenet_v2(alpha, 0));
    }
    models.push(xception::xception());
    models.push(xception::xception_variant(1));
    models.push(inception::inception_v1());
    models.push(inception::inception_variant(1));
    models.extend(crate::bert::bert_zoo());
    models
}

/// A buildable catalog entry: recipe + metadata, graph built on demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelEntry {
    /// Canonical model name (matches the built graph's name).
    pub name: String,
    /// Family tag.
    pub family: ModelFamily,
    /// Build recipe.
    pub spec: ModelSpec,
}

/// Deterministic build recipe for a catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// VGG at `(depth, width multiplier, weight variant)`.
    Vgg(usize, f64, u64),
    /// ResNet at `(depth, width multiplier, weight variant)`.
    ResNet(usize, f64, u64),
    /// DenseNet at `(depth, weight variant)`.
    DenseNet(usize, u64),
    /// MobileNet at `(version, alpha, weight variant)`.
    MobileNet(u8, f64, u64),
    /// Xception at `(weight variant)`.
    Xception(u64),
    /// Inception-v1 at `(weight variant)`.
    Inception(u64),
    /// BERT configuration.
    Bert(BertConfig),
    /// NAS-Bench-201 architecture `(index, weight variant)`.
    NasBench(u64, u64),
    /// SqueezeNet v1.1 at `(weight variant)`.
    SqueezeNet(u64),
    /// ResNeXt 32×4d at `(depth, weight variant)`.
    ResNeXt(usize, u64),
    /// Wide ResNet at `(depth, widening factor, weight variant)`.
    WideResNet(usize, usize, u64),
    /// EfficientNet-Lite at `(width, depth multiplier, weight variant)`.
    EfficientNet(f64, f64, u64),
    /// Text-classification RNN at `(cell, layers, hidden, weight variant)`.
    TextRnn(crate::textrnn::RnnCell, usize, usize, u64),
}

impl ModelEntry {
    fn new(family: ModelFamily, spec: ModelSpec) -> Self {
        // Build once to obtain the canonical name; graph is then dropped.
        // Builders are pure metadata constructions (weights stay lazy), so
        // this costs microseconds per entry.
        let name = spec.build().name().to_string();
        ModelEntry { name, family, spec }
    }

    /// Build the model graph.
    pub fn build(&self) -> ModelGraph {
        self.spec.build()
    }
}

impl ModelSpec {
    /// Build the model graph for this recipe.
    pub fn build(&self) -> ModelGraph {
        match *self {
            ModelSpec::Vgg(d, w, v) => vgg::vgg_scaled(d, w, v),
            ModelSpec::ResNet(d, w, v) => resnet::resnet_scaled(d, w, v),
            ModelSpec::DenseNet(d, v) => densenet::densenet_variant(d, v),
            ModelSpec::MobileNet(1, a, v) => mobilenet::mobilenet_v1(a, v),
            ModelSpec::MobileNet(_, a, v) => mobilenet::mobilenet_v2(a, v),
            ModelSpec::Xception(v) => xception::xception_variant(v),
            ModelSpec::Inception(v) => inception::inception_variant(v),
            ModelSpec::Bert(cfg) => bert(cfg),
            ModelSpec::NasBench(i, v) => nasbench::nasbench_model_sized(i, 5, v),
            ModelSpec::SqueezeNet(v) => squeezenet::squeezenet_variant(v),
            ModelSpec::ResNeXt(d, v) => resnext::resnext_variant(d, v),
            ModelSpec::WideResNet(d, k, v) => wideresnet::wide_resnet_variant(d, k, v),
            ModelSpec::EfficientNet(w, dm, v) => efficientnet::efficientnet_lite(w, dm, v),
            ModelSpec::TextRnn(cell, l, h, v) => crate::textrnn::text_rnn(cell, l, h, v),
        }
    }
}

/// The Imgclsmob-style CNN catalog: width/depth grids over six families
/// plus weight variants of the canonical models (~300 entries).
pub fn imgclsmob_catalog() -> Vec<ModelEntry> {
    let mut entries = Vec::new();
    let widths = [
        0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5, 1.75, 2.0,
    ];
    for &d in &[11usize, 13, 16, 19] {
        for &w in &widths {
            entries.push(ModelEntry::new(ModelFamily::Vgg, ModelSpec::Vgg(d, w, 0)));
        }
        // Weight variants of the published width ("trained on other data").
        for v in 1..=2 {
            entries.push(ModelEntry::new(ModelFamily::Vgg, ModelSpec::Vgg(d, 1.0, v)));
        }
    }
    for &d in &[10usize, 14, 18, 26, 34, 50, 101, 152] {
        for &w in &widths {
            entries.push(ModelEntry::new(
                ModelFamily::ResNet,
                ModelSpec::ResNet(d, w, 0),
            ));
        }
        for v in 1..=2 {
            entries.push(ModelEntry::new(
                ModelFamily::ResNet,
                ModelSpec::ResNet(d, 1.0, v),
            ));
        }
    }
    for &d in &[121usize, 161, 169, 201] {
        for v in 0..=2 {
            entries.push(ModelEntry::new(
                ModelFamily::DenseNet,
                ModelSpec::DenseNet(d, v),
            ));
        }
    }
    for version in [1u8, 2] {
        for &a in &[0.25, 0.5, 0.75, 1.0] {
            for v in 0..=2 {
                entries.push(ModelEntry::new(
                    ModelFamily::MobileNet,
                    ModelSpec::MobileNet(version, a, v),
                ));
            }
        }
    }
    for v in 0..=4 {
        entries.push(ModelEntry::new(
            ModelFamily::Xception,
            ModelSpec::Xception(v),
        ));
        entries.push(ModelEntry::new(
            ModelFamily::Inception,
            ModelSpec::Inception(v),
        ));
        entries.push(ModelEntry::new(
            ModelFamily::Custom,
            ModelSpec::SqueezeNet(v),
        ));
    }
    for &d in &[50usize, 101] {
        for v in 0..=2 {
            entries.push(ModelEntry::new(
                ModelFamily::ResNet,
                ModelSpec::ResNeXt(d, v),
            ));
        }
    }
    for &(d, k) in &[(16usize, 4usize), (16, 8), (28, 10), (22, 8), (40, 4)] {
        for v in 0..=1 {
            entries.push(ModelEntry::new(
                ModelFamily::ResNet,
                ModelSpec::WideResNet(d, k, v),
            ));
        }
    }
    for &(w, dm) in &[(1.0f64, 1.0f64), (1.0, 1.1), (1.1, 1.2), (1.2, 1.4)] {
        for v in 0..=1 {
            entries.push(ModelEntry::new(
                ModelFamily::MobileNet,
                ModelSpec::EfficientNet(w, dm, v),
            ));
        }
    }
    entries
}

/// The full catalog: Imgclsmob-style CNNs, the ten BERT variants (the
/// same configurations as [`crate::bert::bert_zoo`]), and the text-RNN
/// family.
pub fn catalog() -> Vec<ModelEntry> {
    let mut entries = imgclsmob_catalog();
    for cfg in bert_configs() {
        entries.push(ModelEntry::new(ModelFamily::Bert, ModelSpec::Bert(cfg)));
    }
    for cell in [crate::textrnn::RnnCell::Lstm, crate::textrnn::RnnCell::Gru] {
        for &(l, h) in &[(1usize, 128usize), (1, 256), (2, 256), (2, 512)] {
            entries.push(ModelEntry::new(
                ModelFamily::Custom,
                ModelSpec::TextRnn(cell, l, h, 0),
            ));
        }
    }
    entries
}

/// The ten BERT configurations of [`crate::bert::bert_zoo`], as specs.
pub fn bert_configs() -> Vec<BertConfig> {
    use crate::bert::{BertSize, BertTask, BertVocab};
    vec![
        BertConfig::new(BertSize::Tiny),
        BertConfig::new(BertSize::Mini),
        BertConfig::new(BertSize::Small),
        BertConfig::new(BertSize::Base).vocab(BertVocab::Cased),
        BertConfig::new(BertSize::Base).vocab(BertVocab::Uncased),
        BertConfig::new(BertSize::Base).task(BertTask::SequenceClassification),
        BertConfig::new(BertSize::Base).task(BertTask::TokenClassification),
        BertConfig::new(BertSize::Base).task(BertTask::QuestionAnswering),
        BertConfig::new(BertSize::Base).task(BertTask::NextSentencePrediction),
        BertConfig::new(BertSize::Base).task(BertTask::MultipleChoice),
    ]
}

/// Find a catalog entry by name.
pub fn find(name: &str) -> Option<ModelEntry> {
    catalog().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_populous_and_unique() {
        let c = catalog();
        assert!(c.len() >= 200, "catalog has {} entries", c.len());
        let names: std::collections::HashSet<_> = c.iter().map(|e| e.name.clone()).collect();
        assert_eq!(names.len(), c.len(), "duplicate names in catalog");
    }

    #[test]
    fn entry_names_match_built_models() {
        // Sample across the catalog (building all ~300 is slow in debug).
        let c = catalog();
        for e in c.iter().step_by(17) {
            let g = e.build();
            assert_eq!(g.name(), e.name, "name mismatch for {:?}", e.spec);
            assert_eq!(g.family(), e.family);
            assert!(g.validate().is_ok(), "{} invalid", e.name);
        }
    }

    #[test]
    fn find_locates_canonical_models() {
        for name in ["vgg16", "resnet50", "densenet121", "bert-base-uncased"] {
            assert!(find(name).is_some(), "{name} missing from catalog");
        }
        assert!(find("nonexistent-model").is_none());
    }

    #[test]
    fn families_are_all_represented() {
        let c = catalog();
        for fam in [
            ModelFamily::Vgg,
            ModelFamily::ResNet,
            ModelFamily::DenseNet,
            ModelFamily::MobileNet,
            ModelFamily::Xception,
            ModelFamily::Inception,
            ModelFamily::Bert,
        ] {
            assert!(
                c.iter().any(|e| e.family == fam),
                "family {fam} missing from catalog"
            );
        }
    }

    #[test]
    fn specs_serialize() {
        let c = imgclsmob_catalog();
        let json = serde_json::to_string(&c[0]).unwrap();
        let back: ModelEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c[0]);
    }
}
