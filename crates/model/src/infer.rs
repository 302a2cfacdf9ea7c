//! Minimal forward-pass engine.
//!
//! The paper's third pipeline step is "inference computation" (§3.1). This
//! engine executes a [`ModelGraph`] on real tensors so tests, examples and
//! the transformation executor can verify that a graph — in particular a
//! *transformed* graph — is actually runnable and produces finite outputs.
//!
//! It is deliberately naive (nested-loop convolutions, no SIMD): it exists
//! for correctness validation of small models, not for throughput. The
//! simulated platform accounts for inference *latency* through the cost
//! model in `optimus-profile` instead.

use std::collections::HashMap;

use crate::error::ModelError;
use crate::graph::{ModelGraph, OpId};
use crate::op::{Activation, OpAttrs, OpKind, Padding, PoolKind};
use crate::tensor::Tensor;

/// Execute the graph on a single input tensor.
///
/// The tensor is fed to the graph's (single) `Input` op; every other op is
/// evaluated in topological order; the output of the (single) sink op is
/// returned.
///
/// # Errors
///
/// Returns [`ModelError`] on invalid graphs, shape mismatches, or operations
/// the engine does not implement.
pub fn run(graph: &ModelGraph, input: Tensor) -> Result<Tensor, ModelError> {
    let inputs = graph.inputs();
    if inputs.len() != 1 {
        return Err(ModelError::MissingInput);
    }
    let outputs = run_multi(graph, [(inputs[0], input)])?;
    let sinks = graph.outputs();
    let sink = *sinks.first().ok_or(ModelError::MissingInput)?;
    outputs
        .into_iter()
        .find(|(id, _)| *id == sink)
        .map(|(_, t)| t)
        .ok_or(ModelError::UnknownOp(sink))
}

/// Execute the graph with explicit per-input tensors, returning every sink
/// op's output. The tensors are moved into the evaluation, not copied.
///
/// # Errors
///
/// Returns [`ModelError`] on invalid graphs, shape mismatches, or operations
/// the engine does not implement.
pub fn run_multi(
    graph: &ModelGraph,
    inputs: impl IntoIterator<Item = (OpId, Tensor)>,
) -> Result<Vec<(OpId, Tensor)>, ModelError> {
    graph.validate()?;
    let order = graph.topo_order()?;
    let mut values: HashMap<OpId, Tensor> = inputs.into_iter().collect();
    for id in order {
        let op = graph.op(id).expect("topo ids exist");
        if op.kind() == OpKind::Input {
            if !values.contains_key(&id) {
                return Err(ModelError::ShapeMismatch {
                    op: id,
                    detail: "no tensor supplied for Input op".into(),
                });
            }
            continue;
        }
        let preds = graph.predecessors(id);
        let mut args: Vec<&Tensor> = Vec::with_capacity(preds.len());
        for p in &preds {
            args.push(values.get(p).ok_or(ModelError::UnknownOp(*p))?);
        }
        let out = eval_op(graph, id, &preds, &args)?;
        values.insert(id, out);
    }
    Ok(graph
        .outputs()
        .into_iter()
        .filter_map(|id| values.remove(&id).map(|t| (id, t)))
        .collect())
}

fn arity(op: OpId, args: &[&Tensor], expected: usize) -> Result<(), ModelError> {
    if args.len() == expected {
        Ok(())
    } else {
        Err(ModelError::ArityMismatch {
            op,
            expected,
            actual: args.len(),
        })
    }
}

fn eval_op(
    graph: &ModelGraph,
    id: OpId,
    preds: &[OpId],
    args: &[&Tensor],
) -> Result<Tensor, ModelError> {
    let op = graph.op(id).expect("caller validated id");
    match &op.attrs {
        OpAttrs::Input { .. } => unreachable!("inputs handled by caller"),
        OpAttrs::Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            bias,
        } => {
            arity(id, args, 1)?;
            conv2d(
                id,
                args[0],
                op.weights.as_ref().expect("validated weights"),
                *in_channels,
                *out_channels,
                *kernel,
                *stride,
                *padding,
                *groups,
                *bias,
            )
        }
        OpAttrs::Dense {
            in_features,
            out_features,
            bias,
        } => {
            arity(id, args, 1)?;
            dense(
                id,
                args[0],
                op.weights.as_ref().expect("validated weights"),
                *in_features,
                *out_features,
                *bias,
            )
        }
        OpAttrs::BatchNorm { features } => {
            arity(id, args, 1)?;
            batchnorm(
                id,
                args[0],
                op.weights.as_ref().expect("validated"),
                *features,
            )
        }
        OpAttrs::LayerNorm { features } => {
            arity(id, args, 1)?;
            layernorm(
                id,
                args[0],
                op.weights.as_ref().expect("validated"),
                *features,
            )
        }
        OpAttrs::Activation { kind } => {
            arity(id, args, 1)?;
            Ok(activation(args[0], *kind))
        }
        OpAttrs::Pool2d {
            kind,
            size,
            stride,
            padding,
        } => {
            arity(id, args, 1)?;
            pool2d(id, args[0], *kind, *size, *stride, *padding)
        }
        OpAttrs::GlobalPool { kind } => {
            arity(id, args, 1)?;
            global_pool(id, args[0], *kind)
        }
        OpAttrs::Add => {
            if args.is_empty() {
                return Err(ModelError::ArityMismatch {
                    op: id,
                    expected: 2,
                    actual: 0,
                });
            }
            let mut out = args[0].clone();
            for t in &args[1..] {
                if t.shape() != out.shape() {
                    return Err(ModelError::ShapeMismatch {
                        op: id,
                        detail: format!("add inputs {} vs {}", out.shape(), t.shape()),
                    });
                }
                for (o, v) in out.data_mut().iter_mut().zip(t.data()) {
                    *o += v;
                }
            }
            Ok(out)
        }
        OpAttrs::Concat => concat(id, args),
        OpAttrs::Flatten => {
            arity(id, args, 1)?;
            let t = args[0].clone();
            let d = t.shape().dims().to_vec();
            let batch = d.first().copied().unwrap_or(1);
            let rest: usize = d.iter().skip(1).product();
            Ok(t.reshaped([batch, rest]))
        }
        OpAttrs::Dropout { .. } => {
            arity(id, args, 1)?;
            Ok(args[0].clone())
        }
        OpAttrs::ZeroPad { pad } => {
            arity(id, args, 1)?;
            zeropad(id, args[0], *pad)
        }
        OpAttrs::Softmax => {
            arity(id, args, 1)?;
            Ok(softmax_last_axis(args[0]))
        }
        OpAttrs::Embedding { vocab, hidden } => {
            arity(id, args, 1)?;
            embedding(
                id,
                args[0],
                op.weights.as_ref().expect("validated"),
                *vocab,
                *hidden,
            )
        }
        OpAttrs::PosEmbedding { max_len, hidden } => {
            arity(id, args, 1)?;
            pos_embedding(
                id,
                args[0],
                op.weights.as_ref().expect("validated"),
                *max_len,
                *hidden,
            )
        }
        OpAttrs::Query { hidden, .. }
        | OpAttrs::Key { hidden, .. }
        | OpAttrs::Value { hidden, .. }
        | OpAttrs::AttnOutput { hidden } => {
            arity(id, args, 1)?;
            // All four are hidden→hidden affine maps over the last axis.
            dense_last_axis(
                id,
                args[0],
                op.weights.as_ref().expect("validated"),
                *hidden,
            )
        }
        OpAttrs::Logit { heads } => {
            arity(id, args, 2)?;
            let (q, k) = pick_by_kind(graph, preds, args, OpKind::Query, OpKind::Key, id)?;
            logit(id, q, k, *heads)
        }
        OpAttrs::Attend { heads } => {
            arity(id, args, 2)?;
            let (probs, v) = pick_attend_inputs(graph, preds, args, id)?;
            attend(id, probs, v, *heads)
        }
        OpAttrs::Lstm { input, hidden } => {
            arity(id, args, 1)?;
            recurrent(
                id,
                args[0],
                op.weights.as_ref().expect("validated weights"),
                *input,
                *hidden,
                RnnKind::Lstm,
            )
        }
        OpAttrs::Gru { input, hidden } => {
            arity(id, args, 1)?;
            recurrent(
                id,
                args[0],
                op.weights.as_ref().expect("validated weights"),
                *input,
                *hidden,
                RnnKind::Gru,
            )
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum RnnKind {
    Lstm,
    Gru,
}

/// Sequential recurrent forward pass over `[B, S, in] -> [B, S, hidden]`.
fn recurrent(
    id: OpId,
    x: &Tensor,
    weights: &crate::weights::Weights,
    input: usize,
    hidden: usize,
    kind: RnnKind,
) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.len() != 3 || d[2] != input {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("rnn expects [B,S,{input}], got {}", x.shape()),
        });
    }
    let (batch, seq) = (d[0], d[1]);
    let gates = match kind {
        RnnKind::Lstm => 4,
        RnnKind::Gru => 3,
    };
    let w = weights.tensors[0].materialize(); // [gates*h, in]
    let u = weights.tensors[1].materialize(); // [gates*h, h]
    let bias = weights.tensors[2].materialize(); // [gates*h]
    let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
    let mut out = Tensor::zeros([batch, seq, hidden]);
    for b in 0..batch {
        let mut h = vec![0.0f32; hidden];
        let mut c = vec![0.0f32; hidden]; // cell state (LSTM only)
        for t in 0..seq {
            let xt = &x.data()[(b * seq + t) * input..(b * seq + t + 1) * input];
            // Pre-activations for all gates: z = W·x + U·h + b.
            let mut z = vec![0.0f32; gates * hidden];
            for (g, zg) in z.iter_mut().enumerate() {
                let mut acc = bias.data()[g];
                for (i, &xv) in xt.iter().enumerate() {
                    acc += w.data()[g * input + i] * xv;
                }
                for (j, &hv) in h.iter().enumerate() {
                    acc += u.data()[g * hidden + j] * hv;
                }
                *zg = acc;
            }
            match kind {
                RnnKind::Lstm => {
                    // Gate order: input, forget, cell candidate, output.
                    for j in 0..hidden {
                        let ig = sigmoid(z[j]);
                        let fg = sigmoid(z[hidden + j]);
                        let gg = z[2 * hidden + j].tanh();
                        let og = sigmoid(z[3 * hidden + j]);
                        c[j] = fg * c[j] + ig * gg;
                        h[j] = og * c[j].tanh();
                    }
                }
                RnnKind::Gru => {
                    // Gate order: update, reset, candidate. The candidate
                    // uses the reset-scaled recurrent term; our stacked
                    // formulation applies the reset gate post-hoc, a common
                    // simplification adequate for smoke-testing.
                    for j in 0..hidden {
                        let zg = sigmoid(z[j]);
                        let rg = sigmoid(z[hidden + j]);
                        let ng = (z[2 * hidden + j] * rg).tanh();
                        h[j] = (1.0 - zg) * ng + zg * h[j];
                    }
                }
            }
            out.data_mut()[(b * seq + t) * hidden..(b * seq + t + 1) * hidden].copy_from_slice(&h);
        }
    }
    Ok(out)
}

/// For two-input attention ops: pick the argument produced by `first_kind`
/// as the first result.
fn pick_by_kind<'a>(
    graph: &ModelGraph,
    preds: &[OpId],
    args: &[&'a Tensor],
    first_kind: OpKind,
    second_kind: OpKind,
    id: OpId,
) -> Result<(&'a Tensor, &'a Tensor), ModelError> {
    let mut first = None;
    let mut second = None;
    for (p, a) in preds.iter().zip(args) {
        let k = graph.op(*p).map(|o| o.kind());
        if k == Some(first_kind) {
            first = Some(*a);
        } else if k == Some(second_kind) {
            second = Some(*a);
        }
    }
    match (first, second) {
        (Some(f), Some(s)) => Ok((f, s)),
        _ => Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("expected {first_kind} and {second_kind} producers"),
        }),
    }
}

fn pick_attend_inputs<'a>(
    graph: &ModelGraph,
    preds: &[OpId],
    args: &[&'a Tensor],
    id: OpId,
) -> Result<(&'a Tensor, &'a Tensor), ModelError> {
    let mut probs = None;
    let mut value = None;
    for (p, a) in preds.iter().zip(args) {
        match graph.op(*p).map(|o| o.kind()) {
            Some(OpKind::Value) => value = Some(*a),
            Some(OpKind::Softmax) | Some(OpKind::Logit) => probs = Some(*a),
            _ => {}
        }
    }
    match (probs, value) {
        (Some(p), Some(v)) => Ok((p, v)),
        _ => Err(ModelError::ShapeMismatch {
            op: id,
            detail: "attend expects a probs producer and a Value producer".into(),
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn conv2d(
    id: OpId,
    x: &Tensor,
    weights: &crate::weights::Weights,
    in_channels: usize,
    out_channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: Padding,
    groups: usize,
    bias: bool,
) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.len() != 4 || d[1] != in_channels {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("conv2d expects [N,{in_channels},H,W], got {}", x.shape()),
        });
    }
    let (n, h, w) = (d[0], d[2], d[3]);
    let (kh, kw) = kernel;
    let (sh, sw) = stride;
    let (ph, pw) = match padding {
        Padding::Valid => (0usize, 0usize),
        Padding::Same => ((kh.saturating_sub(1)) / 2, (kw.saturating_sub(1)) / 2),
    };
    if kh > h + 2 * ph || kw > w + 2 * pw {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("kernel {kh}x{kw} larger than padded input {h}x{w}"),
        });
    }
    let (oh, ow) = match padding {
        Padding::Valid => ((h - kh) / sh + 1, (w - kw) / sw + 1),
        Padding::Same => (h.div_ceil(sh), w.div_ceil(sw)),
    };
    let kernel_t = weights.tensors[0].materialize();
    let bias_t = if bias {
        Some(weights.tensors[1].materialize())
    } else {
        None
    };
    let cin_per_group = in_channels / groups.max(1);
    let cout_per_group = out_channels / groups.max(1);
    let mut out = Tensor::zeros([n, out_channels, oh, ow]);
    for b in 0..n {
        for oc in 0..out_channels {
            let g = oc / cout_per_group.max(1);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias_t.as_ref().map_or(0.0, |t| t.data()[oc]);
                    for ic in 0..cin_per_group {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * sh + ky) as isize - ph as isize;
                                let ix = (ox * sw + kx) as isize - pw as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                let xin =
                                    x.at4(b, g * cin_per_group + ic, iy as usize, ix as usize);
                                let kv = kernel_t.at4(oc, ic, ky, kx);
                                acc += xin * kv;
                            }
                        }
                    }
                    *out.at4_mut(b, oc, oy, ox) = acc;
                }
            }
        }
    }
    Ok(out)
}

fn dense(
    id: OpId,
    x: &Tensor,
    weights: &crate::weights::Weights,
    in_features: usize,
    out_features: usize,
    bias: bool,
) -> Result<Tensor, ModelError> {
    // Dense applies over the last axis: [.., in] -> [.., out]. Transformer
    // feed-forward layers feed [B, S, H] tensors through the same op kind.
    let d = x.shape().dims();
    if d.is_empty() || *d.last().expect("non-empty") != in_features {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("dense expects [.., {in_features}], got {}", x.shape()),
        });
    }
    let n: usize = d[..d.len() - 1].iter().product();
    let wt = weights.tensors[0].materialize();
    let bt = if bias {
        Some(weights.tensors[1].materialize())
    } else {
        None
    };
    let mut out_shape = d.to_vec();
    *out_shape.last_mut().expect("non-empty") = out_features;
    let mut out = Tensor::zeros(out_shape);
    for b in 0..n {
        for o in 0..out_features {
            let mut acc = bt.as_ref().map_or(0.0, |t| t.data()[o]);
            for i in 0..in_features {
                acc += x.data()[b * in_features + i] * wt.data()[o * in_features + i];
            }
            out.data_mut()[b * out_features + o] = acc;
        }
    }
    Ok(out)
}

/// Affine map over the last axis of a `[B, S, H]` tensor (Q/K/V/O
/// projections).
fn dense_last_axis(
    id: OpId,
    x: &Tensor,
    weights: &crate::weights::Weights,
    hidden: usize,
) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.last() != Some(&hidden) {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("projection expects last dim {hidden}, got {}", x.shape()),
        });
    }
    let rows: usize = d[..d.len() - 1].iter().product();
    let wt = weights.tensors[0].materialize();
    let bt = weights.tensors[1].materialize();
    let mut out = Tensor::zeros(d.to_vec());
    for r in 0..rows {
        for o in 0..hidden {
            let mut acc = bt.data()[o];
            for i in 0..hidden {
                acc += x.data()[r * hidden + i] * wt.data()[o * hidden + i];
            }
            out.data_mut()[r * hidden + o] = acc;
        }
    }
    Ok(out)
}

fn batchnorm(
    id: OpId,
    x: &Tensor,
    weights: &crate::weights::Weights,
    features: usize,
) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.len() != 4 || d[1] != features {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("batchnorm expects [N,{features},H,W], got {}", x.shape()),
        });
    }
    let gamma = weights.tensors[0].materialize();
    let beta = weights.tensors[1].materialize();
    let mean = weights.tensors[2].materialize();
    let var = weights.tensors[3].materialize();
    let mut out = x.clone();
    let (n, h, w) = (d[0], d[2], d[3]);
    for b in 0..n {
        for c in 0..features {
            // Running variance is stored as an arbitrary seeded tensor;
            // take |v| + eps to keep the denominator positive.
            let denom = (var.data()[c].abs() + 1e-3).sqrt();
            for y in 0..h {
                for xw in 0..w {
                    let v = x.at4(b, c, y, xw);
                    *out.at4_mut(b, c, y, xw) =
                        gamma.data()[c] * (v - mean.data()[c]) / denom + beta.data()[c];
                }
            }
        }
    }
    Ok(out)
}

fn layernorm(
    id: OpId,
    x: &Tensor,
    weights: &crate::weights::Weights,
    features: usize,
) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.last() != Some(&features) {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("layernorm expects last dim {features}, got {}", x.shape()),
        });
    }
    let gamma = weights.tensors[0].materialize();
    let beta = weights.tensors[1].materialize();
    let rows: usize = d[..d.len() - 1].iter().product();
    let mut out = x.clone();
    for r in 0..rows {
        let row = &x.data()[r * features..(r + 1) * features];
        let mean: f32 = row.iter().sum::<f32>() / features as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / features as f32;
        let denom = (var + 1e-5).sqrt();
        for (i, &v) in row.iter().enumerate() {
            out.data_mut()[r * features + i] =
                gamma.data()[i] * (v - mean) / denom + beta.data()[i];
        }
    }
    Ok(out)
}

fn activation(x: &Tensor, kind: Activation) -> Tensor {
    let mut out = x.clone();
    match kind {
        Activation::Relu => out.data_mut().iter_mut().for_each(|v| *v = v.max(0.0)),
        Activation::Relu6 => out
            .data_mut()
            .iter_mut()
            .for_each(|v| *v = v.clamp(0.0, 6.0)),
        Activation::Sigmoid => out
            .data_mut()
            .iter_mut()
            .for_each(|v| *v = 1.0 / (1.0 + (-*v).exp())),
        Activation::Tanh => out.data_mut().iter_mut().for_each(|v| *v = v.tanh()),
        Activation::Gelu => out.data_mut().iter_mut().for_each(|v| {
            let x = *v;
            *v = 0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh());
        }),
        Activation::Swish => out
            .data_mut()
            .iter_mut()
            .for_each(|v| *v = *v / (1.0 + (-*v).exp())),
        Activation::Softmax => return softmax_last_axis(x),
    }
    out
}

fn softmax_last_axis(x: &Tensor) -> Tensor {
    let d = x.shape().dims();
    let last = *d.last().unwrap_or(&1);
    let rows: usize = d[..d.len().saturating_sub(1)].iter().product();
    let mut out = x.clone();
    for r in 0..rows {
        let row = &mut out.data_mut()[r * last..(r + 1) * last];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

fn pool2d(
    id: OpId,
    x: &Tensor,
    kind: PoolKind,
    size: (usize, usize),
    stride: (usize, usize),
    padding: Padding,
) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.len() != 4 {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("pool2d expects 4-D input, got {}", x.shape()),
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (kh, kw) = size;
    let (sh, sw) = stride;
    let (oh, ow) = match padding {
        Padding::Valid => {
            if kh > h || kw > w {
                return Err(ModelError::ShapeMismatch {
                    op: id,
                    detail: format!("pool window {kh}x{kw} larger than input {h}x{w}"),
                });
            }
            ((h - kh) / sh + 1, (w - kw) / sw + 1)
        }
        Padding::Same => (h.div_ceil(sh), w.div_ceil(sw)),
    };
    let (ph, pw) = match padding {
        Padding::Valid => (0usize, 0usize),
        Padding::Same => ((kh - 1) / 2, (kw - 1) / 2),
    };
    let mut out = Tensor::zeros([n, c, oh, ow]);
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = match kind {
                        PoolKind::Max => f32::NEG_INFINITY,
                        PoolKind::Avg => 0.0,
                    };
                    let mut count = 0usize;
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * sh + ky) as isize - ph as isize;
                            let ix = (ox * sw + kx) as isize - pw as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            let v = x.at4(b, ch, iy as usize, ix as usize);
                            match kind {
                                PoolKind::Max => acc = acc.max(v),
                                PoolKind::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    *out.at4_mut(b, ch, oy, ox) = match kind {
                        PoolKind::Max => acc,
                        PoolKind::Avg => acc / count.max(1) as f32,
                    };
                }
            }
        }
    }
    Ok(out)
}

fn global_pool(id: OpId, x: &Tensor, kind: PoolKind) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.len() != 4 {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("global pool expects 4-D input, got {}", x.shape()),
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let mut out = Tensor::zeros([n, c, 1, 1]);
    for b in 0..n {
        for ch in 0..c {
            let mut acc = match kind {
                PoolKind::Max => f32::NEG_INFINITY,
                PoolKind::Avg => 0.0,
            };
            for y in 0..h {
                for xw in 0..w {
                    let v = x.at4(b, ch, y, xw);
                    match kind {
                        PoolKind::Max => acc = acc.max(v),
                        PoolKind::Avg => acc += v,
                    }
                }
            }
            *out.at4_mut(b, ch, 0, 0) = match kind {
                PoolKind::Max => acc,
                PoolKind::Avg => acc / (h * w) as f32,
            };
        }
    }
    Ok(out)
}

fn concat(id: OpId, args: &[&Tensor]) -> Result<Tensor, ModelError> {
    if args.is_empty() {
        return Err(ModelError::ArityMismatch {
            op: id,
            expected: 2,
            actual: 0,
        });
    }
    let d0 = args[0].shape().dims().to_vec();
    if d0.len() != 4 {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: "concat expects 4-D inputs".into(),
        });
    }
    let (n, h, w) = (d0[0], d0[2], d0[3]);
    let mut total_c = 0;
    for t in args {
        let d = t.shape().dims();
        if d.len() != 4 || d[0] != n || d[2] != h || d[3] != w {
            return Err(ModelError::ShapeMismatch {
                op: id,
                detail: format!(
                    "concat inputs disagree: {} vs {}",
                    args[0].shape(),
                    t.shape()
                ),
            });
        }
        total_c += d[1];
    }
    let mut out = Tensor::zeros([n, total_c, h, w]);
    for b in 0..n {
        let mut c_off = 0;
        for t in args {
            let c = t.shape().dims()[1];
            for ch in 0..c {
                for y in 0..h {
                    for xw in 0..w {
                        *out.at4_mut(b, c_off + ch, y, xw) = t.at4(b, ch, y, xw);
                    }
                }
            }
            c_off += c;
        }
    }
    Ok(out)
}

fn zeropad(id: OpId, x: &Tensor, pad: (usize, usize)) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.len() != 4 {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: "zeropad expects 4-D input".into(),
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (ph, pw) = pad;
    let mut out = Tensor::zeros([n, c, h + 2 * ph, w + 2 * pw]);
    for b in 0..n {
        for ch in 0..c {
            for y in 0..h {
                for xw in 0..w {
                    *out.at4_mut(b, ch, y + ph, xw + pw) = x.at4(b, ch, y, xw);
                }
            }
        }
    }
    Ok(out)
}

fn embedding(
    id: OpId,
    ids: &Tensor,
    weights: &crate::weights::Weights,
    vocab: usize,
    hidden: usize,
) -> Result<Tensor, ModelError> {
    let d = ids.shape().dims();
    if d.len() != 2 {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("embedding expects [B,S] token ids, got {}", ids.shape()),
        });
    }
    let (b, s) = (d[0], d[1]);
    let table = weights.tensors[0].materialize();
    let mut out = Tensor::zeros([b, s, hidden]);
    for bi in 0..b {
        for si in 0..s {
            let tok = ids.data()[bi * s + si] as usize % vocab.max(1);
            let src = &table.data()[tok * hidden..(tok + 1) * hidden];
            out.data_mut()[(bi * s + si) * hidden..(bi * s + si + 1) * hidden].copy_from_slice(src);
        }
    }
    Ok(out)
}

fn pos_embedding(
    id: OpId,
    x: &Tensor,
    weights: &crate::weights::Weights,
    max_len: usize,
    hidden: usize,
) -> Result<Tensor, ModelError> {
    let d = x.shape().dims();
    if d.len() != 3 || d[2] != hidden {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("pos embedding expects [B,S,{hidden}], got {}", x.shape()),
        });
    }
    let (b, s) = (d[0], d[1]);
    if s > max_len {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("sequence length {s} exceeds max_len {max_len}"),
        });
    }
    let table = weights.tensors[0].materialize();
    let mut out = x.clone();
    for bi in 0..b {
        for si in 0..s {
            for hix in 0..hidden {
                out.data_mut()[(bi * s + si) * hidden + hix] += table.data()[si * hidden + hix];
            }
        }
    }
    Ok(out)
}

fn logit(id: OpId, q: &Tensor, k: &Tensor, heads: usize) -> Result<Tensor, ModelError> {
    let d = q.shape().dims();
    if d.len() != 3 || k.shape().dims() != d {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!(
                "logit expects matching [B,S,H]: {} vs {}",
                q.shape(),
                k.shape()
            ),
        });
    }
    let (b, s, hdn) = (d[0], d[1], d[2]);
    if heads == 0 || hdn % heads != 0 {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!("hidden {hdn} not divisible by {heads} heads"),
        });
    }
    let dk = hdn / heads;
    let scale = 1.0 / (dk as f32).sqrt();
    let mut out = Tensor::zeros([b, heads, s, s]);
    for bi in 0..b {
        for hd in 0..heads {
            for i in 0..s {
                for j in 0..s {
                    let mut acc = 0.0;
                    for t in 0..dk {
                        let qi = q.data()[(bi * s + i) * hdn + hd * dk + t];
                        let kj = k.data()[(bi * s + j) * hdn + hd * dk + t];
                        acc += qi * kj;
                    }
                    out.data_mut()[((bi * heads + hd) * s + i) * s + j] = acc * scale;
                }
            }
        }
    }
    Ok(out)
}

fn attend(id: OpId, probs: &Tensor, v: &Tensor, heads: usize) -> Result<Tensor, ModelError> {
    let dp = probs.shape().dims();
    let dv = v.shape().dims();
    if dp.len() != 4 || dv.len() != 3 || dp[1] != heads {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: format!(
                "attend expects probs [B,heads,S,S] and value [B,S,H]: {} / {}",
                probs.shape(),
                v.shape()
            ),
        });
    }
    let (b, s, hdn) = (dv[0], dv[1], dv[2]);
    if hdn % heads != 0 || dp[0] != b || dp[2] != s || dp[3] != s {
        return Err(ModelError::ShapeMismatch {
            op: id,
            detail: "attend dimension mismatch".into(),
        });
    }
    let dk = hdn / heads;
    let mut out = Tensor::zeros([b, s, hdn]);
    for bi in 0..b {
        for hd in 0..heads {
            for i in 0..s {
                for t in 0..dk {
                    let mut acc = 0.0;
                    for j in 0..s {
                        let p = probs.data()[((bi * heads + hd) * s + i) * s + j];
                        let vv = v.data()[(bi * s + j) * hdn + hd * dk + t];
                        acc += p * vv;
                    }
                    out.data_mut()[(bi * s + i) * hdn + hd * dk + t] = acc;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::weights::{WeightSpec, Weights};
    use crate::ModelFamily;

    #[test]
    fn identity_conv_passes_through() {
        // 1x1 conv with identity kernel and zero bias.
        let mut b = GraphBuilder::new("id");
        let i = b.input([1, 1, 2, 2]);
        let c = b.conv2d_after(i, 1, 1, (1, 1), (1, 1), 1);
        let mut g = b.finish_unchecked();
        g.op_mut(c).unwrap().weights = Some(Weights::new(vec![
            WeightSpec::dense([1, 1, 1, 1], vec![1.0]),
            WeightSpec::zeros([1]),
        ]));
        g.validate().unwrap();
        let x = Tensor::new([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = run(&g, x.clone()).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_same_padding_preserves_spatial_dims() {
        let mut b = GraphBuilder::new("same");
        let i = b.input([1, 3, 8, 8]);
        let _ = b.conv2d_after(i, 3, 4, (3, 3), (1, 1), 1);
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::zeros([1, 3, 8, 8])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn conv_stride_halves_dims() {
        let mut b = GraphBuilder::new("stride");
        let i = b.input([1, 3, 8, 8]);
        let _ = b.conv2d_after(i, 3, 4, (3, 3), (2, 2), 1);
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::zeros([1, 3, 8, 8])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut b = GraphBuilder::new("relu");
        let i = b.input([1, 4]);
        // Build a graph that is just input -> activation via generic op API.
        let a = b.after(
            i,
            "relu",
            OpAttrs::Activation {
                kind: Activation::Relu,
            },
        );
        let _ = a;
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::new([1, 4], vec![-1.0, 0.5, -0.2, 2.0])).unwrap();
        assert_eq!(y.data(), &[0.0, 0.5, 0.0, 2.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = softmax_last_axis(&Tensor::new([2, 3], vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]));
        let s1: f32 = t.data()[..3].iter().sum();
        let s2: f32 = t.data()[3..].iter().sum();
        assert!((s1 - 1.0).abs() < 1e-5);
        assert!((s2 - 1.0).abs() < 1e-5);
        assert!(t.data()[2] > t.data()[1] && t.data()[1] > t.data()[0]);
    }

    #[test]
    fn residual_add_runs() {
        let mut b = GraphBuilder::new("res");
        let i = b.input([1, 2, 4, 4]);
        let c = b.conv2d_after(i, 2, 2, (3, 3), (1, 1), 1);
        let s = b.add_of(&[i, c]);
        let _ = b.activation_after(s, Activation::Relu);
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::zeros([1, 2, 4, 4])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 4, 4]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn max_pool_picks_max() {
        let mut b = GraphBuilder::new("pool");
        let i = b.input([1, 1, 2, 2]);
        let _ = b.pool_after(i, PoolKind::Max, (2, 2), (2, 2));
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::new([1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0])).unwrap();
        assert_eq!(y.data(), &[5.0]);
    }

    #[test]
    fn global_avg_pool_averages() {
        let mut b = GraphBuilder::new("gap");
        let i = b.input([1, 1, 2, 2]);
        let _ = b.global_avg_pool_after(i);
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::new([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 6.0])).unwrap();
        assert_eq!(y.data(), &[3.0]);
    }

    #[test]
    fn flatten_then_dense_classifier() {
        let mut b = GraphBuilder::new("clf");
        let i = b.input([1, 2, 2, 2]);
        let f = b.flatten_after(i);
        let _ = b.dense_after(f, 8, 3);
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::zeros([1, 2, 2, 2])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 3]);
    }

    #[test]
    fn tiny_attention_block_runs() {
        // embedding -> (Q,K,V) -> logit -> softmax -> attend -> output proj
        let mut b = GraphBuilder::new("attn").family(ModelFamily::Bert);
        let i = b.input([1, 4]);
        let emb = b.after(
            i,
            "emb",
            OpAttrs::Embedding {
                vocab: 16,
                hidden: 8,
            },
        );
        let q = b.after(
            emb,
            "q",
            OpAttrs::Query {
                hidden: 8,
                heads: 2,
            },
        );
        let k = b.after(
            emb,
            "k",
            OpAttrs::Key {
                hidden: 8,
                heads: 2,
            },
        );
        let v = b.after(
            emb,
            "v",
            OpAttrs::Value {
                hidden: 8,
                heads: 2,
            },
        );
        let l = b.merge(&[q, k], "logit", OpAttrs::Logit { heads: 2 });
        let sm = b.after(l, "softmax", OpAttrs::Softmax);
        let at = b.merge(&[sm, v], "attend", OpAttrs::Attend { heads: 2 });
        let _ = b.after(at, "out", OpAttrs::AttnOutput { hidden: 8 });
        let g = b.finish().unwrap();
        let ids = Tensor::new([1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = run(&g, ids).unwrap();
        assert_eq!(y.shape().dims(), &[1, 4, 8]);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut b = GraphBuilder::new("bad");
        let i = b.input([1, 3, 8, 8]);
        let _ = b.conv2d_after(i, 4, 4, (3, 3), (1, 1), 1); // expects 4 in-channels
        let g = b.finish().unwrap();
        let err = run(&g, Tensor::zeros([1, 3, 8, 8])).unwrap_err();
        assert!(matches!(err, ModelError::ShapeMismatch { .. }));
    }

    #[test]
    fn concat_stacks_channels() {
        let mut b = GraphBuilder::new("cat");
        let i = b.input([1, 2, 4, 4]);
        let c1 = b.conv2d_after(i, 2, 3, (1, 1), (1, 1), 1);
        let c2 = b.conv2d_after(i, 2, 5, (1, 1), (1, 1), 1);
        let _ = b.concat_of(&[c1, c2]);
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::zeros([1, 2, 4, 4])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn depthwise_conv_runs() {
        let mut b = GraphBuilder::new("dw");
        let i = b.input([1, 4, 6, 6]);
        let _ = b.conv2d_after(i, 4, 4, (3, 3), (1, 1), 4);
        let g = b.finish().unwrap();
        let y = run(&g, Tensor::zeros([1, 4, 6, 6])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 4, 6, 6]);
    }

    #[test]
    fn batchnorm_and_layernorm_finite() {
        let mut b = GraphBuilder::new("norm");
        let i = b.input([1, 3, 4, 4]);
        let c = b.conv2d_after(i, 3, 3, (3, 3), (1, 1), 1);
        let _ = b.batchnorm_after(c, 3);
        let g = b.finish().unwrap();
        let y = run(
            &g,
            Tensor::new([1, 3, 4, 4], (0..48).map(|v| v as f32).collect()),
        )
        .unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
    }
}

#[cfg(test)]
mod rnn_tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::op::OpAttrs;

    fn rnn_model(kind: &str) -> crate::ModelGraph {
        let mut b = GraphBuilder::new(format!("rnn-{kind}"));
        let i = b.input([1, 6]);
        let emb = b.after(
            i,
            "emb",
            OpAttrs::Embedding {
                vocab: 32,
                hidden: 8,
            },
        );
        let attrs = if kind == "lstm" {
            OpAttrs::Lstm {
                input: 8,
                hidden: 12,
            }
        } else {
            OpAttrs::Gru {
                input: 8,
                hidden: 12,
            }
        };
        let r = b.after(emb, kind, attrs);
        let _ = b.after(
            r,
            "clf",
            OpAttrs::Dense {
                in_features: 12,
                out_features: 3,
                bias: true,
            },
        );
        b.finish().unwrap()
    }

    #[test]
    fn lstm_and_gru_forward_finite() {
        for kind in ["lstm", "gru"] {
            let g = rnn_model(kind);
            let ids = Tensor::new([1, 6], vec![1.0, 5.0, 2.0, 8.0, 0.0, 3.0]);
            let y = run(&g, ids).unwrap();
            assert_eq!(y.shape().dims(), &[1, 6, 3], "{kind}");
            assert!(y.data().iter().all(|v| v.is_finite()), "{kind}");
        }
    }

    #[test]
    fn lstm_output_depends_on_sequence_order() {
        let g = rnn_model("lstm");
        let a = run(&g, Tensor::new([1, 6], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])).unwrap();
        let b = run(&g, Tensor::new([1, 6], vec![6.0, 5.0, 4.0, 3.0, 2.0, 1.0])).unwrap();
        assert!(
            a.max_abs_diff(&b) > 1e-6,
            "recurrence must be order-sensitive"
        );
    }

    #[test]
    fn rnn_weight_shapes_are_gate_stacked() {
        let lstm = OpAttrs::Lstm {
            input: 8,
            hidden: 12,
        };
        let shapes = lstm.weight_shapes();
        assert_eq!(shapes[0].dims(), &[48, 8]);
        assert_eq!(shapes[1].dims(), &[48, 12]);
        assert_eq!(shapes[2].dims(), &[48]);
        let gru = OpAttrs::Gru {
            input: 8,
            hidden: 12,
        };
        assert_eq!(gru.weight_shapes()[0].dims(), &[36, 8]);
        assert!(OpKind::Lstm.has_weights() && OpKind::Gru.has_weights());
    }
}
