//! # optimus-llm — token-level LLM serving
//!
//! The decoder-workload counterpart to the single-forward-pass inference
//! the rest of the stack models. A request against a GPT-style decoder is
//! not one compute burst: it is a **decode loop** — one prefill pass over
//! the prompt, then one iteration per output token, each iteration
//! streaming the full weight tensor (autoregressive decoding is
//! memory-bandwidth-bound). That structure is what makes the paper's
//! transformation thesis bite at LLM scale, and it changes scheduling:
//!
//! - **Iteration-level continuous batching** ([`TokenEngine`]): new
//!   requests join a running batch at the next iteration boundary (Orca's
//!   insight) instead of waiting for the whole loop to drain, amortizing
//!   the shared weight sweep across the batch.
//! - **Analytic virtual time** ([`LlmConfig::iter_seconds`]): while batch
//!   membership is fixed every iteration takes the same time, so the
//!   engine advances loop-free between membership changes and stays
//!   bit-deterministic — the simulator's reports remain byte-identical
//!   at any thread count.
//!
//! The model-state side of the story (KV caches carried across
//! transformations) lives in `optimus-model::KvCache` and
//! `optimus-core::plan_kv_transform`; this crate only prices and
//! schedules the token loop. `optimus-sim` wires the engine into its
//! serving paths behind `SimConfig::llm` (off = byte-identical legacy
//! behavior), and `exp_llm_transform` is the payoff experiment.

#![forbid(unsafe_code)]

mod config;
mod engine;
mod report;

pub use config::LlmConfig;
pub use engine::{Admission, Patch, TokenEngine};
pub use report::LlmReport;
