//! Public request/response types of the serving engine.

use optimus_model::tensor::Tensor;

/// How the serving container was obtained (live analogue of the
/// simulator's start kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedStart {
    /// Container already held the model.
    Warm,
    /// A new container was created and the model instantiated.
    Cold,
    /// An idle container's model was transformed in place via the cached
    /// meta-operator plan.
    Transformed,
}

impl ServedStart {
    /// The label used in HTTP responses ("warm" / "cold" / "transformed").
    pub fn as_label(self) -> &'static str {
        match self {
            ServedStart::Warm => "warm",
            ServedStart::Cold => "cold",
            ServedStart::Transformed => "transformed",
        }
    }
}

impl From<ServedStart> for optimus_telemetry::StartKind {
    fn from(start: ServedStart) -> Self {
        match start {
            ServedStart::Warm => optimus_telemetry::StartKind::Warm,
            ServedStart::Cold => optimus_telemetry::StartKind::Cold,
            ServedStart::Transformed => optimus_telemetry::StartKind::Transform,
        }
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct InferenceResponse {
    /// Model that served the request.
    pub model: String,
    /// Output tensor of the forward pass.
    pub output: Tensor,
    /// How the container was obtained.
    pub start: ServedStart,
    /// Measured queueing delay between the gateway accepting the request
    /// and a worker picking it up, in seconds.
    pub wait_seconds: f64,
    /// Measured wall-clock spent obtaining the container (transformation
    /// or instantiation), in seconds.
    pub startup_seconds: f64,
    /// Measured wall-clock of the forward pass, in seconds.
    pub compute_seconds: f64,
    /// Id of the worker node that served the request.
    pub node: usize,
    /// Number of meta-operator steps executed (0 unless transformed).
    pub transform_steps: usize,
    /// Size of the same-model batch this request was served in (1 when it
    /// was not batched). Requests for different models are never
    /// co-batched, so this counts only requests that shared the container
    /// acquisition.
    pub batch_size: usize,
}

/// A completed decode loop (`Gateway::submit_decode` /
/// `Gateway::poll_decode`).
///
/// The live engine executes the *prefill* forward pass for real — it
/// rides the ordinary submit/poll machinery, so admission control,
/// routing, faults, retries, transformation and store accounting are all
/// identical to single-shot inference — and prices the remaining decode
/// iterations with the same [`optimus_llm::LlmConfig`] cost model the
/// simulator uses, at the batch size the prefill was actually served in.
#[derive(Debug, Clone)]
pub struct DecodeResponse {
    /// The measured prefill pass (first token). Its wait/startup/compute
    /// breakdown and start kind are exactly an [`InferenceResponse`]'s.
    pub prefill: InferenceResponse,
    /// Output tokens of this decode loop (deterministic per-request draw,
    /// [`optimus_llm::LlmConfig::decode_tokens`]).
    pub tokens: u64,
    /// Time-to-first-token: the measured wait + startup + prefill
    /// compute, in seconds.
    pub ttft_seconds: f64,
    /// Modeled wall-clock of the remaining `tokens - 1` decode
    /// iterations, in seconds.
    pub decode_seconds: f64,
}

impl DecodeResponse {
    /// TTFT plus the modeled decode tail: arrival → last token.
    pub fn total_seconds(&self) -> f64 {
        self.ttft_seconds + self.decode_seconds
    }
}

/// Serving errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The requested model is not registered.
    UnknownModel(String),
    /// The forward pass failed (shape mismatch with the supplied input).
    Inference(String),
    /// Every node that could serve the request is marked unhealthy (all
    /// retries exhausted); clients should back off and try again.
    Unavailable(String),
    /// The routed node's admission queue is full
    /// ([`ServingConfig::queue_depth`]); the request was rejected instead
    /// of queueing unboundedly. HTTP clients see a `429`.
    Overloaded(String),
    /// The gateway is shutting down.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(m) => write!(f, "unknown model '{m}'"),
            ServeError::Inference(e) => write!(f, "inference failed: {e}"),
            ServeError::Unavailable(e) => write!(f, "no healthy node: {e}"),
            ServeError::Overloaded(e) => write!(f, "admission queue full: {e}"),
            ServeError::Shutdown => write!(f, "gateway is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Admission control and per-model request batching at the worker nodes.
///
/// Every node's inference queue is *bounded*: when `queue_depth` requests
/// are already waiting, further submissions are rejected with
/// [`ServeError::Overloaded`] (HTTP `429`) instead of growing an
/// unbounded backlog — queueing delay stays bounded and overload is
/// visible to clients immediately. Workers are work-conserving: after
/// picking up a request they take whatever else is already queued (up to
/// `max_batch`) without waiting for more, and serve it at once. Every
/// waiting request therefore sits in the bounded queue, so `queue_depth`
/// bounds all of them. Requests for the *same model* are served as one
/// group in arrival order: each acquires its container — the first may
/// pay a cold start or transformation, the rest warm-hit the container it
/// produced — and runs its own forward pass, so responses are
/// byte-identical whether or not they were grouped. Requests for
/// different models queued together are served as separate groups,
/// never co-batched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Bounded per-node queue depth; `try_send` overflow is a `429`.
    pub queue_depth: usize,
    /// Most requests a worker takes off its queue before it serves them
    /// and checks control events again (1 disables batching).
    pub max_batch: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            queue_depth: 256,
            max_batch: 8,
        }
    }
}

impl ServingConfig {
    /// Validate the knobs.
    ///
    /// # Errors
    ///
    /// When `queue_depth` or `max_batch` is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_depth == 0 {
            return Err("queue_depth must be at least 1".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1 (1 disables batching)".into());
        }
        Ok(())
    }
}

/// Gateway configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Number of worker nodes (threads).
    pub nodes: usize,
    /// Maximum live containers per node.
    pub capacity_per_node: usize,
    /// Seconds without a request before a container becomes a
    /// transformation donor (§4.2; scaled down for in-process use).
    pub idle_threshold: f64,
    /// Seconds without use before a container is evicted.
    pub keep_alive: f64,
    /// Per-node content-addressed weight store (`optimus-store`). In the
    /// live engine the store is a *residency accountant*, not a latency
    /// injector: admissions and releases mirror the container lifecycle
    /// (cold start admits the model's chunks, transformation admits only
    /// the cached plan's payload, eviction demotes instead of forgetting)
    /// and the resulting tier occupancy, hit/miss counts and dedup ratio
    /// are exported at `GET /metrics` and `GET /store`. `None` disables
    /// the accounting entirely.
    pub store: Option<optimus_store::StoreConfig>,
    /// Deterministic fault injection (`optimus-faults`): seeded
    /// per-request draws for node crashes, container kills and transform
    /// failures, plus the resilience machinery they exercise (health-aware
    /// re-routing with bounded retries, safeguard escalation to cold
    /// start, store/state cleanup on container death). `None` (the
    /// default) disables the fault layer; a quiet spec (all rates zero)
    /// injects nothing.
    pub faults: Option<optimus_faults::FaultSpec>,
    /// Admission control (bounded queues + `429`) and per-model request
    /// batching at the workers.
    pub serving: ServingConfig,
    /// Online arrival prediction (`optimus-predict`): the gateway feeds
    /// every admitted request into a per-model inter-arrival predictor,
    /// workers apply its adaptive keep-alive windows in place of the
    /// global `keep_alive`, and — when speculation is configured — idle
    /// workers transform a donor container into a forecast model *ahead*
    /// of its predicted arrival, gated by the cost model so a
    /// misprediction never wastes more than the cold start it tried to
    /// avoid. Speculation runs only on idle ticks (an empty inference
    /// queue), never ahead of real requests. `None` (the default)
    /// disables the layer entirely; [`optimus_predict::PredictConfig::inert`]
    /// observes arrivals without changing behavior.
    pub predict: Option<optimus_predict::PredictConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            nodes: 2,
            capacity_per_node: 4,
            idle_threshold: 0.05,
            keep_alive: 30.0,
            store: Some(optimus_store::StoreConfig::default()),
            faults: None,
            serving: ServingConfig::default(),
            predict: None,
        }
    }
}
