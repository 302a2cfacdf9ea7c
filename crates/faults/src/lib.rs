//! # optimus-faults — deterministic fault injection + resilience primitives
//!
//! The paper's safeguard (§6.3) promises Optimus is *never worse than a
//! cold start*, but that guarantee is only meaningful if it holds when
//! things break: a node crashes mid-trace, a container is OOM-killed, a
//! transformation step fails, a weight fetch straggles or must be retried,
//! a loaded checkpoint is corrupt and has to be re-read. This crate is the
//! shared vocabulary for injecting exactly those failures — **seeded and
//! deterministic**, so a chaos sweep is as reproducible as a clean run —
//! and for describing the resilience policies (bounded retry with
//! exponential backoff) the rest of the workspace implements in response.
//!
//! Design constraints that shaped the API:
//!
//! - **Per-request draws are stateless.** [`FaultInjector::for_request`]
//!   derives every fault decision for request `i` from `(seed, i)` alone
//!   (one throwaway [`StdRng`] per request, fixed draw order). Two
//!   consequences: the same trace position sees the same faults under
//!   *every* policy — so a policy comparison at a given fault rate is
//!   apples-to-apples — and draws are independent of sweep-thread count
//!   and evaluation order, preserving the workspace's byte-identical
//!   parallel-sweep contract.
//! - **Zero-rate is the identity.** With all rates at zero,
//!   [`FaultInjector::for_request`] returns [`RequestFaults::none`], whose
//!   arithmetic (`×1.0` slowdown, `+0.0` backoff, one attempt, zero
//!   reloads) is bit-exact identity on `f64`. Callers can therefore apply
//!   fault math unconditionally on the hot path and still reproduce
//!   faults-off reports byte-for-byte.
//! - **Scheduled + stochastic.** Besides per-request rates, a
//!   [`FaultPlan`] carries an explicit schedule of node-level events
//!   ([`ScheduledFault`]) for tests that need "node 1 dies at t=300"
//!   precision; [`FaultInjector::due`] drains it in time order.
//!
//! The simulator threads [`RequestFaults`] through its event loop and
//! audits the safeguard invariant per request; the live gateway uses the
//! same injector to kill workers and force transform failures, and
//! [`RetryPolicy`] to bound its reply-channel retries. [`FaultStats`] /
//! [`FaultReport`] aggregate what was injected and what the resilience
//! machinery did about it.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Golden-ratio odd constant used to decorrelate per-request seeds.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bounded retry with exponential backoff, used for weight fetches in the
/// simulator's transport model and for worker-reply retries in the live
/// gateway.
///
/// Attempt numbering: attempt `0` is the initial try (no backoff);
/// attempt `k ≥ 1` is the `k`-th retry, preceded by a backoff of
/// `base_backoff_seconds × backoff_multiplier^(k-1)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts allowed (initial try + retries). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in seconds.
    pub base_backoff_seconds: f64,
    /// Multiplier applied to the backoff for each subsequent retry.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_seconds: 0.05,
            backoff_multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff (seconds) slept *before* attempt `attempt`. Attempt 0 is
    /// the initial try and sleeps nothing.
    #[must_use]
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            0.0
        } else {
            self.base_backoff_seconds * self.backoff_multiplier.powi(attempt as i32 - 1)
        }
    }

    /// Total backoff accumulated across `attempts` attempts (the sum of
    /// [`Self::backoff_before`] for attempts `0..attempts`). One attempt
    /// — the success-first-try case — accumulates `0.0` exactly.
    #[must_use]
    pub fn total_backoff(&self, attempts: u32) -> f64 {
        let mut total = 0.0;
        for attempt in 1..attempts {
            total += self.backoff_before(attempt);
        }
        total
    }

    /// Check invariants: at least one attempt, non-negative base backoff,
    /// multiplier ≥ 1 (backoffs never shrink).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts < 1 {
            return Err("retry.max_attempts must be >= 1".to_string());
        }
        if !self.base_backoff_seconds.is_finite() || self.base_backoff_seconds < 0.0 {
            return Err("retry.base_backoff_seconds must be finite and >= 0".to_string());
        }
        if !self.backoff_multiplier.is_finite() || self.backoff_multiplier < 1.0 {
            return Err("retry.backoff_multiplier must be finite and >= 1".to_string());
        }
        Ok(())
    }
}

/// Rates and magnitudes of the injected faults, plus the retry policy the
/// resilience machinery answers them with. `Copy` so it can ride inside
/// sim/serve config structs without ceremony.
///
/// All `*_rate` fields are per-request probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed for every stochastic draw. Same seed ⇒ same faults.
    pub seed: u64,
    /// Probability a request's home node crashes at its arrival instant.
    pub node_crash_rate: f64,
    /// Seconds a crashed node stays down before rejoining the fleet.
    pub recovery_seconds: f64,
    /// Probability a warm container on the routed node is killed just
    /// before the request is served (OOM-killer stand-in).
    pub container_kill_rate: f64,
    /// Probability a transformation step fails mid-flight, forcing the
    /// safeguard to escalate the request to a from-scratch load.
    pub transform_failure_rate: f64,
    /// Seconds of transform work wasted before a failure is detected
    /// (the abort cost the escalated request still pays).
    pub transform_abort_seconds: f64,
    /// Probability a weight fetch straggles (slow network/disk path).
    pub fetch_straggler_rate: f64,
    /// Transport-time multiplier applied to a straggling fetch (≥ 1).
    pub straggler_slowdown: f64,
    /// Probability a single fetch attempt fails outright and must be
    /// retried under [`FaultSpec::retry`].
    pub fetch_failure_rate: f64,
    /// Probability a loaded checkpoint is corrupt and must be re-read
    /// (each re-read pays the load cost again).
    pub load_corruption_rate: f64,
    /// Bounded-retry policy for failed fetches and dead-worker retries.
    pub retry: RetryPolicy,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 42,
            node_crash_rate: 0.0,
            recovery_seconds: 30.0,
            container_kill_rate: 0.0,
            transform_failure_rate: 0.0,
            transform_abort_seconds: 0.05,
            fetch_straggler_rate: 0.0,
            straggler_slowdown: 4.0,
            fetch_failure_rate: 0.0,
            load_corruption_rate: 0.0,
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultSpec {
    /// A spec that injects nothing (all rates zero) under `seed`.
    #[must_use]
    pub fn off(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// A spec where one knob scales every fault class together — the
    /// shape the `exp_chaos` sweep uses. `rate` is the probability of the
    /// most common faults (transform failure, fetch straggler); rarer and
    /// more destructive classes are scaled down from it so a 20% sweep
    /// point doesn't spend the whole trace with every node dead.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultSpec {
            seed,
            node_crash_rate: rate * 0.02,
            container_kill_rate: rate * 0.5,
            transform_failure_rate: rate,
            fetch_straggler_rate: rate,
            fetch_failure_rate: rate * 0.5,
            load_corruption_rate: rate * 0.25,
            ..FaultSpec::default()
        }
    }

    /// True when every stochastic rate is exactly zero — the injector is
    /// guaranteed to return [`RequestFaults::none`] for every request.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.node_crash_rate == 0.0
            && self.container_kill_rate == 0.0
            && self.transform_failure_rate == 0.0
            && self.fetch_straggler_rate == 0.0
            && self.fetch_failure_rate == 0.0
            && self.load_corruption_rate == 0.0
    }

    /// Check invariants: rates in `[0, 1]`, magnitudes finite and
    /// non-negative, slowdown ≥ 1, and a valid [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("node_crash_rate", self.node_crash_rate),
            ("container_kill_rate", self.container_kill_rate),
            ("transform_failure_rate", self.transform_failure_rate),
            ("fetch_straggler_rate", self.fetch_straggler_rate),
            ("fetch_failure_rate", self.fetch_failure_rate),
            ("load_corruption_rate", self.load_corruption_rate),
        ];
        for (name, rate) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be within [0, 1], got {rate}"));
            }
        }
        if !self.recovery_seconds.is_finite() || self.recovery_seconds < 0.0 {
            return Err("recovery_seconds must be finite and >= 0".to_string());
        }
        if !self.transform_abort_seconds.is_finite() || self.transform_abort_seconds < 0.0 {
            return Err("transform_abort_seconds must be finite and >= 0".to_string());
        }
        if !self.straggler_slowdown.is_finite() || self.straggler_slowdown < 1.0 {
            return Err("straggler_slowdown must be finite and >= 1".to_string());
        }
        self.retry.validate()
    }
}

/// The class of a scheduled (non-stochastic) fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The whole node goes down: containers lost, volatile store tiers
    /// wiped, requests re-routed until it recovers.
    NodeCrash,
    /// One warm container on the node is killed (its chunks released).
    ContainerKill,
}

/// One scheduled fault: `kind` strikes `node` at simulated time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Simulated time (seconds) at which the fault strikes.
    pub at: f64,
    /// Target node index.
    pub node: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A complete, serializable description of the faults a run will see:
/// stochastic rates ([`FaultSpec`]) plus an explicit event schedule.
/// Lives inside `SimConfig` / `GatewayConfig`; `None` there means the
/// fault layer is fully disabled (not even identity math is audited).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Stochastic per-request fault rates and magnitudes.
    pub spec: FaultSpec,
    /// Deterministic node-level events, drained in time order.
    pub schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan with stochastic faults only (empty schedule).
    #[must_use]
    pub fn from_spec(spec: FaultSpec) -> Self {
        FaultPlan {
            spec,
            schedule: Vec::new(),
        }
    }

    /// True when the plan injects nothing: quiet spec and empty schedule.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.spec.is_quiet() && self.schedule.is_empty()
    }

    /// Validate the spec and every scheduled event (finite, non-negative
    /// timestamps).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate()?;
        for event in &self.schedule {
            if !event.at.is_finite() || event.at < 0.0 {
                return Err(format!(
                    "scheduled fault time must be finite and >= 0, got {}",
                    event.at
                ));
            }
        }
        Ok(())
    }
}

/// Every fault decision affecting one request, drawn up front so the
/// serving path can consume it without touching the RNG again. The
/// transport/load magnitudes (slowdown, backoff, reload count) are baked
/// in at draw time, making the struct self-contained and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestFaults {
    /// The request's home node crashes at its arrival instant.
    pub node_crash: bool,
    /// A warm container on the routed node is killed before serving.
    pub container_kill: bool,
    /// Uniform draw in `[0, 1)` selecting *which* container dies.
    pub kill_pick: f64,
    /// The transformation step for this request fails mid-flight.
    pub transform_failure: bool,
    /// Fetch attempts performed (1 = clean first try).
    pub fetch_attempts: u32,
    /// Transport-time multiplier (1.0 unless this fetch straggles).
    pub fetch_slowdown: f64,
    /// Total retry backoff accumulated by the fetch, in seconds.
    pub fetch_backoff: f64,
    /// Times a corrupt checkpoint forces the load to be repeated.
    pub load_reloads: u32,
}

impl RequestFaults {
    /// The identity element: no faults, and every magnitude is exact
    /// identity math (`×1.0`, `+0.0`, one attempt, zero reloads), so
    /// applying it to a latency leaves the bits unchanged.
    #[must_use]
    pub fn none() -> Self {
        RequestFaults {
            node_crash: false,
            container_kill: false,
            kill_pick: 0.0,
            transform_failure: false,
            fetch_attempts: 1,
            fetch_slowdown: 1.0,
            fetch_backoff: 0.0,
            load_reloads: 0,
        }
    }

    /// Transport time after faults: each attempt re-pays the (possibly
    /// straggling) base transfer, plus accumulated retry backoff. A zero
    /// base stays exactly zero — nothing was fetched, so nothing can
    /// straggle or fail — and with no faults the result is bit-identical
    /// to `base`.
    #[must_use]
    pub fn transport_seconds(&self, base: f64) -> f64 {
        if base <= 0.0 {
            return base;
        }
        base * self.fetch_slowdown * f64::from(self.fetch_attempts) + self.fetch_backoff
    }

    /// Multiplier on the from-scratch load cost: 1 + one extra full load
    /// per corrupt read. Exactly `1.0` when nothing was corrupted.
    #[must_use]
    pub fn load_multiplier(&self) -> f64 {
        1.0 + f64::from(self.load_reloads)
    }

    /// Retries performed by the fetch (attempts beyond the first).
    #[must_use]
    pub fn fetch_retries(&self) -> u32 {
        self.fetch_attempts.saturating_sub(1)
    }

    /// True when this request's fetch drew the straggler slowdown.
    #[must_use]
    pub fn is_straggler(&self) -> bool {
        self.fetch_slowdown > 1.0
    }

    /// Map [`Self::kill_pick`] onto an index into a container list of
    /// length `len` (uniform; clamped so it is always in range).
    #[must_use]
    pub fn victim_index(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let idx = (self.kill_pick * len as f64) as usize;
        idx.min(len - 1)
    }
}

/// Draws per-request faults and drains the scheduled-event timeline.
///
/// Cloneable and cheap; the sim builds one per run, the gateway keeps one
/// behind its request-sequence counter. Only [`Self::due`] carries state
/// (the schedule cursor) — per-request draws are pure functions of
/// `(seed, index)`.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    schedule: Vec<ScheduledFault>,
    cursor: usize,
}

impl FaultInjector {
    /// Build an injector from a plan. The schedule is sorted by time
    /// (ties broken by node then kind) so [`Self::due`] drains it in a
    /// deterministic order regardless of how the plan listed events.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        let mut schedule = plan.schedule.clone();
        schedule.sort_by(|a, b| {
            a.at.total_cmp(&b.at).then(a.node.cmp(&b.node)).then(
                (a.kind == FaultKind::ContainerKill).cmp(&(b.kind == FaultKind::ContainerKill)),
            )
        });
        FaultInjector {
            spec: plan.spec,
            schedule,
            cursor: 0,
        }
    }

    /// The stochastic spec this injector draws from.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Draw every fault decision for request `index`. Pure in
    /// `(spec.seed, index)`: the same request position gets the same
    /// faults under any policy, thread count, or call order. With a quiet
    /// spec this is exactly [`RequestFaults::none`].
    #[must_use]
    pub fn for_request(&self, index: u64) -> RequestFaults {
        if self.spec.is_quiet() {
            return RequestFaults::none();
        }
        let mut rng = StdRng::seed_from_u64(self.spec.seed ^ index.wrapping_mul(SEED_MIX));
        // Fixed draw order; changing it changes every seeded outcome.
        let node_crash = rng.gen_bool(self.spec.node_crash_rate);
        let container_kill = rng.gen_bool(self.spec.container_kill_rate);
        let kill_pick: f64 = rng.gen();
        let transform_failure = rng.gen_bool(self.spec.transform_failure_rate);
        let straggler = rng.gen_bool(self.spec.fetch_straggler_rate);
        let mut fetch_attempts = 1u32;
        while fetch_attempts < self.spec.retry.max_attempts
            && rng.gen_bool(self.spec.fetch_failure_rate)
        {
            fetch_attempts += 1;
        }
        let mut load_reloads = 0u32;
        while load_reloads + 1 < self.spec.retry.max_attempts
            && rng.gen_bool(self.spec.load_corruption_rate)
        {
            load_reloads += 1;
        }
        RequestFaults {
            node_crash,
            container_kill,
            kill_pick,
            transform_failure,
            fetch_attempts,
            fetch_slowdown: if straggler {
                self.spec.straggler_slowdown
            } else {
                1.0
            },
            fetch_backoff: self.spec.retry.total_backoff(fetch_attempts),
            load_reloads,
        }
    }

    /// Scheduled faults that have become due at or before `now`, in time
    /// order. Each event is returned exactly once; the cursor advances.
    pub fn due(&mut self, now: f64) -> &[ScheduledFault] {
        let start = self.cursor;
        while self.cursor < self.schedule.len() && self.schedule[self.cursor].at <= now {
            self.cursor += 1;
        }
        &self.schedule[start..self.cursor]
    }

    /// Rewind the schedule cursor so the timeline can be replayed.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// Counters for what was injected and what the resilience machinery did
/// about it. Aggregated per run (sim) or served live at `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Node crashes applied (stochastic + scheduled).
    pub node_crashes: u64,
    /// Containers killed directly (stochastic + scheduled kills).
    pub container_kills: u64,
    /// Containers lost as collateral of a node crash.
    pub crash_container_evictions: u64,
    /// Transformation steps that failed mid-flight.
    pub transform_failures: u64,
    /// Requests the safeguard escalated to a from-scratch load.
    pub safeguard_escalations: u64,
    /// Requests re-routed away from a down node.
    pub reroutes: u64,
    /// Fetches that drew the straggler slowdown.
    pub fetch_stragglers: u64,
    /// Fetch retry attempts performed (beyond each first try).
    pub fetch_retries: u64,
    /// Corrupt-checkpoint reloads performed.
    pub load_corruptions: u64,
}

impl FaultStats {
    /// Accumulate another stats block into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.node_crashes += other.node_crashes;
        self.container_kills += other.container_kills;
        self.crash_container_evictions += other.crash_container_evictions;
        self.transform_failures += other.transform_failures;
        self.safeguard_escalations += other.safeguard_escalations;
        self.reroutes += other.reroutes;
        self.fetch_stragglers += other.fetch_stragglers;
        self.fetch_retries += other.fetch_retries;
        self.load_corruptions += other.load_corruptions;
    }
}

/// Per-run fault summary attached to a sim report when the fault layer is
/// enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// What was injected / how the system responded.
    pub stats: FaultStats,
    /// Worst observed `optimus_latency − cold_equivalent_latency` over
    /// all Optimus-served requests (≤ 0 means the §6.3 safeguard held on
    /// every single request; 0.0 when no request was audited).
    pub max_over_cold: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loud_spec(seed: u64) -> FaultSpec {
        FaultSpec::uniform(seed, 0.3)
    }

    #[test]
    fn quiet_spec_draws_identity() {
        let injector = FaultInjector::new(&FaultPlan::from_spec(FaultSpec::off(7)));
        for i in 0..256 {
            assert_eq!(injector.for_request(i), RequestFaults::none());
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(&FaultPlan::from_spec(loud_spec(1)));
        let b = FaultInjector::new(&FaultPlan::from_spec(loud_spec(1)));
        let c = FaultInjector::new(&FaultPlan::from_spec(loud_spec(2)));
        let mut diverged = false;
        for i in 0..512 {
            assert_eq!(a.for_request(i), b.for_request(i));
            diverged |= a.for_request(i) != c.for_request(i);
        }
        assert!(diverged, "different seeds should draw different faults");
    }

    #[test]
    fn draws_do_not_depend_on_call_order() {
        let injector = FaultInjector::new(&FaultPlan::from_spec(loud_spec(9)));
        let forward: Vec<_> = (0..64).map(|i| injector.for_request(i)).collect();
        let backward: Vec<_> = (0..64).rev().map(|i| injector.for_request(i)).collect();
        for (i, f) in forward.iter().enumerate() {
            assert_eq!(*f, backward[63 - i]);
        }
    }

    #[test]
    fn identity_transport_and_load_are_bit_exact() {
        let none = RequestFaults::none();
        for base in [0.0, 1.0e-9, 0.25, 3.75, 1.0e6] {
            assert_eq!(none.transport_seconds(base).to_bits(), base.to_bits());
        }
        assert_eq!(none.load_multiplier().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn transport_zero_base_stays_zero() {
        let faults = RequestFaults {
            fetch_attempts: 3,
            fetch_slowdown: 4.0,
            fetch_backoff: 0.15,
            ..RequestFaults::none()
        };
        assert_eq!(faults.transport_seconds(0.0), 0.0);
        assert!(faults.transport_seconds(1.0) > 1.0);
    }

    #[test]
    fn transport_is_monotone_in_base() {
        let injector = FaultInjector::new(&FaultPlan::from_spec(loud_spec(13)));
        for i in 0..128 {
            let fx = injector.for_request(i);
            let mut prev = -1.0;
            for base in [0.0, 0.01, 0.5, 1.0, 10.0] {
                let t = fx.transport_seconds(base);
                assert!(t >= prev, "transport must be monotone in base");
                assert!(t >= base, "faults never make a fetch faster");
                prev = t;
            }
        }
    }

    #[test]
    fn backoff_schedule_is_exponential_and_bounded() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.backoff_before(0), 0.0);
        assert!((retry.backoff_before(1) - 0.05).abs() < 1e-12);
        assert!((retry.backoff_before(2) - 0.10).abs() < 1e-12);
        assert_eq!(retry.total_backoff(1), 0.0);
        assert!((retry.total_backoff(3) - 0.15).abs() < 1e-12);
        let injector = FaultInjector::new(&FaultPlan::from_spec(loud_spec(21)));
        for i in 0..256 {
            let fx = injector.for_request(i);
            assert!(fx.fetch_attempts >= 1 && fx.fetch_attempts <= retry.max_attempts);
            assert!(fx.load_reloads < retry.max_attempts);
        }
    }

    #[test]
    fn victim_index_is_always_in_range() {
        let injector = FaultInjector::new(&FaultPlan::from_spec(loud_spec(33)));
        for i in 0..128 {
            let fx = injector.for_request(i);
            assert_eq!(fx.victim_index(0), 0);
            for len in 1..8 {
                assert!(fx.victim_index(len) < len);
            }
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(FaultSpec::default().validate().is_ok());
        assert!(FaultSpec::uniform(1, 1.0).validate().is_ok());
        let spec = FaultSpec {
            node_crash_rate: 1.5,
            ..Default::default()
        };
        assert!(spec.validate().is_err());
        let spec = FaultSpec {
            straggler_slowdown: 0.5,
            ..Default::default()
        };
        assert!(spec.validate().is_err());
        let mut spec = FaultSpec::default();
        spec.retry.max_attempts = 0;
        assert!(spec.validate().is_err());
        let plan = FaultPlan {
            spec: FaultSpec::default(),
            schedule: vec![ScheduledFault {
                at: -1.0,
                node: 0,
                kind: FaultKind::NodeCrash,
            }],
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn due_drains_in_time_order_and_resets() {
        let plan = FaultPlan {
            spec: FaultSpec::off(0),
            schedule: vec![
                ScheduledFault {
                    at: 5.0,
                    node: 1,
                    kind: FaultKind::NodeCrash,
                },
                ScheduledFault {
                    at: 1.0,
                    node: 0,
                    kind: FaultKind::ContainerKill,
                },
                ScheduledFault {
                    at: 5.0,
                    node: 0,
                    kind: FaultKind::NodeCrash,
                },
            ],
        };
        let mut injector = FaultInjector::new(&plan);
        assert!(injector.due(0.5).is_empty());
        let first = injector.due(1.0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].node, 0);
        let rest = injector.due(10.0);
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].node, 0);
        assert_eq!(rest[1].node, 1);
        assert!(injector.due(100.0).is_empty());
        injector.reset();
        assert_eq!(injector.due(10.0).len(), 3);
    }

    #[test]
    fn plan_serializes_round_trip() {
        let plan = FaultPlan {
            spec: loud_spec(77),
            schedule: vec![ScheduledFault {
                at: 120.0,
                node: 1,
                kind: FaultKind::NodeCrash,
            }],
        };
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }

    #[test]
    fn quiet_detection() {
        assert!(FaultSpec::off(3).is_quiet());
        assert!(!loud_spec(3).is_quiet());
        assert!(FaultPlan::from_spec(FaultSpec::off(3)).is_quiet());
        let scheduled = FaultPlan {
            spec: FaultSpec::off(3),
            schedule: vec![ScheduledFault {
                at: 1.0,
                node: 0,
                kind: FaultKind::NodeCrash,
            }],
        };
        assert!(!scheduled.is_quiet());
    }
}
