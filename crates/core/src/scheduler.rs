//! The container-lifecycle policy (§4.2, §6.3), shared by the simulator
//! and the live worker.
//!
//! A node holds a few containers. For each request the policy decides,
//! over a slice of [`ContainerView`]s, how the request gets a container:
//! a warm container already holding its model; otherwise the idle donor
//! whose cached plan is cheapest (§4.2); otherwise, when no plan beats a
//! scratch load, a donor reloaded from scratch (the §6.3 safeguard);
//! otherwise a cold start in a slot freed by evicting least-recently-routed
//! containers. When no container is idle and the node is full, the
//! container a cold start would evict is a donor candidate too ("help
//! rather than recycle"). The policy also owns keep-alive expiry.
//!
//! Everything here is pure and clock-agnostic: `now` is whatever clock the
//! caller runs (virtual seconds in the simulator, seconds since the
//! worker's epoch live). Callers own the container storage and apply the
//! decisions; the scans allocate nothing.

use std::sync::Arc;

use crate::cache::{ModelRepository, TransformDecision};
use crate::metaop::TransformPlan;
use optimus_model::ModelId;

/// Observable container state at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Currently serving a request (or still starting up).
    Busy,
    /// Warm and recently used: a warm-start target for its own model.
    Warm,
    /// Warm and idle past the idle threshold: a transformation donor.
    Idle,
}

/// One container as the lifecycle policy sees it. `K` is the caller's
/// model key; plan lookups map it to the repository's [`ModelId`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerView<K> {
    /// Unique id within the node's owner: the deterministic tie-break.
    pub id: u64,
    /// The model the container currently holds.
    pub model: K,
    /// Time until which the container is busy.
    pub busy_until: f64,
    /// Last time a request was routed to this container (idle-timer
    /// reset, §4.2).
    pub last_routed: f64,
    /// Resident memory footprint in bytes (0 without a memory limit).
    pub mem_bytes: u64,
    /// Produced by a speculative transformation that no request has used
    /// yet. Cleared on the first warm hit; still set when the container is
    /// evicted or retargeted, which makes that speculation a
    /// misprediction.
    pub speculated: bool,
}

impl<K> ContainerView<K> {
    /// New container created at `now` for `model`, busy until
    /// `busy_until`.
    pub fn new(id: u64, model: K, now: f64, busy_until: f64) -> Self {
        ContainerView {
            id,
            model,
            busy_until,
            last_routed: now,
            mem_bytes: 0,
            speculated: false,
        }
    }

    /// State at time `now` under the given idle threshold.
    pub fn state(&self, now: f64, idle_threshold: f64) -> ContainerState {
        if self.busy_until > now {
            ContainerState::Busy
        } else if now - self.last_routed >= idle_threshold {
            ContainerState::Idle
        } else {
            ContainerState::Warm
        }
    }

    /// Whether keep-alive expired at `now`.
    pub fn expired(&self, now: f64, keep_alive: f64) -> bool {
        self.busy_until <= now && now - self.busy_until.max(self.last_routed) > keep_alive
    }

    /// Route a request: mark busy until `until` and reset the idle timer.
    pub fn route(&mut self, now: f64, until: f64) {
        self.last_routed = now;
        self.busy_until = until;
    }
}

/// A transformation source: the donor and its cached plan.
#[derive(Debug, Clone)]
pub struct SourceChoice<C> {
    /// The chosen donor container handle.
    pub container: C,
    /// The cached plan from the donor's model to the destination.
    pub plan: Arc<TransformPlan>,
    /// The plan's execution latency (s).
    pub latency: f64,
}

/// How a request without a warm container obtains one.
#[derive(Debug, Clone)]
pub enum Start {
    /// Transform the chosen donor in place with its cached plan.
    Transform(SourceChoice<usize>),
    /// Safeguard: donors exist but no plan beats a scratch load; reload
    /// this donor (the first candidate) from scratch.
    Repurpose(usize),
    /// No donor: free a slot ([`Lifecycle::free_slot`]) and load the model
    /// into a new container.
    Cold,
}

/// The policy knobs of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lifecycle {
    /// Maximum containers on the node.
    pub capacity: usize,
    /// Optional container-memory budget of the node, in bytes.
    pub node_bytes: Option<u64>,
    /// Seconds without a routed request after which a container is a
    /// donor.
    pub idle_threshold: f64,
}

impl Lifecycle {
    /// Whether `c` is idle (a donor candidate) at `now`.
    pub fn is_idle<K>(&self, c: &ContainerView<K>, now: f64) -> bool {
        c.state(now, self.idle_threshold) == ContainerState::Idle
    }

    /// Index of a free container already holding `model`, preferring the
    /// most recently routed (ties to the higher id).
    pub fn warm<K: PartialEq>(cs: &[ContainerView<K>], model: K, now: f64) -> Option<usize> {
        cs.iter()
            .enumerate()
            .filter(|(_, c)| c.model == model && c.busy_until <= now)
            .max_by(|(_, a), (_, b)| {
                a.last_routed
                    .partial_cmp(&b.last_routed)
                    .expect("finite")
                    .then(a.id.cmp(&b.id))
            })
            .map(|(i, _)| i)
    }

    /// How a request for `model` without a warm container obtains one:
    /// the cheapest-plan donor, else the safeguard repurpose of the first
    /// donor, else a cold start. Donors are the idle containers of other
    /// models — or, when none is idle, the eviction victim — that can
    /// hold `need` bytes.
    pub fn start<K: Copy + PartialEq>(
        &self,
        repo: &ModelRepository,
        cs: &[ContainerView<K>],
        model: K,
        need: u64,
        now: f64,
        model_id: impl Fn(K) -> ModelId,
    ) -> Start {
        let idle = |c: &ContainerView<K>| c.model != model && self.is_idle(c, now);
        let victim = if cs.iter().any(idle) {
            None
        } else {
            self.eviction_victim(cs, need, now)
        };
        let used = self.node_bytes.map_or(0, |_| mem_used(cs));
        let donors = cs
            .iter()
            .enumerate()
            .filter(move |(_, c)| idle(c))
            .map(|(i, _)| i)
            .chain(victim)
            .filter(move |&i| {
                self.node_bytes
                    .is_none_or(|budget| used - cs[i].mem_bytes + need <= budget)
            });
        let candidates = donors.clone().map(|i| (i, model_id(cs[i].model)));
        match choose_source_by_id(repo, candidates, model_id(model)) {
            Some(choice) => Start::Transform(choice),
            None => donors.clone().next().map_or(Start::Cold, Start::Repurpose),
        }
    }

    /// The donor a speculative transformation toward `model` would use:
    /// the cheapest-plan idle donor that fits. Speculation never evicts
    /// and never loads from scratch.
    pub fn speculation_source<K: Copy + PartialEq>(
        &self,
        repo: &ModelRepository,
        cs: &[ContainerView<K>],
        model: K,
        need: u64,
        now: f64,
        model_id: impl Fn(K) -> ModelId,
    ) -> Option<SourceChoice<usize>> {
        if !cs.iter().any(|c| c.model != model && self.is_idle(c, now)) {
            return None;
        }
        match self.start(repo, cs, model, need, now, model_id) {
            Start::Transform(choice) => Some(choice),
            Start::Repurpose(_) | Start::Cold => None,
        }
    }

    /// Longest-idle container of another model (Pagurus's donor).
    pub fn idle_donor<K: PartialEq>(
        &self,
        cs: &[ContainerView<K>],
        model: K,
        now: f64,
    ) -> Option<usize> {
        cs.iter()
            .enumerate()
            .filter(|(_, c)| c.model != model && self.is_idle(c, now))
            .max_by(|(_, a), (_, b)| {
                (now - a.last_routed)
                    .partial_cmp(&(now - b.last_routed))
                    .expect("finite")
                    .then(b.id.cmp(&a.id))
            })
            .map(|(i, _)| i)
    }

    /// Whether a new container of `need` bytes fits within both the slot
    /// count and the memory budget.
    pub fn fits<K>(&self, cs: &[ContainerView<K>], need: u64) -> bool {
        cs.len() < self.capacity
            && self
                .node_bytes
                .is_none_or(|budget| mem_used(cs) + need <= budget)
    }

    /// Whether repurposing container `ci` for a model of `need` bytes
    /// stays within the memory budget.
    pub fn repurpose_fits<K>(&self, cs: &[ContainerView<K>], ci: usize, need: u64) -> bool {
        self.node_bytes
            .is_none_or(|budget| mem_used(cs) - cs[ci].mem_bytes + need <= budget)
    }

    /// The container a cold start would evict: the least-recently-routed
    /// free container, but only when a new container does not fit.
    pub fn eviction_victim<K>(
        &self,
        cs: &[ContainerView<K>],
        need: u64,
        now: f64,
    ) -> Option<usize> {
        if self.fits(cs, need) {
            None
        } else {
            lru(cs, |c| c.busy_until <= now)
        }
    }

    /// Make room for a new container of `need` bytes by evicting
    /// least-recently-routed free containers, handing each to `evicted`.
    /// Returns whether it now fits (false when the rest are busy).
    pub fn free_slot<K>(
        &self,
        cs: &mut Vec<ContainerView<K>>,
        need: u64,
        now: f64,
        mut evicted: impl FnMut(ContainerView<K>),
    ) -> bool {
        while !self.fits(cs, need) {
            let Some(victim) = lru(cs, |c| c.busy_until <= now) else {
                return false;
            };
            evicted(cs.swap_remove(victim));
        }
        true
    }
}

/// Drop the containers whose keep-alive `window` (per model) expired at
/// `now`, keeping the others in order and handing each dropped one to
/// `evicted`.
pub fn expire<K: Copy>(
    cs: &mut Vec<ContainerView<K>>,
    now: f64,
    window: impl Fn(K) -> f64,
    mut evicted: impl FnMut(ContainerView<K>),
) {
    cs.retain(|c| {
        let gone = c.expired(now, window(c.model));
        if gone {
            evicted(*c);
        }
        !gone
    });
}

/// Least-recently-routed container among those `eligible` (ties to the
/// lower id).
pub fn lru<K>(
    cs: &[ContainerView<K>],
    eligible: impl Fn(&ContainerView<K>) -> bool,
) -> Option<usize> {
    cs.iter()
        .enumerate()
        .filter(|(_, c)| eligible(c))
        .min_by(|(_, a), (_, b)| {
            a.last_routed
                .partial_cmp(&b.last_routed)
                .expect("finite")
                .then(a.id.cmp(&b.id))
        })
        .map(|(i, _)| i)
}

fn mem_used<K>(cs: &[ContainerView<K>]) -> u64 {
    cs.iter().map(|c| c.mem_bytes).sum()
}

/// Pick the cheapest donor for serving `dst_model` from the repository's
/// cached plans and safeguard; `None` when no donor beats a scratch load.
/// Each candidate costs two dense-array probes inside
/// [`ModelRepository::decide_by_id`].
fn choose_source_by_id<C>(
    repo: &ModelRepository,
    donors: impl IntoIterator<Item = (C, ModelId)>,
    dst_model: ModelId,
) -> Option<SourceChoice<C>> {
    let mut best: Option<SourceChoice<C>> = None;
    for (handle, src_model) in donors {
        if src_model == dst_model {
            // Same-model donors are warm starts, never transformations.
            continue;
        }
        if let Some(TransformDecision::Transform(plan)) = repo.decide_by_id(src_model, dst_model) {
            let latency = plan.cost.total();
            if best.as_ref().is_none_or(|b| latency < b.latency) {
                best = Some(SourceChoice {
                    container: handle,
                    plan,
                    latency,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::GroupPlanner;
    use optimus_profile::CostModel;

    type View = ContainerView<ModelId>;

    const POLICY: Lifecycle = Lifecycle {
        capacity: 3,
        node_bytes: None,
        idle_threshold: 60.0,
    };

    fn repo(models: Vec<optimus_model::ModelGraph>) -> ModelRepository {
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        let cost = CostModel::default();
        for m in models {
            repo.register(m, &cost);
        }
        repo
    }

    fn view(id: u64, model: ModelId, last_routed: f64) -> View {
        ContainerView::new(id, model, last_routed, last_routed)
    }

    #[test]
    fn state_transitions_over_time() {
        let c = ContainerView::new(1, 0u32, 0.0, 2.0);
        assert_eq!(c.state(1.0, 60.0), ContainerState::Busy);
        assert_eq!(c.state(2.0, 60.0), ContainerState::Warm);
        assert_eq!(c.state(59.9, 60.0), ContainerState::Warm);
        assert_eq!(c.state(60.0, 60.0), ContainerState::Idle);
    }

    #[test]
    fn routing_resets_idle_timer() {
        let mut c = ContainerView::new(1, 0u32, 0.0, 1.0);
        c.route(100.0, 101.0);
        assert_eq!(c.state(120.0, 60.0), ContainerState::Warm);
        assert_eq!(c.state(160.0, 60.0), ContainerState::Idle);
    }

    #[test]
    fn keep_alive_expiry() {
        let c = ContainerView::new(1, 0u32, 0.0, 2.0);
        assert!(!c.expired(600.0, 600.0));
        assert!(c.expired(603.0, 600.0));
        // Busy containers never expire.
        let busy = ContainerView::new(2, 0u32, 0.0, 1e9);
        assert!(!busy.expired(1e6, 600.0));
        let mut cs = vec![c, busy];
        let mut gone = Vec::new();
        expire(&mut cs, 603.0, |_| 600.0, |c| gone.push(c.id));
        assert_eq!(gone, vec![1]);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn start_picks_cheapest_idle_donor() {
        let repo = repo(vec![
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::resnet::resnet50(),
        ]);
        let id = |n: &str| repo.model_id(n).expect("registered");
        // Donors: resnet50 (cross family) and vgg16 (same family, cheaper).
        let cs = [view(1, id("resnet50"), 0.0), view(2, id("vgg16"), 0.0)];
        let Start::Transform(choice) = POLICY.start(&repo, &cs, id("vgg19"), 0, 100.0, |m| m)
        else {
            panic!("a donor must beat scratch load");
        };
        assert_eq!(choice.container, 1, "vgg16 is the cheaper donor");
        assert_eq!(
            choice.latency,
            repo.transform_latency("vgg16", "vgg19").unwrap()
        );
        // Not yet idle: no donor, free slots, so a cold start.
        assert!(matches!(
            POLICY.start(&repo, &cs, id("vgg19"), 0, 30.0, |m| m),
            Start::Cold
        ));
    }

    #[test]
    fn safeguard_repurposes_when_no_plan_beats_scratch() {
        let repo = repo(vec![
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::bert::bert(optimus_zoo::BertConfig::new(optimus_zoo::BertSize::Tiny)),
        ]);
        let id = |n: &str| repo.model_id(n).expect("registered");
        let cs = [view(7, id("bert-tiny-uncased"), 0.0)];
        assert!(matches!(
            POLICY.start(&repo, &cs, id("vgg16"), 0, 100.0, |m| m),
            Start::Repurpose(0)
        ));
        assert!(POLICY
            .speculation_source(&repo, &cs, id("vgg16"), 0, 100.0, |m| m)
            .is_none());
    }

    #[test]
    fn full_node_donates_its_eviction_victim() {
        let repo = repo(vec![
            optimus_zoo::vgg::vgg11(),
            optimus_zoo::vgg::vgg13(),
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
        ]);
        let id = |n: &str| repo.model_id(n).expect("registered");
        // Three recently routed containers fill the node; none is idle.
        let cs = [
            view(1, id("vgg11"), 10.0),
            view(2, id("vgg13"), 5.0),
            view(3, id("vgg16"), 20.0),
        ];
        let Start::Transform(choice) = POLICY.start(&repo, &cs, id("vgg19"), 0, 30.0, |m| m) else {
            panic!("the victim is a donor");
        };
        assert_eq!(choice.container, 1, "least recently routed");
        // Speculation never takes the victim.
        assert!(POLICY
            .speculation_source(&repo, &cs, id("vgg19"), 0, 30.0, |m| m)
            .is_none());
    }

    #[test]
    fn memory_budget_filters_donors_and_frees_slots() {
        let policy = Lifecycle {
            node_bytes: Some(100),
            ..POLICY
        };
        let mut cs = vec![
            ContainerView::new(1, 0u32, 0.0, 0.0),
            ContainerView::new(2, 1u32, 5.0, 5.0),
        ];
        cs[0].mem_bytes = 60;
        cs[1].mem_bytes = 30;
        assert!(!policy.fits(&cs, 20));
        assert!(policy.repurpose_fits(&cs, 1, 40));
        assert!(!policy.repurpose_fits(&cs, 1, 41));
        let mut gone = Vec::new();
        assert!(policy.free_slot(&mut cs, 20, 10.0, |c| gone.push(c.id)));
        assert_eq!(gone, vec![1], "LRU evicted first");
        assert_eq!(Lifecycle::warm(&cs, 1u32, 10.0), Some(0));
    }
}
