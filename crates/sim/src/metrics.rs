//! Per-request records and run-level reports.

use std::collections::BTreeMap;

use optimus_telemetry::{exact_percentile, Histogram};
use serde::{Deserialize, Serialize};

/// How a request's container was obtained (Figure 14's categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StartKind {
    /// Served by a warm container already holding the model.
    Warm,
    /// A brand-new container was created and the model loaded from scratch.
    Cold,
    /// An existing container was transformed/re-purposed for the function
    /// (Pagurus repurpose, Tetris tensor-mapping, Optimus model
    /// transformation).
    Transform,
}

/// Latency breakdown of one served request (all seconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Function name.
    pub function: String,
    /// Arrival time.
    pub arrival: f64,
    /// Queueing delay before a container was available.
    pub wait: f64,
    /// Sandbox/runtime initialization (0 for warm starts).
    pub init: f64,
    /// Model loading or transformation latency (0 for warm starts).
    pub load: f64,
    /// Inference computation.
    pub compute: f64,
    /// Start category.
    pub kind: StartKind,
}

impl RequestRecord {
    /// End-to-end service latency: wait + init + load + compute (the
    /// paper's §8.3 metric).
    pub fn service_time(&self) -> f64 {
        self.wait + self.init + self.load + self.compute
    }
}

/// p50/p95/p99 of one latency phase, estimated through the shared
/// `optimus-telemetry` histograms (the same quantile estimator the live
/// gateway's `/metrics` endpoint reports).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhasePercentiles {
    /// Median (s).
    pub p50: f64,
    /// 95th percentile (s).
    pub p95: f64,
    /// 99th percentile (s).
    pub p99: f64,
}

impl PhasePercentiles {
    fn of(histogram: &Histogram) -> PhasePercentiles {
        let (p50, p95, p99) = histogram.percentiles();
        PhasePercentiles { p50, p95, p99 }
    }
}

/// Per-phase percentile breakdown of one function's requests
/// (wait / init / load / compute — the §8.3 composition).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Queueing delay percentiles.
    pub wait: PhasePercentiles,
    /// Sandbox init percentiles.
    pub init: PhasePercentiles,
    /// Model load/transform percentiles.
    pub load: PhasePercentiles,
    /// Inference compute percentiles.
    pub compute: PhasePercentiles,
}

/// Per-function aggregate of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSummary {
    /// Function name.
    pub function: String,
    /// Requests served.
    pub requests: usize,
    /// Sum of service times (s); divide by `requests` for the mean.
    pub total_service: f64,
    /// Cold starts.
    pub cold: usize,
    /// Container/model transformations.
    pub transform: usize,
    /// Warm starts.
    pub warm: usize,
    /// Per-phase latency percentiles of this function's requests.
    pub phases: PhaseBreakdown,
}

impl FunctionSummary {
    /// Mean service time of this function's requests.
    pub fn avg_service_time(&self) -> f64 {
        self.total_service / self.requests.max(1) as f64
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq, Deserialize, Default)]
pub struct SimReport {
    /// System name (policy).
    pub system: String,
    /// All per-request records, in completion order of dispatch.
    pub records: Vec<RequestRecord>,
    /// Fleet-aggregated weight-store statistics (`None` unless
    /// `SimConfig::store` is set): per-tier resident bytes, chunk
    /// hit/miss counts, and the dedup ratio content addressing achieved.
    pub store: Option<optimus_store::StoreStats>,
    /// Fault-injection summary (`None` unless `SimConfig::faults` is
    /// set): counters for every injected fault class and resilience
    /// response, plus the worst per-request margin over the cold-start
    /// equivalent (≤ 0 means the §6.3 safeguard held on every request).
    pub faults: Option<optimus_faults::FaultReport>,
    /// Elastic-fleet summary (`None` unless `SimConfig::fleet` is set):
    /// scale events, nodes added/removed, multicast rounds/bytes, and the
    /// worst time-to-all-warm across scale-out waves.
    pub fleet: Option<optimus_fleet::FleetReport>,
    /// Arrival-prediction summary (`None` unless `SimConfig::predict` is
    /// set): speculation hit/misprediction counters, speculation cost and
    /// saved seconds, and the adaptive keep-alive window statistics.
    pub predict: Option<optimus_predict::PredictReport>,
    /// Token-level LLM serving summary (`None` unless `SimConfig::llm`
    /// is set): decode-loop counts, continuous-batching joins, and the
    /// time-to-first-token distribution that replaces service time as
    /// the latency metric for decode workloads.
    pub llm: Option<optimus_llm::LlmReport>,
}

// Hand-written so the `fleet` and `predict` keys are *omitted* (not
// `null`) when those subsystems are disabled: committed experiment JSON
// from older binaries must stay byte-identical. The derive serializes
// every field.
impl Serialize for SimReport {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("system", self.system.to_value());
        m.insert("records", self.records.to_value());
        m.insert("store", self.store.to_value());
        m.insert("faults", self.faults.to_value());
        if let Some(fleet) = &self.fleet {
            m.insert("fleet", fleet.to_value());
        }
        if let Some(predict) = &self.predict {
            m.insert("predict", predict.to_value());
        }
        if let Some(llm) = &self.llm {
            m.insert("llm", llm.to_value());
        }
        serde::Value::Object(m)
    }
}

impl SimReport {
    /// Number of requests served.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no requests were served.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mean end-to-end service time (Figure 13's metric).
    pub fn avg_service_time(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(RequestRecord::service_time)
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// p-th percentile service time (`p` in `[0, 100]`): the telemetry
    /// crate's nearest-rank percentile over the exact per-request values.
    pub fn percentile_service_time(&self, p: f64) -> f64 {
        let times: Vec<f64> = self
            .records
            .iter()
            .map(RequestRecord::service_time)
            .collect();
        exact_percentile(&times, p)
    }

    /// Fraction of requests per start kind (Figure 14).
    pub fn start_fractions(&self) -> BTreeMap<StartKind, f64> {
        let mut counts: BTreeMap<StartKind, usize> = BTreeMap::new();
        for r in &self.records {
            *counts.entry(r.kind).or_insert(0) += 1;
        }
        let total = self.records.len().max(1) as f64;
        counts
            .into_iter()
            .map(|(k, c)| (k, c as f64 / total))
            .collect()
    }

    /// Fraction of requests served within `threshold` seconds (SLO
    /// attainment).
    pub fn slo_attainment(&self, threshold: f64) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        let ok = self
            .records
            .iter()
            .filter(|r| r.service_time() <= threshold)
            .count();
        ok as f64 / self.records.len() as f64
    }

    /// Per-function aggregation, sorted by descending request count.
    ///
    /// Phase percentiles come from the shared telemetry histograms
    /// (log-spaced buckets, interpolated quantiles) rather than a bespoke
    /// sort per function and phase.
    pub fn per_function(&self) -> Vec<FunctionSummary> {
        let mut map: BTreeMap<&str, (FunctionSummary, [Histogram; 4])> = BTreeMap::new();
        for r in &self.records {
            let (e, phases) = map.entry(r.function.as_str()).or_insert_with(|| {
                let empty = PhasePercentiles {
                    p50: 0.0,
                    p95: 0.0,
                    p99: 0.0,
                };
                (
                    FunctionSummary {
                        function: r.function.clone(),
                        requests: 0,
                        total_service: 0.0,
                        cold: 0,
                        transform: 0,
                        warm: 0,
                        phases: PhaseBreakdown {
                            wait: empty,
                            init: empty,
                            load: empty,
                            compute: empty,
                        },
                    },
                    std::array::from_fn(|_| Histogram::new()),
                )
            });
            e.requests += 1;
            e.total_service += r.service_time();
            match r.kind {
                StartKind::Cold => e.cold += 1,
                StartKind::Transform => e.transform += 1,
                StartKind::Warm => e.warm += 1,
            }
            for (h, v) in phases.iter().zip([r.wait, r.init, r.load, r.compute]) {
                h.observe(v);
            }
        }
        let mut v: Vec<FunctionSummary> = map
            .into_values()
            .map(|(mut summary, phases)| {
                summary.phases = PhaseBreakdown {
                    wait: PhasePercentiles::of(&phases[0]),
                    init: PhasePercentiles::of(&phases[1]),
                    load: PhasePercentiles::of(&phases[2]),
                    compute: PhasePercentiles::of(&phases[3]),
                };
                summary
            })
            .collect();
        v.sort_by(|a, b| {
            b.requests
                .cmp(&a.requests)
                .then_with(|| a.function.cmp(&b.function))
        });
        v
    }

    /// Export all records as CSV (header + one line per request).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("function,arrival,wait,init,load,compute,service_time,kind\n");
        for r in &self.records {
            let kind = match r.kind {
                StartKind::Warm => "warm",
                StartKind::Cold => "cold",
                StartKind::Transform => "transform",
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                r.function,
                r.arrival,
                r.wait,
                r.init,
                r.load,
                r.compute,
                r.service_time(),
                kind
            ));
        }
        out
    }

    /// Mean latency of each breakdown component `(wait, init, load,
    /// compute)`.
    pub fn mean_breakdown(&self) -> (f64, f64, f64, f64) {
        let n = self.records.len().max(1) as f64;
        let sum = self.records.iter().fold((0.0, 0.0, 0.0, 0.0), |acc, r| {
            (
                acc.0 + r.wait,
                acc.1 + r.init,
                acc.2 + r.load,
                acc.3 + r.compute,
            )
        });
        (sum.0 / n, sum.1 / n, sum.2 / n, sum.3 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: StartKind, wait: f64, init: f64, load: f64, compute: f64) -> RequestRecord {
        RequestRecord {
            function: "f".into(),
            arrival: 0.0,
            wait,
            init,
            load,
            compute,
            kind,
        }
    }

    #[test]
    fn service_time_sums_components() {
        let r = rec(StartKind::Cold, 1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.service_time(), 10.0);
    }

    #[test]
    fn report_aggregates() {
        let report = SimReport {
            system: "test".into(),
            store: None,
            faults: None,
            fleet: None,
            predict: None,
            llm: None,
            records: vec![
                rec(StartKind::Warm, 0.0, 0.0, 0.0, 1.0),
                rec(StartKind::Cold, 0.0, 1.0, 2.0, 1.0),
                rec(StartKind::Transform, 0.0, 0.1, 0.4, 1.0),
                rec(StartKind::Warm, 0.0, 0.0, 0.0, 1.0),
            ],
        };
        assert_eq!(report.len(), 4);
        assert!((report.avg_service_time() - (1.0 + 4.0 + 1.5 + 1.0) / 4.0).abs() < 1e-12);
        let frac = report.start_fractions();
        assert_eq!(frac[&StartKind::Warm], 0.5);
        assert_eq!(frac[&StartKind::Cold], 0.25);
        assert_eq!(frac[&StartKind::Transform], 0.25);
        let (w, i, l, c) = report.mean_breakdown();
        assert_eq!(w, 0.0);
        assert!((i - 0.275).abs() < 1e-12);
        assert!((l - 0.6).abs() < 1e-12);
        assert_eq!(c, 1.0);
    }

    #[test]
    fn percentiles_ordered() {
        let report = SimReport {
            system: "t".into(),
            store: None,
            faults: None,
            fleet: None,
            predict: None,
            llm: None,
            records: (1..=100)
                .map(|i| rec(StartKind::Warm, 0.0, 0.0, 0.0, i as f64))
                .collect(),
        };
        assert!(report.percentile_service_time(50.0) <= report.percentile_service_time(99.0));
        assert_eq!(report.percentile_service_time(100.0), 100.0);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SimReport::default();
        assert!(r.is_empty());
        assert_eq!(r.avg_service_time(), 0.0);
        assert_eq!(r.percentile_service_time(99.0), 0.0);
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;

    fn rec(f: &str, kind: StartKind, service: f64) -> RequestRecord {
        RequestRecord {
            function: f.into(),
            arrival: 0.0,
            wait: 0.0,
            init: 0.0,
            load: 0.0,
            compute: service,
            kind,
        }
    }

    #[test]
    fn per_function_aggregates_and_sorts() {
        let report = SimReport {
            system: "t".into(),
            store: None,
            faults: None,
            fleet: None,
            predict: None,
            llm: None,
            records: vec![
                rec("a", StartKind::Cold, 2.0),
                rec("b", StartKind::Warm, 1.0),
                rec("b", StartKind::Transform, 3.0),
                rec("b", StartKind::Warm, 1.0),
            ],
        };
        let per = report.per_function();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].function, "b");
        assert_eq!(per[0].requests, 3);
        assert_eq!(per[0].warm, 2);
        assert_eq!(per[0].transform, 1);
        assert!((per[0].avg_service_time() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(per[1].cold, 1);
    }

    #[test]
    fn per_function_phase_percentiles_track_constant_phases() {
        // Constant per-phase latencies: the histogram estimator clamps to
        // the observed min/max, so every percentile is exact.
        let records: Vec<RequestRecord> = (0..100)
            .map(|_| RequestRecord {
                function: "f".into(),
                arrival: 0.0,
                wait: 0.5,
                init: 0.25,
                load: 2.0,
                compute: 0.125,
                kind: StartKind::Cold,
            })
            .collect();
        let report = SimReport {
            system: "t".into(),
            store: None,
            faults: None,
            fleet: None,
            predict: None,
            llm: None,
            records,
        };
        let per = report.per_function();
        let phases = per[0].phases;
        for (got, want) in [
            (phases.wait, 0.5),
            (phases.init, 0.25),
            (phases.load, 2.0),
            (phases.compute, 0.125),
        ] {
            assert_eq!(got.p50, want);
            assert_eq!(got.p95, want);
            assert_eq!(got.p99, want);
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let report = SimReport {
            system: "t".into(),
            store: None,
            faults: None,
            fleet: None,
            predict: None,
            llm: None,
            records: vec![rec("f", StartKind::Cold, 1.5)],
        };
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("function,arrival"));
        assert!(lines[1].starts_with("f,0,"));
        assert!(lines[1].ends_with(",cold"));
    }
}

#[cfg(test)]
mod slo_tests {
    use super::*;

    #[test]
    fn slo_attainment_counts_threshold() {
        let rec = |s: f64| RequestRecord {
            function: "f".into(),
            arrival: 0.0,
            wait: 0.0,
            init: 0.0,
            load: 0.0,
            compute: s,
            kind: StartKind::Warm,
        };
        let report = SimReport {
            system: "t".into(),
            store: None,
            faults: None,
            fleet: None,
            predict: None,
            llm: None,
            records: vec![rec(0.5), rec(1.5), rec(2.5), rec(0.9)],
        };
        assert!((report.slo_attainment(1.0) - 0.5).abs() < 1e-12);
        assert_eq!(report.slo_attainment(10.0), 1.0);
        assert_eq!(report.slo_attainment(0.1), 0.0);
        assert_eq!(SimReport::default().slo_attainment(1.0), 1.0);
    }
}
