//! Seeded workload inputs. Everything the system under test sees — the
//! live request schedule, request tensors and simulator traces — is made
//! here from the run's seed, and the same seed gives the same inputs.

use std::collections::HashMap;
use std::time::Duration;

use optimus_workload::{AzureTraceGenerator, DiurnalBurstGenerator, Invocation, Trace};

/// SplitMix64: a small, fast, seedable generator (Steele et al., 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Which model each live request asks for.
#[derive(Debug, Clone, Copy)]
pub enum Popularity {
    /// Consecutive request pairs alternate between two models.
    Alternate,
    /// Zipf(`s`) over `n` models; the seed decides which model holds
    /// which popularity rank.
    Zipf { n: usize, s: f64 },
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Send time, as an offset from the start of the window.
    pub at: Duration,
    /// Catalog index of the requested model.
    pub model: usize,
    /// Which of the model's seeded inputs the request carries.
    pub input: usize,
}

/// An open-loop schedule: `rate` requests per second, evenly spaced, for
/// `seconds`.
pub fn live_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    popularity: Popularity,
    inputs_per_model: usize,
) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x11FE_5C4E_D01E_0001);
    let count = (rate * seconds).round() as usize;
    // Zipf: popularity rank → model (a seeded shuffle), and the rank CDF.
    let zipf = match popularity {
        Popularity::Alternate => None,
        Popularity::Zipf { n, s } => {
            let mut by_rank: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.below(i + 1);
                by_rank.swap(i, j);
            }
            let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            let cdf: Vec<f64> = weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect();
            Some((by_rank, cdf))
        }
    };
    (0..count)
        .map(|k| {
            let model = match &zipf {
                None => (k / 2) % 2,
                Some((by_rank, cdf)) => {
                    let u = rng.unit();
                    by_rank[cdf.partition_point(|&c| c < u).min(by_rank.len() - 1)]
                }
            };
            Request {
                at: Duration::from_secs_f64(k as f64 / rate),
                model,
                input: rng.below(inputs_per_model),
            }
        })
        .collect()
}

/// Input tensor values for one `(model, variant)`: multiples of 1/64 in
/// `[-1, 1]`, which print exactly in decimal, so the server parses back
/// the very tensor the benchmark checks its reply against.
pub fn input_values(seed: u64, model: usize, variant: usize, numel: usize) -> Vec<f32> {
    let mut rng = Rng::new(
        seed ^ (model as u64).wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (variant as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    (0..numel)
        .map(|_| (rng.below(129) as f32 - 64.0) / 64.0)
        .collect()
}

/// Days of Azure-style traffic in the `sim_paper` trace.
pub const PAPER_DAYS: f64 = 3.0;

/// Generator seed of the `sim_paper` function population: the seed
/// `exp_fig13` gives its Azure trace, so the benchmark replays the
/// per-function patterns (steady, periodic, bursty, and their rates)
/// that the committed Figure 13 was drawn from.
pub const PAPER_POPULATION_SEED: u64 = 10;

/// The `sim_paper` trace: [`PAPER_DAYS`] of the Figure 13 Azure-style
/// population over `functions`, with each function's arrival stream
/// rotated in time by its own seeded offset (wrapping at the end of the
/// trace). The seed changes how the functions' streams interleave —
/// which containers are idle, busy or evicted when a request arrives —
/// while every function keeps its rate and pattern. Drawing the
/// population itself from the seed would let one heavy function of 37
/// swing the run's mean service time by 2× between seeds.
pub fn paper_trace(functions: &[String], seed: u64) -> Trace {
    let base =
        AzureTraceGenerator::new(PAPER_DAYS * 86_400.0, PAPER_POPULATION_SEED).generate(functions);
    let duration = base.duration;
    let mut rng = Rng::new(seed ^ 0x05EE_D0FA_207E);
    let offsets: HashMap<&str, f64> = functions
        .iter()
        .map(|f| (f.as_str(), rng.unit() * duration))
        .collect();
    let invocations = base
        .invocations
        .iter()
        .map(|inv| Invocation {
            time: (inv.time + offsets[inv.function.as_str()]) % duration,
            function: inv.function.clone(),
        })
        .collect();
    Trace::new(duration, invocations)
}

/// Length of the `sim_full` diurnal trace (s).
pub const FULL_DURATION_S: f64 = 43_200.0;

/// Mean per-function arrival rate of the `sim_full` trace (1/s).
pub const FULL_BASE_RATE: f64 = 0.005;

/// The `sim_full` trace: half a day of diurnal, bursty arrivals for every
/// function (the predictor's stress pattern), drawn from the seed.
pub fn full_trace(functions: &[String], seed: u64) -> Trace {
    DiurnalBurstGenerator::new(FULL_DURATION_S, seed, FULL_BASE_RATE).generate(functions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("f{i}")).collect()
    }

    #[test]
    fn live_schedule_is_a_function_of_the_seed() {
        let zipf = Popularity::Zipf { n: 24, s: 1.0 };
        let a = live_schedule(7, 100.0, 5.0, zipf, 4);
        assert_eq!(a, live_schedule(7, 100.0, 5.0, zipf, 4));
        assert_ne!(a, live_schedule(8, 100.0, 5.0, zipf, 4));
        assert_eq!(a.len(), 500);
        assert_eq!(a[1].at, Duration::from_millis(10));
        assert!(a.iter().all(|r| r.model < 24 && r.input < 4));
    }

    #[test]
    fn zipf_favours_the_top_ranks() {
        let s = live_schedule(3, 1000.0, 10.0, Popularity::Zipf { n: 24, s: 1.0 }, 1);
        let mut counts = [0usize; 24];
        for r in &s {
            counts[r.model] += 1;
        }
        counts.sort_unstable();
        // Rank 1 of Zipf(1) over 24 models draws ~26 % of requests.
        assert!(counts[23] > 2000 && counts[23] < 3300, "{counts:?}");
        assert!(counts[0] > 0);
    }

    #[test]
    fn alternate_switches_models_every_two_requests() {
        let s = live_schedule(1, 10.0, 1.0, Popularity::Alternate, 2);
        let models: Vec<usize> = s.iter().map(|r| r.model).collect();
        assert_eq!(models, [0, 0, 1, 1, 0, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn inputs_are_seeded_and_exact_in_decimal() {
        let a = input_values(5, 2, 1, 192);
        assert_eq!(a, input_values(5, 2, 1, 192));
        assert_ne!(a, input_values(6, 2, 1, 192));
        assert_ne!(a, input_values(5, 2, 0, 192));
        for v in a {
            let printed: f64 = format!("{v}").parse().unwrap();
            assert_eq!(printed as f32, v);
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn paper_trace_rotates_streams_per_seed() {
        let f = names(6);
        let a = paper_trace(&f, 1);
        let b = paper_trace(&f, 2);
        assert_eq!(a.invocations, paper_trace(&f, 1).invocations);
        assert_ne!(a.invocations, b.invocations);
        // Rotation keeps every function's invocation count.
        let count =
            |t: &Trace, name: &str| t.invocations.iter().filter(|i| i.function == name).count();
        for name in &f {
            assert_eq!(count(&a, name), count(&b, name));
        }
        assert!(a.invocations.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(a
            .invocations
            .iter()
            .all(|i| (0.0..a.duration).contains(&i.time)));
    }

    #[test]
    fn full_trace_is_a_function_of_the_seed() {
        let f = names(4);
        assert_eq!(full_trace(&f, 3).invocations, full_trace(&f, 3).invocations);
        assert_ne!(full_trace(&f, 3).invocations, full_trace(&f, 4).invocations);
    }
}
