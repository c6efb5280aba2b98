//! Seeded traffic generation and result arithmetic for the serving
//! benchmark.
//!
//! Everything here is a pure function of the workload seed, so the
//! benchmark's inputs repeat exactly for a seed and the generator can be
//! tested without bringing up a server. The binary in `main.rs` drives this
//! traffic through the real router + replica stack.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_nn::dataset::render_digit;
use sc_nn::tensor::Tensor;
use sc_serve::proto::Response;

/// Digit classes of the synthetic dataset.
pub const CLASSES: usize = 10;

/// Images cycled by the `hot-l256` workload.
pub const HOT_SET: u64 = 8;

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// SplitMix64 finalizer: the seed-mixing function behind every draw here.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes a seed with a stream tag and an index into one draw.
fn draw(seed: u64, tag: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)) ^ index)
}

/// A uniform draw in `(0, 1]`.
fn unit(seed: u64, tag: u64, index: u64) -> f64 {
    ((draw(seed, tag, index) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

const TAG_LABEL: u64 = 1;
const TAG_PIXELS: u64 = 2;
const TAG_MODEL: u64 = 3;
const TAG_ARRIVAL: u64 = 4;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `no1` at L=1024, every image fresh.
    DistinctL1024,
    /// `no1` at L=256, cycling [`HOT_SET`] images.
    HotL256,
    /// `no1`@L=256 and `apc`@L=1024 mixed 3:1, fresh images, on/off bursts.
    MixedBurst,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::DistinctL1024,
        Workload::HotL256,
        Workload::MixedBurst,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DistinctL1024 => "distinct-l1024",
            Workload::HotL256 => "hot-l256",
            Workload::MixedBurst => "mixed-burst",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The models every replica hosts, as `(config name, stream length)`;
    /// index `i` is protocol model id `i`.
    pub fn models(self) -> &'static [(&'static str, usize)] {
        match self {
            Workload::DistinctL1024 => &[("no1", 1024)],
            Workload::HotL256 => &[("no1", 256)],
            Workload::MixedBurst => &[("no1", 256), ("apc", 1024)],
        }
    }

    /// Offered open-loop mean rate as a share of measured capacity.
    pub fn load_share(self) -> f64 {
        match self {
            Workload::DistinctL1024 | Workload::HotL256 => 0.4,
            Workload::MixedBurst => 0.6,
        }
    }

    /// The `index`-th request of this workload: which model it addresses
    /// and which frame it carries.
    pub fn request(self, seed: u64, index: u64) -> (u16, u64) {
        match self {
            Workload::DistinctL1024 => (0, index),
            Workload::HotL256 => (0, index % HOT_SET),
            // Exactly one `apc` request in every block of four, at a seeded
            // slot: a 3:1 mix that holds over any window, not just on
            // average.
            Workload::MixedBurst => {
                let block = index / 4;
                let apc_slot = draw(seed, TAG_MODEL, block) % 4;
                (u16::from(index % 4 == apc_slot), index)
            }
        }
    }

    /// The open-loop arrival schedule at `mean_rate` requests/s over
    /// `duration_s`: offsets in seconds from the phase start.
    pub fn schedule(self, seed: u64, mean_rate: f64, duration_s: f64) -> Vec<f64> {
        match self {
            Workload::DistinctL1024 | Workload::HotL256 => {
                poisson_arrivals(seed, mean_rate, duration_s)
            }
            Workload::MixedBurst => on_off_arrivals(seed, mean_rate, duration_s),
        }
    }
}

/// Label of frame `index`: classes are dealt in seeded permutations of all
/// ten digits, so every block of ten consecutive frames is balanced.
pub fn label(seed: u64, index: u64) -> usize {
    let block = index / CLASSES as u64;
    let mut classes: [usize; CLASSES] = std::array::from_fn(|c| c);
    for i in (1..CLASSES).rev() {
        let draw_index = block.wrapping_mul(CLASSES as u64).wrapping_add(i as u64);
        let j = (draw(seed, TAG_LABEL, draw_index) % (i as u64 + 1)) as usize;
        classes.swap(i, j);
    }
    classes[(index % CLASSES as u64) as usize]
}

/// Frame `index` of the workload seed: a `SyntheticDigits` rendering of
/// [`label`]`(seed, index)` with its own placement and noise draw.
pub fn frame(seed: u64, index: u64) -> (Tensor, usize) {
    let digit = label(seed, index);
    let mut rng = StdRng::seed_from_u64(draw(seed, TAG_PIXELS, index));
    (render_digit(digit, &mut rng), digit)
}

/// Length of one stratum of the Poisson schedule, seconds.
pub const POISSON_SLOT_S: f64 = 1.0;

/// Poisson arrivals at `rate` per second over `duration_s`, conditioned on
/// their count in every [`POISSON_SLOT_S`] slot: each slot receives its
/// share of `rate × duration_s` arrivals (rounded so the total is exact),
/// placed uniformly at random inside it. Within a slot arrivals bunch and
/// gap as a Poisson process does; across slots the offered load stays at
/// the target, so a run is not judged on a few unlucky seconds of excess
/// load.
pub fn poisson_arrivals(seed: u64, rate: f64, duration_s: f64) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut arrivals = Vec::new();
    let mut index = 0;
    let mut start = 0.0;
    while start < duration_s {
        let end = (start + POISSON_SLOT_S).min(duration_s);
        let count = (rate * end).round() as u64 - (rate * start).round() as u64;
        let mut slot: Vec<f64> = (index..index + count)
            .map(|i| start + (end - start) * (1.0 - unit(seed, TAG_ARRIVAL, i)))
            .collect();
        index += count;
        slot.sort_by(f64::total_cmp);
        arrivals.extend(slot);
        start = end;
    }
    arrivals
}

/// Requests in every burst of the on/off schedule.
pub const BURST_REQUESTS: u64 = 16;
/// Arrival rate inside a burst as a multiple of the mean rate: at a mean of
/// 0.6× capacity a burst offers 3× capacity.
pub const BURST_PEAK: f64 = 5.0;

/// Length of one on/off cycle at `mean_rate`: one burst of
/// [`BURST_REQUESTS`], then silence.
pub fn burst_cycle_s(mean_rate: f64) -> f64 {
    BURST_REQUESTS as f64 / mean_rate
}

/// On/off bursts: every cycle of [`burst_cycle_s`] starts with exactly
/// [`BURST_REQUESTS`] arrivals placed uniformly at random in its first
/// `1 / BURST_PEAK`, then stays silent. A fixed count per burst keeps the
/// backlog each burst builds the same from seed to seed; the seed moves
/// the arrivals within the burst.
pub fn on_off_arrivals(seed: u64, mean_rate: f64, duration_s: f64) -> Vec<f64> {
    assert!(mean_rate > 0.0, "arrival rate must be positive");
    let cycle = burst_cycle_s(mean_rate);
    let on = cycle / BURST_PEAK;
    let mut arrivals = Vec::new();
    for burst in 0.. {
        let start = burst as f64 * cycle;
        if start >= duration_s {
            break;
        }
        let mut offsets: Vec<f64> = (0..BURST_REQUESTS)
            .map(|i| start + on * (1.0 - unit(seed, TAG_ARRIVAL, burst * BURST_REQUESTS + i)))
            .filter(|&t| t < duration_s)
            .collect();
        offsets.sort_by(f64::total_cmp);
        arrivals.extend(offsets);
    }
    arrivals
}

/// Nearest-rank percentile of an ascending-sorted sample (`None` when
/// empty): the smallest value with at least `percentile`% of the sample at
/// or below it.
pub fn nearest_rank(sorted: &[f64], percentile: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((percentile / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile a sample of `n` supports with [`TAIL_SAMPLES`]
/// samples beyond it (`None` below `TAIL_SAMPLES + 1` samples).
pub fn supported_percentile(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64))
}

/// Outcome of one request as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered successfully after this many milliseconds.
    Served(f64),
    /// Refused with a typed error, failed in transport, or never answered.
    Failed,
}

/// Classifies one request: a response other than `Ok` (a typed refusal
/// such as `OVERLOADED`, or an application error) and a missing response
/// both count as failed.
pub fn classify(response: Option<&Response>, latency_ms: f64) -> Outcome {
    match response {
        Some(Response::Ok { .. }) => Outcome::Served(latency_ms),
        Some(Response::Err { .. }) | None => Outcome::Failed,
    }
}

/// Latencies of a phase with failures counted as missing every limit:
/// ascending, failed requests sorted last as `f64::INFINITY`.
pub fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    let mut values: Vec<f64> = outcomes
        .iter()
        .map(|outcome| match outcome {
            Outcome::Served(ms) => *ms,
            Outcome::Failed => f64::INFINITY,
        })
        .collect();
    values.sort_by(f64::total_cmp);
    values
}

/// Failed requests over requests attempted (`0` for no attempts).
pub fn failed_share(outcomes: &[Outcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let failed = outcomes
        .iter()
        .filter(|outcome| matches!(outcome, Outcome::Failed))
        .count();
    failed as f64 / outcomes.len() as f64
}

/// Median of a sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Arithmetic mean (`0` for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
