//! What the replicas and the router report about themselves: merged
//! `Metrics` histograms and counters, the `sc_cache_*` / `sc_arena_*`
//! registry samples, and router failovers, as deltas over a phase.

use crate::stack::Stack;
use sc_serve::metrics::Stage;
use std::collections::BTreeMap;

/// Bucket counts of one histogram, merged across replicas (microseconds).
#[derive(Debug, Clone, Default)]
pub struct Hist {
    count: u64,
    sum_us: u64,
    buckets: BTreeMap<u64, u64>,
}

impl Hist {
    fn add(&mut self, hist: &sc_core::LogHistogram) {
        self.count += hist.count();
        self.sum_us += hist.sum();
        for (low, _, count) in hist.nonzero_buckets() {
            *self.buckets.entry(low).or_default() += count;
        }
    }

    fn since(&self, before: &Hist) -> Hist {
        let mut buckets = self.buckets.clone();
        for (low, count) in &before.buckets {
            if let Some(c) = buckets.get_mut(low) {
                *c -= count;
            }
        }
        buckets.retain(|_, c| *c > 0);
        Hist {
            count: self.count - before.count,
            sum_us: self.sum_us - before.sum_us,
            buckets,
        }
    }

    /// Mean in milliseconds (`0` when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1e3
        }
    }

    /// Nearest-rank percentile in milliseconds, as the lower bound of its
    /// bucket (within 1/32 of the value; `0` when empty).
    pub fn percentile_ms(&self, percentile: f64) -> f64 {
        let total: u64 = self.buckets.values().sum();
        let rank = ((percentile / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (low, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return *low as f64 / 1e3;
            }
        }
        0.0
    }
}

/// Replica and router counters at one instant, summed over replicas.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The replicas' own request latency (enqueue → compute done).
    pub latency: Hist,
    stages: BTreeMap<&'static str, Hist>,
    /// Requests the replicas completed.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests dropped with an expired deadline.
    pub expired: u64,
    samples: BTreeMap<&'static str, f64>,
    /// Router failovers.
    pub failovers: u64,
}

impl Snapshot {
    /// Reads every replica's `Metrics` and registry, and the router's stats.
    pub fn take(stack: &Stack) -> Snapshot {
        let mut snapshot = Snapshot::default();
        for replica in &stack.replicas {
            let metrics = replica.metrics();
            snapshot.latency.add(metrics.latency());
            for stage in Stage::ALL {
                snapshot
                    .stages
                    .entry(stage.name())
                    .or_default()
                    .add(metrics.stages().get(stage));
            }
            snapshot.completed += metrics.completed();
            snapshot.shed += metrics.shed();
            snapshot.expired += metrics.expired();
            for sample in replica.registry().gather() {
                if sample.name.starts_with("sc_cache_") || sample.name.starts_with("sc_arena_") {
                    *snapshot.samples.entry(sample.name).or_default() += sample.value;
                }
            }
        }
        snapshot.failovers = stack.router.stats().failovers;
        snapshot
    }

    /// What happened between `before` and this snapshot.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot {
            latency: self.latency.since(&before.latency),
            stages: self
                .stages
                .iter()
                .map(|(name, hist)| (*name, hist.since(&before.stages[name])))
                .collect(),
            completed: self.completed - before.completed,
            shed: self.shed - before.shed,
            expired: self.expired - before.expired,
            samples: self
                .samples
                .iter()
                .map(|(name, value)| (*name, value - before.samples.get(name).unwrap_or(&0.0)))
                .collect(),
            failovers: self.failovers - before.failovers,
        }
    }

    /// One stage's merged histogram.
    pub fn stage(&self, stage: Stage) -> &Hist {
        &self.stages[stage.name()]
    }

    /// A summed `sc_cache_*` / `sc_arena_*` sample (`0` if absent).
    pub fn sample(&self, name: &str) -> f64 {
        self.samples.get(name).copied().unwrap_or(0.0)
    }
}
