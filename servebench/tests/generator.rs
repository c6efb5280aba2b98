//! The benchmark's traffic generator and result arithmetic: seeded inputs
//! repeat exactly, percentiles follow the nearest-rank rule, and a failed
//! or refused request counts against every latency limit.

use sc_serve::proto::{ErrorCode, Response};
use servebench::{
    burst_cycle_s, classify, failed_share, frame, label, latencies, nearest_rank, on_off_arrivals,
    poisson_arrivals, supported_percentile, Outcome, Workload, BURST_PEAK, BURST_REQUESTS, CLASSES,
    HOT_SET, POISSON_SLOT_S,
};

fn requests(workload: Workload, seed: u64) -> Vec<(u16, u64)> {
    (0..64).map(|i| workload.request(seed, i)).collect()
}

#[test]
fn same_seed_repeats_schedules_and_frames() {
    for workload in Workload::ALL {
        assert_eq!(
            workload.schedule(7, 20.0, 5.0),
            workload.schedule(7, 20.0, 5.0),
            "{} schedule",
            workload.name()
        );
        assert_eq!(requests(workload, 7), requests(workload, 7));
    }
    for index in [0, 1, 9, 1_000] {
        let (a, label_a) = frame(7, index);
        let (b, label_b) = frame(7, index);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(label_a, label_b);
    }
}

#[test]
fn different_seed_changes_schedules_and_frames() {
    assert_ne!(
        poisson_arrivals(7, 20.0, 5.0),
        poisson_arrivals(8, 20.0, 5.0)
    );
    assert_ne!(on_off_arrivals(7, 20.0, 5.0), on_off_arrivals(8, 20.0, 5.0));
    assert_ne!(frame(7, 3).0.as_slice(), frame(8, 3).0.as_slice());
    let labels = |seed| (0..40).map(|i| label(seed, i)).collect::<Vec<_>>();
    assert_ne!(labels(7), labels(8));
    assert_ne!(
        requests(Workload::MixedBurst, 7),
        requests(Workload::MixedBurst, 8)
    );
}

#[test]
fn frames_are_fresh_within_a_seed() {
    assert_ne!(frame(7, 0).0.as_slice(), frame(7, 1).0.as_slice());
}

#[test]
fn labels_are_balanced_in_every_block_of_ten() {
    for block in 0..20u64 {
        let mut seen: Vec<usize> = (0..CLASSES as u64)
            .map(|i| label(3, block * CLASSES as u64 + i))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..CLASSES).collect::<Vec<_>>());
    }
}

#[test]
fn workloads_address_the_documented_models_and_frames() {
    for (index, (model, frame_index)) in
        requests(Workload::DistinctL1024, 5).into_iter().enumerate()
    {
        assert_eq!((model, frame_index), (0, index as u64));
    }
    for (index, (model, frame_index)) in requests(Workload::HotL256, 5).into_iter().enumerate() {
        assert_eq!((model, frame_index), (0, index as u64 % HOT_SET));
    }
    // Exactly one `apc` request (model 1) in every block of four.
    let mixed = requests(Workload::MixedBurst, 5);
    for block in mixed.chunks(4) {
        assert_eq!(block.iter().filter(|(model, _)| *model == 1).count(), 1);
    }
    let frames: Vec<u64> = mixed.iter().map(|&(_, f)| f).collect();
    assert_eq!(frames, (0..64).collect::<Vec<_>>());
}

#[test]
fn poisson_arrivals_hold_their_count_per_slot_and_gap_like_poisson() {
    let arrivals = poisson_arrivals(11, 50.0, 200.0);
    assert_eq!(arrivals.len(), 10_000);
    for slot in 0..200 {
        let in_slot = arrivals
            .iter()
            .filter(|&&t| (t / POISSON_SLOT_S).floor() as usize == slot)
            .count();
        assert_eq!(in_slot, 50, "slot {slot}");
    }
    assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    assert!(arrivals.iter().all(|&t| (0.0..200.0).contains(&t)));
    // Exponential gaps: mean 1/rate, and about e^-1 of them longer than it.
    let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    assert!((mean_gap - 0.02).abs() < 0.001, "mean gap {mean_gap}");
    let long = gaps.iter().filter(|&&g| g > 0.02).count() as f64 / gaps.len() as f64;
    assert!(
        (long - (-1.0f64).exp()).abs() < 0.02,
        "share of long gaps {long}"
    );
}

#[test]
fn on_off_arrivals_come_in_fixed_bursts_at_the_mean_rate() {
    let rate = 30.0;
    let cycle = burst_cycle_s(rate);
    let arrivals = on_off_arrivals(11, rate, 200.0);
    assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    let mut per_burst = std::collections::BTreeMap::new();
    for &t in &arrivals {
        let burst = (t / cycle).floor() as u64;
        assert!(
            t - burst as f64 * cycle <= cycle / BURST_PEAK + 1e-9,
            "arrival at {t} outside a burst"
        );
        *per_burst.entry(burst).or_insert(0u64) += 1;
    }
    // Every burst but a truncated last one carries exactly BURST_REQUESTS.
    let full = per_burst.values().rev().skip(1);
    assert!(full.clone().all(|&n| n == BURST_REQUESTS));
    assert!(full.count() as f64 >= 200.0 / cycle - 2.0);
    let mean = arrivals.len() as f64 / 200.0;
    assert!((mean - rate).abs() < 0.5, "mean rate {mean}");
}

#[test]
fn nearest_rank_percentiles_on_known_samples() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&ten, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&ten, 10.0), Some(1.0));
    assert_eq!(nearest_rank(&ten, 11.0), Some(2.0));
    assert_eq!(nearest_rank(&ten, 50.0), Some(5.0));
    assert_eq!(nearest_rank(&ten, 90.0), Some(9.0));
    assert_eq!(nearest_rank(&ten, 95.0), Some(10.0));
    assert_eq!(nearest_rank(&ten, 100.0), Some(10.0));
    assert_eq!(nearest_rank(&[4.0], 95.0), Some(4.0));
    assert_eq!(nearest_rank(&[], 50.0), None);
    let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(nearest_rank(&two_hundred, 95.0), Some(190.0));
    assert_eq!(supported_percentile(200), Some(95.0));
    assert_eq!(supported_percentile(100), Some(90.0));
    assert_eq!(supported_percentile(10), None);
}

#[test]
fn failed_and_refused_requests_miss_every_limit() {
    let ok = Response::Ok {
        id: 1,
        argmax: 3,
        logits: vec![0.0; 10],
    };
    let refused = Response::Err {
        id: 2,
        code: ErrorCode::Overloaded,
        message: "queue full".into(),
    };
    assert_eq!(classify(Some(&ok), 4.0), Outcome::Served(4.0));
    assert_eq!(classify(Some(&refused), 1.0), Outcome::Failed);
    assert_eq!(classify(None, 0.0), Outcome::Failed);

    let mut outcomes = vec![Outcome::Served(1.0); 18];
    outcomes.push(classify(Some(&refused), 1.0));
    outcomes.push(classify(None, 0.0));
    assert_eq!(failed_share(&outcomes), 0.1);
    let sorted = latencies(&outcomes);
    // The two failures sort last and sit above any finite limit.
    assert_eq!(nearest_rank(&sorted, 90.0), Some(1.0));
    assert_eq!(nearest_rank(&sorted, 95.0), Some(f64::INFINITY));
    assert_eq!(failed_share(&[]), 0.0);
}
