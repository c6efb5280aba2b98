//! `servebench` — the serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <distinct-l1024|hot-l256|mixed-burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process brings up the real stack from the plan store (replicas
//! behind a router on loopback), drives the named workload through the
//! router, checks every served answer against `Engine::infer`, and prints
//! its metrics. The last line of standard output is one JSON object. See
//! `servebench/README.md` for the workloads, the metrics and what each one
//! should move.

mod gate;
mod loadgen;
mod replay;
mod replicas;
mod stack;
mod sys;
mod trace;

use loadgen::{closed_loop, open_loop, Record, Traffic, GIVE_UP};
use replicas::Snapshot;
use sc_serve::metrics::Stage;
use sc_serve::proto::Response;
use servebench::{
    failed_share, frame, label, latencies, mean, median, nearest_rank, splitmix64,
    supported_percentile, Outcome, Workload,
};
use stack::{bring_up, SetupTiming, Stack};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Stack bring-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Share of `--seconds` spent in the saturation phase; the open loop gets
/// the rest.
const SATURATION_SHARE: f64 = 0.2;
/// Requests each closed-loop connection keeps outstanding. With one
/// connection per worker, four each keep every replica's queue non-empty
/// whatever the router's pick; with two, a replica could idle for a moment
/// and capacity spread by 16% of its median over ten runs.
const DEPTH: usize = 4;
/// Frame index of the bring-up request (never used by workload traffic).
const WARM_FRAME: u64 = u64::MAX;
/// Largest accepted deviation of the replay's summed phases from the
/// `Engine::infer` wall time of the same requests (median ratio).
const PHASE_TOLERANCE: f64 = 0.25;
/// Steal share above which the measured phases run a second time on the
/// same stack; the attempt with less steal is reported. Neighbours on a
/// shared host take CPU in episodes of tens of seconds, and every
/// wall-clock figure degrades with them.
const STEAL_LIMIT: f64 = 0.02;
/// Cargo features the benchmark builds the program with.
const FEATURES: &str = "simd";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| {
        flags.remove(name).ok_or_else(|| {
            format!(
                "missing {name} (usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>)"
            )
        })
    };
    let name = take("--workload")?;
    let workload = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds >= 1.0 && seconds.is_finite()) {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::from(2)
        }
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// A failed request misses every latency limit; it is reported as the time
/// the client gave up on it so the figure stays a finite number.
fn finite_ms(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        ms(GIVE_UP)
    }
}

fn outcomes<'a>(records: impl IntoIterator<Item = &'a Record>) -> Vec<Outcome> {
    records.into_iter().map(Record::outcome).collect()
}

fn served_count(outcomes: &[Outcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Served(_)))
        .count()
}

/// Metrics in print order.
#[derive(Default)]
struct Report(Vec<(String, f64, &'static str)>);

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("metric {name} = {value:.4} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    fn json(&self, correct: bool, attempted: usize, failed: usize) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ))
    }
}

/// One open-loop phase: its records and what the process and the replicas
/// did meanwhile.
struct OpenPhase {
    records: Vec<Record>,
    cpu_s: f64,
    server: Snapshot,
}

impl OpenPhase {
    /// Sends the workload's open-loop schedule at `rate` for `seconds`;
    /// `tag` picks the schedule's seed stream.
    fn run(
        stack: &Stack,
        traffic: Traffic,
        next: &AtomicU64,
        rate: f64,
        seconds: f64,
        tag: u64,
    ) -> Result<OpenPhase, String> {
        let schedule = traffic
            .workload
            .schedule(splitmix64(traffic.seed ^ tag), rate, seconds);
        let first = next.fetch_add(schedule.len() as u64, Ordering::Relaxed);
        let before = Snapshot::take(stack);
        let cpu = sys::cpu_seconds();
        let records =
            open_loop(traffic, first, &schedule).map_err(|e| format!("open loop: {e}"))?;
        let cpu_s = sys::cpu_seconds() - cpu;
        // Workers publish cache counters once per batch, just after replying.
        std::thread::sleep(Duration::from_millis(50));
        Ok(OpenPhase {
            records,
            cpu_s,
            server: Snapshot::take(stack).since(&before),
        })
    }

    /// Latencies from the scheduled send times, failures sorted last.
    fn latencies(&self) -> Vec<f64> {
        latencies(&outcomes(&self.records))
    }
}

/// The measured phases: saturation, then the open loop (untraced, and in a
/// traced run a traced half).
struct Attempt {
    saturation: Vec<Record>,
    saturation_s: f64,
    capacity_rps: f64,
    offered_rps: f64,
    untraced: OpenPhase,
    traced: Option<OpenPhase>,
    /// Share of the machine's CPU time the hypervisor gave to other guests
    /// meanwhile (`/proc/stat` steal over all ticks).
    steal_share: f64,
}

impl Attempt {
    fn run(
        stack: &Stack,
        traffic: Traffic,
        next: &AtomicU64,
        args: &Args,
        nproc: usize,
    ) -> Result<Attempt, String> {
        let ticks = sys::cpu_ticks();
        // Saturation first: its capacity sets the open-loop rate.
        let saturation_s = args.seconds * SATURATION_SHARE;
        let saturation = closed_loop(
            traffic,
            next,
            nproc,
            DEPTH,
            Duration::from_secs_f64(saturation_s),
        )
        .map_err(|e| format!("closed loop: {e}"))?;
        let capacity_rps = capacity(&saturation, saturation_s);
        if capacity_rps <= 0.0 {
            return Err("saturation phase completed no request".into());
        }
        let offered_rps = args.workload.load_share() * capacity_rps;
        let open_s = args.seconds - saturation_s;
        let phase = |seconds, tag| OpenPhase::run(stack, traffic, next, offered_rps, seconds, tag);
        let (untraced, traced) = if args.trace {
            (phase(open_s / 2.0, 1)?, Some(phase(open_s / 2.0, 2)?))
        } else {
            (phase(open_s, 1)?, None)
        };
        let steal_share = match (ticks, sys::cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => ratio((s1 - s0) as f64, (t1 - t0) as f64),
            _ => 0.0,
        };
        Ok(Attempt {
            saturation,
            saturation_s,
            capacity_rps,
            offered_rps,
            untraced,
            traced,
            steal_share,
        })
    }

    fn records(&self) -> impl Iterator<Item = &Record> {
        self.saturation
            .iter()
            .chain(&self.untraced.records)
            .chain(self.traced.iter().flat_map(|p| &p.records))
    }
}

/// Answers per second in the steady window of the saturation phase: after
/// its first quarter (cold caches, filling pipelines), before the drain.
fn capacity(saturation: &[Record], seconds: f64) -> f64 {
    let start = saturation
        .iter()
        .map(|r| r.started)
        .min()
        .unwrap_or_default();
    let (from, to) = (
        start + Duration::from_secs_f64(seconds * 0.25),
        start + Duration::from_secs_f64(seconds),
    );
    let answered = saturation
        .iter()
        .filter(|r| r.served().is_some() && r.done.is_some_and(|d| d >= from && d < to))
        .count();
    ratio(answered as f64, (to - from).as_secs_f64())
}

fn run(args: &Args) -> Result<bool, String> {
    let epoch = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let topology = stack::topology(nproc);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let build_dir = exe.parent().ok_or("benchmark binary has no directory")?;
    let fixture = build_dir.join("servebench-fixture");
    stack::ensure_fixture(&fixture).map_err(|e| format!("fixture: {e}"))?;
    let models = args.workload.models();
    // Each replica stands for one box of a fleet and owns `workers` of the
    // cores: its engine's intra-request fan-out may use only those, or two
    // replicas in one process would each fan out over every core.
    sc_core::parallel::set_thread_limit(topology.1);

    // Set-up, several times: the last stack stays up for the measurement.
    let (warm, _) = frame(args.seed, WARM_FRAME);
    let mut setups: Vec<SetupTiming> = Vec::with_capacity(SETUPS);
    let mut warm_answers = Vec::with_capacity(SETUPS);
    let mut running: Option<Stack> = None;
    for _ in 0..SETUPS {
        if let Some(stack) = running.take() {
            stack.shutdown();
        }
        let (stack, timing, answer) = bring_up(&fixture, models, topology, &warm)?;
        setups.push(timing);
        warm_answers.push(answer);
        running = Some(stack);
    }
    let stack = running.expect("at least one set-up ran");
    let engines = stack.engines.clone();
    let cache_capacity = engines[0].options().cache_capacity;
    let next = AtomicU64::new(0);

    let traffic = Traffic {
        addr: stack.router.addr(),
        workload: args.workload,
        seed: args.seed,
        epoch,
    };
    let mut attempts = vec![Attempt::run(&stack, traffic, &next, args, nproc)?];
    // Read before a repeat, whose longer life would raise the mark.
    let peak_rss_mib = sys::peak_rss_mib().ok_or("VmHWM unavailable")?;
    if attempts[0].steal_share > STEAL_LIMIT {
        attempts.push(Attempt::run(&stack, traffic, &next, args, nproc)?);
    }
    stack.shutdown();
    let kept = attempts
        .iter()
        .min_by(|a, b| a.steal_share.total_cmp(&b.steal_share))
        .expect("at least one attempt ran");
    let (saturation_s, capacity_rps, offered_rps) =
        (kept.saturation_s, kept.capacity_rps, kept.offered_rps);
    let (untraced, traced) = (&kept.untraced, &kept.traced);
    let open_s = args.seconds - saturation_s;

    // Everything below is outside the timed window.
    let replay = match &traced {
        Some(phase) => Some(replay::window(&engines, args.seed, &phase.records, epoch)?),
        None => None,
    };
    // Every attempt's answers are checked and counted.
    let all: Vec<&Record> = attempts.iter().flat_map(Attempt::records).collect();
    let mut served: Vec<gate::Served<'_>> = all
        .iter()
        .filter_map(|r| {
            r.served()
                .map(|(argmax, logits)| (r.model, r.frame, argmax, logits))
        })
        .collect();
    let (attempted, answered) = (all.len(), served.len());
    let correct_labels = served
        .iter()
        .filter(|s| usize::from(s.2) == label(args.seed, s.1))
        .count();
    let top1 = ratio(correct_labels as f64, answered as f64);
    for answer in &warm_answers {
        match answer {
            Response::Ok { argmax, logits, .. } => served.push((0, WARM_FRAME, *argmax, logits)),
            Response::Err { message, .. } => {
                return Err(format!("bring-up request failed: {message}"))
            }
        }
    }
    let gate = gate::check(&engines, args.seed, &served, nproc)?;

    // Header: enough to tell two runs on different boxes or builds apart.
    let commit = std::env::current_dir()
        .ok()
        .and_then(|root| sys::git_commit(&root))
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let model_list: Vec<String> = models.iter().map(|(n, l)| format!("{n}@L{l}")).collect();
    println!(
        "servebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "header kernel_backend={} nproc={nproc} features={FEATURES} commit={commit}",
        sc_core::active_backend()
    );
    let steal: Vec<String> = attempts
        .iter()
        .map(|a| format!("{:.3}", a.steal_share))
        .collect();
    println!(
        "header cpu_steal_share={:.3} (attempts: {}; above {STEAL_LIMIT} the measurement repeats once and the attempt with less steal is reported)",
        kept.steal_share,
        steal.join(", ")
    );
    println!(
        "header topology={} replicas x {} worker(s), engine fan-out {} thread(s) per replica, router default options; models={}; cache_capacity={cache_capacity} streams per session",
        topology.0,
        topology.1,
        topology.1,
        model_list.join(",")
    );
    println!(
        "header saturation: {nproc} connections x {DEPTH} outstanding for {saturation_s:.1}s; open loop: {} at {offered_rps:.2} req/s ({:.0}% of capacity) for {open_s:.1}s",
        match args.workload {
            Workload::MixedBurst => "on/off bursts",
            _ => "Poisson",
        },
        args.workload.load_share() * 100.0
    );
    let untraced_latency = untraced.latencies();
    let completed = served_count(&outcomes(&untraced.records));
    let samples = untraced_latency.len();
    let support = match supported_percentile(samples) {
        Some(p) if p >= 95.0 => format!("p95 supported ({samples} samples)"),
        Some(p) => format!("only p{p:.1} supported ({samples} samples)"),
        None => format!("no tail supported ({samples} samples)"),
    };
    println!(
        "open loop: {} requests, {} completed, {support}",
        untraced.records.len(),
        completed
    );
    println!(
        "correctness: {} served answers checked against Engine::infer, {} mismatched; interpreter sample {}/{} matched",
        gate.checked,
        gate.mismatched,
        gate.interpreter_checked - gate.interpreter_mismatched,
        gate.interpreter_checked
    );

    let p50 = nearest_rank(&untraced_latency, 50.0).unwrap_or(0.0);
    let p95 = nearest_rank(&untraced_latency, 95.0).unwrap_or(0.0);
    let mut end_to_end = Report::default();
    end_to_end.add("setup_s", median_of(&setups, |s| s.total_s), "s");
    end_to_end.add("latency_p50_ms", finite_ms(p50), "ms");
    end_to_end.add("latency_p95_ms", finite_ms(p95), "ms");
    end_to_end.add("capacity_rps", capacity_rps, "1/s");
    let cpu_ms = ratio(untraced.cpu_s * 1e3, completed as f64);
    end_to_end.add("cpu_ms_per_request", cpu_ms, "ms");
    end_to_end.add("peak_rss_mib", peak_rss_mib, "MiB");
    end_to_end.print();
    let failed = attempted - answered;
    println!(
        "metric failed_share = {:.4} share ({failed} of {attempted} attempted)",
        failed_share(&outcomes(all.iter().copied()))
    );
    println!("metric top1_accuracy = {top1:.4} share ({answered} served answers)");

    let mut correct = gate.passed();
    let result = match (&traced, &replay) {
        (Some(phase), Some(replay)) => {
            println!(
                "replay: {} measured requests, logits bit-identical to Engine::infer: {}, phase sum / Engine::infer wall = {:.3} (tolerance ±{PHASE_TOLERANCE})",
                replay.measured, replay.bit_exact, replay.phase_sum_ratio
            );
            correct &= replay.bit_exact && (replay.phase_sum_ratio - 1.0).abs() <= PHASE_TOLERANCE;
            let per_layer = per_layer(phase, replay, &setups, p50, top1, cache_capacity);
            per_layer.print();
            let path = build_dir.join("servebench-traces").join(format!(
                "{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            write_trace(&path, phase, replay)?;
            per_layer
        }
        _ => end_to_end,
    };
    println!("{}", result.json(correct, attempted, failed)?);
    Ok(correct)
}

fn median_of<T>(items: &[T], value: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(value).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The traced run's per-layer metrics.
fn per_layer(
    phase: &OpenPhase,
    replay: &replay::Report,
    setups: &[SetupTiming],
    untraced_p50: f64,
    top1: f64,
    cache_capacity: usize,
) -> Report {
    let records = &phase.records;
    let answered: Vec<&Record> = records.iter().filter(|r| r.served().is_some()).collect();
    let mut lateness: Vec<f64> = records
        .iter()
        .map(|r| ms(r.started.saturating_sub(r.scheduled.unwrap_or(r.started))))
        .collect();
    lateness.sort_by(f64::total_cmp);
    let encode_us: Vec<f64> = records
        .iter()
        .map(|r| us(r.encoded.saturating_sub(r.started)))
        .collect();
    let decode_us: Vec<f64> = answered
        .iter()
        .filter_map(|r| Some(us(r.done?.saturating_sub(r.readable?))))
        .collect();
    let client_ms = mean(
        &answered
            .iter()
            .filter_map(|r| Some(ms(r.done?.saturating_sub(r.started))))
            .collect::<Vec<_>>(),
    );
    let server = &phase.server;
    let (queue, linger, compute) = (
        server.stage(Stage::QueueWait),
        server.stage(Stage::Linger),
        server.stage(Stage::Compute),
    );
    // Client latency = proto + router hop + the replica's own latency, and
    // the replica's latency = queue wait + linger + compute + residual.
    let proto_ms = (mean(&encode_us) + mean(&decode_us)) / 1e3;
    let hop_ms = client_ms - proto_ms - server.latency.mean_ms();
    let stages_ms = queue.mean_ms() + linger.mean_ms() + compute.mean_ms();
    let residual_ms = client_ms - proto_ms - hop_ms - stages_ms;
    let traced_p50 = nearest_rank(&phase.latencies(), 50.0).unwrap_or(0.0);
    let hits = server.sample("sc_cache_hits_total");
    let misses = server.sample("sc_cache_misses_total");
    let requests = server.completed as f64;
    println!(
        "decomposition (traced open loop, means): client {client_ms:.3} ms = proto {proto_ms:.3} + router hop {hop_ms:.3} + queue {:.3} + linger {:.3} + compute {:.3} + residual {residual_ms:.3}",
        queue.mean_ms(),
        linger.mean_ms(),
        compute.mean_ms()
    );
    println!(
        "cache regime: working set {:.3}x of {cache_capacity} streams (replay window of {} requests), replica hit rate {:.4}",
        replay.working_set_ratio,
        replay::WINDOW,
        ratio(hits, hits + misses)
    );

    let mut m = Report::default();
    m.add(
        "loadgen.lateness_p95_ms",
        nearest_rank(&lateness, 95.0).unwrap_or(0.0),
        "ms",
    );
    m.add(
        "proto.encode_us_p50",
        median(&encode_us).unwrap_or(0.0),
        "us",
    );
    m.add(
        "proto.decode_us_p50",
        median(&decode_us).unwrap_or(0.0),
        "us",
    );
    m.add("router.hop_ms_mean", hop_ms, "ms");
    m.add("router.failovers", server.failovers as f64, "count");
    m.add("server.queue_wait_ms_mean", queue.mean_ms(), "ms");
    m.add("server.queue_wait_ms_p95", queue.percentile_ms(95.0), "ms");
    m.add("server.linger_ms_mean", linger.mean_ms(), "ms");
    m.add(
        "server.write_back_ms_mean",
        server.stage(Stage::WriteBack).mean_ms(),
        "ms",
    );
    m.add("server.shed", server.shed as f64, "count");
    m.add("server.expired", server.expired as f64, "count");
    m.add("engine.compute_ms_mean", compute.mean_ms(), "ms");
    m.add("engine.compute_ms_p95", compute.percentile_ms(95.0), "ms");
    m.add(
        "engine.cache_fill_ms_mean",
        server.stage(Stage::CacheFill).mean_ms(),
        "ms",
    );
    m.add("cache.hit_rate", ratio(hits, hits + misses), "share");
    let evicted = server.sample("sc_cache_evicted_total");
    m.add(
        "cache.evicted_per_request",
        ratio(evicted, requests),
        "count",
    );
    m.add("cache.working_set_ratio", replay.working_set_ratio, "ratio");
    let allocs = server.sample("sc_arena_stream_allocs_total");
    m.add(
        "arena.stream_allocs_per_request",
        ratio(allocs, requests),
        "count",
    );
    m.add("plan_store.load_ms", median_of(setups, |s| s.load_ms), "ms");
    m.add(
        "engine.from_plan_ms",
        median_of(setups, |s| s.from_plan_ms),
        "ms",
    );
    m.add(
        "router.first_answer_ms",
        median_of(setups, |s| s.first_answer_ms),
        "ms",
    );
    let measured = replay.measured.max(1) as f64;
    for (i, layer) in replay.layers.iter().enumerate() {
        let per_request = |d: Duration| ms(d) / measured;
        m.add(
            format!("layer{i}.acquisitions"),
            layer.acquisitions as f64 / measured,
            "count",
        );
        let miss_share = ratio(layer.misses as f64, layer.acquisitions as f64);
        m.add(format!("layer{i}.fill_miss_share"), miss_share, "share");
        m.add(
            format!("layer{i}.sng_miss_ms"),
            per_request(layer.sng_miss),
            "ms",
        );
        m.add(
            format!("layer{i}.fill_hit_ms"),
            per_request(layer.fill_hit),
            "ms",
        );
        m.add(format!("layer{i}.block_ms"), per_request(layer.block), "ms");
        m.add(
            format!("layer{i}.decode_ms"),
            per_request(layer.decode),
            "ms",
        );
    }
    m.add(
        "trace.overhead_share",
        ratio(traced_p50, untraced_p50) - 1.0,
        "share",
    );
    m.add("replay.phase_sum_ratio", replay.phase_sum_ratio, "ratio");
    m.add("latency.residual_ms", residual_ms, "ms");
    m.add("quality.top1_accuracy", top1, "share");
    m
}

/// Writes the traced phase's client spans and the replay's spans.
fn write_trace(path: &Path, phase: &OpenPhase, replay: &replay::Report) -> Result<(), String> {
    let mut spans = Vec::new();
    for record in &phase.records {
        trace::client_spans(record, &mut spans);
    }
    let offset = spans.len();
    spans.extend(replay.spans.iter().map(|s| trace::Span {
        parent: s.parent.map(|p| p + offset),
        ..*s
    }));
    trace::write(path, &spans).map_err(|e| format!("write spans: {e}"))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}
