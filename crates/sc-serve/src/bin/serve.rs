//! `serve`: compile one or more SC networks and serve them over TCP.
//!
//! ```text
//! # single model (requests address model 0):
//! cargo run --release -p sc-serve --bin serve -- \
//!     --addr 127.0.0.1:7878 --config no1 --stream-length 1024 \
//!     --max-queue 1024 --train-per-class 20 --epochs 2
//!
//! # multi-model: one listener, N engines; model i of a request frame
//! # selects the i-th --model-config:
//! cargo run --release -p sc-serve --bin serve -- \
//!     --addr 127.0.0.1:7878 --model-config no1 --model-config apc
//! ```
//!
//! Trains the reduced LeNet on the synthetic digit dataset (or real MNIST
//! when built with `--features mnist` and `SC_MNIST_DIR` is set) once,
//! compiles it for every requested Table-6-style configuration, and serves
//! inference requests, printing a metrics report every few seconds. Several
//! `serve` replicas (same model list) can be fronted by the `route` binary.
//!
//! Observability: `--admin-addr 127.0.0.1:9878` exposes a live scrape
//! endpoint (`/metrics` Prometheus text, `/metrics.json`); `--trace-log
//! trace.jsonl --trace-sample 64 --trace-seed 7` writes a deterministic
//! 1-in-64 sampled JSONL request trace with per-stage latency breakdowns.
//!
//! Cold-start path: `--save-plans DIR` writes every compiled engine to
//! `DIR/model-<i>.scp` (the versioned, CRC-guarded plan-store format);
//! `--load-plan FILE` (repeatable, one model per use) boots straight from
//! such files — deserialize + deterministic weight-stream regeneration, no
//! training or lowering. A replica restarted this way is bit-exact with the
//! one that saved the plan.

use sc_blocks::feature_block::FeatureBlockKind;
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::dataset::SyntheticDigits;
use sc_nn::lenet::{tiny_lenet, PoolingStyle};
use sc_nn::network::TrainingOptions;
use sc_serve::admin::spawn_admin;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::obs::{TraceLog, TraceSampler};
use sc_serve::plan_store::{load_plan, save_plan};
use sc_serve::server::{bind_reusable, spawn_multi_observed, ServerOptions};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    admin_addr: Option<String>,
    model_configs: Vec<String>,
    save_plans: Option<String>,
    load_plans: Vec<String>,
    stream_length: usize,
    max_queue: usize,
    idle_timeout_ms: u64,
    slow_ms: u64,
    workers: usize,
    train_per_class: usize,
    epochs: usize,
    verify: bool,
    trace_log: Option<String>,
    trace_sample: u64,
    trace_seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        admin_addr: None,
        model_configs: Vec::new(),
        save_plans: None,
        load_plans: Vec::new(),
        stream_length: 1024,
        max_queue: 1024,
        idle_timeout_ms: 60_000,
        slow_ms: 0,
        workers: 0,
        train_per_class: 20,
        epochs: 2,
        verify: false,
        trace_log: None,
        trace_sample: 64,
        trace_seed: 0x0B5E_7041,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            // Observability: a live scrape endpoint (Prometheus text at
            // /metrics, JSON at /metrics.json) on a second listener.
            "--admin-addr" => args.admin_addr = Some(value("--admin-addr")),
            // Sampled JSONL request traces (one line per sampled request).
            "--trace-log" => args.trace_log = Some(value("--trace-log")),
            "--trace-sample" => {
                args.trace_sample = value("--trace-sample").parse().expect("trace sample")
            }
            "--trace-seed" => args.trace_seed = value("--trace-seed").parse().expect("trace seed"),
            // `--config` and `--model-config` are the same thing: each use
            // appends one model to the registry, in model-id order.
            "--config" | "--model-config" => args.model_configs.push(value(&flag)),
            // Cold-start plumbing: persist compiled plans / boot from them.
            "--save-plans" => args.save_plans = Some(value("--save-plans")),
            "--load-plan" => args.load_plans.push(value("--load-plan")),
            "--stream-length" => {
                args.stream_length = value("--stream-length").parse().expect("stream length")
            }
            "--max-queue" => args.max_queue = value("--max-queue").parse().expect("max queue"),
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = value("--idle-timeout-ms").parse().expect("idle timeout")
            }
            // Artificial per-request compute delay: the fault-injection
            // harness's "slow replica" mode.
            "--slow-ms" => args.slow_ms = value("--slow-ms").parse().expect("slow ms"),
            "--workers" => args.workers = value("--workers").parse().expect("workers"),
            "--train-per-class" => {
                args.train_per_class = value("--train-per-class").parse().expect("count")
            }
            "--epochs" => args.epochs = value("--epochs").parse().expect("epochs"),
            "--verify" => args.verify = true,
            other => panic!("unknown flag {other}"),
        }
    }
    if !args.load_plans.is_empty() && !args.model_configs.is_empty() {
        panic!("--load-plan and --model-config are mutually exclusive: a plan file already fixes its configuration");
    }
    if args.model_configs.is_empty() && args.load_plans.is_empty() {
        args.model_configs.push("no1".into());
    }
    args
}

/// Named serving configurations (`no1`/`no6` follow Table 6 rows, the rest
/// are uniform block assignments).
fn config_for(name: &str, stream_length: usize) -> ScNetworkConfig {
    use FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
    let kinds = match name {
        "no1" | "mux-mux-apc" => vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
        "no6" | "apc" | "apc-max" => vec![ApcMaxBtanh; 4],
        "mux" | "mux-max" => vec![MuxMaxStanh; 4],
        other => panic!("unknown config {other} (use no1, no6, mux)"),
    };
    ScNetworkConfig::new(name, kinds, stream_length, PoolingStyle::Max)
}

fn main() {
    let args = parse_args();
    let engines: Vec<Arc<Engine>> = if args.load_plans.is_empty() {
        // Resolve every configuration up front: a typo in one --model-config
        // must fail here, not after a minutes-long training run.
        let configs: Vec<ScNetworkConfig> = args
            .model_configs
            .iter()
            .map(|name| config_for(name, args.stream_length))
            .collect();

        println!(
            "training reduced LeNet ({} samples/class, {} epochs)...",
            args.train_per_class, args.epochs
        );
        let data = SyntheticDigits::load_or_generate(args.train_per_class, 17);
        let mut network = tiny_lenet(17);
        network.train(
            &data.train_images,
            &data.train_labels,
            &TrainingOptions {
                epochs: args.epochs,
                learning_rate: 0.08,
                ..Default::default()
            },
        );

        configs
            .into_iter()
            .map(|config| {
                println!(
                    "compiling engine for {} (L = {})...",
                    config.layer_summary(),
                    config.stream_length
                );
                let engine = Engine::compile(
                    &network,
                    &config,
                    EngineOptions {
                        verify_against_interpreter: args.verify,
                        ..EngineOptions::default()
                    },
                )
                .expect("engine compilation");
                Arc::new(engine)
            })
            .collect()
    } else {
        // Cold start from the plan store: no training, no lowering — just
        // deserialize + deterministic weight-stream regeneration.
        args.load_plans
            .iter()
            .map(|path| {
                println!("loading compiled plan from {path}...");
                let loaded = load_plan(std::path::Path::new(path))
                    .unwrap_or_else(|error| panic!("load plan {path}: {error}"));
                let mut options = loaded.engine_options();
                options.verify_against_interpreter = args.verify;
                let engine = Engine::from_plan(loaded.plan, options)
                    .unwrap_or_else(|error| panic!("engine from plan {path}: {error}"));
                Arc::new(engine)
            })
            .collect()
    };
    if let Some(dir) = &args.save_plans {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).expect("create plan-store directory");
        for (model, engine) in engines.iter().enumerate() {
            let path = dir.join(format!("model-{model}.scp"));
            save_plan(&path, engine.plan(), engine.options().plan.base_seed)
                .unwrap_or_else(|error| panic!("save plan {}: {error}", path.display()));
            println!(
                "saved compiled plan for model {model} to {}",
                path.display()
            );
        }
    }
    for (model, engine) in engines.iter().enumerate() {
        println!(
            "model {model} ({}): {} layers, {} FEB evaluations/request, {} cached weight streams",
            engine.model_name(),
            engine.plan().layers.len(),
            engine.plan().total_units(),
            engine.cached_weight_streams()
        );
    }

    let trace = args.trace_log.as_deref().map(|path| {
        let sampler = TraceSampler::new(args.trace_seed, args.trace_sample);
        TraceLog::to_file(sampler, std::path::Path::new(path)).expect("create trace log")
    });

    // `SO_REUSEADDR` before bind: a restarted replica (the rolling-upgrade
    // path) must reclaim its advertised address through the previous
    // incarnation's lingering TIME_WAIT connections instead of waiting out
    // the kernel timer. Non-socket-address strings fall back to a plain
    // resolving bind.
    let listener = match args.addr.parse::<std::net::SocketAddr>() {
        Ok(addr) => bind_reusable(addr),
        Err(_) => TcpListener::bind(&args.addr),
    }
    .expect("bind listener");
    let handle = spawn_multi_observed(
        engines,
        listener,
        ServerOptions {
            max_queue: args.max_queue,
            workers: args.workers,
            idle_timeout: Duration::from_millis(args.idle_timeout_ms),
            compute_delay: Duration::from_millis(args.slow_ms),
        },
        trace,
    )
    .expect("spawn server");
    println!(
        "listening on {} ({} models, {} kernel backend)",
        handle.addr(),
        handle.models(),
        sc_core::active_backend()
    );
    if let Some(admin_addr) = &args.admin_addr {
        let admin_listener = TcpListener::bind(admin_addr).expect("bind admin listener");
        let admin = spawn_admin(admin_listener, handle.registry());
        println!("admin endpoint on http://{}/metrics", admin.addr());
        // The admin endpoint lives as long as the process; the handle is
        // deliberately leaked (there is no graceful-exit path below).
        std::mem::forget(admin);
    }

    let metrics = handle.metrics();
    loop {
        std::thread::sleep(Duration::from_secs(5));
        println!("{}", metrics.report());
    }
}
