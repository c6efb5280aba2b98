//! End-to-end router smoke: two multi-model `serve` replicas behind the
//! replica router, driven by closed-loop clients while one replica is
//! killed mid-load.
//!
//! Each replica hosts the same two-engine registry (model 0 = the paper's
//! No.1-style MUX/APC mix, model 1 = all-APC) compiled from one trained
//! tiny-LeNet, so any replica answers any model bit-exactly. Clients
//! alternate models through the request frame's model id against the *router*
//! address; after every client has completed at least one request, replica
//! A is shut down. The run asserts:
//!
//! * zero dropped or hung requests (every request gets an answer),
//! * zero failed requests (failover absorbed the kill),
//! * every answer bit-exact with a direct in-process engine call.
//!
//! With `--fault stall|drop|corrupt` the kill is replaced by deterministic
//! fault injection: replica A sits behind a [`FaultProxy`] mangling its
//! responses, and the run asserts the router absorbs the fault class with
//! zero silent losses (typed retriable errors are tolerated and counted;
//! hangs and unexplained disconnects are not).
//!
//! Run with: `cargo run --release --example router_loadgen`
//! (flags: `--clients N --requests N --stream-length L --fault CLASS`)

use sc_dcnn_repro::blocks::feature_block::FeatureBlockKind;
use sc_dcnn_repro::dcnn::config::ScNetworkConfig;
use sc_dcnn_repro::nn::dataset::SyntheticDigits;
use sc_dcnn_repro::nn::lenet::{tiny_lenet, PoolingStyle};
use sc_dcnn_repro::serve::admin::{scrape, spawn_admin};
use sc_dcnn_repro::serve::engine::{Engine, EngineOptions};
use sc_dcnn_repro::serve::fault::{FaultKind, FaultProxy};
use sc_dcnn_repro::serve::proto::{read_response, write_request_v3, Response};
use sc_dcnn_repro::serve::router::{spawn_router, RouterOptions};
use sc_dcnn_repro::serve::server::{spawn_multi, ServerHandle, ServerOptions};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extracts the value of the exposition sample whose line starts with
/// `prefix` (metric name plus rendered labels).
fn metric_value(exposition: &str, prefix: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| {
            line.strip_prefix(prefix)
                .filter(|rest| rest.starts_with(' '))
                .map(|rest| rest.trim().parse().expect("sample value"))
        })
        .unwrap_or_else(|| panic!("no sample {prefix} in scrape"))
}

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn replica(engines: &[Arc<Engine>]) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind replica");
    spawn_multi(engines.to_vec(), listener, ServerOptions::default()).expect("spawn replica")
}

fn main() {
    let clients = arg("--clients", 4);
    let requests_per_client = arg("--requests", 8);
    let stream_length = arg("--stream-length", 256);
    let fault_mode = arg_str("--fault", "none");
    let fault = match fault_mode.as_str() {
        "none" => None,
        // Responses go silent mid-exchange; bounded by the exchange timeout.
        "stall" => Some(FaultKind::Stall {
            after: 0,
            limit: Duration::from_secs(5),
        }),
        // Responses are dropped on the floor (clean close, no bytes).
        "drop" => Some(FaultKind::Drop { after: 0 }),
        // Every response frame's tag byte is flipped.
        "corrupt" => Some(FaultKind::Corrupt { every_frames: 1 }),
        other => panic!("unknown --fault {other} (expected none|stall|drop|corrupt)"),
    };

    // One trained network, two Table-6-style deployments of it: the model
    // registry every replica hosts.
    use FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
    let configs = [
        ScNetworkConfig::new(
            "no1-style",
            vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
            stream_length,
            PoolingStyle::Max,
        ),
        ScNetworkConfig::new(
            "all-apc",
            vec![ApcMaxBtanh; 4],
            stream_length,
            PoolingStyle::Max,
        ),
    ];
    println!(
        "compiling {} tiny-LeNet engines at L = {stream_length} ...",
        configs.len()
    );
    let network = tiny_lenet(17);
    let engines: Vec<Arc<Engine>> = configs
        .iter()
        .map(|config| {
            Arc::new(
                Engine::compile(&network, config, EngineOptions::default())
                    .expect("engine compiles"),
            )
        })
        .collect();

    let replica_a = replica(&engines);
    let replica_b = replica(&engines);
    // In fault mode replica A is reached only through the fault proxy;
    // replica B stays pristine so failover always has a good target.
    let proxy = fault.map(|fault| FaultProxy::spawn(replica_a.addr(), fault, 0x10AD).unwrap());
    let backend_a = proxy
        .as_ref()
        .map_or_else(|| replica_a.addr(), FaultProxy::addr);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router = spawn_router(
        listener,
        vec![backend_a, replica_b.addr()],
        if fault.is_some() {
            RouterOptions {
                health_interval: Duration::from_millis(50),
                connect_timeout: Duration::from_millis(500),
                // Bound faulted exchanges (generous enough for replica B's
                // real compute) and stop hammering the faulty replica after
                // its first transport failure.
                exchange_timeout: Duration::from_secs(2),
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_secs(30),
                ..RouterOptions::default()
            }
        } else {
            RouterOptions {
                health_interval: Duration::from_millis(50),
                connect_timeout: Duration::from_millis(500),
                ..RouterOptions::default()
            }
        },
    )
    .expect("spawn router");
    // Live admin endpoint on the router: scraped mid-load and at the end,
    // and cross-checked against the clients' own totals.
    let admin = spawn_admin(
        TcpListener::bind("127.0.0.1:0").expect("bind admin"),
        router.registry(),
    );
    let addr = router.addr();
    println!(
        "router {addr} -> replicas {} / {}; {} models per replica",
        backend_a,
        replica_b.addr(),
        replica_a.models()
    );
    match fault {
        None => println!(
            "driving {clients} closed-loop clients x {requests_per_client} requests, killing \
             replica A mid-load\n"
        ),
        Some(fault) => println!(
            "driving {clients} closed-loop clients x {requests_per_client} requests with \
             {fault:?} injected in front of replica A\n"
        ),
    }
    // The kill path consumes the handle mid-run; the fault path keeps it
    // alive until teardown.
    let mut replica_a = Some(replica_a);

    // Reference answers for bit-exactness: one image, both models.
    let data = SyntheticDigits::generate(1, 5);
    let image = data.train_images[0].clone();
    let expected: Vec<Vec<f64>> = engines
        .iter()
        .map(|engine| {
            engine
                .infer(&mut engine.new_session(), &image)
                .expect("direct inference")
                .logits
        })
        .collect();

    let completed = Arc::new(AtomicUsize::new(0));
    let refused = Arc::new(AtomicUsize::new(0));
    let fault_injected = fault.is_some();
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|client| {
            let image = image.clone();
            let expected = expected.clone();
            let completed = Arc::clone(&completed);
            let refused = Arc::clone(&refused);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect router");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("read timeout");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                for request in 0..requests_per_client {
                    let id = (client * requests_per_client + request) as u64;
                    let model = (request % expected.len()) as u16;
                    write_request_v3(&mut writer, id, model, 0, [1, 28, 28], image.as_slice())
                        .expect("send");
                    match read_response(&mut reader).expect("recv") {
                        Some(Response::Ok {
                            id: rid, logits, ..
                        }) => {
                            assert_eq!(rid, id, "response correlation");
                            assert_eq!(
                                logits,
                                expected[usize::from(model)],
                                "request {id} (model {model}) must be bit-exact with the \
                                 direct engine call"
                            );
                        }
                        // Under injected faults a typed *retriable* refusal
                        // is an acceptable answer (overload protection at
                        // work) — silence or an unexplained error is not.
                        Some(Response::Err { code, message, .. })
                            if fault_injected && code.is_retriable() =>
                        {
                            println!("request {id} refused [{code}]: {message}");
                            refused.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(Response::Err { message, .. }) => {
                            panic!("request {id} failed: {message}")
                        }
                        None => panic!("router closed the connection on request {id}"),
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Once every client has at least one answered request, the load is
    // provably in flight: scrape the live admin endpoint mid-load.
    while completed.load(Ordering::Relaxed) < clients {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mid = scrape(admin.addr(), "/metrics").expect("mid-load scrape");
    println!(
        "mid-load scrape: {} ok / {} failed so far via http://{}/metrics",
        metric_value(&mid, "sc_requests_total{outcome=\"ok\"}"),
        metric_value(&mid, "sc_requests_total{outcome=\"failed\"}"),
        admin.addr()
    );

    if fault.is_none() {
        // Kill replica A — deterministic even for tiny CI workloads since
        // every client already has an answered request.
        println!(
            "killing replica A after {} answered requests ...",
            completed.load(Ordering::Relaxed)
        );
        replica_a.take().expect("replica A handle").shutdown();
    }

    for thread in threads {
        thread.join().expect("client thread");
    }
    let wall = start.elapsed();
    let total = clients * requests_per_client;
    let refusals = refused.load(Ordering::Relaxed);
    let stats = router.stats();

    println!(
        "client view : {total} requests in {:.2}s -> {:.2} req/s ({refusals} typed refusals, \
         rest bit-exact)",
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64()
    );
    println!("router view : {stats}");
    println!("replica B   : {}", replica_b.metrics().report());
    assert_eq!(
        completed.load(Ordering::Relaxed),
        total,
        "every request must be answered — zero silent losses"
    );
    assert_eq!(
        stats.failed as usize, refusals,
        "router-side failures and client-side typed refusals must agree"
    );
    if fault.is_none() {
        assert_eq!(
            stats.failed, 0,
            "no request may fail across the replica kill"
        );
    }
    assert_eq!(stats.requests, total as u64);

    // The final scrape must account for every client-observed request: the
    // metrics plane loses nothing between the wire and the endpoint.
    let text = scrape(admin.addr(), "/metrics").expect("final scrape");
    let scraped_ok = metric_value(&text, "sc_requests_total{outcome=\"ok\"}");
    let scraped_failed = metric_value(&text, "sc_requests_total{outcome=\"failed\"}");
    let scraped_expired = metric_value(&text, "sc_requests_total{outcome=\"expired\"}");
    println!(
        "final scrape : {scraped_ok} ok / {scraped_failed} failed / {scraped_expired} expired"
    );
    assert_eq!(
        (scraped_ok + scraped_failed + scraped_expired) as usize,
        total,
        "scraped outcomes must sum to the client total"
    );
    assert_eq!(
        scraped_failed as usize, refusals,
        "scraped failures must match client-side typed refusals"
    );

    // Graceful teardown: the surviving replica drains, the router closes
    // its client connections, everything joins.
    admin.shutdown();
    router.shutdown();
    if let Some(proxy) = proxy {
        proxy.shutdown();
    }
    if let Some(replica_a) = replica_a {
        replica_a.shutdown();
    }
    replica_b.shutdown();
    match fault {
        None => {
            println!("\nrouter smoke passed: 0 dropped, 0 failed, bit-exact across a replica kill")
        }
        Some(fault) => println!(
            "\nrouter chaos smoke passed: 0 silent losses, {refusals} typed refusals, \
             bit-exact under {fault:?}"
        ),
    }
}
