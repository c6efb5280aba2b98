//! Closed-loop load generator against an in-process sc-serve instance.
//!
//! Boots the TCP serving runtime on a loopback port with a compiled
//! tiny-LeNet engine, then drives it with several closed-loop client
//! connections (each sends a request, waits for the reply, repeats) and
//! reports client-side and server-side throughput/latency.
//!
//! Run with: `cargo run --release --example serve_loadgen`
//! (flags: `--clients N --requests N --stream-length L`)

use sc_dcnn_repro::blocks::feature_block::FeatureBlockKind;
use sc_dcnn_repro::dcnn::config::ScNetworkConfig;
use sc_dcnn_repro::nn::dataset::SyntheticDigits;
use sc_dcnn_repro::nn::lenet::{tiny_lenet, PoolingStyle};
use sc_dcnn_repro::serve::engine::{Engine, EngineOptions};
use sc_dcnn_repro::serve::metrics::Metrics;
use sc_dcnn_repro::serve::proto::{read_response, write_request_v3, Response};
use sc_dcnn_repro::serve::server::{spawn, ServerOptions};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let clients = arg("--clients", 4);
    let requests_per_client = arg("--requests", 8);
    let stream_length = arg("--stream-length", 256);

    // Use the paper's No.1-style configuration (MUX front layers, APC
    // fully-connected) on the reduced LeNet.
    use FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
    let config = ScNetworkConfig::new(
        "loadgen-no1",
        vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
        stream_length,
        PoolingStyle::Max,
    );
    println!("compiling tiny-LeNet engine at L = {stream_length} ...");
    let network = tiny_lenet(17);
    let engine =
        Engine::compile(&network, &config, EngineOptions::default()).expect("engine compiles");
    println!(
        "plan: {} layers, {} FEB evaluations/request, {} pre-generated weight streams",
        engine.plan().layers.len(),
        engine.plan().total_units(),
        engine.cached_weight_streams()
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = spawn(Arc::new(engine), listener, ServerOptions::default()).expect("spawn server");
    let addr = handle.addr();
    println!("serving on {addr}; driving {clients} closed-loop clients x {requests_per_client} requests\n");

    let data = SyntheticDigits::generate(1, 5);
    let image = data.train_images[0].clone();
    let client_metrics = Arc::new(Metrics::new());
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|client| {
            let image = image.clone();
            let metrics = Arc::clone(&client_metrics);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                for request in 0..requests_per_client {
                    let id = (client * requests_per_client + request) as u64;
                    let sent = Instant::now();
                    write_request_v3(&mut writer, id, 0, 0, [1, 28, 28], image.as_slice())
                        .expect("send");
                    match read_response(&mut reader).expect("recv") {
                        Some(Response::Ok { .. }) => metrics.record(sent.elapsed()),
                        Some(Response::Err { message, .. }) => {
                            eprintln!("request {id} failed: {message}");
                            metrics.record_failure();
                        }
                        None => panic!("server closed early"),
                    }
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread");
    }
    let wall = start.elapsed();

    let total = clients * requests_per_client;
    println!(
        "client view : {} requests in {:.2}s -> {:.2} req/s",
        total,
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64()
    );
    println!("client view : {}", client_metrics.report());
    println!("server view : {}", handle.metrics().report());
    handle.shutdown();
}
