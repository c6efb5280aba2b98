//! The benchmark fixture (trained, lowered plan files) and bring-up of the
//! real serving stack from them: `load_plan` → `Engine::from_plan` →
//! `server::spawn_multi` replicas → `router::spawn_router`.

use sc_blocks::feature_block::FeatureBlockKind::{ApcMaxBtanh, MuxMaxStanh};
use sc_dcnn::config::ScNetworkConfig;
use sc_nn::dataset::SyntheticDigits;
use sc_nn::lenet::{tiny_lenet, PoolingStyle};
use sc_nn::network::TrainingOptions;
use sc_nn::tensor::Tensor;
use sc_serve::engine::{Engine, EngineOptions};
use sc_serve::plan_store::{load_plan, save_plan};
use sc_serve::proto::{read_response, write_request_v2, Response};
use sc_serve::router::{spawn_router, RouterHandle, RouterOptions};
use sc_serve::server::{spawn_multi, ServerHandle, ServerOptions};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Every `(config, stream length)` any workload serves; the fixture holds
/// one plan file for each.
const FIXTURE_MODELS: [(&str, usize); 3] = [("no1", 1024), ("no1", 256), ("apc", 1024)];

/// Training budget of the fixture network (float accuracy on fresh
/// synthetic digits is about 0.99).
const TRAIN_PER_CLASS: usize = 30;
const TRAIN_EPOCHS: usize = 3;
const TRAIN_SEED: u64 = 17;

fn config(name: &str, stream_length: usize) -> ScNetworkConfig {
    let kinds = match name {
        "no1" => vec![MuxMaxStanh, MuxMaxStanh, ApcMaxBtanh, ApcMaxBtanh],
        "apc" => vec![ApcMaxBtanh; 4],
        other => unreachable!("no fixture config named {other}"),
    };
    ScNetworkConfig::new(name, kinds, stream_length, PoolingStyle::Max)
}

fn plan_file(dir: &Path, name: &str, stream_length: usize) -> PathBuf {
    dir.join(format!("{name}-l{stream_length}.scp"))
}

/// Ensures the fixture plan files exist in `dir` and returns it.
///
/// Training and lowering are the fixture, not the measurement: they run
/// once per benchmark build. The stamp file ties the plans to the binary
/// that wrote them, so a rebuilt program re-lowers its own plans.
pub fn ensure_fixture(dir: &Path) -> std::io::Result<()> {
    let exe = std::fs::metadata(std::env::current_exe()?)?;
    let mtime = exe
        .modified()?
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let stamp = format!("{} {}\n", exe.len(), mtime);
    let stamp_path = dir.join("stamp");
    let fresh = std::fs::read_to_string(&stamp_path).is_ok_and(|s| s == stamp)
        && FIXTURE_MODELS
            .iter()
            .all(|&(name, length)| plan_file(dir, name, length).is_file());
    if fresh {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    let started = Instant::now();
    let data = SyntheticDigits::generate(TRAIN_PER_CLASS, TRAIN_SEED);
    let mut network = tiny_lenet(TRAIN_SEED);
    network.train(
        &data.train_images,
        &data.train_labels,
        &TrainingOptions {
            epochs: TRAIN_EPOCHS,
            learning_rate: 0.08,
            ..TrainingOptions::default()
        },
    );
    for (name, length) in FIXTURE_MODELS {
        let engine = Engine::compile(&network, &config(name, length), EngineOptions::default())
            .map_err(std::io::Error::other)?;
        save_plan(
            &plan_file(dir, name, length),
            engine.plan(),
            engine.options().plan.base_seed,
        )
        .map_err(std::io::Error::other)?;
    }
    std::fs::write(&stamp_path, stamp)?;
    eprintln!(
        "fixture: trained and lowered {} plans in {:.1}s",
        FIXTURE_MODELS.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Replicas and workers per replica: together the workers equal `nproc`.
pub fn topology(nproc: usize) -> (usize, usize) {
    let replicas = nproc.clamp(1, 2);
    (replicas, nproc.max(1) / replicas)
}

/// A running router in front of its replicas.
pub struct Stack {
    /// The replicas, in router backend order.
    pub replicas: Vec<ServerHandle>,
    /// The router every client request goes through.
    pub router: RouterHandle,
    /// The first replica's engines, by model id (for the correctness gate
    /// and the replay; every replica loads the same plans).
    pub engines: Vec<Arc<Engine>>,
}

impl Stack {
    /// Shuts the router down first, then every replica.
    pub fn shutdown(self) {
        self.router.shutdown();
        for replica in self.replicas {
            replica.shutdown();
        }
    }
}

/// Where one bring-up spent its time.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    /// Bring-up start to the first answer received through the router.
    pub total_s: f64,
    /// Summed `load_plan` time over every model of every replica.
    pub load_ms: f64,
    /// Summed `Engine::from_plan` time over every model of every replica.
    pub from_plan_ms: f64,
    /// Router spawned to the first answer received through it.
    pub first_answer_ms: f64,
}

/// Brings the stack up from the plan files of `models` and waits for the
/// first answer to `warm_frame` (model 0) through the router.
pub fn bring_up(
    fixture: &Path,
    models: &[(&str, usize)],
    (replicas, workers): (usize, usize),
    warm_frame: &Tensor,
) -> Result<(Stack, SetupTiming, Response), String> {
    let started = Instant::now();
    let (mut load_ms, mut from_plan_ms) = (0.0, 0.0);
    let mut handles = Vec::with_capacity(replicas);
    let mut first_engines = Vec::new();
    for _ in 0..replicas {
        let mut engines = Vec::with_capacity(models.len());
        for &(name, length) in models {
            let path = plan_file(fixture, name, length);
            let t = Instant::now();
            let loaded = load_plan(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
            load_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let options = loaded.engine_options();
            let engine = Engine::from_plan(loaded.plan, options).map_err(|e| e.to_string())?;
            from_plan_ms += t.elapsed().as_secs_f64() * 1e3;
            engines.push(Arc::new(engine));
        }
        if first_engines.is_empty() {
            first_engines.clone_from(&engines);
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let options = ServerOptions {
            workers,
            ..ServerOptions::default()
        };
        handles.push(spawn_multi(engines, listener, options).map_err(|e| e.to_string())?);
    }
    let backends: Vec<SocketAddr> = handles.iter().map(ServerHandle::addr).collect();
    let router_started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let router =
        spawn_router(listener, backends, RouterOptions::default()).map_err(|e| e.to_string())?;
    let answer = ask(router.addr(), 0, warm_frame)?;
    let timing = SetupTiming {
        total_s: started.elapsed().as_secs_f64(),
        load_ms,
        from_plan_ms,
        first_answer_ms: router_started.elapsed().as_secs_f64() * 1e3,
    };
    let stack = Stack {
        replicas: handles,
        router,
        engines: first_engines,
    };
    Ok((stack, timing, answer))
}

/// One blocking request/response exchange on a fresh connection.
fn ask(addr: SocketAddr, model: u16, image: &Tensor) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    write_request_v2(&mut stream, 0, model, [1, 28, 28], image.as_slice())
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "router closed before the first answer".to_string())
}
