//! The load generator: open-loop (scheduled) and closed-loop (saturating)
//! clients speaking the wire protocol to the router.
//!
//! Each request is split into the spans the traced run reports: `encode`
//! (`write_request_v2` into a buffer), `send` (the socket write), `receive`
//! (waiting until the first response bytes are readable) and `decode`
//! (`read_response`). The same code runs with and without tracing; tracing
//! only decides whether the spans are kept.

use sc_nn::tensor::Tensor;
use sc_serve::proto::{read_response, write_request_v2, Response};
use servebench::{classify, frame, Outcome, Workload};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a client waits for an outstanding answer before counting the
/// request as failed.
pub const GIVE_UP: Duration = Duration::from_secs(30);

/// One request as the client saw it. Times are offsets from the run epoch.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request index within the run (also the wire id).
    pub index: u64,
    /// Protocol model id.
    pub model: u16,
    /// Frame carried (see [`servebench::frame`]).
    pub frame: u64,
    /// When the schedule said to send (open loop only).
    pub scheduled: Option<Duration>,
    /// When encoding started.
    pub started: Duration,
    /// Encoding finished; the socket write starts.
    pub encoded: Duration,
    /// Socket write finished.
    pub sent: Duration,
    /// First response bytes readable.
    pub readable: Option<Duration>,
    /// Response decoded.
    pub done: Option<Duration>,
    /// The answer, if one arrived.
    pub response: Option<Response>,
}

impl Record {
    /// The served answer, if the request succeeded.
    pub fn served(&self) -> Option<(u16, &[f64])> {
        match &self.response {
            Some(Response::Ok { argmax, logits, .. }) => Some((*argmax, logits.as_slice())),
            _ => None,
        }
    }

    /// The request's outcome, timed from the scheduled send time (open
    /// loop) or the actual start (closed loop).
    pub fn outcome(&self) -> Outcome {
        let from = self.scheduled.unwrap_or(self.started);
        let latency = self
            .done
            .map_or(0.0, |done| done.saturating_sub(from).as_secs_f64() * 1e3);
        classify(self.response.as_ref(), latency)
    }
}

/// What every client of a run shares: where to send, which workload and
/// seed decide the requests, and the epoch all times are offsets from.
#[derive(Clone, Copy)]
pub struct Traffic {
    /// The router's address.
    pub addr: SocketAddr,
    /// The workload deciding each request's model and frame.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The run epoch.
    pub epoch: Instant,
}

struct Sender {
    stream: TcpStream,
    buffer: Vec<u8>,
    traffic: Traffic,
}

impl Sender {
    /// Encodes and writes request `index`, carrying `image`.
    fn send(&mut self, index: u64, image: &Tensor, scheduled: Option<Duration>) -> Record {
        let Traffic {
            workload,
            seed,
            epoch,
            ..
        } = self.traffic;
        let (model, frame_index) = workload.request(seed, index);
        let started = epoch.elapsed();
        self.buffer.clear();
        let shape = [1, 28, 28];
        let encoded_ok =
            write_request_v2(&mut self.buffer, index, model, shape, image.as_slice()).is_ok();
        let encoded = epoch.elapsed();
        let written = encoded_ok && self.stream.write_all(&self.buffer).is_ok();
        let sent = epoch.elapsed();
        Record {
            index,
            model,
            frame: frame_index,
            scheduled,
            started,
            encoded,
            sent,
            readable: None,
            done: None,
            // A request that never left the client is answered by nobody.
            response: (!written).then(|| Response::app_err(index, "send failed")),
        }
    }

    /// The image request `index` carries.
    fn image(&self, index: u64) -> Tensor {
        let (_, frame_index) = self.traffic.workload.request(self.traffic.seed, index);
        frame(self.traffic.seed, frame_index).0
    }
}

/// Reads one response: `(readable, done, response)`, or `None` once the
/// connection closed, broke, or stayed silent for [`GIVE_UP`].
fn receive(
    reader: &mut BufReader<TcpStream>,
    epoch: Instant,
) -> Option<(Duration, Duration, Response)> {
    if reader.fill_buf().ok()?.is_empty() {
        return None;
    }
    let readable = epoch.elapsed();
    let response = read_response(reader).ok()??;
    Some((readable, epoch.elapsed(), response))
}

fn connect(traffic: Traffic) -> std::io::Result<(Sender, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(traffic.addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(GIVE_UP))?;
    let reader = BufReader::new(stream.try_clone()?);
    let sender = Sender {
        stream,
        buffer: Vec::new(),
        traffic,
    };
    Ok((sender, reader))
}

/// Sends request `first + k` at `schedule[k]` seconds after the call over
/// one connection, with a second thread collecting the answers.
pub fn open_loop(traffic: Traffic, first: u64, schedule: &[f64]) -> std::io::Result<Vec<Record>> {
    let epoch = traffic.epoch;
    let (mut sender, mut reader) = connect(traffic)?;
    let expected = schedule.len();
    let start = epoch.elapsed();
    let (mut records, mut answers) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut answers = HashMap::with_capacity(expected);
            while answers.len() < expected {
                let Some((readable, done, response)) = receive(&mut reader, epoch) else {
                    break;
                };
                answers.insert(response.id(), (readable, done, response));
            }
            answers
        });
        let mut records = Vec::with_capacity(expected);
        for (k, &offset) in schedule.iter().enumerate() {
            let index = first + k as u64;
            let image = sender.image(index);
            let due = start + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_sub(epoch.elapsed()) {
                std::thread::sleep(wait);
            }
            records.push(sender.send(index, &image, Some(due)));
        }
        (records, receiver.join().expect("receiver thread panicked"))
    });
    let _ = sender.stream.shutdown(std::net::Shutdown::Both);
    for record in &mut records {
        if let Some((readable, done, response)) = answers.remove(&record.index) {
            record.readable = Some(readable);
            record.done = Some(done);
            record.response.get_or_insert(response);
        }
    }
    Ok(records)
}

/// Keeps `depth` requests outstanding on each of `connections` connections
/// (one thread each) for `duration`, then drains. Request indices come
/// from `next`, shared by every connection.
pub fn closed_loop(
    traffic: Traffic,
    next: &AtomicU64,
    connections: usize,
    depth: usize,
    duration: Duration,
) -> std::io::Result<Vec<Record>> {
    let epoch = traffic.epoch;
    let stop_at = epoch.elapsed() + duration;
    let per_connection: Vec<std::io::Result<Vec<Record>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(move || -> std::io::Result<Vec<Record>> {
                    let (mut sender, mut reader) = connect(traffic)?;
                    let mut done = Vec::new();
                    let mut in_flight: HashMap<u64, Record> = HashMap::new();
                    let mut issue = |in_flight: &mut HashMap<u64, Record>| {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let image = sender.image(index);
                        in_flight.insert(index, sender.send(index, &image, None));
                    };
                    for _ in 0..depth {
                        issue(&mut in_flight);
                    }
                    while !in_flight.is_empty() {
                        let Some((readable, at, response)) = receive(&mut reader, epoch) else {
                            break;
                        };
                        let Some(mut record) = in_flight.remove(&response.id()) else {
                            continue;
                        };
                        record.readable = Some(readable);
                        record.done = Some(at);
                        record.response.get_or_insert(response);
                        done.push(record);
                        if epoch.elapsed() < stop_at {
                            issue(&mut in_flight);
                        }
                    }
                    // Whatever is still outstanding was never answered.
                    done.extend(in_flight.into_values());
                    Ok(done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let mut records = Vec::new();
    for result in per_connection {
        records.extend(result?);
    }
    records.sort_by_key(|r| r.index);
    Ok(records)
}
