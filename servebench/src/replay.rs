//! Per-layer replay: drives a plan through the public `sc-blocks` /
//! `sc-core` calls the fused engine makes, timing each phase from outside.
//!
//! Per layer and request it measures input-stream acquisition (split into
//! the SNG fills of cache misses and the hit path around them), the fused
//! feature-block call (product/count, pooling and activation together) and
//! output decode. The replay keeps a session-equivalent stream cache and
//! arena, so its logits must be bit-identical to `Engine::infer`.

use crate::loadgen::Record;
use crate::trace::Span;
use sc_blocks::feature_block::FeatureBlock;
use sc_core::arena::StreamArena;
use sc_core::bitstream::BitStream;
use sc_core::cache::StreamCache;
use sc_core::encoding::{Bipolar, Encoding};
use sc_core::sng::{probability_threshold, BatchSng, SngBank, SngKind};
use sc_core::ScError;
use sc_nn::tensor::Tensor;
use sc_serve::engine::Engine;
use sc_serve::interpreter::Inference;
use sc_serve::plan::{Plan, PlanLayer};
use servebench::{frame, median, splitmix64};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive traced requests replayed; the first half warms the replay
/// caches, the second half is measured.
pub const WINDOW: usize = 16;

/// Time and counts of one layer for one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerPhases {
    /// Input-stream acquisitions (cache lookups).
    pub acquisitions: u64,
    /// Acquisitions that missed and ran an SNG fill.
    pub misses: u64,
    /// Time inside the SNG fills of misses.
    pub sng_miss: Duration,
    /// Acquisition time outside SNG fills: receptive-field gather, key
    /// derivation, cache lookup and the copy out of the cache on a hit.
    pub fill_hit: Duration,
    /// Selector preparation plus the fused feature-block call, including
    /// recycling its input buffers.
    pub block: Duration,
    /// `BitStream::bipolar_value` over the outputs, plus recycling them.
    pub decode: Duration,
}

impl LayerPhases {
    /// Sum of the timed phases.
    pub fn total(&self) -> Duration {
        self.sng_miss + self.fill_hit + self.block + self.decode
    }

    fn add(&mut self, other: &LayerPhases) {
        self.acquisitions += other.acquisitions;
        self.misses += other.misses;
        self.sng_miss += other.sng_miss;
        self.fill_hit += other.fill_hit;
        self.block += other.block;
        self.decode += other.decode;
    }
}

/// One replayed request.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The replay's answer.
    pub inference: Inference,
    /// Per-layer phases, in plan order.
    pub layers: Vec<LayerPhases>,
    /// Request start and end, as offsets from the replayer's epoch.
    pub span: (Duration, Duration),
    /// Per-layer `(start, end)` offsets.
    pub layer_spans: Vec<(Duration, Duration)>,
}

/// Replays one plan with its own cache, arena and SNG, like a warm serving
/// session without unit fan-out.
pub struct Replayer<'a> {
    plan: &'a Plan,
    /// `[layer][row][field][lane]`, from `FeatureBlock::weight_streams`.
    weights: Vec<Vec<Vec<Vec<BitStream>>>>,
    cache: StreamCache,
    arena: StreamArena,
    sng: BatchSng,
    keys: HashSet<(u64, u32)>,
    epoch: Instant,
}

impl<'a> Replayer<'a> {
    /// Pre-generates the plan's weight streams (untimed set-up).
    ///
    /// # Errors
    ///
    /// Propagates weight-encoding errors.
    pub fn new(plan: &'a Plan, cache_capacity: usize, epoch: Instant) -> Result<Self, ScError> {
        let weights = plan
            .layers
            .iter()
            .map(|layer| match layer {
                PlanLayer::Conv(conv) => conv
                    .filters
                    .iter()
                    .map(|filter| conv.block.weight_streams(filter))
                    .collect::<Result<Vec<_>, _>>(),
                PlanLayer::Dense(dense) => dense
                    .units
                    .iter()
                    .map(|unit| dense.block.weight_streams(unit))
                    .collect::<Result<Vec<_>, _>>(),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            plan,
            weights,
            cache: StreamCache::new(cache_capacity),
            arena: StreamArena::new(),
            sng: BatchSng::new(SngKind::Lfsr32),
            keys: HashSet::new(),
            epoch,
        })
    }

    /// Distinct `(lane seed, threshold)` keys acquired so far.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Replays one inference.
    ///
    /// # Errors
    ///
    /// Propagates kernel and encoding errors.
    pub fn infer(&mut self, image: &Tensor) -> Result<Replayed, ScError> {
        let started = self.epoch.elapsed();
        let mut values = self.plan.input_values(image);
        let mut layers = Vec::with_capacity(self.plan.layers.len());
        let mut layer_spans = Vec::with_capacity(self.plan.layers.len());
        let mut keys = Vec::new();
        for index in 0..self.plan.layers.len() {
            let layer_started = self.epoch.elapsed();
            let mut phases = LayerPhases::default();
            values = self.layer(index, &values, &mut phases, &mut keys)?;
            // `fill_hit` was timed around the SNG fills too.
            phases.fill_hit = phases.fill_hit.saturating_sub(phases.sng_miss);
            layer_spans.push((layer_started, self.epoch.elapsed()));
            layers.push(phases);
        }
        let span = (started, self.epoch.elapsed());
        self.keys.extend(keys);
        Ok(Replayed {
            inference: Inference::from_logits(values),
            layers,
            span,
            layer_spans,
        })
    }

    fn layer(
        &mut self,
        index: usize,
        values: &[f64],
        phases: &mut LayerPhases,
        keys: &mut Vec<(u64, u32)>,
    ) -> Result<Vec<f64>, ScError> {
        let bits = self.plan.stream_length.bits();
        let layer_weights = &self.weights[index];
        match &self.plan.layers[index] {
            PlanLayer::Conv(conv) => {
                let [filters, pooled_h, pooled_w] = conv.out_shape;
                let positions = pooled_h * pooled_w;
                let units: Vec<&[Vec<BitStream>]> = layer_weights
                    .iter()
                    .take(filters)
                    .map(Vec::as_slice)
                    .collect();
                let t = Instant::now();
                let selectors = conv.block.prepare_selectors(bits)?;
                phases.block += t.elapsed();
                let mut outputs = vec![0.0f64; filters * positions];
                for position in 0..positions {
                    let t = Instant::now();
                    let fields =
                        conv.gather_fields(values, position / pooled_w, position % pooled_w);
                    let inputs = acquire(
                        &mut self.cache,
                        &mut self.arena,
                        &mut self.sng,
                        self.plan,
                        &conv.block,
                        &fields,
                        phases,
                        keys,
                    )?;
                    phases.fill_hit += t.elapsed();
                    let t = Instant::now();
                    let streams = conv.block.evaluate_layer_prepared_with(
                        &selectors,
                        &inputs,
                        &units,
                        &mut self.arena,
                    );
                    for field in inputs {
                        self.arena.recycle_all(field);
                    }
                    let streams = streams?;
                    phases.block += t.elapsed();
                    let t = Instant::now();
                    for (filter, stream) in streams.iter().enumerate() {
                        outputs[filter * positions + position] = stream.bipolar_value();
                    }
                    self.arena.recycle_all(streams);
                    phases.decode += t.elapsed();
                }
                Ok(outputs)
            }
            PlanLayer::Dense(dense) => {
                let units: Vec<&[Vec<BitStream>]> =
                    layer_weights.iter().map(Vec::as_slice).collect();
                let t = Instant::now();
                let field = vec![values.to_vec()];
                let inputs = acquire(
                    &mut self.cache,
                    &mut self.arena,
                    &mut self.sng,
                    self.plan,
                    &dense.block,
                    &field,
                    phases,
                    keys,
                )?;
                phases.fill_hit += t.elapsed();
                let t = Instant::now();
                let selectors = dense.block.prepare_selectors(bits)?;
                let streams = dense.block.evaluate_layer_prepared_with(
                    &selectors,
                    &inputs,
                    &units,
                    &mut self.arena,
                );
                for field in inputs {
                    self.arena.recycle_all(field);
                }
                let streams = streams?;
                phases.block += t.elapsed();
                let t = Instant::now();
                let outputs = streams.iter().map(BitStream::bipolar_value).collect();
                self.arena.recycle_all(streams);
                phases.decode += t.elapsed();
                Ok(outputs)
            }
        }
    }
}

/// The engine's input-stream acquisition, call for call: one
/// `StreamCache::get_or_generate` per (field, lane) whose miss closure runs
/// `BatchSng::fill_probability`. Only the closure is timed here.
#[allow(clippy::too_many_arguments)]
fn acquire(
    cache: &mut StreamCache,
    arena: &mut StreamArena,
    sng: &mut BatchSng,
    plan: &Plan,
    block: &FeatureBlock,
    fields: &[Vec<f64>],
    phases: &mut LayerPhases,
    keys: &mut Vec<(u64, u32)>,
) -> Result<Vec<Vec<BitStream>>, ScError> {
    let length = plan.stream_length;
    let mut inputs = Vec::with_capacity(fields.len());
    for (field_index, field) in fields.iter().enumerate() {
        let (input_base, _) = block.operand_bank_seeds(field_index);
        let mut streams = Vec::with_capacity(field.len());
        for (lane, &value) in field.iter().enumerate() {
            let lane_seed = SngBank::lane_seed(input_base, lane);
            let probability = Bipolar::to_probability(value)?;
            let threshold = probability_threshold(probability)?;
            keys.push((lane_seed, threshold));
            phases.acquisitions += 1;
            let stream = cache.get_or_generate((lane_seed, threshold), length, arena, |arena| {
                let t = Instant::now();
                let mut fresh = arena.take_zeroed(length);
                let filled = sng.fill_probability(lane_seed, probability, &mut fresh);
                phases.sng_miss += t.elapsed();
                phases.misses += 1;
                filled.map(|()| fresh)
            })?;
            streams.push(stream);
        }
        inputs.push(streams);
    }
    Ok(inputs)
}

/// The replay of a window of traced requests.
pub struct Report {
    /// Per layer, summed over the measured requests.
    pub layers: Vec<LayerPhases>,
    /// Requests measured (the second half of the window).
    pub measured: usize,
    /// Median over measured requests of summed replay phases over the
    /// `Engine::infer` wall time of the same request.
    pub phase_sum_ratio: f64,
    /// Whether every replayed answer equalled `Engine::infer` bit for bit.
    pub bit_exact: bool,
    /// Distinct keys the window touched over the cache capacity (largest
    /// over models).
    pub working_set_ratio: f64,
    /// `replay` spans with one `replay.layer<i>` child per layer.
    pub spans: Vec<Span>,
}

const LAYER_SPANS: [&str; 4] = [
    "replay.layer0",
    "replay.layer1",
    "replay.layer2",
    "replay.layer3",
];

/// Replays [`WINDOW`] consecutive `records` from a seeded offset, each
/// through its model's replayer and through `Engine::infer` on a session
/// without unit fan-out that sees the same requests in the same order.
pub fn window(
    engines: &[Arc<Engine>],
    seed: u64,
    records: &[Record],
    epoch: Instant,
) -> Result<Report, String> {
    let capacity = engines[0].options().cache_capacity;
    let mut replayers = engines
        .iter()
        .map(|engine| Replayer::new(engine.plan(), capacity, epoch))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut sessions: Vec<_> = engines
        .iter()
        .map(|engine| {
            let mut session = engine.new_session();
            session.set_unit_fan_out(false);
            session
        })
        .collect();
    let length = WINDOW.min(records.len());
    let start = (splitmix64(seed ^ 0x007e_91a7) % (records.len() - length + 1) as u64) as usize;
    let mut layers = vec![LayerPhases::default(); engines[0].plan().layers.len()];
    let mut ratios = Vec::new();
    let mut bit_exact = true;
    let mut spans = Vec::new();
    for (position, record) in records[start..start + length].iter().enumerate() {
        let model = usize::from(record.model);
        let (image, _) = frame(seed, record.frame);
        let replayed = replayers[model].infer(&image).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let inference = engines[model]
            .infer(&mut sessions[model], &image)
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed();
        bit_exact &= replayed.inference == inference;
        let root = spans.len();
        let span = |name, parent, (start, end)| Span {
            name,
            request: record.index,
            parent,
            start,
            end,
        };
        spans.push(span("replay", None, replayed.span));
        for (layer, &layer_span) in replayed.layer_spans.iter().enumerate() {
            spans.push(span(LAYER_SPANS[layer.min(3)], Some(root), layer_span));
        }
        if position < length / 2 {
            continue;
        }
        let phase_sum: Duration = replayed.layers.iter().map(LayerPhases::total).sum();
        ratios.push(phase_sum.as_secs_f64() / wall.as_secs_f64());
        for (total, layer) in layers.iter_mut().zip(&replayed.layers) {
            total.add(layer);
        }
    }
    let working_set = replayers
        .iter()
        .map(Replayer::distinct_keys)
        .max()
        .unwrap_or(0);
    Ok(Report {
        layers,
        measured: ratios.len(),
        phase_sum_ratio: median(&ratios).unwrap_or(0.0),
        bit_exact,
        working_set_ratio: working_set as f64 / capacity as f64,
        spans,
    })
}
