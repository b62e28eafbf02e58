//! The traced run's layer accounting, measured from outside the program.
//!
//! Sources: a wrapper [`DecoderFactory`] that times `build_batch` and
//! hands out decoders timing `decode_batch` (and counting the batch's
//! shots and ≥ 2-defect shots by the word-parallel pre-screen's own
//! rule), the evaluator's `asynd_eval_model_build_us` and
//! `asynd_eval_sample_us` histograms on a benchmark-owned registry, the
//! evaluator's cache counters and the portfolio's metered spend.
//!
//! Two layers are derived by subtraction: DEM construction is model
//! build minus decoder build, and search self time is race wall minus
//! model build minus sampling. Sampling-plus-scoring is sampling minus
//! decode. A negative remainder means a layer was counted twice; it is
//! reported as measured, never clamped, and fails the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asynd_circuit::{
    BatchObservableDecoder, DecoderFactory, DetectorErrorModel, EvaluatorStats, ObservableDecoder,
};
use asynd_pauli::BitVec;
use asynd_sim::{BatchDecoder, BatchShots, BitMatrix};
use asynd_telemetry::MetricsSnapshot;

/// Counters shared by a traced factory and every decoder it built.
/// Statistics only, so relaxed ordering suffices.
#[derive(Default)]
struct DecodeCounters {
    build_ns: AtomicU64,
    calls: AtomicU64,
    shots: AtomicU64,
    hard_shots: AtomicU64,
    decode_ns: AtomicU64,
}

/// Wraps a decoder factory, timing decoder construction and batch
/// decoding without changing what either returns.
pub struct TracedFactory {
    inner: Arc<dyn DecoderFactory + Send + Sync>,
    counters: Arc<DecodeCounters>,
}

impl TracedFactory {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn DecoderFactory + Send + Sync>) -> TracedFactory {
        TracedFactory { inner, counters: Arc::default() }
    }
}

impl DecoderFactory for TracedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self, dem: &DetectorErrorModel) -> Box<dyn ObservableDecoder + Send + Sync> {
        self.inner.build(dem)
    }

    fn build_batch(&self, dem: &DetectorErrorModel) -> Box<dyn BatchObservableDecoder> {
        let started = Instant::now();
        let inner = self.inner.build_batch(dem);
        add_elapsed(&self.counters.build_ns, started);
        Box::new(TracedDecoder { inner, counters: self.counters.clone() })
    }
}

struct TracedDecoder {
    inner: Box<dyn BatchObservableDecoder>,
    counters: Arc<DecodeCounters>,
}

impl ObservableDecoder for TracedDecoder {
    fn decode(&self, detectors: &BitVec) -> BitVec {
        self.inner.decode(detectors)
    }
}

impl BatchDecoder for TracedDecoder {
    fn decode_shot(&self, detectors: &BitVec) -> BitVec {
        self.inner.decode(detectors)
    }

    fn decode_batch(&self, shots: &BatchShots) -> BitMatrix {
        let counters = &self.counters;
        counters.calls.fetch_add(1, Ordering::Relaxed);
        counters.shots.fetch_add(shots.num_shots() as u64, Ordering::Relaxed);
        counters.hard_shots.fetch_add(hard_shots(&shots.detectors), Ordering::Relaxed);
        let started = Instant::now();
        let predictions = self.inner.decode_batch(shots);
        add_elapsed(&counters.decode_ns, started);
        predictions
    }
}

fn add_elapsed(counter: &AtomicU64, since: Instant) {
    let nanos = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(nanos, Ordering::Relaxed);
}

/// Shots with at least two firing detectors — the shots the pre-screen
/// hands to the residual decoder. Same saturating two-plane counter as
/// the pre-screen: `multi` is "≥ 2 defects" per shot lane.
fn hard_shots(detectors: &BitMatrix) -> u64 {
    let words = detectors.words_per_row();
    let mut hard = 0u64;
    for w in 0..words {
        let valid = if w + 1 == words { detectors.tail_mask() } else { u64::MAX };
        let mut any = 0u64;
        let mut multi = 0u64;
        for r in 0..detectors.rows() {
            let row = detectors.row_words(r)[w];
            multi |= any & row;
            any |= row;
        }
        hard += u64::from((multi & valid).count_ones());
    }
    hard
}

/// One traced race's (or a whole pass's) split into layers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Summed race wall-clock, seconds.
    pub race_s: f64,
    /// Evaluator model builds (DEM + frame model + decoder), seconds.
    pub model_build_s: f64,
    /// Evaluator sampling (sample + decode + score), seconds.
    pub sample_s: f64,
    /// Decoder construction inside the model builds, seconds.
    pub decoder_build_s: f64,
    /// Batch decoding inside sampling, seconds.
    pub decode_s: f64,
    /// `decode_batch` calls.
    pub decode_calls: u64,
    /// Shots handed to `decode_batch`.
    pub decode_shots: u64,
    /// Of those, shots with at least two defects.
    pub hard_shots: u64,
    /// Evaluator cache counters.
    pub hits: u64,
    /// Evaluator cache misses.
    pub misses: u64,
    /// Evaluator cache evictions.
    pub evictions: u64,
    /// DEM (model) constructions.
    pub dem_builds: u64,
    /// Score requests metered by the search strategies.
    pub score_requests: u64,
}

fn histogram_sum_s(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.histograms.get(name).map_or(0.0, |h| h.sum as f64 * 1e-6)
}

impl LayerTotals {
    /// The split of one race, from its traced factory, its evaluator's
    /// metrics snapshot and counters, and its metered spend.
    pub fn from_race(
        wall: Duration,
        factory: &TracedFactory,
        snapshot: &MetricsSnapshot,
        stats: EvaluatorStats,
        score_requests: u64,
    ) -> LayerTotals {
        let counters = &factory.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        LayerTotals {
            race_s: wall.as_secs_f64(),
            model_build_s: histogram_sum_s(snapshot, "asynd_eval_model_build_us"),
            sample_s: histogram_sum_s(snapshot, "asynd_eval_sample_us"),
            decoder_build_s: load(&counters.build_ns) as f64 * 1e-9,
            decode_s: load(&counters.decode_ns) as f64 * 1e-9,
            decode_calls: load(&counters.calls),
            decode_shots: load(&counters.shots),
            hard_shots: load(&counters.hard_shots),
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            dem_builds: stats.model_builds,
            score_requests,
        }
    }

    /// Adds another race's totals.
    pub fn add(&mut self, other: &LayerTotals) {
        self.race_s += other.race_s;
        self.model_build_s += other.model_build_s;
        self.sample_s += other.sample_s;
        self.decoder_build_s += other.decoder_build_s;
        self.decode_s += other.decode_s;
        self.decode_calls += other.decode_calls;
        self.decode_shots += other.decode_shots;
        self.hard_shots += other.hard_shots;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.dem_builds += other.dem_builds;
        self.score_requests += other.score_requests;
    }

    /// DEM construction: model build minus decoder build.
    pub fn dem_build_s(&self) -> f64 {
        self.model_build_s - self.decoder_build_s
    }

    /// Sampling and scoring: sampling minus decode.
    pub fn sample_score_s(&self) -> f64 {
        self.sample_s - self.decode_s
    }

    /// Search self time: race wall minus model build minus sampling.
    pub fn search_self_s(&self) -> f64 {
        self.race_s - self.model_build_s - self.sample_s
    }

    /// Why the split does not reconcile, if it does not. Search self time
    /// is the race wall's remainder, so the five layers sum to the race
    /// walls by construction; what can fail is a derived layer going
    /// negative, which means a layer was counted twice.
    pub fn reconcile(&self) -> Result<(), String> {
        for (name, value) in [
            ("search.self_s", self.search_self_s()),
            ("dem.build_s", self.dem_build_s()),
            ("sim.sample_score_s", self.sample_score_s()),
        ] {
            if value < 0.0 {
                return Err(format!("{name} = {value} s is negative: a layer was counted twice"));
            }
        }
        Ok(())
    }
}
