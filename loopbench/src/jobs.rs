//! Sweep-style jobs: one portfolio race of one (code, rate) cell, driven
//! exactly the way `asynd_server::sweep::run_cell` drives it — the same
//! standard portfolio, job seed, per-strategy grant, evaluator and
//! tenant salt — so a job here reproduces the sweep's records for its
//! cell bit for bit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asynd_circuit::{
    DecoderFactory, EstimateOptions, Evaluator, EvaluatorMetrics, EvaluatorStats,
    LogicalErrorEstimate, Schedule, DEFAULT_CACHE_CAPACITY,
};
use asynd_codes::catalog::{families, CatalogEntry};
use asynd_decode::factory_for;
use asynd_portfolio::{Portfolio, PortfolioConfig};
use asynd_server::protocol::{CodeRef, NoiseSpec};
use asynd_server::{tenant_salt, TenantMap};
use asynd_sim::mix_seed;
use asynd_telemetry::MetricsRegistry;
use serde_json::{Map, Value};

use crate::layers::{LayerTotals, TracedFactory};

/// FNV-1a over bytes: the hash the sweep derives job seeds from.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One (code, rate) cell with the budget it is raced under.
#[derive(Clone)]
pub struct Job {
    /// Registry family name.
    pub family: &'static str,
    /// The resolved catalog entry (code and decoder).
    pub entry: CatalogEntry,
    /// Index of the entry within its family.
    pub entry_index: usize,
    /// Physical error rate (a `scaled(rate)` noise model).
    pub rate: f64,
    /// Per-strategy grant as a multiple of `total_checks + 2`.
    pub budget_multiplier: u64,
    /// Monte-Carlo shots per evaluation.
    pub shots: usize,
}

impl Job {
    /// The cell key the sweep uses as job id and seed stream.
    pub fn key(&self) -> String {
        format!("{}[{}]@{}", self.family, self.entry_index, self.rate)
    }

    /// The canonical tenant key a schedule server resolves for this cell.
    pub fn tenant(&self) -> String {
        let code = CodeRef { family: self.family.to_string(), index: self.entry_index };
        TenantMap::canonical_key(&code, &NoiseSpec::Scaled(self.rate), self.shots)
    }

    /// Per-strategy evaluation grant.
    pub fn grant(&self) -> u64 {
        let total_checks: u64 =
            self.entry.code.stabilizers().iter().map(|s| s.weight() as u64).sum();
        (total_checks + 2) * self.budget_multiplier
    }

    /// The portfolio seed, derived from the workload seed as the sweep
    /// derives it from its master seed.
    pub fn seed(&self, workload_seed: u64) -> u64 {
        mix_seed(workload_seed, fnv64(self.key().as_bytes()))
    }

    /// A fresh evaluator configured as the sweep configures one.
    pub fn evaluator(&self, factory: Arc<dyn DecoderFactory + Send + Sync>) -> Evaluator {
        let options = EstimateOptions { max_threads: Some(1), ..EstimateOptions::default() };
        Evaluator::with_capacity(
            NoiseSpec::Scaled(self.rate).to_model().expect("catalog rates are probabilities"),
            factory,
            self.shots,
            options,
            DEFAULT_CACHE_CAPACITY,
        )
    }

    /// The job's description in the self-describing output.
    pub fn describe(&self) -> Value {
        let code = &self.entry.code;
        let mut map = Map::new();
        map.insert("key", Value::from(self.key()));
        map.insert("code", Value::from(self.entry.display_label()));
        map.insert("qubits", Value::from(code.num_qubits()));
        map.insert("stabilizers", Value::from(code.stabilizers().len()));
        map.insert("decoder", Value::from(self.entry.decoder.label()));
        map.insert("rate", Value::from(self.rate));
        map.insert("shots", Value::from(self.shots));
        map.insert("grant_per_strategy", Value::from(self.grant()));
        Value::Object(map)
    }
}

/// The cells of a sweep grid in the sweep's order (family registry order
/// × entry order × rate order), each entry filtered by `max_qubits`.
pub fn cells(
    family_names: &[&str],
    rates: &[f64],
    max_qubits: usize,
    budget_multiplier: u64,
    shots: usize,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for family in families().into_iter().filter(|f| family_names.contains(&f.name)) {
        for (entry_index, entry) in family.entries_within(max_qubits).enumerate() {
            for &rate in rates {
                jobs.push(Job {
                    family: family.name,
                    entry: entry.clone(),
                    entry_index,
                    rate,
                    budget_multiplier,
                    shots,
                });
            }
        }
    }
    jobs
}

/// One strategy's result within a race.
#[derive(Clone, PartialEq)]
pub struct StrategyOutcome {
    /// Strategy name.
    pub name: String,
    /// The strategy's best schedule.
    pub schedule: Schedule,
    /// Its estimate from the shared evaluator.
    pub estimate: LogicalErrorEstimate,
    /// Metered evaluation spend.
    pub metered: u64,
}

/// What one race produced. `outputs_equal` compares everything but
/// wall-clock and the trace.
pub struct JobOutcome {
    /// The job's cell key.
    pub key: String,
    /// Per-strategy results in registration order.
    pub strategies: Vec<StrategyOutcome>,
    /// Index of the winning strategy.
    pub winner: usize,
    /// The evaluator's cache counters after the race.
    pub stats: EvaluatorStats,
    /// Wall-clock of `run_with_seeds`.
    pub wall: Duration,
    /// The layer split, when the race was traced.
    pub layers: Option<LayerTotals>,
}

impl JobOutcome {
    /// Whether two races produced the same results (timings aside).
    pub fn outputs_equal(&self, other: &JobOutcome) -> bool {
        self.key == other.key
            && self.strategies == other.strategies
            && self.winner == other.winner
            && self.stats == other.stats
    }

    /// The outputs the golden file records: per-strategy schedule keys,
    /// failure counts and evaluations.
    pub fn golden(&self) -> Value {
        let strategies = self
            .strategies
            .iter()
            .enumerate()
            .map(|(index, s)| {
                let mut map = Map::new();
                map.insert("strategy", Value::from(s.name.as_str()));
                map.insert("schedule_key", Value::from(s.schedule.key().to_hex()));
                map.insert("x_failures", Value::from(s.estimate.x_failures));
                map.insert("z_failures", Value::from(s.estimate.z_failures));
                map.insert("any_failures", Value::from(s.estimate.any_failures));
                map.insert("shots", Value::from(s.estimate.shots));
                map.insert("evaluations", Value::from(s.metered));
                map.insert("winner", Value::from(index == self.winner));
                Value::Object(map)
            })
            .collect();
        let mut map = Map::new();
        map.insert("job", Value::from(self.key.as_str()));
        map.insert("strategies", Value::Array(strategies));
        Value::Object(map)
    }
}

/// Races one job. With `trace`, the decoder factory is wrapped and the
/// evaluator reports into a private metrics registry, so the race's
/// wall-clock can be split into layers; the race's results are the same
/// either way.
///
/// # Errors
///
/// Returns the portfolio's failure as text.
pub fn run_job(job: &Job, workload_seed: u64, trace: bool) -> Result<JobOutcome, String> {
    let portfolio = Portfolio::standard(PortfolioConfig {
        seed: job.seed(workload_seed),
        budget_per_strategy: job.grant(),
        shots_per_evaluation: job.shots,
        worker_threads: 1,
        ..PortfolioConfig::default()
    });
    let factory = factory_for(job.entry.decoder);
    let (evaluator, traced) = if trace {
        let traced = Arc::new(TracedFactory::new(factory));
        let registry = MetricsRegistry::new();
        let evaluator = job.evaluator(traced.clone());
        evaluator.set_metrics(EvaluatorMetrics::register(&registry, &[]));
        (evaluator, Some((traced, registry)))
    } else {
        (job.evaluator(factory), None)
    };
    let evaluator = Arc::new(evaluator);
    let salt = tenant_salt(&job.tenant());
    let started = Instant::now();
    let report = portfolio
        .run_with_seeds(&job.entry.code, evaluator.clone(), salt, &[])
        .map_err(|e| format!("{}: {e}", job.key()))?;
    let wall = started.elapsed();
    let strategies = report
        .strategies
        .iter()
        .map(|s| StrategyOutcome {
            name: s.name.clone(),
            schedule: s.outcome.schedule.clone(),
            estimate: s.outcome.estimate,
            metered: s.metered,
        })
        .collect();
    let stats = evaluator.stats();
    let layers = traced.map(|(factory, registry)| {
        let score_requests = report.strategies.iter().map(|s| s.metered).sum();
        LayerTotals::from_race(wall, &factory, &registry.snapshot(), stats, score_requests)
    });
    Ok(JobOutcome { key: job.key(), strategies, winner: report.winner, stats, wall, layers })
}
