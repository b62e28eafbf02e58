//! Portfolio synthesis benchmarks.
//!
//! Beyond the human-readable criterion timings this bench writes a
//! machine-readable trajectory file, `BENCH_portfolio.json`: one record
//! per `(code, strategy)` solo run plus one per shared race, each
//! carrying the strategy name, code, wall-clock time, achieved
//! `p_overall` and the evaluation-cache hit rate. CI and notebook
//! tooling can diff these without scraping bench stdout.
//!
//! The report lands under `target/bench-reports/` by default (or
//! `$ASYND_BENCH_REPORT_DIR` when set, which is how CI collects it as a
//! workflow artifact) so local bench runs never dirty the worktree; the
//! tracked copy at the repository root is refreshed deliberately by
//! pointing `ASYND_BENCH_REPORT_DIR` at the repo root.
//!
//! `ASYND_BENCH_SMOKE=1` switches to a reduced-budget mode (smaller
//! grants, shots and sample counts) for CI smoke coverage.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use asynd_circuit::{estimate_logical_error, EstimateOptions, NoiseModel, Schedule};
use asynd_codes::{rotated_surface_code, steane_code, StabilizerCode};
use asynd_decode::UnionFindFactory;
use asynd_portfolio::{
    AnnealingSynthesizer, BeamSearchSynthesizer, LowestDepthSynthesizer, MctsSynthesizer,
    Portfolio, PortfolioConfig, Synthesizer,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Reduced-budget CI mode (`ASYND_BENCH_SMOKE=1`).
fn smoke() -> bool {
    std::env::var_os("ASYND_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

fn config() -> PortfolioConfig {
    PortfolioConfig {
        seed: 7,
        // The MCTS strategy needs `total_checks + 2` evaluations (26 for
        // steane, also 26 for surface d3), so the smoke grant stays just
        // above that floor.
        budget_per_strategy: if smoke() { 32 } else { 64 },
        shots_per_evaluation: if smoke() { 160 } else { 400 },
        ..PortfolioConfig::default()
    }
}

fn strategies() -> Vec<Box<dyn Synthesizer>> {
    vec![
        Box::new(MctsSynthesizer::default()),
        Box::new(AnnealingSynthesizer::default()),
        Box::new(BeamSearchSynthesizer::default()),
        Box::new(LowestDepthSynthesizer::new()),
    ]
}

/// One row of `BENCH_portfolio.json`.
struct Record {
    code: String,
    strategy: String,
    mode: &'static str,
    wall_ms: f64,
    p_overall: f64,
    cache_hit_rate: f64,
    evaluations: u64,
    winner: bool,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            "{{\"code\": \"{}\", \"strategy\": \"{}\", \"mode\": \"{}\", \
             \"wall_ms\": {:.3}, \"p_overall\": {:.6e}, \"cache_hit_rate\": {:.4}, \
             \"evaluations\": {}, \"winner\": {}}}",
            self.code,
            self.strategy,
            self.mode,
            self.wall_ms,
            self.p_overall,
            self.cache_hit_rate,
            self.evaluations,
            self.winner,
        )
    }
}

/// Runs every strategy solo (own evaluator: true per-strategy cache
/// behaviour) and once as a shared race, appending records.
fn collect_records(code: &StabilizerCode, label: &str, records: &mut Vec<Record>) {
    let noise = NoiseModel::brisbane();
    for strategy in strategies() {
        let name = strategy.name().to_string();
        let solo = Portfolio::new(config()).with_strategy(strategy);
        let report =
            solo.run(code, &noise, Arc::new(UnionFindFactory::new())).expect("solo run failed");
        let s = &report.strategies[0];
        records.push(Record {
            code: label.to_string(),
            strategy: name,
            mode: "solo",
            wall_ms: s.wall.as_secs_f64() * 1e3,
            p_overall: s.outcome.estimate.p_overall(),
            cache_hit_rate: report.evaluator.hit_rate(),
            evaluations: s.outcome.stats.evaluations,
            winner: false,
        });
    }

    let race = Portfolio::standard(config());
    let report =
        race.run(code, &noise, Arc::new(UnionFindFactory::new())).expect("shared race failed");
    for (index, s) in report.strategies.iter().enumerate() {
        records.push(Record {
            code: label.to_string(),
            strategy: s.name.clone(),
            mode: "shared-race",
            wall_ms: s.wall.as_secs_f64() * 1e3,
            p_overall: s.outcome.estimate.p_overall(),
            cache_hit_rate: report.evaluator.hit_rate(),
            evaluations: s.outcome.stats.evaluations,
            winner: index == report.winner,
        });
    }
    println!(
        "{label}: race winner {} (p_overall {:.3e}), shared cache hit rate {:.1}%",
        report.winning().name,
        report.winning().outcome.estimate.p_overall(),
        100.0 * report.evaluator.hit_rate(),
    );
}

/// One entry of the report's `phases` array: the sample/decode/score
/// wall-time split of the word-parallel estimation pipeline on one code
/// (union-find decoder, trivial schedule — the evaluator's inner loop).
struct PhaseRecord {
    code: String,
    sample_ms: f64,
    decode_ms: f64,
    score_ms: f64,
    wall_ms: f64,
}

impl PhaseRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"code\": \"{}\", \"sample_ms\": {:.3}, \"decode_ms\": {:.3}, \
             \"score_ms\": {:.3}, \"wall_ms\": {:.3}}}",
            self.code, self.sample_ms, self.decode_ms, self.score_ms, self.wall_ms,
        )
    }
}

/// Times one word-parallel estimation run per code and records its phase
/// split, so the decode-phase win the batch pipeline buys is tracked in
/// the same trajectory file as the synthesis numbers.
fn collect_phases(code: &StabilizerCode, label: &str, phases: &mut Vec<PhaseRecord>) {
    let schedule = Schedule::trivial(code);
    let shots = if smoke() { 256 } else { 1024 };
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let start = std::time::Instant::now();
    let (_, timings) = estimate_logical_error(
        code,
        &schedule,
        &NoiseModel::brisbane(),
        &UnionFindFactory::new(),
        shots,
        &EstimateOptions::default(),
        &mut rng,
    )
    .expect("phase probe failed");
    phases.push(PhaseRecord {
        code: label.to_string(),
        sample_ms: timings.sample_ms(),
        decode_ms: timings.decode_ms(),
        score_ms: timings.score_ms(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    });
}

/// Where trajectory reports go: `$ASYND_BENCH_REPORT_DIR` when set (CI
/// points it at its artifact directory; pointing it at the repo root
/// refreshes the tracked copy), `target/bench-reports/` otherwise — never
/// the worktree by default.
fn report_dir() -> PathBuf {
    match std::env::var_os("ASYND_BENCH_REPORT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports"),
    }
}

fn write_trajectory(records: &[Record], phases: &[PhaseRecord]) {
    let mut json = String::from("{\n  \"generated_by\": \"cargo bench -p asynd-bench --bench portfolio\",\n  \"records\": [\n");
    for (i, record) in records.iter().enumerate() {
        let _ = write!(json, "    {}", record.to_json());
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"phases\": [\n");
    for (i, phase) in phases.iter().enumerate() {
        let _ = write!(json, "    {}", phase.to_json());
        json.push_str(if i + 1 < phases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let dir = report_dir();
    std::fs::create_dir_all(&dir).expect("create bench report directory");
    let path = dir.join("BENCH_portfolio.json");
    std::fs::write(&path, json).expect("write BENCH_portfolio.json");
    println!("wrote {}", path.display());
}

fn bench_portfolio(c: &mut Criterion) {
    let mut records = Vec::new();
    let mut phases = Vec::new();
    collect_records(&steane_code(), "steane", &mut records);
    collect_records(&rotated_surface_code(3), "surface-d3", &mut records);
    collect_phases(&steane_code(), "steane", &mut phases);
    collect_phases(&rotated_surface_code(3), "surface-d3", &mut phases);
    collect_phases(&rotated_surface_code(5), "surface-d5", &mut phases);
    write_trajectory(&records, &phases);

    let mut group = c.benchmark_group("portfolio-steane");
    group.sample_size(if smoke() { 2 } else { 10 });
    let code = steane_code();
    group.bench_function("standard-race", |b| {
        b.iter(|| {
            let portfolio = Portfolio::standard(config());
            black_box(
                portfolio
                    .run(&code, &NoiseModel::brisbane(), Arc::new(UnionFindFactory::new()))
                    .unwrap(),
            )
        })
    });
    group.bench_function("mcts-only-equal-budget", |b| {
        b.iter(|| {
            // The MCTS-only baseline at the race's *total* budget
            // (4 strategies x per-strategy budget).
            let portfolio = Portfolio::new(PortfolioConfig {
                budget_per_strategy: 4 * config().budget_per_strategy,
                ..config()
            })
            .with_strategy(Box::new(MctsSynthesizer::default()));
            black_box(
                portfolio
                    .run(&code, &NoiseModel::brisbane(), Arc::new(UnionFindFactory::new()))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
