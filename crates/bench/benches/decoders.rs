//! Scalar-vs-word-parallel decoder benchmarks.
//!
//! For every decoder family (MWPM, union-find, BP-OSD) on steane and
//! surface-d5, this bench times the full estimation pipeline twice: the
//! historical per-shot scalar loop (`estimate_logical_error_scalar`, the
//! cross-check oracle) and the word-parallel batch path
//! (`estimate_logical_error`), which also reports the per-phase
//! sample/decode/score split measured inside the estimator.
//!
//! Beyond the criterion timings it writes `BENCH_decoders.json` — one
//! record per `(code, decoder, path)` carrying `wall_ms` plus the
//! `sample_ms`/`decode_ms`/`score_ms` phase members (zero for the scalar
//! path, which has no phase instrumentation) — in the same envelope
//! `asynd validate` checks. `ASYND_BENCH_SMOKE=1` reduces the shot budget
//! for CI smoke coverage.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use asynd_circuit::{
    estimate_logical_error, estimate_logical_error_scalar, DecoderFactory, EstimateOptions,
    NoiseModel, Schedule,
};
use asynd_codes::{rotated_surface_code, steane_code, StabilizerCode};
use asynd_decode::{BpOsdFactory, MwpmFactory, UnionFindFactory};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Reduced-budget CI mode (`ASYND_BENCH_SMOKE=1`).
fn smoke() -> bool {
    std::env::var_os("ASYND_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

fn shot_budget() -> usize {
    if smoke() {
        256
    } else {
        1024
    }
}

fn factories() -> Vec<(&'static str, Box<dyn DecoderFactory>)> {
    vec![
        ("mwpm", Box::new(MwpmFactory::new())),
        ("unionfind", Box::new(UnionFindFactory::new())),
        ("bp-osd", Box::new(BpOsdFactory::new())),
    ]
}

/// One row of `BENCH_decoders.json`.
struct Record {
    code: String,
    decoder: String,
    path: &'static str,
    shots: usize,
    wall_ms: f64,
    sample_ms: f64,
    decode_ms: f64,
    score_ms: f64,
    p_overall: f64,
    winner: bool,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            "{{\"code\": \"{}\", \"strategy\": \"{}\", \"decoder\": \"{}\", \
             \"path\": \"{}\", \"shots\": {}, \"wall_ms\": {:.3}, \
             \"sample_ms\": {:.3}, \"decode_ms\": {:.3}, \"score_ms\": {:.3}, \
             \"p_overall\": {:.6e}, \"cache_hit_rate\": 0.0, \
             \"evaluations\": {}, \"winner\": {}}}",
            self.code,
            format_args!("{}/{}", self.decoder, self.path),
            self.decoder,
            self.path,
            self.shots,
            self.wall_ms,
            self.sample_ms,
            self.decode_ms,
            self.score_ms,
            self.p_overall,
            self.shots,
            self.winner,
        )
    }
}

/// Times both pipelines for every decoder on `code`, appending records.
/// `winner` marks the faster path of each (code, decoder) pair.
fn collect_records(code: &StabilizerCode, label: &str, records: &mut Vec<Record>) {
    let schedule = Schedule::trivial(code);
    let noise = NoiseModel::brisbane();
    let shots = shot_budget();
    let options = EstimateOptions::default();
    for (name, factory) in factories() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let start = Instant::now();
        let scalar = estimate_logical_error_scalar(
            code,
            &schedule,
            &noise,
            factory.as_ref(),
            shots,
            &mut rng,
        )
        .expect("scalar estimate failed");
        let scalar_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let start = Instant::now();
        let (batched, timings) = estimate_logical_error(
            code,
            &schedule,
            &noise,
            factory.as_ref(),
            shots,
            &options,
            &mut rng,
        )
        .expect("word-parallel estimate failed");
        let batched_ms = start.elapsed().as_secs_f64() * 1e3;

        records.push(Record {
            code: label.to_string(),
            decoder: name.to_string(),
            path: "scalar",
            shots,
            wall_ms: scalar_ms,
            sample_ms: 0.0,
            decode_ms: 0.0,
            score_ms: 0.0,
            p_overall: scalar.p_overall(),
            winner: scalar_ms < batched_ms,
        });
        records.push(Record {
            code: label.to_string(),
            decoder: name.to_string(),
            path: "word-parallel",
            shots,
            wall_ms: batched_ms,
            sample_ms: timings.sample_ms(),
            decode_ms: timings.decode_ms(),
            score_ms: timings.score_ms(),
            p_overall: batched.p_overall(),
            winner: batched_ms <= scalar_ms,
        });
        println!(
            "{label}/{name}: scalar {scalar_ms:.2} ms, word-parallel {batched_ms:.2} ms \
             (sample {:.2} / decode {:.2} / score {:.2})",
            timings.sample_ms(),
            timings.decode_ms(),
            timings.score_ms(),
        );
    }
}

/// Where trajectory reports go: `$ASYND_BENCH_REPORT_DIR` when set, the
/// untracked `target/bench-reports/` otherwise.
fn report_dir() -> PathBuf {
    match std::env::var_os("ASYND_BENCH_REPORT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports"),
    }
}

fn write_trajectory(records: &[Record]) {
    let mut json = String::from(
        "{\n  \"generated_by\": \"cargo bench -p asynd-bench --bench decoders\",\n  \"records\": [\n",
    );
    for (i, record) in records.iter().enumerate() {
        let _ = write!(json, "    {}", record.to_json());
        json.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let dir = report_dir();
    std::fs::create_dir_all(&dir).expect("create bench report directory");
    let path = dir.join("BENCH_decoders.json");
    std::fs::write(&path, json).expect("write BENCH_decoders.json");
    println!("wrote {}", path.display());
}

fn bench_decoders(c: &mut Criterion) {
    let mut records = Vec::new();
    collect_records(&steane_code(), "steane", &mut records);
    collect_records(&rotated_surface_code(5), "surface-d5", &mut records);
    write_trajectory(&records);

    // Criterion coverage of the headline pair: union-find on surface-d5,
    // scalar loop vs word-parallel batch.
    let code = rotated_surface_code(5);
    let schedule = Schedule::trivial(&code);
    let noise = NoiseModel::brisbane();
    let shots = shot_budget();
    let factory = UnionFindFactory::new();
    let group_name = format!("decode-phase-{shots}-surface-d5-unionfind");
    let mut group = c.benchmark_group(&group_name);
    group.sample_size(10);
    group.bench_function("scalar-loop", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            black_box(
                estimate_logical_error_scalar(&code, &schedule, &noise, &factory, shots, &mut rng)
                    .unwrap(),
            )
        })
    });
    group.bench_function("word-parallel", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            black_box(
                estimate_logical_error(
                    &code,
                    &schedule,
                    &noise,
                    &factory,
                    shots,
                    &EstimateOptions::default(),
                    &mut rng,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_decoders);
criterion_main!(benches);
