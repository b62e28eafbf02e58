//! The three workloads, their runs, and the metrics each run reports.
//!
//! A run sets up (several times, reporting the median), then repeats
//! *passes* — one pass is the workload's whole fixed job list or request
//! stream — until the next pass would overrun the measuring time (at
//! least one pass; a traced sweep run alternates untraced and traced
//! passes, at least one of each). Outputs are checked after the clock
//! stops.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use asynd_server::protocol::Response;
use asynd_telemetry::MetricsSnapshot;
use serde_json::{Map, Value};

use crate::check::{check_job, load_golden, write_golden, DEFAULT_SEED};
use crate::host::{cpu_seconds, peak_rss_mb};
use crate::jobs::{cells, run_job, Job, JobOutcome};
use crate::layers::LayerTotals;
use crate::serve::{self, Exchange, Op, ServePass};

/// How many times a run sets up before measuring; `setup_s` is the
/// median. Set-up takes milliseconds (the catalog for a sweep, a server
/// start for `serve-tenant`), so it takes many repetitions for the
/// median to settle on a shared host.
pub const SETUP_REPS: usize = 201;
/// Worker threads the sweep-style jobs fan out over, in list order.
pub const SWEEP_WORKERS: usize = 2;

/// The end-to-end metrics every workload reports (name, unit): the
/// figures steady enough across seeds to gate a change on. Per-job
/// latencies and peak RSS are printed beside them but not gated: a
/// single job's time follows its own search trajectory, and peak RSS
/// follows which jobs overlap on the two workers.
pub const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s")];

/// The per-layer metrics of a traced run (name, unit).
pub const PER_LAYER: [(&str, &str); 25] = [
    ("search.score_requests", "count"),
    ("search.self_s", "s"),
    ("evaluator.hits", "count"),
    ("evaluator.misses", "count"),
    ("evaluator.hit_ratio", "ratio"),
    ("evaluator.evictions", "count"),
    ("dem.builds", "count"),
    ("dem.build_s", "s"),
    ("decoder.build_s", "s"),
    ("sim.sample_score_s", "s"),
    ("decode.calls", "count"),
    ("decode.shots", "count"),
    ("decode.hard_shots", "count"),
    ("decode.hard_ratio", "ratio"),
    ("decode.s", "s"),
    ("decode.us_per_hard_shot", "us"),
    ("registry.lookup_ms_mean", "ms"),
    ("registry.store_ms_mean", "ms"),
    ("registry.warm_starts", "count"),
    ("server.queue_wait_ms_mean", "ms"),
    ("server.job_ms_mean", "ms"),
    ("net.overhead_ms_p50", "ms"),
    ("net.ctl_ms_p50", "ms"),
    ("net.ctl_ms_tail", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Counts that repeat exactly at the default seed and are pinned in the
/// golden file; a traced run fails when one differs.
const PINNED: [&str; 5] = [
    "evaluator.misses",
    "dem.builds",
    "decode.shots",
    "decode.hard_shots",
    "search.score_requests",
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BP-OSD colour-code races: residual decoding is ~99 % of the work.
    BposdColour,
    /// Low-p matching and union-find races: DEM construction leads.
    MatchLowp,
    /// A loopback server under two closed-loop clients.
    ServeTenant,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::BposdColour, Workload::MatchLowp, Workload::ServeTenant];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BposdColour => "bposd-colour",
            Workload::MatchLowp => "match-lowp",
            Workload::ServeTenant => "serve-tenant",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One sentence on why the workload was chosen.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BposdColour => {
                "BP-OSD residual decoding is ~99 % of the work, over the widest detector rows \
                 in the catalog (the d=5 job), while DEM construction is small: it exercises \
                 the BP layer and bypasses DEM construction."
            }
            Workload::MatchLowp => {
                "At p = 1e-3 the pre-screen serves most shots, so DEM construction leads and \
                 MWPM / union-find decoding is most of the rest, with no BP at all: it \
                 exercises DEM construction and bypasses BP."
            }
            Workload::ServeTenant => {
                "The only workload where the reactor, both wire protocols, the registry \
                 (warm-start reads beside winner writes) and the job queue do work, with \
                 evaluator cache hits across jobs of a tenant. Jobs are the fleet \
                 coordinator's smoke-sweep cells, each preceded by its registry lookup as \
                 the coordinator does it and followed by one ping."
            }
        }
    }

    /// The sweep-style job list (empty for `serve-tenant`).
    pub fn jobs(self) -> Vec<Job> {
        match self {
            Workload::BposdColour => {
                let mut jobs = cells(
                    &["hexagonal-color", "square-octagonal-color"],
                    &[1e-3, 3e-3, 7.4e-3],
                    7,
                    2,
                    600,
                );
                // The square-octagonal d=5 substitute [[25,1,5]] at the
                // smallest grant and a quarter of the shots, so it takes
                // about half a pass.
                jobs.extend(
                    cells(&["square-octagonal-color"], &[1e-3], 25, 1, 150)
                        .into_iter()
                        .filter(|job| job.entry_index == 1),
                );
                jobs
            }
            Workload::MatchLowp => cells(
                &["rotated-surface", "defect-surface", "hyperbolic-surface", "xzzx", "hgp"],
                &[1e-3],
                30,
                2,
                600,
            ),
            Workload::ServeTenant => Vec::new(),
        }
    }

    /// What the workload runs, in the self-describing output.
    pub fn describe(self) -> Value {
        let mut map = Map::new();
        map.insert("name", Value::from(self.name()));
        map.insert("why", Value::from(self.why()));
        if self == Workload::ServeTenant {
            let tenants = serve::tenants().iter().map(|t| Value::from(t.key())).collect();
            map.insert("tenants", Value::Array(tenants));
            map.insert("clients", Value::from("2 closed-loop: client 0 speaks v1, client 1 v2; client c owns tenants with index % 2 == c"));
            map.insert("jobs_per_client", Value::from(serve::JOBS_PER_CLIENT));
            map.insert(
                "requests_per_job",
                Value::from("lookup of the job's tenant, synthesize, ping"),
            );
            map.insert("job_budget", Value::from(serve::BUDGET));
            map.insert("job_shots", Value::from(serve::SHOTS));
            map.insert(
                "server",
                Value::from("1 worker, 1 reactor, registry in a fresh directory per pass"),
            );
        } else {
            let jobs = self.jobs();
            map.insert("workers", Value::from(SWEEP_WORKERS));
            map.insert("jobs", Value::Array(jobs.iter().map(Job::describe).collect()));
        }
        map.insert("layers", layer_table());
        Value::Object(map)
    }
}

/// The layer → metric table: which end-to-end metric each layer should
/// move, on which workload.
pub fn layer_table() -> Value {
    let rows: [(&str, &str, &str, &str); 9] = [
        ("search", "core, portfolio", "search.score_requests, search.self_s", "~0.5 % of race wall: no move anywhere"),
        ("evaluator cache", "circuit", "evaluator.hits, evaluator.misses, evaluator.hit_ratio, evaluator.evictions", "wall_s, cpu_s and synthesize latency on serve-tenant; fixed by the search on sweeps"),
        ("DEM construction", "circuit", "dem.builds, dem.build_s", "wall_s, cpu_s and job walls on match-lowp (~60 %); little on bposd-colour"),
        ("decoder construction", "decode", "decoder.build_s", "<= 1.2 %: no measurable move"),
        ("sampling + scoring", "sim", "sim.sample_score_s", "< 1 %: no measurable move"),
        ("batch decode", "decode", "decode.calls, decode.shots, decode.hard_shots, decode.hard_ratio, decode.s, decode.us_per_hard_shot", "BP: wall_s, cpu_s and job walls on bposd-colour (> 90 %), none on match-lowp; MWPM/UF: match-lowp (~36 %)"),
        ("registry", "registry", "registry.lookup_ms_mean, registry.store_ms_mean, registry.warm_starts", "synthesize latency on serve-tenant; zero on sweeps"),
        ("server + net", "server, net", "server.queue_wait_ms_mean, server.job_ms_mean, net.overhead_ms_p50, net.ctl_ms_p50, net.ctl_ms_tail", "wall_s, synthesize and control latency on serve-tenant; zero on sweeps"),
        ("tracing", "loopbench", "trace.overhead_ratio", "-"),
    ];
    Value::Array(
        rows.iter()
            .map(|(layer, modules, metrics, moves)| {
                let mut map = Map::new();
                map.insert("layer", Value::from(*layer));
                map.insert("modules", Value::from(*modules));
                map.insert("metrics", Value::from(*metrics));
                map.insert("moves", Value::from(*moves));
                Value::Object(map)
            })
            .collect(),
    )
}

/// Run options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload seed.
    pub seed: u64,
    /// How long the passes may take, in total.
    pub seconds: u64,
    /// Whether to run the traced passes and report per-layer metrics.
    pub trace: bool,
    /// Record the golden copy and pinned counts (default seed only).
    pub record_golden: bool,
}

/// A metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Jobs or requests attempted, over all passes.
    pub attempted: u64,
    /// Of those, errored or failed an output check.
    pub failed: u64,
    /// Run-level problems (golden missing, pinned count mismatch, layer
    /// split not reconciling).
    pub problems: Vec<String>,
    /// The `BENCHMARK.json` metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Further end-to-end figures printed in the report only.
    pub extra: Vec<Metric>,
    /// Run details for the self-describing output.
    pub details: Map,
}

impl RunReport {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The highest sample with at least ten samples above it (the maximum
/// when there are fewer than eleven), with the percentile it stands at.
fn tail(values: &mut [f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let index = if n < 11 { n - 1 } else { n - 11 };
    (values[index], 100.0 * (index + 1) as f64 / n as f64)
}

/// Every pass's wall-clock in run order, traced ones tagged.
fn pass_walls(passes: impl Iterator<Item = (bool, Duration)>) -> Value {
    Value::Array(
        passes
            .map(|(traced, wall)| {
                let seconds = Value::from(wall.as_secs_f64());
                if traced {
                    let mut map = Map::new();
                    map.insert("traced", seconds);
                    Value::Object(map)
                } else {
                    seconds
                }
            })
            .collect(),
    )
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs `workload` under `options`.
pub fn run(workload: Workload, options: &RunOptions) -> RunReport {
    match workload {
        Workload::ServeTenant => run_serve(options),
        sweep => run_sweep(sweep, options),
    }
}

/// Runs passes until the next would overrun `seconds` (at least one, or
/// one of each kind when `alternate` makes every second pass traced);
/// `pass(i, traced)` runs pass `i` and returns its wall-clock.
fn drive_passes(seconds: u64, alternate: bool, mut pass: impl FnMut(usize, bool) -> Duration) {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let minimum = if alternate { 2 } else { 1 };
    for index in 0.. {
        let traced = alternate && index % 2 == 1;
        let wall = pass(index, traced);
        if index + 1 >= minimum && started.elapsed() + wall > budget {
            break;
        }
    }
}

struct SweepPass {
    traced: bool,
    wall: Duration,
    cpu_s: f64,
    outcomes: Vec<Result<JobOutcome, String>>,
}

/// Races every job once, fanned out over [`SWEEP_WORKERS`] threads in
/// list order; outcomes come back in list order.
fn sweep_pass(jobs: &[Job], seed: u64, traced: bool) -> SweepPass {
    let slots: Vec<Mutex<Option<Result<JobOutcome, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let cpu = cpu_seconds();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SWEEP_WORKERS.min(jobs.len()) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                let outcome = run_job(job, seed, traced);
                *slots[index].lock().expect("a job thread panicked") = Some(outcome);
            });
        }
    });
    let wall = started.elapsed();
    let cpu_s = cpu_seconds() - cpu;
    let outcomes = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("a job thread panicked").expect("every job ran"))
        .collect();
    SweepPass { traced, wall, cpu_s, outcomes }
}

/// Runs `setup` [`SETUP_REPS`] times; returns the median time and the
/// last result.
fn setup_reps<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        last = Some(std::hint::black_box(setup()));
        times.push(started.elapsed().as_secs_f64());
    }
    (median(&mut times), last.expect("SETUP_REPS is positive"))
}

fn run_sweep(workload: Workload, options: &RunOptions) -> RunReport {
    let (setup_s, jobs) = setup_reps(|| workload.jobs());
    let mut passes: Vec<SweepPass> = Vec::new();
    drive_passes(options.seconds, options.trace, |_, traced| {
        let pass = sweep_pass(&jobs, options.seed, traced);
        let wall = pass.wall;
        passes.push(pass);
        wall
    });
    let rss = peak_rss_mb();
    let mut report = RunReport::default();

    // Checks, after the clock: the reference is the first untraced pass.
    let reference = &passes[0].outcomes;
    let golden = golden_outputs(workload, options, &mut report);
    let verdicts: Vec<Result<(), String>> = jobs
        .iter()
        .zip(reference)
        .enumerate()
        .map(|(index, (job, outcome))| {
            let outcome = outcome.as_ref().map_err(Clone::clone)?;
            check_job(job, outcome)?;
            match &golden {
                Some(golden) if golden.get(index) != Some(&outcome.golden()) => {
                    Err(format!("{}: outputs differ from the golden copy", outcome.key))
                }
                _ => Ok(()),
            }
        })
        .collect();
    let sameness = passes.iter().map(|pass| {
        pass.outcomes
            .iter()
            .zip(reference)
            .map(|pair| matches!(pair, (Ok(o), Ok(r)) if o.outputs_equal(r)))
            .collect()
    });
    tally(&mut report, &verdicts, sameness);

    let untraced: Vec<&SweepPass> = passes.iter().filter(|p| !p.traced).collect();
    let walls = |ps: &[&SweepPass]| {
        median(&mut ps.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>())
    };
    let job_walls = |pass: &SweepPass| -> Vec<f64> {
        pass.outcomes.iter().filter_map(|o| o.as_ref().ok()).map(|o| o.wall.as_secs_f64()).collect()
    };
    let wall_s = walls(&untraced);
    report.details.insert("passes", Value::from(untraced.len()));
    report.details.insert("pass_walls_s", pass_walls(passes.iter().map(|p| (p.traced, p.wall))));
    report.details.insert("jobs_per_pass", Value::from(jobs.len()));
    report.details.insert(
        "job_walls_s",
        Value::Array(
            reference
                .iter()
                .map(|o| Value::from(o.as_ref().map_or(0.0, |o| o.wall.as_secs_f64())))
                .collect(),
        ),
    );
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;

    if options.trace {
        let traced: Vec<&SweepPass> = passes.iter().filter(|p| p.traced).collect();
        let mut totals = LayerTotals::default();
        for outcome in traced[0].outcomes.iter().filter_map(|o| o.as_ref().ok()) {
            totals.add(outcome.layers.as_ref().expect("traced passes carry layers"));
        }
        if let Err(e) = totals.reconcile() {
            report.problems.push(format!("layer split does not reconcile: {e}"));
        }
        let overhead = walls(&traced) / wall_s - 1.0;
        report.metrics = layer_metrics(&totals, None, overhead);
        report.details.insert("layer_shares", layer_shares(&totals));
        pin_counts(workload, options, &report.metrics.clone(), &mut report);
    } else {
        let mut p50s: Vec<f64> = untraced.iter().map(|p| median(&mut job_walls(p))).collect();
        let mut tails: Vec<f64> = untraced.iter().map(|p| tail(&mut job_walls(p)).0).collect();
        let mut cpus: Vec<f64> = untraced.iter().map(|p| p.cpu_s).collect();
        report.metrics = vec![
            metric("wall_s", wall_s, "s"),
            metric("cpu_s", median(&mut cpus), "s"),
            metric("setup_s", setup_s, "s"),
        ];
        report.extra.push(metric("job_p50_s", median(&mut p50s), "s"));
        report.extra.push(metric("job_tail_s", median(&mut tails), "s"));
        report
            .details
            .insert("job_tail", Value::from(format!("max of {} jobs per pass", jobs.len())));
    }
    report.extra.push(metric("fail_ratio", fail_ratio, "ratio"));
    report.extra.push(metric("peak_rss_mb", rss, "MiB"));
    if options.record_golden {
        let outputs =
            reference.iter().map(|o| o.as_ref().map_or(Value::Null, JobOutcome::golden)).collect();
        if let Err(e) = record_golden(workload, options, Value::Array(outputs), &report.metrics) {
            report.problems.push(e);
        }
    }
    report
}

/// Counts every item of every pass as attempted, and as failed when its
/// verdict on the reference pass failed or its output in this pass
/// differs from the reference's (`sameness` has one flag per item per
/// pass). Distinct failure reasons become problems.
fn tally(
    report: &mut RunReport,
    verdicts: &[Result<(), String>],
    sameness: impl Iterator<Item = Vec<bool>>,
) {
    let mut diverged = false;
    for same in sameness {
        for (verdict, same) in verdicts.iter().zip(same) {
            report.attempted += 1;
            diverged |= verdict.is_ok() && !same;
            if verdict.is_err() || !same {
                report.failed += 1;
            }
        }
    }
    let mut reasons = BTreeMap::new();
    for reason in verdicts.iter().filter_map(|v| v.as_ref().err()) {
        *reasons.entry(reason.clone()).or_insert(0usize) += 1;
    }
    report.problems.extend(reasons.into_iter().map(|(reason, n)| format!("{reason} (x{n})")));
    if diverged {
        report.problems.push("a pass's outputs differ from the reference pass's".into());
    }
}

/// The per-layer metrics from a layer split (and, for the serve
/// workload, the server-side figures).
fn layer_metrics(totals: &LayerTotals, serve: Option<&ServeLayers>, overhead: f64) -> Vec<Metric> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let lookups = (totals.hits + totals.misses) as f64;
    let zero = ServeLayers::default();
    let serve = serve.unwrap_or(&zero);
    vec![
        metric("search.score_requests", totals.score_requests as f64, "count"),
        metric("search.self_s", totals.search_self_s(), "s"),
        metric("evaluator.hits", totals.hits as f64, "count"),
        metric("evaluator.misses", totals.misses as f64, "count"),
        metric("evaluator.hit_ratio", ratio(totals.hits as f64, lookups), "ratio"),
        metric("evaluator.evictions", totals.evictions as f64, "count"),
        metric("dem.builds", totals.dem_builds as f64, "count"),
        metric("dem.build_s", totals.dem_build_s(), "s"),
        metric("decoder.build_s", totals.decoder_build_s, "s"),
        metric("sim.sample_score_s", totals.sample_score_s(), "s"),
        metric("decode.calls", totals.decode_calls as f64, "count"),
        metric("decode.shots", totals.decode_shots as f64, "count"),
        metric("decode.hard_shots", totals.hard_shots as f64, "count"),
        metric(
            "decode.hard_ratio",
            ratio(totals.hard_shots as f64, totals.decode_shots as f64),
            "ratio",
        ),
        metric("decode.s", totals.decode_s, "s"),
        metric(
            "decode.us_per_hard_shot",
            ratio(totals.decode_s * 1e6, totals.hard_shots as f64),
            "us",
        ),
        metric("registry.lookup_ms_mean", serve.lookup_ms_mean, "ms"),
        metric("registry.store_ms_mean", serve.store_ms_mean, "ms"),
        metric("registry.warm_starts", serve.warm_starts, "count"),
        metric("server.queue_wait_ms_mean", serve.queue_wait_ms_mean, "ms"),
        metric("server.job_ms_mean", serve.job_ms_mean, "ms"),
        metric("net.overhead_ms_p50", serve.overhead_ms_p50, "ms"),
        metric("net.ctl_ms_p50", serve.ctl_ms_p50, "ms"),
        metric("net.ctl_ms_tail", serve.ctl_ms_tail, "ms"),
        metric("trace.overhead_ratio", overhead, "ratio"),
    ]
}

/// Each layer's share of the summed race walls.
fn layer_shares(totals: &LayerTotals) -> Value {
    let mut map = Map::new();
    let share =
        |value: f64| Value::from(if totals.race_s > 0.0 { value / totals.race_s } else { 0.0 });
    map.insert("race_s", Value::from(totals.race_s));
    map.insert("dem.build_s", share(totals.dem_build_s()));
    map.insert("decoder.build_s", share(totals.decoder_build_s));
    map.insert("decode.s", share(totals.decode_s));
    map.insert("sim.sample_score_s", share(totals.sample_score_s()));
    map.insert("search.self_s", share(totals.search_self_s()));
    Value::Object(map)
}

/// The golden outputs to compare against: only at the default seed, and
/// not while recording them. A missing golden copy is a problem.
fn golden_outputs(
    workload: Workload,
    options: &RunOptions,
    report: &mut RunReport,
) -> Option<Vec<Value>> {
    if options.seed != DEFAULT_SEED || options.record_golden {
        return None;
    }
    match load_golden(workload.name())
        .and_then(|doc| doc.get("outputs").and_then(Value::as_array).cloned())
    {
        Some(outputs) => Some(outputs),
        None => {
            report.problems.push(format!("no golden copy for {}", workload.name()));
            None
        }
    }
}

/// Compares the traced run's counts with their pinned values (default
/// seed only).
fn pin_counts(
    workload: Workload,
    options: &RunOptions,
    metrics: &[Metric],
    report: &mut RunReport,
) {
    if options.seed != DEFAULT_SEED || options.record_golden {
        return;
    }
    let Some(pinned) = load_golden(workload.name()).and_then(|doc| doc.get("pinned").cloned())
    else {
        report.problems.push(format!("no pinned counts for {}", workload.name()));
        return;
    };
    for m in metrics.iter().filter(|m| PINNED.contains(&m.name)) {
        let expected = pinned.get(m.name).and_then(Value::as_f64);
        if expected != Some(m.value) {
            report.problems.push(format!("{} = {} but {:?} is pinned", m.name, m.value, expected));
        }
    }
}

/// Writes the golden copy: outputs from the first untraced pass, pinned
/// counts from the traced one (so recording always traces).
fn record_golden(
    workload: Workload,
    options: &RunOptions,
    outputs: Value,
    metrics: &[Metric],
) -> Result<(), String> {
    if options.seed != DEFAULT_SEED || !options.trace {
        return Err("golden copies are recorded by a traced run at the default seed".into());
    }
    let mut pinned = Map::new();
    for m in metrics.iter().filter(|m| PINNED.contains(&m.name)) {
        pinned.insert(m.name, Value::from(m.value as u64));
    }
    let mut doc = Map::new();
    doc.insert("workload", Value::from(workload.name()));
    doc.insert("seed", Value::from(DEFAULT_SEED));
    doc.insert("pinned", Value::Object(pinned));
    doc.insert("outputs", outputs);
    write_golden(workload.name(), &Value::Object(doc))
}

/// Server-side layer figures of the serve workload.
#[derive(Debug, Default)]
struct ServeLayers {
    lookup_ms_mean: f64,
    store_ms_mean: f64,
    warm_starts: f64,
    queue_wait_ms_mean: f64,
    job_ms_mean: f64,
    overhead_ms_p50: f64,
    ctl_ms_p50: f64,
    ctl_ms_tail: f64,
}

fn histogram_prefix_sum_s(snapshot: &MetricsSnapshot, prefix: &str) -> f64 {
    snapshot
        .histograms
        .iter()
        .filter(|(name, _)| name.as_str() == prefix || name.starts_with(&format!("{prefix}{{")))
        .map(|(_, h)| h.sum as f64 * 1e-6)
        .sum()
}

fn histogram_mean_ms(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot.histograms.get(name).map_or(0.0, |h| h.mean() * 1e-3)
}

fn synth_latencies(pass: &ServePass) -> Vec<f64> {
    exchanges(pass)
        .filter(|e| matches!(e.op, Op::Synthesize { .. }))
        .map(|e| e.latency.as_secs_f64())
        .collect()
}

fn ctl_latencies(pass: &ServePass) -> Vec<f64> {
    exchanges(pass)
        .filter(|e| !matches!(e.op, Op::Synthesize { .. }))
        .map(|e| e.latency.as_secs_f64())
        .collect()
}

fn exchanges(pass: &ServePass) -> impl Iterator<Item = &Exchange> {
    pass.clients.iter().flatten()
}

/// Each request kind's share of the clients' summed latencies over every
/// pass: with one request outstanding per client, how the pass's
/// wall-clock divides between the kinds.
fn wall_share_by_kind(passes: &[&ServePass]) -> Value {
    let mut sums = [0.0f64; 3];
    for exchange in passes.iter().flat_map(|p| exchanges(p)) {
        let kind = match exchange.op {
            Op::Lookup { .. } => 0,
            Op::Synthesize { .. } => 1,
            Op::Ping => 2,
        };
        sums[kind] += exchange.latency.as_secs_f64();
    }
    let total: f64 = sums.iter().sum();
    let mut map = Map::new();
    for (kind, sum) in ["lookup", "synthesize", "ping"].into_iter().zip(sums) {
        map.insert(kind, Value::from(if total > 0.0 { sum / total } else { 0.0 }));
    }
    Value::Object(map)
}

fn run_serve(options: &RunOptions) -> RunReport {
    let scratch = &default_scratch();
    let mut report = RunReport::default();
    let mut setups: Vec<f64> = Vec::new();
    for rep in 0..SETUP_REPS {
        match serve::run_pass(options.seed, scratch, rep, false, 0) {
            Ok(pass) => setups.push(pass.setup.as_secs_f64()),
            Err(e) => report.problems.push(format!("set-up: {e}")),
        }
    }
    // The server always runs with its metrics registry, so a traced pass
    // does the same work inside the clock: it only scrapes the metrics
    // after the clock stops.
    let mut passes: Vec<(f64, ServePass)> = Vec::new();
    drive_passes(options.seconds, false, |index, _| {
        let cpu = cpu_seconds();
        let pass_index = SETUP_REPS + index;
        match serve::run_pass(
            options.seed,
            scratch,
            pass_index,
            options.trace,
            serve::JOBS_PER_CLIENT,
        ) {
            Ok(pass) => {
                let wall = pass.wall;
                passes.push((cpu_seconds() - cpu, pass));
                wall
            }
            Err(e) => {
                report.problems.push(format!("pass {index}: {e}"));
                Duration::from_secs(options.seconds)
            }
        }
    });
    let rss = peak_rss_mb();
    let Some((_, reference)) = passes.first() else {
        report.problems.push("no pass completed".into());
        report.attempted = 1;
        report.failed = 1;
        return report;
    };

    // Checks, after the clock.
    let golden = golden_outputs(Workload::ServeTenant, options, &mut report);
    let reference_golden: Vec<Value> = exchanges(reference).map(serve::golden_of).collect();
    let mut verdicts: Vec<Result<(), String>> =
        reference.clients.iter().flat_map(|client| serve::check_client(client)).collect();
    if let Some(golden) = &golden {
        for (index, verdict) in verdicts.iter_mut().enumerate() {
            if verdict.is_ok() && golden.get(index) != reference_golden.get(index) {
                *verdict = Err(format!("exchange {index} differs from the golden copy"));
            }
        }
    }
    tally(
        &mut report,
        &verdicts,
        passes.iter().map(|(_, pass)| serve::outputs_equal(pass, reference)),
    );

    let all: Vec<&ServePass> = passes.iter().map(|(_, pass)| pass).collect();
    let requests = exchanges(reference).count() as f64;
    let per_pass =
        |f: &dyn Fn(&ServePass) -> f64| median(&mut all.iter().map(|p| f(p)).collect::<Vec<_>>());
    let wall_s = per_pass(&|p| p.wall.as_secs_f64());
    let synth_p50 = per_pass(&|p| median(&mut synth_latencies(p)));
    let (_, synth_pct) = tail(&mut synth_latencies(reference));
    let synth_tail = per_pass(&|p| tail(&mut synth_latencies(p)).0);
    let ctl_p50 = per_pass(&|p| median(&mut ctl_latencies(p)));
    let (_, ctl_pct) = tail(&mut ctl_latencies(reference));
    let ctl_tail = per_pass(&|p| tail(&mut ctl_latencies(p)).0);
    report.details.insert("passes", Value::from(passes.len()));
    report.details.insert("pass_walls_s", pass_walls(all.iter().map(|p| (false, p.wall))));
    report.details.insert("requests_per_pass", Value::from(requests));
    report.details.insert("wall_share_by_kind", wall_share_by_kind(&all));
    report.details.insert(
        "job_tail",
        Value::from(format!(
            "p{synth_pct:.0} of {} synthesize latencies per pass",
            synth_latencies(reference).len()
        )),
    );
    report.details.insert(
        "ctl_tail",
        Value::from(format!(
            "p{ctl_pct:.0} of {} ping/lookup latencies per pass",
            ctl_latencies(reference).len()
        )),
    );
    report.details.insert("setup_reps", Value::from(setups.len()));
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;

    if options.trace {
        let (snapshot, tenants) = reference.scrape.as_ref().expect("traced passes scrape");
        let mut totals = LayerTotals::default();
        for (_, stats) in tenants {
            totals.hits += stats.hits;
            totals.misses += stats.misses;
            totals.evictions += stats.evictions;
            totals.dem_builds += stats.model_builds;
        }
        // The server builds its own decoders, so model build here is DEM
        // and decoder construction together, and decode time is the
        // estimator's own decode phase.
        totals.race_s = histogram_prefix_sum_s(snapshot, "asynd_job_synthesis_us");
        totals.model_build_s = histogram_prefix_sum_s(snapshot, "asynd_eval_model_build_us");
        totals.sample_s = histogram_prefix_sum_s(snapshot, "asynd_eval_sample_us");
        totals.decode_s = histogram_prefix_sum_s(snapshot, "asynd_eval_decode_us");
        totals.score_requests = exchanges(reference)
            .filter_map(|e| match &e.response {
                Ok(Response::Ok(outcome)) => Some(outcome.spent),
                _ => None,
            })
            .sum();
        if let Err(e) = totals.reconcile() {
            report.problems.push(format!("layer split does not reconcile: {e}"));
        }
        let mut overheads: Vec<f64> = exchanges(reference)
            .filter_map(|e| match &e.response {
                Ok(Response::Ok(outcome)) => Some(e.latency.as_secs_f64() * 1e3 - outcome.wall_ms),
                _ => None,
            })
            .collect();
        let serve_layers = ServeLayers {
            lookup_ms_mean: histogram_mean_ms(snapshot, "asynd_job_registry_lookup_us"),
            store_ms_mean: histogram_mean_ms(snapshot, "asynd_job_registry_store_us"),
            warm_starts: snapshot.counters.get("asynd_warm_starts_total").copied().unwrap_or(0)
                as f64,
            queue_wait_ms_mean: histogram_mean_ms(snapshot, "asynd_job_queue_wait_us"),
            job_ms_mean: histogram_mean_ms(snapshot, "asynd_job_wall_us"),
            overhead_ms_p50: median(&mut overheads),
            ctl_ms_p50: median(&mut ctl_latencies(reference)) * 1e3,
            ctl_ms_tail: tail(&mut ctl_latencies(reference)).0 * 1e3,
        };
        report.metrics = layer_metrics(&totals, Some(&serve_layers), 0.0);
        report.details.insert("layer_shares", layer_shares(&totals));
        report.details.insert(
            "not_measured",
            Value::from("decoder.build_s and decode.calls/shots/hard_shots: the server builds its own decoder factories, so decoder construction is inside dem.build_s and decode.s is the estimator's own decode phase; trace.overhead_ratio: the scrape runs after the clock stops, so tracing adds no timed work"),
        );
        pin_counts(Workload::ServeTenant, options, &report.metrics.clone(), &mut report);
    } else {
        let mut cpus: Vec<f64> = passes.iter().map(|(cpu, _)| *cpu).collect();
        report.metrics = vec![
            metric("wall_s", wall_s, "s"),
            metric("cpu_s", median(&mut cpus), "s"),
            metric("setup_s", median(&mut setups), "s"),
        ];
    }
    report.extra.extend([
        metric("fail_ratio", fail_ratio, "ratio"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("req_per_s", requests / wall_s, "1/s"),
        metric("synth_p50_ms", synth_p50 * 1e3, "ms"),
        metric("synth_tail_ms", synth_tail * 1e3, "ms"),
        metric("ctl_p50_ms", ctl_p50 * 1e3, "ms"),
        metric("ctl_tail_ms", ctl_tail * 1e3, "ms"),
    ]);
    if options.record_golden {
        let outputs = Value::Array(reference_golden);
        if let Err(e) = record_golden(Workload::ServeTenant, options, outputs, &report.metrics) {
            report.problems.push(e);
        }
    }
    report
}

/// The scratch directory for registries: inside the benchmark's own
/// directory, so a run writes nowhere else.
pub fn default_scratch() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}
