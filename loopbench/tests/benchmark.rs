//! The benchmark's own tests: tracing must not change any race output,
//! serve passes must answer identically, a job must reproduce `asynd
//! sweep`'s records for its cell, no layer of the split may be negative,
//! and the golden copies must cover every job.
//!
//! Run with `cargo test --release --manifest-path loopbench/Cargo.toml`.

use asynd_loopbench::check::{check_job, load_golden, DEFAULT_SEED};
use asynd_loopbench::jobs::{cells, run_job, Job};
use asynd_loopbench::serve;
use asynd_loopbench::workload::{default_scratch, Workload, END_TO_END, PER_LAYER};
use asynd_server::sweep::{SweepConfig, SweepOptions};

fn job(family: &str, index: usize) -> Job {
    cells(&[family], &[1e-3], 30, 2, 600)
        .into_iter()
        .find(|job| job.entry_index == index)
        .expect("the catalog has the entry")
}

#[test]
fn tracing_changes_no_race_output() {
    for job in [job("hexagonal-color", 0), job("rotated-surface", 0), job("xzzx", 0)] {
        let plain = run_job(&job, DEFAULT_SEED, false).unwrap();
        let traced = run_job(&job, DEFAULT_SEED, true).unwrap();
        assert!(plain.outputs_equal(&traced), "{}: traced race differs", plain.key);
        assert!(plain.layers.is_none() && traced.layers.is_some());
    }
}

#[test]
fn serve_passes_answer_identically() {
    let scratch = default_scratch().join("test-serve-passes");
    let first = serve::run_pass(7, &scratch, 0, false, 3).unwrap();
    let second = serve::run_pass(7, &scratch, 1, true, 3).unwrap();
    assert!(second.scrape.is_some() && first.scrape.is_none());
    let same = serve::outputs_equal(&first, &second);
    assert_eq!(same.len(), 2 * 3 * serve::REQUESTS_PER_JOB);
    assert!(same.iter().all(|&s| s), "two serve passes answered differently");
    for client in &first.clients {
        assert!(serve::check_client(client).iter().all(Result::is_ok));
    }
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn hexagonal_colour_job_reproduces_the_sweep_records() {
    let job = job("hexagonal-color", 0);
    let outcome = run_job(&job, DEFAULT_SEED, false).unwrap();
    let config = SweepConfig {
        families: vec!["hexagonal-color".into()],
        error_rates: vec![1e-3],
        entries_per_family: 1,
        ..SweepConfig::standard()
    };
    let report = SweepOptions::with_config(config).local_workers(1).run().unwrap();
    assert_eq!(report.records.len(), outcome.strategies.len());
    for ((record, strategy), index) in report.records.iter().zip(&outcome.strategies).zip(0..) {
        assert_eq!(record.strategy, strategy.name);
        assert_eq!(record.schedule_key, strategy.schedule.key().to_hex());
        assert_eq!(record.p_overall, strategy.estimate.p_overall());
        assert_eq!(record.evaluations, strategy.metered);
        assert_eq!(record.winner, index == outcome.winner);
    }
    // The records `asynd sweep` computes for this cell at the default
    // seed (the tracked BENCH_sweep.json predates a salt change).
    let expected = [
        ("mcts", "e332cff2", 4),
        ("anneal", "a4d94553", 1),
        ("beam", "6da6714a", 1),
        ("lowest-depth", "e43022fc", 1),
    ];
    for (strategy, (name, prefix, failures)) in outcome.strategies.iter().zip(expected) {
        assert_eq!(strategy.name, name);
        assert!(strategy.schedule.key().to_hex().starts_with(prefix), "{name}");
        assert_eq!(strategy.estimate.any_failures, failures, "{name}");
        assert_eq!(strategy.estimate.shots, 600);
    }
    check_job(&job, &outcome).unwrap();
}

#[test]
fn the_layer_split_has_no_negative_layer() {
    for job in [job("rotated-surface", 0), job("hexagonal-color", 0)] {
        let outcome = run_job(&job, DEFAULT_SEED, true).unwrap();
        let layers = outcome.layers.unwrap();
        layers.reconcile().unwrap();
        assert_eq!(layers.misses, layers.dem_builds, "every miss builds one model");
        assert!(layers.hard_shots <= layers.decode_shots);
        assert_eq!(layers.decode_shots, layers.misses * job.shots as u64);
    }
}

#[test]
fn golden_copies_cover_every_job_and_pin_every_count() {
    for workload in Workload::ALL {
        let doc = load_golden(workload.name()).expect("golden copy recorded");
        let outputs = doc.get("outputs").and_then(|o| o.as_array()).unwrap();
        let expected = match workload {
            Workload::ServeTenant => 2 * serve::JOBS_PER_CLIENT * serve::REQUESTS_PER_JOB,
            sweep => sweep.jobs().len(),
        };
        assert_eq!(outputs.len(), expected, "{}", workload.name());
        let pinned = doc.get("pinned").and_then(|p| p.as_object()).unwrap();
        assert!(pinned.get("evaluator.misses").is_some());
        assert!(pinned.get("search.score_requests").is_some());
    }
}

#[test]
fn serve_plans_are_seeded_and_balanced() {
    assert_eq!(serve::plan(5, 0, 40), serve::plan(5, 0, 40));
    assert_ne!(serve::plan(5, 0, 40), serve::plan(6, 0, 40));
    for client in 0..2 {
        let mut jobs = [0usize; 6];
        let plan = serve::plan(11, client, serve::JOBS_PER_CLIENT);
        assert_eq!(plan.len(), serve::JOBS_PER_CLIENT * serve::REQUESTS_PER_JOB);
        for ops in plan.chunks(serve::REQUESTS_PER_JOB) {
            let [serve::Op::Lookup { tenant: probed }, serve::Op::Synthesize { tenant, .. }, serve::Op::Ping] =
                ops
            else {
                panic!("a job is not lookup, synthesize, ping: {ops:?}");
            };
            assert_eq!(probed, tenant, "the lookup probes the job's own tenant");
            assert_eq!(tenant % 2, client, "a client only runs its own tenants");
            jobs[*tenant] += 1;
        }
        let owned: Vec<usize> = jobs.iter().copied().filter(|&n| n > 0).collect();
        assert_eq!(owned.len(), 3);
        assert!(owned.iter().all(|&n| n == owned[0]), "tenants get equal job counts: {jobs:?}");
    }
}

#[test]
fn serve_jobs_are_smoke_sweep_cells() {
    let smoke = SweepConfig::smoke();
    assert_eq!(serve::SHOTS, smoke.shots);
    for tenant in serve::tenants() {
        let family = tenant.code.family.as_str();
        let cell = cells(&[family], &[1e-3], 30, smoke.budget_multiplier, smoke.shots)
            .into_iter()
            .find(|job| job.entry_index == tenant.code.index)
            .expect("the catalog has the entry");
        let parties = asynd_server::protocol::StrategyChoice::Portfolio.parties() as u64;
        assert_eq!(serve::BUDGET, cell.grant() * parties, "{family}");
    }
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|m| m.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let field = |name: &str| m.get(name).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
        metrics.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|w| w.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}
