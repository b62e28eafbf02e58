//! The `serve-tenant` workload: an in-process [`ScheduleServer`] (one
//! worker, a registry in a fresh directory) behind one reactor on
//! loopback, driven by two closed-loop clients — one per wire protocol —
//! each keeping one request outstanding.
//!
//! Each client owns three of the six tenants (steane, rotated-surface
//! d=3 and xzzx d=3, each under `brisbane` and `scaled(3e-3)`) and sends
//! every `synthesize` and `lookup` of those tenants itself. A tenant's
//! jobs therefore run in one fixed order however the two connections
//! interleave, so warm starts, cache contents and every response are a
//! pure function of the seed — which is what lets a pass be checked
//! against a golden copy.
//!
//! The traffic is taken from the repo's own clients rather than guessed:
//! each job is a smoke-sweep cell as the fleet coordinator ships it
//! (portfolio, the smoke grant, the smoke shots), preceded by the
//! registry `lookup` the coordinator makes for every cell — sent over the
//! wire here, so the server's read path is exercised — and followed by a
//! `ping`. `synthesize` takes over 99 % of the clients' time (the run
//! reports the share per request kind), so the ratio of control requests
//! to jobs barely moves `wall_s`.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use asynd_circuit::{artifact::ScheduleArtifact, EstimateOptions, Evaluator, EvaluatorStats};
use asynd_decode::factory_for;
use asynd_registry::Registry;
use asynd_server::protocol::{
    CodeRef, JobRequest, LookupRequest, NoiseSpec, Request, Response, StrategyChoice,
};
use asynd_server::{
    serve_tcp_with, tenant_salt, Client, ClientOptions, ReactorOptions, ScheduleServer,
    ServerConfig, TenantMap, WireProtocol,
};
use asynd_sim::mix_seed;
use asynd_telemetry::{MetricsRegistry, MetricsSnapshot};
use serde_json::{Map, Value};

/// Monte-Carlo shots of every `synthesize` and `lookup`: those of the
/// CI smoke sweep (`SweepConfig::smoke().shots`), whose cells a fleet
/// coordinator ships to `asynd serve` workers as `synthesize` jobs.
pub const SHOTS: usize = 240;
/// Evaluation budget of every `synthesize` job: what the fleet
/// coordinator asks for a smoke-sweep cell of these codes — the grant
/// `(24 checks + 2) × multiplier 1`, times the portfolio's 4 strategies.
pub const BUDGET: u64 = 104;
/// `synthesize` jobs each client sends per pass.
pub const JOBS_PER_CLIENT: usize = 18;
/// Requests per job: the fleet coordinator's per-cell sequence (a
/// registry `lookup` of the tenant, then its `synthesize`), followed by
/// one `ping`, the probe of `asynd loadgen --workload ping`.
pub const REQUESTS_PER_JOB: usize = 3;

/// One tenant of the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeTenant {
    /// Catalog reference of the code.
    pub code: CodeRef,
    /// Error model.
    pub noise: NoiseSpec,
}

impl ServeTenant {
    /// The canonical tenant key the server resolves.
    pub fn key(&self) -> String {
        TenantMap::canonical_key(&self.code, &self.noise, SHOTS)
    }
}

/// The six tenants. Client `c` owns those with `index % 2 == c`, so
/// each client has every code once, under alternating noise.
pub fn tenants() -> Vec<ServeTenant> {
    let tenant = |family: &str, noise: NoiseSpec| ServeTenant {
        code: CodeRef { family: family.to_string(), index: 0 },
        noise,
    };
    vec![
        tenant("hexagonal-color", NoiseSpec::Brisbane),
        tenant("hexagonal-color", NoiseSpec::Scaled(3e-3)),
        tenant("rotated-surface", NoiseSpec::Scaled(3e-3)),
        tenant("rotated-surface", NoiseSpec::Brisbane),
        tenant("xzzx", NoiseSpec::Brisbane),
        tenant("xzzx", NoiseSpec::Scaled(3e-3)),
    ]
}

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A portfolio synthesis job for tenant `tenant` under `seed`.
    Synthesize {
        /// Index into [`tenants`].
        tenant: usize,
        /// The job's strategy seed.
        seed: u64,
    },
    /// A registry probe of tenant `tenant`.
    Lookup {
        /// Index into [`tenants`].
        tenant: usize,
    },
    /// A liveness probe.
    Ping,
}

/// The protocol client `c` speaks.
fn protocol(client: usize) -> WireProtocol {
    if client == 0 {
        WireProtocol::V1
    } else {
        WireProtocol::V2
    }
}

/// Client `client`'s request stream of `jobs` jobs for `seed`: per job
/// a `lookup` of its tenant, the `synthesize`, and a `ping`. Each run of
/// as many jobs as the client owns tenants covers every owned tenant
/// once, in an order drawn from the seed — so every seed gives every
/// tenant the same number of jobs and only the job seeds and orders vary.
pub fn plan(seed: u64, client: usize, jobs: usize) -> Vec<Op> {
    let owned: Vec<usize> = (0..tenants().len()).filter(|t| t % 2 == client).collect();
    let stream = mix_seed(seed, 0x7365_7276_6500 + client as u64); // "serve"
    let mut order = owned.clone();
    let mut ops = Vec::with_capacity(jobs * REQUESTS_PER_JOB);
    for job in 0..jobs {
        let draw = mix_seed(stream, job as u64);
        let slot = job % owned.len();
        if slot == 0 {
            // A fresh Fisher-Yates shuffle of the owned tenants.
            for k in (1..order.len()).rev() {
                order.swap(k, (mix_seed(draw, k as u64) % (k as u64 + 1)) as usize);
            }
        }
        let tenant = order[slot];
        ops.extend([
            Op::Lookup { tenant },
            Op::Synthesize { tenant, seed: mix_seed(draw, 0) },
            Op::Ping,
        ]);
    }
    ops
}

fn request(op: &Op, client: usize, index: usize, tenants: &[ServeTenant]) -> Request {
    let id = format!("c{client}-{index}");
    match *op {
        Op::Synthesize { tenant, seed } => Request::Synthesize(JobRequest {
            id,
            code: tenants[tenant].code.clone(),
            noise: tenants[tenant].noise.clone(),
            strategy: StrategyChoice::Portfolio,
            budget: BUDGET,
            shots: SHOTS,
            seed,
            warm_seed: None,
        }),
        Op::Lookup { tenant } => Request::Lookup(LookupRequest {
            id,
            code: tenants[tenant].code.clone(),
            noise: tenants[tenant].noise.clone(),
            shots: SHOTS,
        }),
        Op::Ping => Request::Ping,
    }
}

/// One answered request.
pub struct Exchange {
    /// What was asked.
    pub op: Op,
    /// Client-observed latency.
    pub latency: Duration,
    /// The response, or the client error as text.
    pub response: Result<Response, String>,
}

/// What one pass produced.
pub struct ServePass {
    /// Per client, its exchanges in order.
    pub clients: Vec<Vec<Exchange>>,
    /// Wall-clock from the first request sent to the last answered.
    pub wall: Duration,
    /// Server start-up: registry open, worker start and listener bound.
    /// Reactor start-up and the clients' connections are in neither this
    /// nor `wall`: they are thread wake-ups, whose latency on a shared
    /// host varies more than the work measured.
    pub setup: Duration,
    /// The server's telemetry and per-tenant cache counters, scraped
    /// over the `metrics` op after the clock stops (traced runs only).
    pub scrape: Option<(MetricsSnapshot, Vec<(String, EvaluatorStats)>)>,
}

/// A fresh, empty directory for one pass's registry.
fn fresh_dir(scratch: &Path, pass: usize) -> Result<PathBuf, String> {
    let dir = scratch.join(format!("serve-{}-{pass}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

fn connect(addr: SocketAddr, client: usize) -> Result<Client, String> {
    let options =
        ClientOptions { protocol: protocol(client), read_timeout: Some(Duration::from_secs(120)) };
    let mut wire = Client::with_options(addr.to_string(), options);
    wire.ping().map_err(|e| format!("client {client} ping: {e}"))?;
    Ok(wire)
}

fn drive(mut wire: Client, client: usize, ops: &[Op]) -> Vec<Exchange> {
    let tenants = tenants();
    ops.iter()
        .enumerate()
        .map(|(index, op)| {
            let request = request(op, client, index, &tenants);
            let started = Instant::now();
            let response = wire.call(&request).map_err(|e| e.to_string());
            Exchange { op: op.clone(), latency: started.elapsed(), response }
        })
        .collect()
}

/// Runs one pass: starts a server over a fresh registry, drives both
/// clients' streams of `jobs` jobs each, optionally scrapes the server's
/// metrics, shuts the server down and removes the registry directory.
/// With no jobs the pass measures set-up alone.
///
/// # Errors
///
/// Set-up failures (directory, registry, socket) as text. Request
/// failures are recorded in the exchanges instead.
pub fn run_pass(
    seed: u64,
    scratch: &Path,
    pass: usize,
    scrape: bool,
    jobs: usize,
) -> Result<ServePass, String> {
    let plans = [plan(seed, 0, jobs), plan(seed, 1, jobs)];
    let setup_started = Instant::now();
    let dir = fresh_dir(scratch, pass)?;
    let (registry, _) = Registry::open(&dir).map_err(|e| format!("registry: {e}"))?;
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = ScheduleServer::start_with(
        config,
        Some(Arc::new(registry)),
        Arc::new(MetricsRegistry::new()),
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local address: {e}"))?;
    let setup = setup_started.elapsed();
    let outcome = std::thread::scope(|scope| {
        let reactor =
            scope.spawn(|| serve_tcp_with(&server, listener, ReactorOptions { reactors: 1 }));
        let result = (|| {
            // Both connections are open before the clock starts.
            let wires = (0..plans.len())
                .map(|client| connect(addr, client))
                .collect::<Result<Vec<Client>, String>>()?;
            let started = Instant::now();
            let clients: Vec<Vec<Exchange>> = std::thread::scope(|inner| {
                let handles: Vec<_> = wires
                    .into_iter()
                    .zip(&plans)
                    .enumerate()
                    .map(|(client, (wire, ops))| inner.spawn(move || drive(wire, client, ops)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
            });
            let wall = started.elapsed();
            let scrape = if scrape {
                let options = ClientOptions { protocol: WireProtocol::V2, read_timeout: None };
                Some(
                    Client::with_options(addr.to_string(), options)
                        .metrics("scrape")
                        .map_err(|e| format!("metrics scrape: {e}"))?,
                )
            } else {
                None
            };
            Ok(ServePass { clients, wall, setup, scrape })
        })();
        let stopped = Client::new(addr.to_string()).shutdown_server();
        let served = reactor.join().expect("reactor thread panicked");
        match (result, stopped, served) {
            (Err(e), _, _) => Err(e),
            (_, Err(e), _) => Err(format!("shutdown: {e}")),
            (_, _, Err(e)) => Err(format!("reactor: {e}")),
            (Ok(pass), Ok(()), Ok(())) => Ok(pass),
        }
    });
    server.shutdown();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    outcome
}

/// Whether two passes answered every request identically (wall-clock
/// and cache-counter members aside, which are observability data).
pub fn outputs_equal(a: &ServePass, b: &ServePass) -> Vec<bool> {
    a.clients
        .iter()
        .zip(&b.clients)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| golden_of(p) == golden_of(q)))
        .collect()
}

fn artifact_key(artifact: &ScheduleArtifact) -> Value {
    Value::from(artifact.schedule.key().to_hex())
}

/// The golden form of one exchange: the response's artifact keys (and,
/// for jobs, each strategy's key and evaluations).
pub fn golden_of(exchange: &Exchange) -> Value {
    let mut map = Map::new();
    match &exchange.response {
        Ok(Response::Ok(outcome)) => {
            map.insert("op", Value::from("synthesize"));
            map.insert("tenant", Value::from(outcome.tenant.as_str()));
            map.insert("artifact", artifact_key(&outcome.artifact));
            map.insert("any_failures", Value::from(outcome.artifact.estimate.any_failures));
            map.insert("warm_start", Value::from(outcome.warm_start));
            let strategies = outcome
                .strategies
                .iter()
                .map(|s| {
                    let mut entry = Map::new();
                    entry.insert("strategy", Value::from(s.name.as_str()));
                    entry.insert("schedule_key", Value::from(s.key.as_str()));
                    entry.insert("evaluations", Value::from(s.evaluations));
                    Value::Object(entry)
                })
                .collect();
            map.insert("strategies", Value::Array(strategies));
        }
        Ok(Response::Lookup { tenant, artifact, .. }) => {
            map.insert("op", Value::from("lookup"));
            map.insert("tenant", Value::from(tenant.as_str()));
            map.insert("artifact", artifact.as_deref().map_or(Value::Null, artifact_key));
        }
        Ok(Response::Pong) => drop(map.insert("op", Value::from("ping"))),
        Ok(other) => drop(map.insert("unexpected", Value::from(other.to_json()))),
        Err(e) => drop(map.insert("error", Value::from(e.as_str()))),
    }
    Value::Object(map)
}

/// Checks one client's exchanges at any seed: every request answered
/// with the response kind it asked for, every synthesized schedule valid
/// for its code with an estimate a fresh single-thread evaluator
/// reproduces exactly under the tenant's salt, and every lookup
/// answering with one of the winners this client was already sent for
/// that tenant (or nothing before the tenant's first job). Returns one
/// verdict per exchange.
pub fn check_client(exchanges: &[Exchange]) -> Vec<Result<(), String>> {
    let tenants = tenants();
    let mut winners: Vec<Vec<ScheduleArtifact>> = vec![Vec::new(); tenants.len()];
    exchanges
        .iter()
        .map(|exchange| match (&exchange.op, &exchange.response) {
            (_, Err(e)) => Err(e.clone()),
            (Op::Ping, Ok(Response::Pong)) => Ok(()),
            (Op::Synthesize { tenant, .. }, Ok(Response::Ok(outcome))) => {
                let expected = &tenants[*tenant];
                if outcome.tenant != expected.key() {
                    return Err(format!("job ran under tenant {}", outcome.tenant));
                }
                reproduce(expected, &outcome.artifact)?;
                winners[*tenant].push(outcome.artifact.clone());
                Ok(())
            }
            (Op::Lookup { tenant }, Ok(Response::Lookup { artifact, .. })) => match artifact {
                None if winners[*tenant].is_empty() => Ok(()),
                None => Err("lookup missed a tenant that has stored winners".into()),
                Some(found) if winners[*tenant].iter().any(|w| w == found.as_ref()) => Ok(()),
                Some(_) => Err("lookup returned an artifact this tenant never won".into()),
            },
            (op, Ok(other)) => Err(format!("{op:?} answered with {}", other.to_json())),
        })
        .collect()
}

/// Re-evaluates a served artifact in a fresh single-thread evaluator.
fn reproduce(tenant: &ServeTenant, artifact: &ScheduleArtifact) -> Result<(), String> {
    let entries = asynd_codes::catalog::family_by_name(&tenant.code.family)
        .ok_or_else(|| format!("unknown family {}", tenant.code.family))?;
    let entry = &entries[tenant.code.index];
    artifact.schedule.validate(&entry.code).map_err(|e| format!("invalid schedule: {e}"))?;
    let options = EstimateOptions { max_threads: Some(1), ..EstimateOptions::default() };
    let model = tenant.noise.to_model().map_err(|e| e.to_string())?;
    let evaluator = Evaluator::new(model, factory_for(entry.decoder), SHOTS, options);
    let salt = tenant_salt(&tenant.key());
    let seed = asynd_core::eval_seed_for(salt, artifact.schedule.key());
    let estimate =
        evaluator.evaluate(&entry.code, &artifact.schedule, seed).map_err(|e| e.to_string())?;
    if estimate != artifact.estimate {
        return Err(format!("estimate {:?} does not reproduce ({estimate:?})", artifact.estimate));
    }
    Ok(())
}
