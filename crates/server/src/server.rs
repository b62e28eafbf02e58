//! The multi-tenant schedule server: a sharded bounded job queue drained
//! by a worker thread pool, executing synthesis jobs through the
//! portfolio engine over per-tenant shared evaluators.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use asynd_circuit::artifact::ScheduleArtifact;
use asynd_circuit::Schedule;
use asynd_portfolio::{
    AnnealingSynthesizer, BeamSearchSynthesizer, LowestDepthSynthesizer, MctsSynthesizer,
    Portfolio, PortfolioConfig,
};
use asynd_registry::Registry;
use asynd_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Span};
use serde_json::Value;

use crate::protocol::{
    JobOutcome, JobRequest, LookupRequest, ProgressUpdate, Request, Response, StrategyChoice,
    StrategySummary,
};
use crate::queue::ShardedQueue;
use crate::reactor::{serve_tcp_with, ReactorOptions, ReactorSink};
use crate::tenants::TenantMap;
use crate::{lock_unpoisoned, ServerError};

/// Configuration of a [`ScheduleServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads draining the job queue. `0` means the machine's
    /// available parallelism.
    pub workers: usize,
    /// Capacity of the bounded job queue (backpressure bound; minimum 1).
    pub queue_capacity: usize,
    /// Cache capacity of each tenant's evaluator (schedules).
    pub cache_capacity: usize,
    /// Largest per-job evaluation budget the server accepts.
    pub max_budget: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            cache_capacity: asynd_circuit::DEFAULT_CACHE_CAPACITY,
            max_budget: 1 << 20,
        }
    }
}

/// The server's job-lifecycle telemetry: the counters, gauges and the
/// queue-wait histogram the worker pool records into, resolved once at
/// startup so the hot path never touches the registry's name map. The
/// per-phase latency histograms (`asynd_job_synthesis_us`,
/// `asynd_job_registry_lookup_us`, `asynd_job_registry_store_us`,
/// `asynd_job_wall_us`) are recorded through [`Span`]s instead, so each
/// phase also lands in the event log when one is attached.
pub(crate) struct ServerMetrics {
    pub(crate) jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    pub(crate) jobs_rejected: Counter,
    pub(crate) jobs_cancelled: Counter,
    warm_starts: Counter,
    pub(crate) queue_depth: Gauge,
    jobs_inflight: Gauge,
    queue_wait_us: Histogram,
}

impl ServerMetrics {
    fn register(registry: &MetricsRegistry) -> ServerMetrics {
        ServerMetrics {
            jobs_submitted: registry.counter("asynd_jobs_submitted_total"),
            jobs_completed: registry.counter("asynd_jobs_completed_total"),
            jobs_failed: registry.counter("asynd_jobs_failed_total"),
            jobs_rejected: registry.counter("asynd_jobs_rejected_total"),
            jobs_cancelled: registry.counter("asynd_jobs_cancelled_total"),
            warm_starts: registry.counter("asynd_warm_starts_total"),
            queue_depth: registry.gauge("asynd_queue_depth"),
            jobs_inflight: registry.gauge("asynd_jobs_inflight"),
            queue_wait_us: registry.histogram("asynd_job_queue_wait_us"),
        }
    }
}

pub(crate) struct Shared {
    config: ServerConfig,
    tenants: TenantMap,
    queue: ShardedQueue<QueuedJob>,
    /// The persistent schedule registry, when the server was started
    /// with one: consulted for warm starts before synthesis, fed the
    /// winning artifact afterwards, and probed by the `lookup` op.
    registry: Option<Arc<Registry>>,
    /// The telemetry registry every layer of this server reports into
    /// (the process-wide one unless a private one was injected).
    telemetry: Arc<MetricsRegistry>,
    metrics: ServerMetrics,
}

/// Job lifecycle states, held in a shared [`AtomicU8`] so a reactor can
/// cancel a queued job without touching the queue itself.
pub(crate) const JOB_QUEUED: u8 = 0;
/// Claimed by a worker; too late to cancel.
pub(crate) const JOB_RUNNING: u8 = 1;
/// Terminal: the response was produced.
pub(crate) const JOB_DONE: u8 = 2;
/// Terminal: cancelled while still queued; the worker skips it.
pub(crate) const JOB_CANCELLED: u8 = 3;

/// Where a finished job's response (and optional progress stream) goes.
pub(crate) enum JobSink {
    /// The in-process API path: [`JobHandle`] holds the receiver.
    /// Progress events are dropped — the handle models one final answer.
    Channel(mpsc::Sender<Response>),
    /// The reactor path: events land in the owning reactor's completion
    /// queue and wake its poll loop.
    Reactor(ReactorSink),
}

impl JobSink {
    fn done(&self, response: Response) {
        match self {
            // A dropped receiver just means the submitter stopped
            // caring; the work is still done and the tenant cache keeps
            // the result.
            JobSink::Channel(tx) => drop(tx.send(response)),
            JobSink::Reactor(sink) => sink.done(response),
        }
    }

    fn progress(&self, update: ProgressUpdate) {
        match self {
            JobSink::Channel(_) => {}
            JobSink::Reactor(sink) => sink.progress(update),
        }
    }
}

pub(crate) struct QueuedJob {
    pub(crate) request: JobRequest,
    pub(crate) sink: JobSink,
    /// Shared lifecycle state ([`JOB_QUEUED`] → …); the cancellation
    /// rendezvous between reactors and workers.
    pub(crate) state: Arc<AtomicU8>,
    /// When the job entered the queue (queue-wait histogram input).
    pub(crate) enqueued: Instant,
}

impl QueuedJob {
    pub(crate) fn new(request: JobRequest, sink: JobSink) -> QueuedJob {
        QueuedJob {
            request,
            sink,
            state: Arc::new(AtomicU8::new(JOB_QUEUED)),
            enqueued: Instant::now(),
        }
    }
}

/// A submitted job: await its response with [`JobHandle::wait`].
pub struct JobHandle {
    id: String,
    rx: mpsc::Receiver<Response>,
}

impl JobHandle {
    /// The request id this handle tracks.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Blocks until the job's response is available.
    pub fn wait(self) -> Response {
        match self.rx.recv() {
            Ok(response) => response,
            Err(_) => Response::Error {
                id: self.id,
                error: "server shut down before the job ran".to_string(),
            },
        }
    }
}

/// The schedule server: see the crate docs for the determinism contract.
pub struct ScheduleServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScheduleServer {
    /// Starts the worker pool and returns the running server (no
    /// persistent registry; see [`ScheduleServer::start_with_registry`]).
    pub fn start(config: ServerConfig) -> ScheduleServer {
        ScheduleServer::start_with_registry(config, None)
    }

    /// Starts the worker pool with an optional persistent schedule
    /// registry.
    ///
    /// With a registry attached, every synthesis job first looks up its
    /// tenant's best stored artifact and warm-starts the portfolio race
    /// from it (seeding only — estimates are still produced by the
    /// evaluation pipeline, see
    /// [`asynd_portfolio::Portfolio::run_with_seeds`]), and the winning
    /// artifact is stored back afterwards. The `lookup` protocol op
    /// serves registry probes without spending any evaluation budget.
    ///
    /// Determinism note: job results remain bit-identical for any worker
    /// count *given the registry state at lookup time*. Concurrent jobs
    /// of the *same* tenant may observe different registry states
    /// depending on completion order; jobs of distinct tenants never
    /// interact through the registry.
    pub fn start_with_registry(
        config: ServerConfig,
        registry: Option<Arc<Registry>>,
    ) -> ScheduleServer {
        ScheduleServer::start_with(config, registry, Arc::clone(asynd_telemetry::global()))
    }

    /// Starts the worker pool reporting into a caller-owned telemetry
    /// registry instead of the process-wide one — what tests use to
    /// assert on counters without cross-talk from other servers in the
    /// process. Telemetry is observability only: it never influences job
    /// results (see the crate docs' determinism contract).
    pub fn start_with(
        config: ServerConfig,
        registry: Option<Arc<Registry>>,
        telemetry: Arc<MetricsRegistry>,
    ) -> ScheduleServer {
        let worker_count = match config.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            n => n,
        };
        let metrics = ServerMetrics::register(&telemetry);
        let shared = Arc::new(Shared {
            config,
            tenants: TenantMap::with_metrics(config.cache_capacity, Arc::clone(&telemetry)),
            // One queue shard per worker: each worker drains its home
            // shard first and steals outward, so reactors that pin a
            // shard keep submissions and executions cache-adjacent.
            queue: ShardedQueue::new(worker_count, config.queue_capacity),
            registry,
            telemetry,
            metrics,
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("asynd-worker-{index}"))
                    .spawn(move || {
                        while let Some(job) = shared.queue.pop(index) {
                            let metrics = &shared.metrics;
                            metrics.queue_depth.sub(1);
                            metrics.queue_wait_us.record_duration(job.enqueued.elapsed());
                            // Claim the job. Losing the race means a
                            // reactor cancelled it while it sat queued:
                            // answer cheaply, never synthesize.
                            if job
                                .state
                                .compare_exchange(
                                    JOB_QUEUED,
                                    JOB_RUNNING,
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                )
                                .is_err()
                            {
                                metrics.jobs_cancelled.inc();
                                job.sink.done(Response::Error {
                                    id: job.request.id.clone(),
                                    error: "job cancelled by client before it ran".to_string(),
                                });
                                continue;
                            }
                            metrics.jobs_inflight.add(1);
                            job.sink.progress(ProgressUpdate::stage(&job.request.id, "started"));
                            let span = Span::enter_in(&shared.telemetry, "asynd_job_wall")
                                .with_field("id", Value::from(job.request.id.as_str()));
                            let response =
                                execute_job(&shared, job.request, &|u| job.sink.progress(u));
                            span.finish();
                            metrics.jobs_inflight.sub(1);
                            match &response {
                                Response::Ok(_) => metrics.jobs_completed.inc(),
                                _ => metrics.jobs_failed.inc(),
                            }
                            job.state.store(JOB_DONE, Ordering::SeqCst);
                            job.sink.done(response);
                        }
                    })
                    .expect("spawning a worker thread failed") // asynd-lint: allow(panic-in-hot-path) -- startup-time OS failure, not peer input; nothing is serving yet
            })
            .collect();
        ScheduleServer { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of live tenants.
    pub fn tenants(&self) -> usize {
        self.shared.tenants.len()
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// The attached schedule registry, if the server was started with
    /// one.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.shared.registry.as_ref()
    }

    /// Answers a registry probe: resolves the request's tenant key and
    /// returns the best stored artifact, a recorded miss, or an error
    /// when no registry is attached or the code reference is invalid.
    ///
    /// Costs a map lookup — never an evaluation, never synthesis.
    pub fn lookup(&self, request: &LookupRequest) -> Response {
        let registry = match &self.shared.registry {
            Some(registry) => registry,
            None => {
                return Response::Error {
                    id: request.id.clone(),
                    error: "this server has no schedule registry (start with --registry)"
                        .to_string(),
                }
            }
        };
        // Validate the probe like a synthesize request would be: a
        // typo'd family, zero shots or an invalid noise model could
        // never have stored anything, so answering found:false would be
        // a silent miss where a clear error is owed.
        if let Err(e) = self.shared.tenants.resolve_entry(&request.code) {
            return Response::Error { id: request.id.clone(), error: e.to_string() };
        }
        if request.shots == 0 {
            return Response::Error {
                id: request.id.clone(),
                error: "job rejected: shots must be positive".to_string(),
            };
        }
        let model = match request.noise.to_model() {
            Ok(model) => model,
            Err(e) => return Response::Error { id: request.id.clone(), error: e.to_string() },
        };
        if let Err(e) = model.validate() {
            return Response::Error { id: request.id.clone(), error: e.to_string() };
        }
        let tenant = TenantMap::canonical_key(&request.code, &request.noise, request.shots);
        let artifact = registry.lookup(&tenant).map(|entry| Box::new(entry.artifact));
        Response::Lookup { id: request.id.clone(), tenant, artifact }
    }

    /// A deterministic snapshot of the server's telemetry registry —
    /// counters, gauges and latency histograms across the evaluator,
    /// portfolio, registry and job-lifecycle layers.
    ///
    /// Costs a shard merge; never an evaluation, never synthesis.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.telemetry.snapshot()
    }

    /// Answers a `metrics` protocol op: the telemetry snapshot plus
    /// per-tenant cache counters, sorted by tenant key.
    pub fn metrics(&self, id: &str) -> Response {
        Response::Metrics {
            id: id.to_string(),
            snapshot: self.metrics_snapshot(),
            tenants: self.shared.tenants.cache_stats(),
        }
    }

    /// Submits a job, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Rejected`] when the server is shutting
    /// down.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, ServerError> {
        let (tx, rx) = mpsc::channel();
        let id = request.id.clone();
        self.shared.queue.push(QueuedJob::new(request, JobSink::Channel(tx))).map_err(|_| {
            self.shared.metrics.jobs_rejected.inc();
            ServerError::Rejected { reason: "server is shutting down".into() }
        })?;
        self.shared.metrics.jobs_submitted.inc();
        self.shared.metrics.queue_depth.add(1);
        Ok(JobHandle { id, rx })
    }

    /// Enqueues a reactor-built job on `shard` without blocking — the
    /// reactor path, which must never park its event loop on a full
    /// queue. The reactor defers the job and retries instead of
    /// rejecting, so no `jobs_rejected` tick here.
    ///
    /// `Err` hands the whole job back by design — the caller owns it
    /// again and re-queues it later; boxing would buy nothing.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_enqueue(&self, shard: usize, job: QueuedJob) -> Result<(), QueuedJob> {
        self.shared.queue.try_push_to(shard, job)?;
        self.shared.metrics.jobs_submitted.inc();
        self.shared.metrics.queue_depth.add(1);
        Ok(())
    }

    /// The telemetry registry this server reports into (reactor metrics
    /// land in the same place).
    pub(crate) fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.telemetry
    }

    /// The server's cancellation counter (ticked by reactors that cancel
    /// deferred jobs before they ever reach the queue).
    pub(crate) fn metrics_handles(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Submits a batch and waits for every response, returned in request
    /// order (the deterministic batch entry point the sweep and the tests
    /// build on).
    pub fn run_batch(&self, requests: Vec<JobRequest>) -> Vec<Response> {
        let mut pending = Vec::with_capacity(requests.len());
        for request in requests {
            let id = request.id.clone();
            match self.submit(request) {
                Ok(handle) => pending.push(Ok(handle)),
                Err(e) => pending.push(Err(Response::Error { id, error: e.to_string() })),
            }
        }
        pending
            .into_iter()
            .map(|entry| match entry {
                Ok(handle) => handle.wait(),
                Err(response) => response,
            })
            .collect()
    }

    /// Stops accepting jobs, drains the queue and joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ScheduleServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Runs one job to a response. Pure in the determinism-contract sense:
/// everything except `wall_ms` and the cache counters is a function of
/// the request and its tenant key. `progress` receives lifecycle events
/// (`warm-start`, `synthesized`) for sinks that stream them; the events
/// are observability only and never influence the result.
fn execute_job(
    shared: &Shared,
    request: JobRequest,
    progress: &dyn Fn(ProgressUpdate),
) -> Response {
    let id = request.id.clone();
    match try_execute_job(shared, request, progress) {
        Ok(outcome) => Response::Ok(Box::new(outcome)),
        Err(e) => Response::Error { id, error: e.to_string() },
    }
}

fn try_execute_job(
    shared: &Shared,
    request: JobRequest,
    progress: &dyn Fn(ProgressUpdate),
) -> Result<JobOutcome, ServerError> {
    if request.budget > shared.config.max_budget {
        return Err(ServerError::Rejected {
            reason: format!(
                "budget {} exceeds the server cap of {}",
                request.budget, shared.config.max_budget
            ),
        });
    }
    let parties = request.strategy.parties();
    let grant =
        asynd_core::split_grant(request.budget, parties).ok_or_else(|| ServerError::Rejected {
            reason: format!(
                "budget {} cannot grant the {} racing strategies at least one evaluation each",
                request.budget, parties
            ),
        })?;
    let tenant = shared.tenants.resolve(&request.code, &request.noise, request.shots)?;

    let config = PortfolioConfig {
        seed: request.seed,
        budget_per_strategy: grant,
        shots_per_evaluation: request.shots,
        eval_cache_capacity: shared.config.cache_capacity,
        // Strategies of one job run sequentially; the server's
        // parallelism comes from racing *jobs* on the worker pool.
        worker_threads: 1,
    };
    let portfolio = match request.strategy {
        StrategyChoice::Portfolio => Portfolio::standard(config),
        StrategyChoice::Mcts => {
            Portfolio::new(config).with_strategy(Box::new(MctsSynthesizer::default()))
        }
        StrategyChoice::Anneal => {
            Portfolio::new(config).with_strategy(Box::new(AnnealingSynthesizer::default()))
        }
        StrategyChoice::Beam => {
            Portfolio::new(config).with_strategy(Box::new(BeamSearchSynthesizer::default()))
        }
        StrategyChoice::LowestDepth => {
            Portfolio::new(config).with_strategy(Box::new(LowestDepthSynthesizer::new()))
        }
    };
    // Strategy-level telemetry lands in the same registry as the
    // server's own, so one `metrics` snapshot covers both layers.
    let portfolio = portfolio.with_metrics(Arc::clone(&shared.telemetry));

    // Warm start: seed the race with the request's shipped `warm_seed`
    // when present (the fleet coordinator distributing its registry's
    // best artifact), else with the registry's best prior artifact for
    // this tenant. Either way the seed must still validate against the
    // code (a stale or foreign seed is dropped, not trusted), and it
    // only shifts where the searches start — every estimate is still
    // produced by the metered evaluation pipeline.
    let seeds: Vec<Schedule> = if let Some(shipped) = &request.warm_seed {
        Some(shipped.as_ref())
            .filter(|artifact| artifact.schedule.validate(&tenant.entry.code).is_ok())
            .map(|artifact| vec![artifact.schedule.clone()])
            .unwrap_or_default()
    } else {
        // The span exists only when a registry does — servers without
        // one report no lookup phase at all.
        let _span = shared.registry.as_ref().map(|_| {
            Span::enter_in(&shared.telemetry, "asynd_job_registry_lookup")
                .with_field("tenant", Value::from(tenant.key.as_str()))
        });
        shared
            .registry
            .as_ref()
            .and_then(|registry| registry.lookup(&tenant.key))
            .filter(|entry| entry.artifact.schedule.validate(&tenant.entry.code).is_ok())
            .map(|entry| vec![entry.artifact.schedule])
            .unwrap_or_default()
    };
    let warm_start = !seeds.is_empty();
    if warm_start {
        shared.metrics.warm_starts.inc();
        progress(ProgressUpdate::stage(&request.id, "warm-start"));
    }

    let span = Span::enter_in(&shared.telemetry, "asynd_job_synthesis")
        .with_field("id", Value::from(request.id.as_str()))
        .with_field("tenant", Value::from(tenant.key.as_str()));
    let report = portfolio.run_with_seeds(
        &tenant.entry.code,
        tenant.evaluator.clone(),
        tenant.salt,
        &seeds,
    )?;
    let wall_ms = span.finish() as f64 / 1e3;

    let strategies = report
        .strategies
        .iter()
        .enumerate()
        .map(|(index, s)| StrategySummary {
            name: s.name.clone(),
            p_overall: s.outcome.estimate.p_overall(),
            depth: s.outcome.schedule.depth(),
            key: s.outcome.schedule.key().to_hex(),
            evaluations: s.metered,
            winner: index == report.winner,
        })
        .collect();
    let winning = report.winning();
    // Partial result ahead of the full response (and the registry
    // store): the winning key and rate are already final here.
    progress(ProgressUpdate {
        id: request.id.clone(),
        stage: "synthesized".to_string(),
        key: Some(winning.outcome.schedule.key().to_hex()),
        p_overall: Some(winning.outcome.estimate.p_overall()),
    });
    let artifact = ScheduleArtifact {
        code_label: tenant.entry.display_label(),
        schedule: winning.outcome.schedule.clone(),
        estimate: winning.outcome.estimate,
    };
    // Persist the winner. A registry write failure degrades the cache,
    // not the job: the response still carries the artifact.
    if let Some(registry) = &shared.registry {
        let _span = Span::enter_in(&shared.telemetry, "asynd_job_registry_store")
            .with_field("tenant", Value::from(tenant.key.as_str()));
        if let Err(e) = registry.store(&tenant.key, &artifact) {
            eprintln!("asynd: registry store failed for {}: {e}", tenant.key);
        }
    }
    Ok(JobOutcome {
        id: request.id,
        tenant: tenant.key.clone(),
        strategy: winning.name.clone(),
        artifact,
        granted: report.total_granted(),
        spent: report.total_spent(),
        strategies,
        cache: tenant.evaluator.stats(),
        warm_start,
        wall_ms,
    })
}

/// What a request asks of the server, in either wire protocol: probes
/// and protocol errors are answered on the spot, jobs go to the queue,
/// and shutdown is left to the transport.
pub(crate) enum Dispatch {
    /// Answer now: a probe (`ping`, `lookup`, `metrics`) or a protocol
    /// error.
    Reply(Response),
    /// A synthesis job to enqueue.
    Submit(JobRequest),
    /// The peer asked the server to shut down.
    Shutdown,
}

/// Sorts a parsed request into a [`Dispatch`], answering probes and
/// parse errors. Costs a registry lookup or a metrics snapshot at most —
/// never an evaluation, never synthesis.
pub(crate) fn dispatch(server: &ScheduleServer, parsed: Result<Request, ServerError>) -> Dispatch {
    match parsed {
        Ok(Request::Synthesize(request)) => Dispatch::Submit(request),
        Ok(Request::Shutdown) => Dispatch::Shutdown,
        Ok(Request::Ping) => Dispatch::Reply(Response::Pong),
        Ok(Request::Lookup(request)) => Dispatch::Reply(server.lookup(&request)),
        Ok(Request::Metrics(id)) => Dispatch::Reply(server.metrics(&id)),
        Err(e) => Dispatch::Reply(Response::Error { id: String::new(), error: e.to_string() }),
    }
}

/// What a [`V1Session`] makes of one request line.
#[derive(Debug)]
pub(crate) enum V1Step {
    /// Send this response now, out of band of job ordering.
    Reply(Response),
    /// Enqueue this job; its response is owed at the given sequence
    /// number.
    Submit(u64, JobRequest),
}

/// The v1 JSON-lines protocol as plain single-threaded state, with no
/// I/O of its own. Both transports drive it: [`serve_lines`] with
/// blocking reads, the reactor with nonblocking ones. A driver feeds it
/// raw lines and finished job responses and sends whatever it yields.
///
/// * Blank lines are skipped. `ping`, `lookup`, `metrics` and malformed
///   lines (bad JSON, unknown ops, invalid UTF-8) are answered at once.
/// * Jobs get consecutive sequence numbers, and their responses are
///   released strictly in that order, however they finish.
/// * After a `shutdown` line nothing more is read, and the
///   `shutting_down` ack follows the last owed job response.
pub(crate) struct V1Session {
    /// Sequence number handed to the next submitted job.
    next_seq: u64,
    /// Sequence number whose response is released next.
    emit_seq: u64,
    /// Finished jobs waiting for their release turn.
    ready: BTreeMap<u64, Response>,
    /// The peer sent `{"op":"shutdown"}`.
    shutdown: bool,
    /// The `shutting_down` ack has been released.
    acked: bool,
}

impl V1Session {
    pub(crate) fn new() -> V1Session {
        V1Session {
            next_seq: 0,
            emit_seq: 0,
            ready: BTreeMap::new(),
            shutdown: false,
            acked: false,
        }
    }

    /// Handles one raw request line, with or without its newline (an
    /// unterminated final line is a request like any other). `None`
    /// means there is nothing to send or submit: a blank line, the
    /// shutdown request, or anything after it.
    pub(crate) fn line(&mut self, raw: &[u8], server: &ScheduleServer) -> Option<V1Step> {
        if self.shutdown {
            return None;
        }
        let parsed = match std::str::from_utf8(raw) {
            Ok(text) => {
                let line = text.trim_end_matches(['\n', '\r']);
                if line.trim().is_empty() {
                    return None;
                }
                Request::parse(line)
            }
            // Answered in band: one garbage line must not tear down the
            // transport and the pipelined jobs behind it.
            Err(_) => {
                Err(ServerError::Protocol { reason: "request line is not valid UTF-8".to_string() })
            }
        };
        match dispatch(server, parsed) {
            Dispatch::Reply(response) => Some(V1Step::Reply(response)),
            Dispatch::Submit(request) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                Some(V1Step::Submit(seq, request))
            }
            Dispatch::Shutdown => {
                self.shutdown = true;
                None
            }
        }
    }

    /// Records the response of the job submitted as `seq` — its result,
    /// or the error that refused it.
    pub(crate) fn done(&mut self, seq: u64, response: Response) {
        self.ready.insert(seq, response);
    }

    /// The next response the peer is owed: finished jobs strictly by
    /// sequence number, then, once shutdown was requested and every job
    /// has been answered, the `shutting_down` ack, exactly once.
    pub(crate) fn next_response(&mut self) -> Option<Response> {
        if let Some(response) = self.ready.remove(&self.emit_seq) {
            self.emit_seq += 1;
            return Some(response);
        }
        if self.shutdown && !self.acked && self.drained() {
            self.acked = true;
            return Some(Response::ShuttingDown);
        }
        None
    }

    /// Whether the peer sent `{"op":"shutdown"}`.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Whether every submitted job's response has been released.
    pub(crate) fn drained(&self) -> bool {
        self.emit_seq == self.next_seq
    }
}

/// The session and the writer of one [`serve_lines`] call, shared by its
/// reader and its waiter thread.
struct LinesOutput<W> {
    session: V1Session,
    writer: W,
    /// The first write error; nothing more is written after it.
    error: Option<std::io::Error>,
}

impl<W: Write> LinesOutput<W> {
    /// Writes one response line and flushes it.
    fn write(&mut self, response: &Response) {
        if self.error.is_none() {
            let written = writeln!(self.writer, "{}", response.to_json());
            self.error = written.and_then(|()| self.writer.flush()).err();
        }
    }

    /// Writes every response the session releases.
    fn release(&mut self) {
        while let Some(response) = self.session.next_response() {
            self.write(&response);
        }
    }
}

/// Speaks the JSON-lines protocol over an arbitrary reader/writer pair —
/// the stdio transport of `asynd serve`. The TCP transport's v1
/// connections follow the same rules (see [`crate::reactor`]).
///
/// Job responses are written in submission order (the determinism
/// contract's framing guarantee), a refused submission's error included,
/// each as soon as it and every job before it have finished — a waiter
/// thread writes them while the calling thread blocks reading the next
/// request, so an interactive client gets its answer without sending
/// another line. `ping`, `lookup` and `metrics` are answered immediately,
/// out of band of job ordering — they are probes, not jobs.
///
/// Returns `true` when the peer requested shutdown, after every job it
/// submitted has been answered.
///
/// # Errors
///
/// Returns the first transport I/O error. *Protocol* errors — malformed
/// JSON, unknown ops, even request lines that are not valid UTF-8 — are
/// answered with a structured error response on the stream and never
/// abort it, so one garbage line cannot tear down a connection and the
/// pipelined jobs behind it.
pub fn serve_lines<W: Write + Send>(
    reader: impl BufRead,
    writer: W,
    server: &ScheduleServer,
) -> std::io::Result<bool> {
    let output = Mutex::new(LinesOutput { session: V1Session::new(), writer, error: None });
    let (pending, submitted) = mpsc::channel::<(u64, JobHandle)>();
    let read = std::thread::scope(|scope| {
        // The waiter: answers the submitted jobs in sequence order and
        // ends once the reader has hung up and every job is answered.
        scope.spawn(|| {
            for (seq, handle) in submitted {
                let response = handle.wait();
                let mut out = lock_unpoisoned(&output);
                out.session.done(seq, response);
                out.release();
            }
        });
        read_requests(reader, &output, server, pending)
    });
    let mut output = output.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    output.release();
    read?;
    let shutdown = output.session.shutdown_requested();
    match output.error {
        // A peer that asked for shutdown and hung up before reading the
        // ack still gets its shutdown honoured — losing the write must
        // not lose the intent.
        Some(e) if !shutdown => Err(e),
        _ => Ok(shutdown),
    }
}

/// The reader half of [`serve_lines`]: feeds request lines to the
/// session until EOF, a shutdown request or a write error, and hands
/// every submitted job to the waiter through `pending`, which it drops on
/// return so the waiter can finish.
fn read_requests<W: Write>(
    mut reader: impl BufRead,
    output: &Mutex<LinesOutput<W>>,
    server: &ScheduleServer,
    pending: mpsc::Sender<(u64, JobHandle)>,
) -> std::io::Result<()> {
    let mut raw: Vec<u8> = Vec::new();
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            return Ok(());
        }
        let mut out = lock_unpoisoned(output);
        match out.session.line(&raw, server) {
            None => {}
            Some(V1Step::Reply(response)) => out.write(&response),
            // Submitting under the lock holds back releases while the
            // queue is full; the workers draining it never take the lock.
            Some(V1Step::Submit(seq, request)) => {
                let id = request.id.clone();
                match server.submit(request) {
                    // The waiter holds the receiver until this sender drops.
                    Ok(handle) => {
                        let _ = pending.send((seq, handle));
                    }
                    Err(e) => {
                        out.session.done(seq, Response::Error { id, error: e.to_string() });
                        out.release();
                    }
                }
            }
        }
        if out.error.is_some() || out.session.shutdown_requested() {
            return Ok(());
        }
    }
}

/// Serves both wire protocols over TCP on a single-reactor event loop —
/// v1 JSON-lines and framed v2, autodetected per connection from the
/// first byte (see [`crate::reactor`]). Equivalent to
/// [`serve_tcp_with`] with [`ReactorOptions::default`]; use that entry
/// point to run more reactors.
///
/// Returns after a client sends `{"op":"shutdown"}` (or the v2
/// equivalent) and every open connection has drained.
///
/// # Errors
///
/// Returns reactor-loop I/O errors; per-connection errors only end that
/// connection.
pub fn serve_tcp(server: &ScheduleServer, listener: TcpListener) -> std::io::Result<()> {
    serve_tcp_with(server, listener, ReactorOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CodeRef, NoiseSpec};

    fn quick_request(id: &str, strategy: StrategyChoice, seed: u64) -> JobRequest {
        JobRequest {
            id: id.to_string(),
            code: CodeRef { family: "rotated-surface".into(), index: 0 },
            noise: NoiseSpec::Brisbane,
            strategy,
            budget: 24,
            shots: 150,
            seed,
            warm_seed: None,
        }
    }

    /// A v1 request line for a cheap lowest-depth job.
    fn job_line(id: &str) -> String {
        format!(
            "{{\"id\":{id:?},\"code\":{{\"family\":\"rotated-surface\"}},\
             \"noise\":\"brisbane\",\"strategy\":\"lowest-depth\",\
             \"budget\":8,\"shots\":120,\"seed\":3}}\n"
        )
    }

    /// A stand-in for a finished job's response.
    fn answer(id: &str) -> Response {
        Response::Error { id: id.to_string(), error: "finished".to_string() }
    }

    /// The sequence number of a line the session turned into a job.
    fn submitted(step: Option<V1Step>) -> u64 {
        match step {
            Some(V1Step::Submit(seq, _)) => seq,
            other => panic!("expected a submission, got {other:?}"),
        }
    }

    #[test]
    fn single_strategy_job_round_trips_through_the_pool() {
        let server = ScheduleServer::start(ServerConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServerConfig::default()
        });
        let handle = server.submit(quick_request("j1", StrategyChoice::Anneal, 5)).unwrap();
        match handle.wait() {
            Response::Ok(outcome) => {
                assert_eq!(outcome.id, "j1");
                assert_eq!(outcome.strategy, "anneal");
                assert_eq!(outcome.granted, 24);
                assert!(outcome.spent > 0 && outcome.spent <= 24);
                assert_eq!(outcome.strategies.len(), 1);
                assert!(outcome.strategies[0].winner);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(server.tenants(), 1);
        server.shutdown();
    }

    #[test]
    fn shipped_warm_seed_warm_starts_without_a_registry() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let cold =
            match server.submit(quick_request("cold", StrategyChoice::Anneal, 9)).unwrap().wait() {
                Response::Ok(outcome) => outcome,
                other => panic!("unexpected response: {other:?}"),
            };
        assert!(!cold.warm_start);

        // Shipping the artifact back warm-starts the race, registry or not.
        let mut warm = quick_request("warm", StrategyChoice::Anneal, 9);
        warm.warm_seed = Some(Box::new(cold.artifact.clone()));
        match server.submit(warm).unwrap().wait() {
            Response::Ok(outcome) => assert!(outcome.warm_start, "shipped seed must warm-start"),
            other => panic!("unexpected response: {other:?}"),
        }

        // A seed that does not validate against the job's code is
        // dropped, not trusted: the job still runs, cold.
        let foreign = asynd_circuit::artifact::ScheduleArtifact {
            code_label: "steane".into(),
            schedule: Schedule::trivial(&asynd_codes::steane_code()),
            estimate: asynd_circuit::LogicalErrorEstimate {
                shots: 10,
                x_failures: 0,
                z_failures: 0,
                any_failures: 0,
            },
        };
        let mut mismatched = quick_request("mismatched", StrategyChoice::Anneal, 9);
        mismatched.warm_seed = Some(Box::new(foreign));
        match server.submit(mismatched).unwrap().wait() {
            Response::Ok(outcome) => assert!(!outcome.warm_start, "foreign seed must be dropped"),
            other => panic!("unexpected response: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn oversized_and_undersized_budgets_are_rejected() {
        let server = ScheduleServer::start(ServerConfig {
            workers: 1,
            max_budget: 100,
            ..ServerConfig::default()
        });
        let mut big = quick_request("big", StrategyChoice::Anneal, 0);
        big.budget = 101;
        let mut tiny = quick_request("tiny", StrategyChoice::Portfolio, 0);
        tiny.budget = 3; // splits to 0 across 4 strategies
        for (request, needle) in [(big, "exceeds"), (tiny, "cannot grant")] {
            let id = request.id.clone();
            match server.submit(request).unwrap().wait() {
                Response::Error { id: got, error } => {
                    assert_eq!(got, id);
                    assert!(error.contains(needle), "error {error:?} lacks {needle:?}");
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        assert_eq!(server.tenants(), 0, "rejected jobs never create tenants");
    }

    #[test]
    fn unknown_family_is_an_error_response_not_a_crash() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut request = quick_request("nope", StrategyChoice::LowestDepth, 0);
        request.code.family = "no-such-family".into();
        match server.submit(request).unwrap().wait() {
            Response::Error { error, .. } => assert!(error.contains("unknown code family")),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn batch_responses_arrive_in_request_order() {
        let server = ScheduleServer::start(ServerConfig {
            workers: 3,
            queue_capacity: 2,
            ..ServerConfig::default()
        });
        let batch: Vec<JobRequest> = (0..6)
            .map(|i| quick_request(&format!("j{i}"), StrategyChoice::LowestDepth, i))
            .collect();
        let responses = server.run_batch(batch);
        assert_eq!(responses.len(), 6);
        for (i, response) in responses.iter().enumerate() {
            match response {
                Response::Ok(outcome) => assert_eq!(outcome.id, format!("j{i}")),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        // All six jobs hit one tenant and the memoised baseline schedule.
        assert_eq!(server.tenants(), 1);
    }

    #[test]
    fn an_interactive_client_gets_its_answer_without_sending_another_line() {
        // One job written into a pipe that stays open: the response must
        // arrive while serve_lines is still blocked reading the next line.
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let (stdin, mut client) = std::io::pipe().unwrap();
        let (answers, responses) = mpsc::channel();
        let mut writer = LineSink(answers, Vec::new());
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| {
                serve_lines(std::io::BufReader::new(stdin), &mut writer, &server).unwrap()
            });
            writeln!(
                client,
                "{{\"id\":\"live\",\"code\":{{\"family\":\"rotated-surface\"}},\
                 \"noise\":\"brisbane\",\"strategy\":\"lowest-depth\",\
                 \"budget\":8,\"shots\":120,\"seed\":3}}"
            )
            .unwrap();
            let answer = responses.recv_timeout(std::time::Duration::from_secs(30));
            // Release the server whatever happened, so a failure ends the
            // test instead of hanging it.
            writeln!(client, "{{\"op\":\"shutdown\"}}").unwrap();
            drop(client);
            let answer = answer.expect("no answer while the client kept its pipe open");
            match Response::parse(&answer).unwrap() {
                Response::Ok(outcome) => assert_eq!(outcome.id, "live"),
                other => panic!("unexpected response: {other:?}"),
            }
            assert!(serving.join().unwrap());
        });
        let rest: Vec<String> = responses.try_iter().collect();
        assert_eq!(rest.len(), 1, "{rest:?}");
        assert!(matches!(Response::parse(&rest[0]).unwrap(), Response::ShuttingDown));
    }

    /// A writer that sends every completed line down a channel.
    struct LineSink(mpsc::Sender<String>, Vec<u8>);

    impl Write for LineSink {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            for &byte in bytes {
                if byte == b'\n' {
                    let _ = self.0.send(String::from_utf8_lossy(&self.1).into_owned());
                    self.1.clear();
                } else {
                    self.1.push(byte);
                }
            }
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn garbage_between_pipelined_jobs_never_tears_down_the_stream() {
        // Regression: a malformed line — including one that is not even
        // valid UTF-8, which `BufRead::lines` would have turned into a
        // connection-killing I/O error — must produce a structured error
        // response and leave the remaining pipelined jobs alive.
        let server = ScheduleServer::start(ServerConfig { workers: 2, ..ServerConfig::default() });
        let job = |id: &str| {
            format!(
                "{{\"id\":{id:?},\"code\":{{\"family\":\"rotated-surface\"}},\
                 \"noise\":\"brisbane\",\"strategy\":\"lowest-depth\",\
                 \"budget\":8,\"shots\":120,\"seed\":3}}\n"
            )
        };
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(job("first").as_bytes());
        input.extend_from_slice(b"\xff\xfe this line is not utf-8 \xff\n");
        input.extend_from_slice(b"{\"op\":\"nope\"}\n");
        input.extend_from_slice(job("second").as_bytes());
        let mut output = Vec::new();
        let requested = serve_lines(&input[..], &mut output, &server).unwrap();
        assert!(!requested, "nobody asked for shutdown");
        let text = String::from_utf8(output).unwrap();
        let responses: Vec<Response> =
            text.lines().map(|line| Response::parse(line).unwrap()).collect();
        let errors = responses.iter().filter(|r| matches!(r, Response::Error { .. })).count();
        assert_eq!(errors, 2, "both garbage lines got structured errors: {text}");
        let mut ok_ids: Vec<String> = responses
            .iter()
            .filter_map(|r| match r {
                Response::Ok(outcome) => Some(outcome.id.clone()),
                _ => None,
            })
            .collect();
        ok_ids.sort();
        assert_eq!(ok_ids, ["first", "second"], "jobs around the garbage both ran");
        server.shutdown();
    }

    #[test]
    fn job_lifecycle_telemetry_matches_jobs_run() {
        let telemetry = Arc::new(MetricsRegistry::new());
        let server = ScheduleServer::start_with(
            ServerConfig { workers: 2, ..ServerConfig::default() },
            None,
            Arc::clone(&telemetry),
        );
        let batch: Vec<JobRequest> =
            (0..4).map(|i| quick_request(&format!("j{i}"), StrategyChoice::Anneal, i)).collect();
        let responses = server.run_batch(batch);
        assert!(responses.iter().all(|r| matches!(r, Response::Ok(_))));
        let mut bad = quick_request("bad", StrategyChoice::Anneal, 0);
        bad.code.family = "no-such-family".into();
        assert!(matches!(server.submit(bad).unwrap().wait(), Response::Error { .. }));

        let snapshot = server.metrics_snapshot();
        assert_eq!(snapshot.counters["asynd_jobs_submitted_total"], 5);
        assert_eq!(snapshot.counters["asynd_jobs_completed_total"], 4);
        assert_eq!(snapshot.counters["asynd_jobs_failed_total"], 1);
        for name in ["asynd_job_queue_wait_us", "asynd_job_wall_us"] {
            assert_eq!(snapshot.histograms[name].count, 5, "{name} counts every job");
        }
        assert_eq!(
            snapshot.histograms["asynd_job_synthesis_us"].count, 4,
            "rejected jobs never reach synthesis"
        );
        assert_eq!(snapshot.gauges["asynd_queue_depth"], 0, "drained queue reads zero");
        assert_eq!(snapshot.gauges["asynd_jobs_inflight"], 0, "idle pool reads zero");
        // The tenant's evaluator and the racing strategy report into the
        // same registry, labelled.
        let tenant = [("tenant", "rotated-surface[0]|brisbane|shots=150")];
        let tenant_misses = asynd_telemetry::labeled("asynd_eval_cache_misses_total", &tenant);
        assert!(snapshot.counters[&tenant_misses] > 0, "tenant evaluator counters registered");
        let histogram = |name| &snapshot.histograms[&asynd_telemetry::labeled(name, &tenant)];
        let (dem, model) =
            (histogram("asynd_eval_dem_build_us"), histogram("asynd_eval_model_build_us"));
        assert!(dem.count > 0 && dem.count == model.count, "every model build times its DEM");
        assert!(dem.sum <= model.sum, "DEM construction is part of model construction");
        let anneal_evals =
            asynd_telemetry::labeled("asynd_strategy_evals_total", &[("strategy", "anneal")]);
        assert!(snapshot.counters[&anneal_evals] > 0, "strategy spend lands in server telemetry");
        match server.metrics("m1") {
            Response::Metrics { id, tenants, .. } => {
                assert_eq!(id, "m1");
                assert_eq!(tenants.len(), 1);
                assert!(tenants[0].1.misses > 0);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn lookup_without_a_registry_is_a_structured_error() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let input = "{\"op\":\"lookup\",\"id\":\"l\",\"code\":{\"family\":\"bb\"},\
                     \"noise\":\"brisbane\",\"shots\":100}\n";
        let mut output = Vec::new();
        serve_lines(input.as_bytes(), &mut output, &server).unwrap();
        let text = String::from_utf8(output).unwrap();
        match Response::parse(text.lines().next().unwrap()).unwrap() {
            Response::Error { id, error } => {
                assert_eq!(id, "l");
                assert!(error.contains("registry"), "error: {error}");
            }
            other => panic!("unexpected response: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn stdio_transport_speaks_the_protocol() {
        let server = ScheduleServer::start(ServerConfig { workers: 2, ..ServerConfig::default() });
        let input = concat!(
            "{\"op\":\"ping\"}\n",
            "\n",
            "this is not json\n",
            "{\"id\":\"a\",\"code\":{\"family\":\"rotated-surface\"},\"noise\":\"brisbane\",",
            "\"strategy\":\"lowest-depth\",\"budget\":8,\"shots\":120,\"seed\":3}\n",
            "{\"op\":\"shutdown\"}\n",
        );
        let mut output = Vec::new();
        let requested = serve_lines(input.as_bytes(), &mut output, &server).unwrap();
        assert!(requested, "the peer asked for shutdown");
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "pong, parse error, job, shutdown ack: {text}");
        assert_eq!(Response::parse(lines[0]).unwrap(), Response::Pong);
        assert!(matches!(Response::parse(lines[1]).unwrap(), Response::Error { .. }));
        match Response::parse(lines[2]).unwrap() {
            Response::Ok(outcome) => assert_eq!(outcome.id, "a"),
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(Response::parse(lines[3]).unwrap(), Response::ShuttingDown);
    }

    #[test]
    fn v1_session_releases_out_of_order_completions_in_seq_order() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut session = V1Session::new();
        let seqs: Vec<u64> = ["a", "b", "c"]
            .iter()
            .map(|id| submitted(session.line(job_line(id).as_bytes(), &server)))
            .collect();
        assert_eq!(seqs, [0, 1, 2]);
        session.done(2, answer("c"));
        session.done(0, answer("a"));
        assert_eq!(session.next_response(), Some(answer("a")));
        assert_eq!(session.next_response(), None, "c waits for b");
        assert!(!session.drained());
        session.done(1, answer("b"));
        assert_eq!(session.next_response(), Some(answer("b")));
        assert_eq!(session.next_response(), Some(answer("c")));
        assert_eq!(session.next_response(), None);
        assert!(session.drained());
    }

    #[test]
    fn v1_session_holds_the_shutdown_ack_until_drained() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut session = V1Session::new();
        let seq = submitted(session.line(job_line("a").as_bytes(), &server));
        assert!(session.line(b"{\"op\":\"shutdown\"}\n", &server).is_none());
        assert!(session.shutdown_requested());
        assert!(
            session.line(b"{\"op\":\"ping\"}\n", &server).is_none(),
            "nothing after shutdown is read"
        );
        assert_eq!(session.next_response(), None, "the ack waits for the owed job");
        session.done(seq, answer("a"));
        assert_eq!(session.next_response(), Some(answer("a")));
        assert_eq!(session.next_response(), Some(Response::ShuttingDown));
        assert_eq!(session.next_response(), None, "the ack is released once");
    }

    #[test]
    fn v1_session_skips_blank_lines_and_answers_invalid_utf8() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut session = V1Session::new();
        for blank in [&b""[..], b"\n", b"\r\n", b"  \t \r\n"] {
            assert!(session.line(blank, &server).is_none(), "blank line {blank:?}");
        }
        match session.line(b"\xff\xfe{\"op\":\"ping\"}\n", &server) {
            Some(V1Step::Reply(Response::Error { id, error })) => {
                assert!(id.is_empty());
                assert!(error.contains("UTF-8"), "error: {error}");
            }
            other => panic!("expected an in-band error, got {other:?}"),
        }
        assert!(session.drained(), "no job was submitted");
        assert_eq!(session.next_response(), None);
    }

    #[test]
    fn v1_session_takes_an_unterminated_final_line() {
        let server = ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut session = V1Session::new();
        assert!(matches!(
            session.line(b"{\"op\":\"ping\"}", &server),
            Some(V1Step::Reply(Response::Pong))
        ));
        let line = job_line("tail");
        match session.line(line.trim_end().as_bytes(), &server) {
            Some(V1Step::Submit(0, request)) => assert_eq!(request.id, "tail"),
            other => panic!("expected job 0, got {other:?}"),
        }
    }

    #[test]
    fn refused_jobs_keep_their_place_in_the_response_order() {
        let mut server =
            ScheduleServer::start(ServerConfig { workers: 1, ..ServerConfig::default() });
        // A closed queue refuses every submission.
        server.shutdown_in_place();
        let input = format!("{}{}{{\"op\":\"shutdown\"}}\n", job_line("a"), job_line("b"));
        let mut output = Vec::new();
        assert!(serve_lines(input.as_bytes(), &mut output, &server).unwrap());
        let text = String::from_utf8(output).unwrap();
        let responses: Vec<Response> =
            text.lines().map(|line| Response::parse(line).unwrap()).collect();
        let ids: Vec<&str> = responses
            .iter()
            .map(|r| match r {
                Response::Error { id, .. } => id.as_str(),
                Response::ShuttingDown => "ack",
                other => panic!("unexpected response: {other:?}"),
            })
            .collect();
        assert_eq!(ids, ["a", "b", "ack"], "{text}");
    }
}
