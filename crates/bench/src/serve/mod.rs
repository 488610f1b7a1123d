//! `klex serve` — the resident scenario-as-a-service daemon.
//!
//! A [`Server`] binds a loopback TCP address, spawns a worker pool (sized by the shared
//! [`analysis::harness::auto_workers`] derivation), and accepts HTTP/1.1 connections on a
//! dedicated accept thread.  Submitted jobs — scenario runs against any backend of
//! [`crate::runner`], or fuzz campaigns — flow through the bounded `jobs::JobTable`
//! queue; each worker executes its claimed job with a per-job `JobSink` that feeds
//! throttled JSONL progress events to stream watchers and monotonic counters to the
//! Prometheus registry.
//!
//! Endpoints (see `ARCHITECTURE.md` § serve for the full table):
//!
//! | endpoint                 | meaning                                              |
//! |--------------------------|------------------------------------------------------|
//! | `GET /healthz`           | liveness + uptime + job counts                       |
//! | `GET /jobs`              | all jobs, id order                                   |
//! | `POST /jobs`             | submit (`{"preset": …}` / `{"spec": …}` / `{"fuzz": …}`) |
//! | `GET /jobs/<id>`         | one job, result payload included                     |
//! | `GET /jobs/<id>/stream`  | chunked JSONL: progress events, then result rows     |
//! | `DELETE /jobs/<id>`      | cancel (queued: immediate; running: cooperative)     |
//! | `GET /metrics`           | Prometheus text exposition                           |
//! | `POST /shutdown`         | graceful shutdown                                    |
//!
//! Determinism: a run job executes the submitted spec verbatim — same spec, same seeds,
//! same rows as `klex run` — so its JSONL result is byte-identical to the CLI's at any
//! worker count (`tests/serve_api.rs` pins this).  Fuzz jobs without an explicit seed
//! draw one from the server's seed stream ([`analysis::harness::trial_seed`] of the
//! server seed and the submission index), so a daemon's job sequence is reproducible.

mod api;
pub mod client;
mod http;
mod jobs;
mod metrics;

pub use jobs::{JobKind, JobSnapshot, JobState, SubmitError};

use crate::fuzz::{self, FuzzOptions};
use crate::runner::{self, Backend, RunRequest};
use analysis::harness::{auto_workers, render_jsonl, trial_seed};
use analysis::scenario::{preset, ScenarioSpec};
use analysis::{Counter, MetricsRegistry, ProgressSink};
use jobs::{event_line, EventValue, JobTable};
use serde_json::Value;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of one daemon.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port `0` picks an ephemeral port (used by the tests).
    pub addr: String,
    /// Worker threads (`0` = one per core, via [`auto_workers`]).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond it get HTTP 503.
    pub queue_cap: usize,
    /// Seed of the server's per-job seed stream (fuzz jobs without an explicit seed).
    pub seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { addr: "127.0.0.1:7199".to_string(), workers: 0, queue_cap: 64, seed: 0 }
    }
}

/// State shared by the accept thread, the workers, and every connection handler.
struct Shared {
    /// The bound address (the actual port, when `0` was requested); also the target of the
    /// shutdown wake-up connect.
    addr: SocketAddr,
    jobs: JobTable,
    registry: MetricsRegistry,
    started: Instant,
    shutdown: AtomicBool,
    seed: u64,
    submissions: AtomicU64,
    workers_total: usize,
    workers_busy: AtomicUsize,
}

impl Shared {
    fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Raises the shutdown flag, releases the workers, and — the first time — wakes the
    /// accept thread out of its blocking `accept()` with one loopback connect.
    fn request_shutdown(&self) {
        let first = !self.shutdown.swap(true, Ordering::SeqCst);
        self.jobs.request_shutdown();
        if first {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            // A refused connect means the accept thread is already gone.
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
    }
}

/// A running daemon.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the address, spawns the worker pool and the accept thread, and returns.
    pub fn start(opts: &ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let workers_total = auto_workers(opts.workers);
        let shared = Arc::new(Shared {
            addr,
            jobs: JobTable::new(opts.queue_cap),
            registry: MetricsRegistry::new(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            seed: opts.seed,
            submissions: AtomicU64::new(0),
            workers_total,
            workers_busy: AtomicUsize::new(0),
        });
        let workers = (0..workers_total)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server { shared, accept: Some(accept), workers })
    }

    /// The bound address (the actual port, when `0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Asks the daemon to shut down (same effect as `POST /shutdown`).
    pub fn stop(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the daemon has shut down (accept thread and workers joined).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The accept loop: blocks in `accept()`, so a connection is picked up the moment it
/// arrives, and checks the shutdown flag each time `accept()` returns —
/// [`Shared::request_shutdown`] makes it return with a loopback connect of its own.  Each
/// connection gets a detached handler thread (connections are short-lived except streams,
/// which end when their job does).
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || api::handle(stream, &shared));
            }
            // A failing accept (descriptor exhaustion, an aborted handshake) must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One worker: claim, execute, record, repeat until shutdown.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some((id, kind, cancel)) = shared.jobs.claim_next() {
        shared.workers_busy.fetch_add(1, Ordering::Relaxed);
        let sink = JobSink::new(shared, id, cancel);
        let outcome = match kind {
            JobKind::Run { spec, request } => execute_run(shared, id, &spec, &request, &sink),
            JobKind::Fuzz { opts } => execute_fuzz(&opts, &sink),
        };
        match &outcome {
            Ok(_) => shared.registry.add("klex_jobs_done_total", 1),
            Err(_) => shared.registry.add("klex_jobs_failed_total", 1),
        }
        if sink.cancelled() {
            shared.registry.add("klex_jobs_cancelled_total", 1);
        }
        shared.jobs.finish(id, outcome);
        shared.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Executes a run job: compile, run the shared row builder, render the rows exactly as
/// `klex run --format jsonl` does.
fn execute_run(
    shared: &Arc<Shared>,
    id: u64,
    spec: &ScenarioSpec,
    request: &RunRequest,
    sink: &JobSink<'_>,
) -> Result<String, String> {
    let scenario = spec.clone().compile().map_err(|e| e.to_string())?;
    let product = runner::run_rows(&scenario, request, Some(sink))?;
    for note in product.notes.iter().chain(&product.warnings) {
        shared.jobs.push_event(id, event_line("note", &[("text", EventValue::Str(note))]));
    }
    Ok(render_jsonl(&product.rows))
}

/// Executes a fuzz job against an in-memory corpus, returning a one-line JSON summary.
fn execute_fuzz(opts: &FuzzOptions, sink: &JobSink<'_>) -> Result<String, String> {
    let mut corpus = fuzz::Corpus::in_memory();
    let summary = fuzz::run_campaign_observed(opts, &mut corpus, sink);
    if !summary.clean() {
        let first = &summary.disagreements[0];
        return Err(format!(
            "{} cross-engine disagreement(s); first at scenario {}: {}",
            summary.disagreements.len(),
            first.scenario_index,
            first.detail
        ));
    }
    Ok(format!(
        "{{\"scenarios\":{},\"exhaustive\":{},\"liveness_violations\":{},\
         \"safety_violations\":{},\"differential_oracle_runs\":{},\
         \"distinct_signatures\":{},\"novel_signatures\":{},\"corpus_size\":{},\
         \"disagreements\":0,\"seed\":{}}}",
        summary.scenarios,
        summary.exhaustive,
        summary.liveness_violations,
        summary.safety_violations,
        summary.differential_oracle_runs,
        summary.distinct_signatures,
        summary.novel_signatures,
        summary.corpus_size,
        opts.seed,
    ))
}

/// Per-phase progress stride before another event line is pushed (the checker already
/// throttles to one callback per 256 states; this throttles the *event log*, which is
/// replayed to every stream watcher).
fn event_stride(phase: &str) -> u64 {
    match phase {
        "explore" => 4_096,
        "trials" => 16,
        // Fault-campaign epochs are few and each marks a measured re-convergence: every
        // one is worth a stream event.
        "epoch" => 1,
        // Each completed consistent cut carries a safety verdict: stream them all.
        "snapshot" => 1,
        _ => 1,
    }
}

/// The per-job [`ProgressSink`]: cancellation from the job's cancel flag (or daemon
/// shutdown), progress into the job's event log (throttled) and the Prometheus counters
/// (as deltas, so concurrent jobs accumulate correctly).
struct JobSink<'a> {
    shared: &'a Arc<Shared>,
    id: u64,
    cancel: Arc<AtomicBool>,
    states: Counter,
    trials: Counter,
    fuzz: Counter,
    /// Per phase: (last value counted into the registry, last value evented).
    marks: Mutex<std::collections::BTreeMap<String, (u64, u64)>>,
}

impl<'a> JobSink<'a> {
    fn new(shared: &'a Arc<Shared>, id: u64, cancel: Arc<AtomicBool>) -> JobSink<'a> {
        JobSink {
            shared,
            id,
            cancel,
            states: shared.registry.counter("klex_states_explored_total"),
            trials: shared.registry.counter("klex_trials_completed_total"),
            fuzz: shared.registry.counter("klex_fuzz_scenarios_total"),
            marks: Mutex::new(std::collections::BTreeMap::new()),
        }
    }
}

impl ProgressSink for JobSink<'_> {
    fn progress(&self, phase: &str, done: u64, total: u64) {
        let (counted, evented) = {
            let mut marks = self.marks.lock().expect("unpoisoned sink marks");
            let slot = marks.entry(phase.to_string()).or_insert((0, 0));
            let delta = done.saturating_sub(slot.0);
            slot.0 = slot.0.max(done);
            let should_event = done >= slot.1 + event_stride(phase) || (done == total && total > 0);
            if should_event {
                slot.1 = done;
            }
            (delta, should_event)
        };
        match phase {
            "explore" => self.states.add(counted),
            "trials" => self.trials.add(counted),
            "fuzz" => self.fuzz.add(counted),
            _ => {}
        }
        if evented {
            self.shared.jobs.push_event(
                self.id,
                event_line(
                    "progress",
                    &[
                        ("phase", EventValue::Str(phase)),
                        ("done", EventValue::Int(done)),
                        ("total", EventValue::Int(total)),
                    ],
                ),
            );
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed) || self.shared.shutdown.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------------------
// Submission parsing
// ---------------------------------------------------------------------------------------

/// Parses a `POST /jobs` body into a named [`JobKind`].
///
/// Accepted shapes (all fields beyond the kind selector optional):
///
/// ```json
/// {"preset": "checker-safety", "backend": "check", "shards": 2, "bench": false}
/// {"spec": { …full ScenarioSpec… }, "backend": "all"}
/// {"fuzz": {"seed": 7, "scenarios": 64, "max_configurations": 6000, "sim_steps": 1500,
///           "guided": true, "shards": 2}}
/// ```
///
/// Unknown keys are ignored, so bodies that still carry the removed `"threads"` key load.
fn parse_job(body: &str, default_seed: u64) -> Result<(String, JobKind), String> {
    let doc = serde_json::from_str(body).map_err(|e| format!("request body: {e}"))?;

    if let Some(fuzz_spec) = doc.get("fuzz") {
        let field = |name: &str| fuzz_spec.get(name).and_then(Value::as_u64);
        let seed = field("seed").unwrap_or(default_seed);
        let mut opts = FuzzOptions::new(seed);
        // Service fuzz jobs default to smoke-sized budgets; a submission can widen them.
        opts.scenarios = field("scenarios").unwrap_or(64);
        opts.max_configurations = field("max_configurations").unwrap_or(6_000) as usize;
        opts.sim_steps = field("sim_steps").unwrap_or(1_500);
        opts.shards = field("shards").unwrap_or(0) as usize;
        opts.guided = fuzz_spec.get("guided").and_then(Value::as_bool).unwrap_or(true);
        opts.out_dir = std::env::temp_dir();
        let name = format!("fuzz-campaign seed={seed} x{}", opts.scenarios);
        return Ok((name, JobKind::Fuzz { opts }));
    }

    let spec = if let Some(name) = doc.get("preset").and_then(Value::as_str) {
        preset(name).ok_or_else(|| format!("unknown preset `{name}` (try `klex list`)"))?
    } else if let Some(spec_value) = doc.get("spec") {
        // The shim parses to a dynamic `Value`; re-render the subtree and hand it to the
        // spec's own (validating) parser.
        ScenarioSpec::from_json(&crate::history::render(spec_value)).map_err(|e| e.to_string())?
    } else {
        return Err("job needs `preset`, `spec` or `fuzz`".to_string());
    };
    // Submission-time validation: reject specs that cannot compile instead of queueing a
    // job doomed to fail.
    spec.clone().compile().map_err(|e| e.to_string())?;

    let backend = match doc.get("backend").and_then(Value::as_str) {
        Some(name) => Backend::parse(name)?,
        None => Backend::Sim,
    };
    let request = RunRequest {
        backend,
        shards: doc.get("shards").and_then(Value::as_u64).unwrap_or(0) as usize,
        threads: None,
        bench: doc.get("bench").and_then(Value::as_bool).unwrap_or(false),
    };
    Ok((spec.name.clone(), JobKind::Run { spec: Box::new(spec), request }))
}

/// Submits a parsed job, deriving the fuzz default seed from the server's seed stream.
fn submit_body(shared: &Arc<Shared>, body: &str) -> Result<u64, String> {
    let index = shared.submissions.fetch_add(1, Ordering::Relaxed);
    let (name, kind) = parse_job(body, trial_seed(shared.seed, index))?;
    match shared.jobs.submit(name, kind) {
        Ok((id, _cancel)) => {
            shared.registry.add("klex_jobs_submitted_total", 1);
            Ok(id)
        }
        Err(SubmitError::QueueFull) => Err("queue full".to_string()),
        Err(SubmitError::ShuttingDown) => Err("shutting down".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_job_accepts_presets_specs_and_fuzz() {
        let (name, kind) =
            parse_job(r#"{"preset": "checker-safety", "backend": "check", "threads": 1}"#, 0)
                .unwrap();
        // Job names come from the spec, which carries the preset's descriptive title.
        assert_eq!(name, preset("checker-safety").unwrap().name);
        let JobKind::Run { request, .. } = kind else { panic!("expected a run job") };
        assert_eq!(request.backend, Backend::Check);

        let spec_json = preset("checker-safety").unwrap().to_json();
        let (_, kind) =
            parse_job(&format!(r#"{{"spec": {spec_json}, "backend": "all"}}"#), 0).unwrap();
        assert!(matches!(kind, JobKind::Run { .. }));

        let (name, kind) = parse_job(r#"{"fuzz": {"scenarios": 8}}"#, 42).unwrap();
        assert!(name.contains("fuzz-campaign"));
        let JobKind::Fuzz { opts } = kind else { panic!("expected a fuzz job") };
        assert_eq!(opts.scenarios, 8);
        assert_eq!(opts.seed, 42, "seed defaults from the server stream");

        assert!(parse_job(r#"{"preset": "no-such"}"#, 0).is_err());
        assert!(parse_job(r#"{"backend": "sim"}"#, 0).is_err());
        assert!(parse_job("not json", 0).is_err());
    }
}
