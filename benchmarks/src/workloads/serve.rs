//! `serve_mix`: the user-facing path end to end — an in-process `klex serve` daemon with two
//! workers, driven by a closed loop of two clients (callers of `klex submit` / `klex watch`
//! wait for their reply before sending the next job).
//!
//! Jobs are small on purpose: HTTP parse, JSON decode, compile (twice: validation + worker),
//! queueing, the chunked stream and the accept loop's 20 ms poll are a visible share of each,
//! whereas in the other four workloads they are nothing.

use super::jobmix::{self, Class, Job, CLASSES};
use super::{timed, Ctx, Measured};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use analysis::harness::render_jsonl;
use analysis::scenario::{preset, ScenarioSpec};
use bench::fuzz::{self, FuzzOptions};
use bench::runner::{run_rows, Backend, RunRequest};
use bench::serve::{client, ServeOptions, Server};
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WARMUP_JOBS: u64 = 8;
/// The warm-up jobs are the same in every run, so that set-up time does not depend on the
/// seed; the timed window draws its jobs from the run's seed.
const WARMUP_SEED: u64 = 0;

/// Client-side timestamps of one served job.
#[derive(Clone, Debug)]
pub struct JobTiming {
    pub index: u64,
    pub class: Class,
    pub posted: Instant,
    /// `201` received.
    pub accepted: Instant,
    /// The `running` event arrived on the stream.
    pub running: Instant,
    /// The terminal state event arrived on the stream.
    pub terminal: Instant,
    /// Stream closed and final status fetched.
    pub finished: Instant,
    pub stream_lines: usize,
    /// The job ended `done`; its result payload.
    pub result: Option<String>,
}

impl JobTiming {
    pub fn latency_ms(&self) -> f64 {
        (self.finished - self.posted).as_secs_f64() * 1e3
    }
}

/// Submits one job and follows it to its terminal status.
fn serve_job(addr: &str, index: u64, job: &Job) -> Result<JobTiming, String> {
    let posted = Instant::now();
    let id = client::submit(addr, &job.body)?;
    let accepted = Instant::now();
    let (mut running, mut terminal, mut stream_lines) = (None, None, 0);
    let status = client::watch(addr, id, &mut |line: &str| {
        stream_lines += 1;
        if line.starts_with("{\"event\":\"state\"") {
            let now = Instant::now();
            if line.contains("\"state\":\"running\"") {
                running.get_or_insert(now);
            } else {
                terminal.get_or_insert(now);
            }
        }
    })?;
    let finished = Instant::now();
    let done = status.get("state").and_then(Value::as_str) == Some("done");
    let result = status.get("result").and_then(Value::as_str).filter(|_| done).map(str::to_string);
    let terminal = terminal.unwrap_or(finished);
    Ok(JobTiming {
        index,
        class: job.class,
        posted,
        accepted,
        running: running.unwrap_or(terminal),
        terminal,
        finished,
        stream_lines,
        result,
    })
}

/// A running daemon on an ephemeral loopback port.
pub struct Daemon {
    server: Server,
    addr: String,
}

impl Daemon {
    pub fn start(seed: u64) -> Result<Daemon, String> {
        let options =
            ServeOptions { addr: "127.0.0.1:0".to_string(), workers: 2, queue_cap: 64, seed };
        let server =
            Server::start(&options).map_err(|e| format!("cannot start klex serve: {e}"))?;
        let addr = server.addr().to_string();
        Ok(Daemon { server, addr })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Shuts the daemon down and waits for its threads.
    pub fn stop(self) {
        self.server.stop();
        self.server.wait();
    }

    /// The closed loop: [`CLIENTS`] threads each take the next job of the stream, serve it
    /// to completion, and repeat until `keep_going(jobs started, seconds elapsed)` says stop.
    /// Returns the timings in job order and the wall time from first POST to last reply.
    pub fn closed_loop(
        &self,
        seed: u64,
        first_index: u64,
        keep_going: impl Fn(u64, f64) -> bool + Sync,
    ) -> Result<(Vec<JobTiming>, f64), String> {
        let next = AtomicU64::new(0);
        let started = Instant::now();
        let per_client: Vec<Result<Vec<JobTiming>, String>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut timings = Vec::new();
                        loop {
                            let taken = next.fetch_add(1, Ordering::Relaxed);
                            if !keep_going(taken, started.elapsed().as_secs_f64()) {
                                return Ok(timings);
                            }
                            let index = first_index + taken;
                            // Think time, uniform in 0–20 ms: callers are not synchronised
                            // with the daemon's 20 ms accept poll, and a client that is would
                            // quantise every latency to that grid.
                            let think_us =
                                super::seed_stream(super::seed_stream(seed, 7), index) % 20_000;
                            std::thread::sleep(Duration::from_micros(think_us));
                            timings.push(serve_job(&self.addr, index, &jobmix::job(seed, index))?);
                        }
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let mut timings = Vec::new();
        for client in per_client {
            timings.extend(client?);
        }
        timings.sort_by_key(|t| t.index);
        Ok((timings, wall_s))
    }
}

/// Runs `job` in this process the way a worker would, returning the result payload and the
/// milliseconds it took (run jobs: `run_rows` + `render_jsonl`; fuzz jobs: the campaign).
pub fn in_process(job: &Job) -> Result<(String, f64), String> {
    let doc = serde_json::from_str(&job.body).map_err(|e| e.to_string())?;
    let uint = |doc: &Value, key: &str| doc.get(key).and_then(Value::as_u64);
    let started = Instant::now();
    let payload = if let Some(campaign) = doc.get("fuzz") {
        let field = |key: &str| uint(campaign, key).ok_or(format!("fuzz body lacks {key}"));
        let mut options = FuzzOptions::new(field("seed")?);
        options.scenarios = field("scenarios")?;
        options.max_configurations = field("max_configurations")? as usize;
        options.sim_steps = field("sim_steps")?;
        options.shards = field("shards")? as usize;
        options.threads = field("threads")? as usize;
        options.guided = campaign.get("guided").and_then(Value::as_bool).unwrap_or(true);
        options.out_dir = std::env::temp_dir();
        let summary = fuzz::run_campaign_with(&options, &mut fuzz::Corpus::in_memory());
        if !summary.clean() {
            return Err(format!(
                "fuzz campaign found {} disagreements",
                summary.disagreements.len()
            ));
        }
        summary_line(
            [
                summary.scenarios,
                summary.exhaustive,
                summary.liveness_violations,
                summary.safety_violations,
                summary.differential_oracle_runs,
                summary.distinct_signatures as u64,
                summary.novel_signatures,
                summary.corpus_size as u64,
            ]
            .map(Some),
        )
    } else {
        let spec = match doc.get("preset").and_then(Value::as_str) {
            Some(name) => preset(name).ok_or(format!("unknown preset {name}"))?,
            None => {
                let spec = doc.get("spec").ok_or("job body has neither preset nor spec")?;
                ScenarioSpec::from_json(&bench::history::render(spec)).map_err(|e| e.to_string())?
            }
        };
        let request = RunRequest {
            backend: Backend::parse(doc.get("backend").and_then(Value::as_str).unwrap_or("sim"))?,
            shards: uint(&doc, "shards").unwrap_or(0) as usize,
            threads: uint(&doc, "threads").map(|t| t as usize),
            bench: false,
        };
        let scenario = spec.compile().map_err(|e| e.to_string())?;
        render_jsonl(&run_rows(&scenario, &request, None)?.rows)
    };
    Ok((payload, started.elapsed().as_secs_f64() * 1e3))
}

/// The counters of the daemon's one-line campaign summary, in its order.
const SUMMARY_KEYS: [&str; 8] = [
    "scenarios",
    "exhaustive",
    "liveness_violations",
    "safety_violations",
    "differential_oracle_runs",
    "distinct_signatures",
    "novel_signatures",
    "corpus_size",
];

/// A campaign summary as `key=value` pairs, the form served and in-process fuzz results are
/// compared in.
fn summary_line(values: [Option<u64>; 8]) -> String {
    let fields: Vec<String> =
        SUMMARY_KEYS.iter().zip(values).map(|(key, value)| format!("{key}={value:?}")).collect();
    fields.join(" ")
}

/// The served result in the form [`in_process`] produces, so the two compare byte for byte.
fn comparable(class: Class, served: &str) -> Result<String, String> {
    if class != Class::Fuzz {
        return Ok(served.to_string());
    }
    let doc = serde_json::from_str(served).map_err(|e| format!("fuzz summary: {e}"))?;
    Ok(summary_line(SUMMARY_KEYS.map(|key| doc.get(key).and_then(Value::as_u64))))
}

/// In-process reference of the first job of each class among `timings`: how many served
/// results differ from it, and the milliseconds each reference run took.
pub fn check_against_in_process(
    seed: u64,
    timings: &[JobTiming],
) -> Result<(u64, Vec<(Class, f64)>), String> {
    let mut mismatches = 0;
    let mut reference_ms = Vec::new();
    for class in CLASSES {
        let served = timings
            .iter()
            .find(|t| t.class == class)
            .ok_or_else(|| format!("no {} job was served", class.label()))?;
        let (expected, ms) = in_process(&jobmix::job(seed, served.index))?;
        let matches = match &served.result {
            Some(result) => comparable(class, result)? == expected,
            None => false,
        };
        if !matches {
            eprintln!(
                "serve_mix: served {} job {} differs from the in-process run",
                class.label(),
                served.index
            );
            mismatches += 1;
        }
        reference_ms.push((class, ms));
    }
    Ok((mismatches, reference_ms))
}

/// One closed-loop window with everything the per-layer metrics need.
pub struct Session {
    pub timings: Vec<JobTiming>,
    pub wall_s: f64,
    /// CPU seconds the whole process used during the window.
    pub cpu_s: f64,
    /// Round trips of a request that does no work, taken after the window.
    pub healthz_ms: Vec<f64>,
}

impl Session {
    /// Serves the jobs `first_index..` of the stream while `keep_going` allows.
    pub fn serve(
        daemon: &Daemon,
        seed: u64,
        first_index: u64,
        keep_going: impl Fn(u64, f64) -> bool + Sync,
    ) -> Result<Session, String> {
        let cpu_before = crate::host::cpu_seconds()?;
        let (timings, wall_s) = daemon.closed_loop(seed, first_index, keep_going)?;
        let cpu_s = crate::host::cpu_seconds()? - cpu_before;
        let healthz_ms = (0..20)
            .map(|_| {
                let started = Instant::now();
                client::healthz(daemon.addr()).map(|_| started.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Result<_, _>>()?;
        Ok(Session { timings, wall_s, cpu_s, healthz_ms })
    }

    pub fn cpu_util(&self) -> f64 {
        self.cpu_s / (CLIENTS as f64 * self.wall_s)
    }

    fn class_p50_ms(&self, class: Class) -> f64 {
        let latencies: Vec<f64> =
            self.timings.iter().filter(|t| t.class == class).map(JobTiming::latency_ms).collect();
        median(&latencies)
    }

    /// Records one `job` span per served job with its four client-side parts as children:
    /// POST → 201, 201 → `running` event, `running` → terminal event, terminal event →
    /// stream closed and status fetched.  The parts partition the job.
    pub fn record_spans(&self, tracer: &mut Tracer) {
        for t in &self.timings {
            let job = tracer.record("bench.serve/job", t.index, None, t.posted, t.finished);
            let parts = [
                ("bench.serve.http/submit", t.posted, t.accepted),
                ("bench.serve.jobs/queue_wait", t.accepted, t.running),
                ("bench.serve.jobs/run", t.running, t.terminal),
                ("bench.serve.jobs/tail", t.terminal, t.finished),
            ];
            for (name, start, end) in parts {
                tracer.record(name, t.index, job, start, end);
            }
        }
    }

    /// The per-layer metrics of the serve path; `reference_ms` is what each class's job costs
    /// in process ([`check_against_in_process`]).
    pub fn layer_metrics(&self, reference_ms: &[(Class, f64)]) -> Vec<Metric> {
        let part_ms = |part: &dyn Fn(&JobTiming) -> std::time::Duration| -> f64 {
            median(&self.timings.iter().map(|t| part(t).as_secs_f64() * 1e3).collect::<Vec<_>>())
        };
        let lines: usize = self.timings.iter().map(|t| t.stream_lines).sum();
        let mut out = vec![
            Metric::new("http.healthz_rtt_ms", median(&self.healthz_ms), "ms"),
            Metric::new("http.submit_ms", part_ms(&|t| t.accepted - t.posted), "ms"),
            Metric::new("jobs.queue_wait_ms", part_ms(&|t| t.running - t.accepted), "ms"),
            Metric::new("jobs.run_ms", part_ms(&|t| t.terminal - t.running), "ms"),
            Metric::new("jobs.tail_ms", part_ms(&|t| t.finished - t.terminal), "ms"),
            Metric::new("serve.stream_lines", lines as f64 / self.timings.len() as f64, "count"),
            Metric::new("serve.cpu_util", self.cpu_util(), "ratio"),
        ];
        for &(class, reference) in reference_ms {
            out.push(Metric {
                name: format!("serve.overhead_{}_ms", class.label()),
                value: self.class_p50_ms(class) - reference,
                unit: "ms",
            });
        }
        out
    }
}

/// Starts a daemon and serves the warm-up jobs: the set-up pass of `serve_mix`.
///
/// The pass ends with both clients submitting a `check` job at the same instant.  Two
/// certifications at once are what the daemon's memory peaks at (≈26 MiB against ≈22 MiB for
/// any other pair); whether the timed window happens to overlap two of them is a coin that
/// lands heads in three runs out of four, so the overlap is made part of every run.
pub fn start_warm(seed: u64, tracer: &mut Tracer) -> Result<Daemon, String> {
    let daemon = tracer.span("bench.serve/Server::start", 0, |_| Daemon::start(seed))?;
    tracer.span("bench.serve/warm-up jobs", 0, |_| {
        daemon.closed_loop(WARMUP_SEED, 0, |taken, _| taken < WARMUP_JOBS)
    })?;
    let check = (0..)
        .map(|index| jobmix::job(WARMUP_SEED, index))
        .find(|job| job.class == Class::Check)
        .expect("every block of four has a check job");
    tracer.span("bench.serve/two check jobs at once", 0, |_| {
        let start = std::sync::Barrier::new(CLIENTS);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        serve_job(daemon.addr(), 0, &check).map(|_| ())
                    })
                })
                .collect();
            clients.into_iter().try_for_each(|c| c.join().expect("client thread panicked"))
        })
    })?;
    Ok(daemon)
}

/// The traced run's window: 32 jobs with the tracer off, then 32 recorded as spans; returns
/// the recorded session and the latency difference between the two, in percent.
fn traced_windows(
    daemon: &Daemon,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Session, f64), String> {
    let p50 =
        |s: &Session| median(&s.timings.iter().map(JobTiming::latency_ms).collect::<Vec<_>>());
    let plain = Session::serve(daemon, seed, 0, |taken, _| taken < 32)?;
    let traced = Session::serve(daemon, seed, 32, |taken, _| taken < 32)?;
    traced.record_spans(tracer);
    let overhead = (p50(&traced) / p50(&plain) - 1.0) * 100.0;
    Ok((traced, overhead))
}

/// The serve layers measured on a small session of their own, for the traced runs of the
/// other workloads.
pub fn probe(seed: u64, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let daemon = start_warm(seed, tracer)?;
    let session = Session::serve(&daemon, seed, 0, |taken, _| taken < 32);
    daemon.stop();
    let session = session?;
    session.record_spans(tracer);
    let (_, reference_ms) = check_against_in_process(seed, &session.timings)?;
    Ok(session.layer_metrics(&reference_ms))
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let seed = ctx.seed;

    // Set-up is repeated, each time on a fresh daemon; the last one serves the timed window.
    let mut kept: Option<Daemon> = None;
    for _ in 0..3 {
        if let Some(daemon) = kept.take() {
            daemon.stop();
        }
        let (daemon, seconds) = timed(|| start_warm(seed, ctx.tracer));
        kept = Some(daemon?);
        measured.setup_s.push(seconds);
    }
    let daemon = kept.expect("three set-up passes ran");

    let seconds = ctx.seconds;
    let session = if ctx.trace {
        traced_windows(&daemon, seed, ctx.tracer).map(|(session, overhead)| {
            measured.layers.push(Metric::new("trace_overhead_pct", overhead, "%"));
            session
        })
    } else {
        Session::serve(&daemon, seed, 0, |taken, elapsed| taken < 16 || elapsed < seconds)
    };
    daemon.stop();
    let session = session?;

    // One served job of each class must equal what the same job produces in process.
    let (mismatches, reference_ms) = check_against_in_process(seed, &session.timings)?;
    let unfinished = session.timings.iter().filter(|t| t.result.is_none()).count() as u64;
    measured.attempted = (session.timings.len() + CLASSES.len()) as u64;
    measured.failed = unfinished + mismatches;
    measured.job_ms = session.timings.iter().map(JobTiming::latency_ms).collect();
    measured.ops_per_s = Some(session.timings.len() as f64 / session.wall_s);
    measured.round_ops = vec![session.timings.len() as u64];
    measured.round_s = vec![session.wall_s];
    measured.exact = vec![(
        "stream_lines_first_16_jobs".to_string(),
        session.timings.iter().take(16).map(|t| t.stream_lines as u64).sum(),
    )];
    for class in CLASSES {
        measured.diagnostics.push(Metric {
            name: format!("job_p50_ms.{}", class.label()),
            value: session.class_p50_ms(class),
            unit: "ms",
        });
    }
    measured.diagnostics.push(Metric::new("cpu_util", session.cpu_util(), "ratio"));
    if ctx.trace {
        measured.serve_layers = Some(session.layer_metrics(&reference_ms));
    }
    Ok(measured)
}
