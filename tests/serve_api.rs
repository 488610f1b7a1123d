//! Loopback integration tests for the `klex serve` daemon: concurrent submissions over
//! real sockets, JSONL progress streaming, mid-run cancellation, the Prometheus scrape,
//! and the byte-identity contract — a served job's result is exactly what a direct
//! `klex run <spec> --format jsonl` of the same spec renders, at any worker count.

use analysis::harness::render_jsonl;
use analysis::scenario::{preset, WorkloadSpec};
use bench::runner::{run_rows, Backend, RunRequest};
use bench::serve::{client, ServeOptions, Server};
use serde_json::Value;
use std::time::{Duration, Instant};

/// Starts a daemon on an ephemeral loopback port and returns it with its dial address.
fn start(workers: usize) -> (Server, String) {
    let opts = ServeOptions { addr: "127.0.0.1:0".to_string(), workers, queue_cap: 64, seed: 7 };
    let server = Server::start(&opts).expect("bind an ephemeral loopback port");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Polls `GET /jobs/<id>` until the job's state satisfies `accept`, failing after
/// `deadline`.
fn wait_for_state(addr: &str, id: u64, accept: &[&str], deadline: Duration) -> Value {
    let start = Instant::now();
    loop {
        let doc = client::status(addr, id).expect("status");
        let state = doc.get("state").and_then(Value::as_str).unwrap_or("unknown").to_string();
        if accept.contains(&state.as_str()) {
            return doc;
        }
        assert!(
            start.elapsed() < deadline,
            "job {id} stuck in state `{state}` (wanted one of {accept:?})"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn concurrent_submissions_all_stream_to_completion() {
    let (server, addr) = start(2);
    // Four presets submitted from four client threads at once; every stream must run to
    // a terminal `state` event even though only two workers execute them.
    let presets = ["figure2", "figure2-pusher", "figure2-ss", "checker-safety"];
    let handles: Vec<_> = presets
        .iter()
        .map(|name| {
            let addr = addr.clone();
            let body = format!("{{\"preset\": {name:?}}}");
            std::thread::spawn(move || {
                let id = client::submit(&addr, &body).expect("submit");
                let mut lines = Vec::new();
                let doc = client::watch(&addr, id, &mut |line: &str| lines.push(line.to_string()))
                    .expect("watch");
                (id, lines, doc)
            })
        })
        .collect();
    let mut ids = Vec::new();
    for handle in handles {
        let (id, lines, doc) = handle.join().expect("client thread");
        ids.push(id);
        assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"), "job {id}");
        // The stream carries lifecycle events and finishes with the result rows (one JSON
        // object per line, no `event` key).
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"event\": \"state\"") || l.contains("\"event\":\"state\"")),
            "job {id} streamed no state event: {lines:?}"
        );
        let rows: Vec<&String> = lines.iter().filter(|l| !l.contains("\"event\"")).collect();
        assert!(!rows.is_empty(), "job {id} streamed no result rows");
        for row in rows {
            serde_json::from_str(row).expect("result rows are JSONL");
        }
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4, "four distinct job ids");

    let listing = client::jobs(&addr).expect("job listing");
    let Some(Value::Array(jobs)) = listing.get("jobs") else { panic!("no jobs array") };
    assert_eq!(jobs.len(), 4);

    client::shutdown(&addr).expect("shutdown");
    server.wait();
}

#[test]
fn job_results_are_byte_identical_to_direct_runs_at_any_worker_count() {
    // The contract under test: serve executes jobs through bench::runner::run_rows, the
    // same function `klex run` calls, so the JSONL payload matches byte for byte.
    let scenario = preset("checker-safety").expect("preset").compile().expect("compile");
    let request = RunRequest { backend: Backend::All, shards: 2, threads: None, bench: false };
    let direct = run_rows(&scenario, &request, None).expect("direct run");
    let expected = render_jsonl(&direct.rows);

    for workers in [1usize, 3] {
        let (server, addr) = start(workers);
        let body = r#"{"preset": "checker-safety", "backend": "all", "shards": 2}"#;
        let id = client::submit(&addr, body).expect("submit");
        let doc = wait_for_state(&addr, id, &["done", "failed"], Duration::from_secs(120));
        assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
        let result = doc.get("result").and_then(Value::as_str).expect("done job has a result");
        assert_eq!(
            result, expected,
            "served result differs from the direct run at {workers} worker(s)"
        );
        client::shutdown(&addr).expect("shutdown");
        server.wait();
    }
}

#[test]
fn running_jobs_cancel_mid_flight() {
    let (server, addr) = start(1);
    // A fuzz campaign far too large to finish: the single worker claims it, then the
    // cancel flag stops it at the next batch boundary and the result is discarded.
    let id = client::submit(&addr, r#"{"fuzz": {"scenarios": 100000}}"#).expect("submit");
    wait_for_state(&addr, id, &["running"], Duration::from_secs(30));
    let state = client::cancel(&addr, id).expect("cancel");
    assert!(
        state == "running" || state == "cancelled",
        "cancel of a running job reported `{state}`"
    );
    let doc = wait_for_state(&addr, id, &["cancelled"], Duration::from_secs(60));
    assert!(doc.get("result").is_none(), "a cancelled job keeps no result");

    // Cancelling a queued job is immediate: block the worker with a second big campaign,
    // queue a third job behind it, cancel the queued one.
    let blocker = client::submit(&addr, r#"{"fuzz": {"scenarios": 100000}}"#).expect("submit");
    let queued = client::submit(&addr, r#"{"preset": "figure2"}"#).expect("submit");
    wait_for_state(&addr, blocker, &["running"], Duration::from_secs(30));
    assert_eq!(client::cancel(&addr, queued).expect("cancel queued"), "cancelled");
    client::cancel(&addr, blocker).expect("cancel blocker");

    client::shutdown(&addr).expect("shutdown");
    server.wait();
}

#[test]
fn snapshot_jobs_stream_per_cut_events_and_verdict_metrics() {
    use analysis::scenario::{InitiatorSpec, SnapshotSpec};

    let (server, addr) = start(1);
    // A spec with a snapshot block: the stream must carry per-cut progress events and
    // the result rows must report the cut census verdicts as metrics.
    let mut spec = preset("quickstart").expect("preset");
    spec.snapshots = Some(SnapshotSpec { interval: 512, initiator: InitiatorSpec::Rotate });
    let body = format!("{{\"spec\": {}, \"backend\": \"sim\"}}", spec.to_json());
    let id = client::submit(&addr, &body).expect("submit");
    let mut lines = Vec::new();
    let doc =
        client::watch(&addr, id, &mut |line: &str| lines.push(line.to_string())).expect("watch");
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
    assert!(
        lines.iter().any(|l| l.contains("\"phase\":\"snapshot\"")),
        "no per-snapshot progress event in the stream: {lines:?}"
    );
    let row = lines.iter().find(|l| l.contains("snapshots_taken")).expect("result row");
    let row: Value = serde_json::from_str(row).expect("result row is JSON");
    let metric = |name: &str| {
        row.get("metrics").and_then(|m| m.get(name)).and_then(Value::as_f64).unwrap_or(-1.0)
    };
    assert!(metric("snapshots_taken") >= 1.0, "at least one cut completed");
    assert_eq!(
        metric("snapshots_clean"),
        metric("snapshots_taken"),
        "every cut of a legitimate execution is clean"
    );

    client::shutdown(&addr).expect("shutdown");
    server.wait();
}

/// What one scripted connection of the fake daemon does (see
/// [`watch_survives_a_daemon_bounce_without_dropping_or_duplicating_events`]).
enum Script {
    /// Serve `GET /jobs/<id>/stream` as chunked JSONL; `complete` decides between a clean
    /// terminating chunk and an abrupt mid-stream connection drop.
    Stream { lines: Vec<String>, complete: bool },
    /// Serve `GET /jobs/<id>` with the given job state.
    Status { state: &'static str },
}

/// Runs a scripted daemon: each accepted connection consumes the next [`Script`] entry.
fn scripted_daemon(
    listener: std::net::TcpListener,
    script: Vec<Script>,
) -> std::thread::JoinHandle<()> {
    use std::io::{BufRead, BufReader, Write};
    std::thread::spawn(move || {
        for action in script {
            let (mut stream, _) = listener.accept().expect("accept");
            // Drain the request head so the client's write never sees a reset.
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 || line.trim_end().is_empty() {
                    break;
                }
            }
            match action {
                Script::Stream { lines, complete } => {
                    write!(
                        stream,
                        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                    )
                    .expect("stream head");
                    for line in lines {
                        let data = format!("{line}\n");
                        write!(stream, "{:x}\r\n{data}\r\n", data.len()).expect("chunk");
                    }
                    if complete {
                        write!(stream, "0\r\n\r\n").expect("final chunk");
                    }
                    // Dropping the stream without the zero chunk is the "bounce": the
                    // client sees the connection die mid-stream.
                }
                Script::Status { state } => {
                    let body = format!("{{\"id\": 1, \"state\": \"{state}\"}}");
                    write!(
                        stream,
                        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .expect("status response");
                }
            }
        }
    })
}

fn stamped(boot: u64, seq: u64) -> String {
    format!("{{\"event\":\"progress\",\"phase\":\"trials\",\"done\":{seq},\"total\":0,\"boot\":{boot},\"seq\":{seq}}}")
}

#[test]
fn watch_survives_a_daemon_bounce_without_dropping_or_duplicating_events() {
    // The reconnect-dedup contract: `client::watch` keys replay suppression on the
    // `(boot, seq)` stamp of each event line, not on how many lines were delivered.  A
    // scripted daemon drives the exact failure the count-based cursor had: after a
    // bounce, a *new daemon incarnation* replays its own buffer from seq 0 under a fresh
    // boot id — every one of those lines is new information, but a count cursor would
    // silently swallow the first `delivered` of them.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let old_boot = 11u64;
    let new_boot = 22u64;
    let daemon = scripted_daemon(
        listener,
        vec![
            // Incarnation A streams five events, then dies mid-stream.
            Script::Stream {
                lines: (0..5).map(|s| stamped(old_boot, s)).collect(),
                complete: false,
            },
            Script::Status { state: "running" }, // the watcher's terminal-drop check
            // Still incarnation A: full replay plus two new events, then dies again.
            Script::Stream {
                lines: (0..7).map(|s| stamped(old_boot, s)).collect(),
                complete: false,
            },
            Script::Status { state: "running" },
            // Incarnation B — the bounced daemon: same job id, fresh buffer, fresh boot
            // id, seq numbers overlapping A's, then the unstamped result row.
            Script::Stream {
                lines: (0..3)
                    .map(|s| stamped(new_boot, s))
                    .chain(std::iter::once("{\"label\":\"row\",\"metrics\":{}}".to_string()))
                    .collect(),
                complete: true,
            },
            Script::Status { state: "done" }, // the final status fetch
        ],
    );

    let mut lines = Vec::new();
    let doc = client::watch(&addr, 1, &mut |line: &str| lines.push(line.to_string()))
        .expect("watch across two bounces");
    daemon.join().expect("scripted daemon");
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));

    // Exactly once, in order: A's seven events (five + the two that arrived after the
    // first drop), B's three, then the result row.  No duplicates from the replays, no
    // swallowed lines from the bounce.
    let expected: Vec<String> = (0..7)
        .map(|s| stamped(old_boot, s))
        .chain((0..3).map(|s| stamped(new_boot, s)))
        .chain(std::iter::once("{\"label\":\"row\",\"metrics\":{}}".to_string()))
        .collect();
    assert_eq!(lines, expected);
}

#[test]
fn malformed_and_oversized_submissions_get_a_400_json_error() {
    use std::io::{Read, Write};

    let (server, addr) = start(1);

    // Unparsable JSON: the client helper surfaces the daemon's 400 with its error detail.
    let err = client::submit(&addr, "{not json").expect_err("malformed body must be rejected");
    assert!(err.contains("submit rejected (400)"), "unexpected error: {err}");

    // An oversized body (over the daemon's 1 MiB limit) must also come back as a 400 with
    // a JSON error body — not a dropped connection.  Raw socket: the client helper never
    // generates such a request.
    let body = vec![b'x'; 2 * (1 << 20)];
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .expect("request head");
    stream.write_all(&body).expect("the daemon drains the oversized body");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read the 400 response");
    assert!(response.starts_with("HTTP/1.1 400 "), "unexpected response: {response}");
    let json = response.split("\r\n\r\n").nth(1).expect("response has a body");
    let doc = serde_json::from_str(json).expect("the 400 body is JSON");
    let detail = doc.get("error").and_then(Value::as_str).expect("error detail");
    assert!(detail.contains("exceeds"), "unexpected detail: {detail}");

    // A hostile spec — well-formed JSON that fails `ScenarioSpec::validate` — is rejected at
    // submission with the typed error's message, and nothing is queued.
    let mut hostile = preset("checker-safety").expect("bundled preset");
    hostile.workload = WorkloadSpec::Saturated { units: 70_000, hold: 0 };
    let body = format!(r#"{{"spec": {}, "backend": "sim"}}"#, hostile.to_json());
    let err = client::submit(&addr, &body).expect_err("a hostile spec must be rejected");
    assert!(err.contains("submit rejected (400)"), "unexpected error: {err}");
    assert!(err.contains("70000 units"), "unexpected error: {err}");
    let listing = client::jobs(&addr).expect("job listing");
    let Some(Value::Array(jobs)) = listing.get("jobs") else { panic!("no jobs array") };
    assert!(jobs.is_empty(), "rejected submissions must not queue a job: {jobs:?}");

    // 1 MiB of `[`, exactly the body limit, stops at the parser's depth cap: unbounded
    // recursion would overflow the connection thread's stack and abort the whole daemon.
    let bomb = "[".repeat(1 << 20);
    let err = client::submit(&addr, &bomb).expect_err("a nesting bomb must be rejected");
    assert!(err.contains("submit rejected (400)"), "unexpected error: {err}");
    assert!(err.contains("nesting deeper than 128"), "unexpected error: {err}");

    // A spec that parses but does not decode names the path to the problem.
    let missing_k = preset("checker-safety").expect("bundled preset").to_json();
    let missing_k = missing_k.replacen("\"k\":", "\"not_k\":", 1);
    let err = client::submit(&addr, &format!(r#"{{"spec": {missing_k}}}"#))
        .expect_err("a spec without config.k must be rejected");
    assert!(err.contains("config.k: missing field"), "unexpected error: {err}");

    // The daemon is still healthy afterwards.
    let health = client::healthz(&addr).expect("healthz after bad submissions");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    client::shutdown(&addr).expect("shutdown");
    server.wait();
}

#[test]
fn metrics_scrape_exposes_the_daemon_counters() {
    let (server, addr) = start(1);
    let health = client::healthz(&addr).expect("healthz");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    let id = client::submit(&addr, r#"{"preset": "figure2"}"#).expect("submit");
    wait_for_state(&addr, id, &["done"], Duration::from_secs(120));

    let text = client::metrics(&addr).expect("metrics");
    for name in [
        "klex_http_requests_total",
        "klex_jobs_submitted_total",
        "klex_jobs_done_total",
        "klex_jobs_failed_total",
        "klex_jobs_cancelled_total",
        "klex_states_explored_total",
        "klex_trials_completed_total",
        "klex_fuzz_scenarios_total",
        "klex_jobs_queued",
        "klex_jobs_running",
        "klex_queue_depth",
        "klex_workers_total",
        "klex_workers_busy",
        "klex_uptime_seconds",
        "klex_states_per_sec",
        "klex_scenarios_per_sec",
    ] {
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "metrics scrape is missing {name}:\n{text}"
        );
    }
    assert!(text.contains("klex_jobs_done_total 1"), "done counter should be 1:\n{text}");
    assert!(text.contains("klex_jobs_submitted_total 1"));

    client::shutdown(&addr).expect("shutdown");
    server.wait();
}
