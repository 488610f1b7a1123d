//! Request routing for the serve daemon: one connection, one request, one response.

use super::http::{self, ChunkedResponse, Request};
use super::jobs::JobSnapshot;
use super::metrics::{render, Sample};
use super::Shared;
use crate::history::{render as render_json, Entry};
use serde_json::Value;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Handles one connection: parse, route, respond.  Errors writing back mean the client
/// hung up; they are deliberately ignored.
pub fn handle(mut stream: TcpStream, shared: &Arc<Shared>) {
    let request = match http::read_request(&stream) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(message) => {
            let _ = http::respond(&mut stream, 400, "application/json", &error_body(&message));
            return;
        }
    };
    shared.registry.add("klex_http_requests_total", 1);
    let _ = route(&mut stream, &request, shared);
}

fn route(stream: &mut TcpStream, request: &Request, shared: &Arc<Shared>) -> std::io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(stream, shared),
        ("GET", "/jobs") => list_jobs(stream, shared),
        ("POST", "/jobs") => submit(stream, request, shared),
        ("GET", "/metrics") => metrics(stream, shared),
        ("POST", "/shutdown") => {
            shared.request_shutdown();
            http::respond(stream, 200, "application/json", "{\"status\": \"shutting down\"}\n")
        }
        (method, path) if path.starts_with("/jobs/") => job_route(stream, method, path, shared),
        (_, path) => http::respond(
            stream,
            404,
            "application/json",
            &error_body(&format!("no such endpoint {path}")),
        ),
    }
}

/// Routes `/jobs/<id>` and `/jobs/<id>/stream`.
fn job_route(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    let rest = &path["/jobs/".len()..];
    let (id_text, stream_suffix) = match rest.strip_suffix("/stream") {
        Some(id_text) => (id_text, true),
        None => (rest, false),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return http::respond(
            stream,
            400,
            "application/json",
            &error_body(&format!("bad job id {id_text:?}")),
        );
    };
    match (method, stream_suffix) {
        ("GET", true) => stream_job(stream, id, shared),
        ("GET", false) => match shared.jobs.snapshot(id) {
            Some(snapshot) => {
                http::respond(stream, 200, "application/json", &job_body(&snapshot, true))
            }
            None => job_not_found(stream, id),
        },
        ("DELETE", false) => match shared.jobs.cancel(id) {
            Some(state) => http::respond(
                stream,
                200,
                "application/json",
                &format!("{{\"id\": {id}, \"state\": \"{}\"}}\n", state.label()),
            ),
            None => job_not_found(stream, id),
        },
        _ => http::respond(stream, 405, "application/json", &error_body("method not allowed")),
    }
}

fn job_not_found(stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    http::respond(stream, 404, "application/json", &error_body(&format!("no job {id}")))
}

fn healthz(stream: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let [queued, running, done, failed, cancelled] = shared.jobs.counts();
    let jobs = Entry::new()
        .int("queued", queued as i128)
        .int("running", running as i128)
        .int("done", done as i128)
        .int("failed", failed as i128)
        .int("cancelled", cancelled as i128)
        .build();
    let body = Entry::new()
        .str("status", "ok")
        .num("uptime_secs", shared.uptime_secs())
        .int("workers", shared.workers_total as i128)
        .val("jobs", jobs)
        .build();
    http::respond(stream, 200, "application/json", &(render_json(&body) + "\n"))
}

fn job_value(snapshot: &JobSnapshot, with_result: bool) -> Value {
    let mut entry = Entry::new()
        .int("id", snapshot.id as i128)
        .str("name", &snapshot.name)
        .str("kind", snapshot.kind)
        .str("state", snapshot.state.label())
        .int("events", snapshot.events as i128);
    if with_result {
        if let Some(result) = &snapshot.result {
            entry = entry.str("result", result);
        }
    }
    if let Some(error) = &snapshot.error {
        entry = entry.str("error", error);
    }
    entry.build()
}

fn job_body(snapshot: &JobSnapshot, with_result: bool) -> String {
    render_json(&job_value(snapshot, with_result)) + "\n"
}

fn list_jobs(stream: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let jobs: Vec<Value> =
        shared.jobs.list().iter().map(|snapshot| job_value(snapshot, false)).collect();
    let body = Entry::new().val("jobs", Value::Array(jobs)).build();
    http::respond(stream, 200, "application/json", &(render_json(&body) + "\n"))
}

fn submit(stream: &mut TcpStream, request: &Request, shared: &Arc<Shared>) -> std::io::Result<()> {
    match super::submit_body(shared, &request.body_str()) {
        Ok(id) => http::respond(
            stream,
            201,
            "application/json",
            &format!("{{\"id\": {id}, \"state\": \"queued\"}}\n"),
        ),
        Err(message) if message == "queue full" || message == "shutting down" => {
            http::respond(stream, 503, "application/json", &error_body(&message))
        }
        Err(message) => http::respond(stream, 400, "application/json", &error_body(&message)),
    }
}

fn metrics(stream: &mut TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let counters = shared.registry.snapshot();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let [queued, running, done, failed, cancelled] = shared.jobs.counts();
    let uptime = shared.uptime_secs().max(1e-9);
    let states = counter("klex_states_explored_total");
    let scenarios = counter("klex_trials_completed_total") + counter("klex_fuzz_scenarios_total");
    let samples = [
        Sample::counter("klex_http_requests_total", counter("klex_http_requests_total")),
        Sample::counter("klex_jobs_submitted_total", counter("klex_jobs_submitted_total")),
        Sample::counter("klex_jobs_done_total", done),
        Sample::counter("klex_jobs_failed_total", failed),
        Sample::counter("klex_jobs_cancelled_total", cancelled),
        Sample::counter("klex_states_explored_total", states),
        Sample::counter("klex_trials_completed_total", counter("klex_trials_completed_total")),
        Sample::counter("klex_fuzz_scenarios_total", counter("klex_fuzz_scenarios_total")),
        Sample::gauge("klex_jobs_queued", queued as f64),
        Sample::gauge("klex_jobs_running", running as f64),
        Sample::gauge("klex_queue_depth", queued as f64),
        Sample::gauge("klex_workers_total", shared.workers_total as f64),
        Sample::gauge("klex_workers_busy", shared.workers_busy.load(Ordering::Relaxed) as f64),
        Sample::gauge("klex_uptime_seconds", uptime),
        Sample::gauge("klex_states_per_sec", states as f64 / uptime),
        Sample::gauge("klex_scenarios_per_sec", scenarios as f64 / uptime),
    ];
    http::respond(stream, 200, "text/plain; version=0.0.4", &render(&samples))
}

/// Streams `GET /jobs/<id>/stream`: every recorded event line, then live events as they
/// arrive, then (for a done job) the result rows, as chunked JSONL.
fn stream_job(stream: &mut TcpStream, id: u64, shared: &Arc<Shared>) -> std::io::Result<()> {
    if shared.jobs.snapshot(id).is_none() {
        return job_not_found(stream, id);
    }
    let mut chunked = ChunkedResponse::start(stream, 200, "application/x-ndjson")?;
    let mut cursor = 0usize;
    while let Some((events, state)) =
        shared.jobs.wait_events(id, cursor, Duration::from_millis(250))
    {
        for line in &events {
            chunked.chunk(format!("{line}\n").as_bytes())?;
        }
        cursor += events.len();
        if state.terminal() {
            // Drain any events recorded between the wait and this check, then the payload.
            if let Some((rest, _)) = shared.jobs.wait_events(id, cursor, Duration::ZERO) {
                for line in &rest {
                    chunked.chunk(format!("{line}\n").as_bytes())?;
                }
            }
            if let Some(snapshot) = shared.jobs.snapshot(id) {
                if let Some(result) = snapshot.result {
                    for row in result.lines() {
                        chunked.chunk(format!("{row}\n").as_bytes())?;
                    }
                }
            }
            break;
        }
    }
    chunked.finish()
}

fn error_body(message: &str) -> String {
    render_json(&Entry::new().str("error", message).build()) + "\n"
}
