//! Loopback client for the serve daemon — the implementation behind `klex submit`,
//! `klex status` and `klex watch` (and the integration tests).

use super::http;
use serde_json::Value;

/// `GET /healthz`, parsed.
pub fn healthz(addr: &str) -> Result<Value, String> {
    get_json(addr, "/healthz")
}

/// `POST /jobs` with `body`; returns the assigned job id.
pub fn submit(addr: &str, body: &str) -> Result<u64, String> {
    let response = http::request(addr, "POST", "/jobs", Some(body), None)?;
    let doc = serde_json::from_str(&response.body)
        .map_err(|e| format!("unparsable submit response: {e}"))?;
    if response.status != 201 {
        let detail = doc.get("error").and_then(Value::as_str).unwrap_or("unknown error");
        return Err(format!("submit rejected ({}): {detail}", response.status));
    }
    doc.get("id").and_then(Value::as_u64).ok_or_else(|| "submit response has no id".to_string())
}

/// `GET /jobs`, parsed.
pub fn jobs(addr: &str) -> Result<Value, String> {
    get_json(addr, "/jobs")
}

/// `GET /jobs/<id>`, parsed (includes the result payload once the job is done).
pub fn status(addr: &str, id: u64) -> Result<Value, String> {
    get_json(addr, &format!("/jobs/{id}"))
}

/// `DELETE /jobs/<id>`; returns the job's state after the cancel request.
pub fn cancel(addr: &str, id: u64) -> Result<String, String> {
    let response = http::request(addr, "DELETE", &format!("/jobs/{id}"), None, None)?;
    let doc = serde_json::from_str(&response.body)
        .map_err(|e| format!("unparsable cancel response: {e}"))?;
    if response.status != 200 {
        let detail = doc.get("error").and_then(Value::as_str).unwrap_or("unknown error");
        return Err(format!("cancel rejected ({}): {detail}", response.status));
    }
    doc.get("state")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "cancel response has no state".to_string())
}

/// Consecutive reconnection attempts before a dropped stream is given up on.
const WATCH_MAX_ATTEMPTS: u32 = 6;
/// First reconnection delay; doubles per consecutive failure up to the cap.
const WATCH_BACKOFF_START_MS: u64 = 200;
/// Reconnection-delay ceiling.
const WATCH_BACKOFF_CAP_MS: u64 = 5_000;

/// The `(boot, seq)` stamp the daemon appends to every event line, when present.
fn event_key(line: &str) -> Option<(u64, u64)> {
    let doc: Value = serde_json::from_str(line).ok()?;
    let boot = doc.get("boot").and_then(Value::as_u64)?;
    let seq = doc.get("seq").and_then(Value::as_u64)?;
    Some((boot, seq))
}

/// `GET /jobs/<id>/stream`: feeds every JSONL line to `on_line` as it arrives, then
/// returns the job's final status (via [`status`]).
///
/// A dropped connection does not end the watch: the stream is reconnected with capped
/// exponential backoff (200 ms doubling to 5 s, `WATCH_MAX_ATTEMPTS` consecutive
/// failures before giving up).  The daemon replays a job's whole event buffer on every
/// stream request; reconnect dedup is keyed on the `(boot, seq)` stamp each event line
/// carries, so `on_line` sees each event exactly once even when the reconnect lands on
/// a *different daemon incarnation* that reuses the job id (a bounced server's fresh
/// events share seq numbers with the old buffer but not its boot id — a delivered-count
/// cursor would silently swallow them).  Unstamped lines (the result rows appended after
/// a terminal state) are deduped by position among unstamped lines.  A drop after the
/// job reached a terminal state is not an error; the final status is fetched and
/// returned as if the stream had ended cleanly.
pub fn watch(addr: &str, id: u64, on_line: &mut dyn FnMut(&str)) -> Result<Value, String> {
    // Newest stamped line delivered; replays are lines with the same boot and seq ≤ this.
    let mut last_seen: Option<(u64, u64)> = None;
    // Unstamped (result-row) lines delivered so far — replayed verbatim from the start
    // of the payload on every reconnect, so a plain position cursor is exact for them.
    let mut rows_delivered = 0usize;
    let mut attempts = 0u32;
    let mut backoff = WATCH_BACKOFF_START_MS;
    loop {
        let mut fresh = 0usize;
        let mut rows_replayed = 0usize;
        let mut relay = |line: &str| match event_key(line) {
            Some((boot, seq)) => {
                let replay = matches!(last_seen, Some((b, s)) if boot == b && seq <= s);
                if !replay {
                    last_seen = Some((boot, seq));
                    fresh += 1;
                    on_line(line);
                }
            }
            None => {
                if rows_replayed < rows_delivered {
                    rows_replayed += 1;
                } else {
                    rows_delivered += 1;
                    fresh += 1;
                    on_line(line);
                }
            }
        };
        let result =
            http::request(addr, "GET", &format!("/jobs/{id}/stream"), None, Some(&mut relay));
        match result {
            Ok(response) if response.status == 200 => return status(addr, id),
            Ok(response) => return Err(format!("stream rejected ({})", response.status)),
            Err(err) => {
                // A connection dropped at (or after) job completion is not a failure —
                // the terminal status is the same answer a clean stream end produces.
                if let Ok(doc) = status(addr, id) {
                    let state = doc.get("state").and_then(Value::as_str).unwrap_or("");
                    if matches!(state, "done" | "failed" | "cancelled") {
                        return Ok(doc);
                    }
                }
                if fresh > 0 {
                    // The stream made progress before dropping: a fresh outage, not a
                    // continuation of the previous one.
                    attempts = 0;
                    backoff = WATCH_BACKOFF_START_MS;
                }
                attempts += 1;
                if attempts >= WATCH_MAX_ATTEMPTS {
                    return Err(format!(
                        "stream dropped after {attempts} reconnection attempts: {err}"
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(backoff));
                backoff = (backoff * 2).min(WATCH_BACKOFF_CAP_MS);
            }
        }
    }
}

/// `GET /metrics` (raw Prometheus text).
pub fn metrics(addr: &str) -> Result<String, String> {
    let response = http::request(addr, "GET", "/metrics", None, None)?;
    if response.status != 200 {
        return Err(format!("metrics rejected ({})", response.status));
    }
    Ok(response.body)
}

/// `POST /shutdown`.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let response = http::request(addr, "POST", "/shutdown", None, None)?;
    if response.status != 200 {
        return Err(format!("shutdown rejected ({})", response.status));
    }
    Ok(())
}

fn get_json(addr: &str, path: &str) -> Result<Value, String> {
    let response = http::request(addr, "GET", path, None, None)?;
    let doc = serde_json::from_str(&response.body)
        .map_err(|e| format!("unparsable {path} response: {e}"))?;
    if response.status != 200 {
        let detail = doc.get("error").and_then(Value::as_str).unwrap_or("unknown error");
        return Err(format!("{path} failed ({}): {detail}", response.status));
    }
    Ok(doc)
}
