//! The job table: a bounded queue of submitted scenario jobs plus their full lifecycle
//! (`queued → running → done | failed | cancelled`) behind one mutex and two condvars.
//!
//! Workers block on [`JobTable::claim_next`]; stream watchers block on
//! [`JobTable::wait_events`].  Every mutation that could unblock either side notifies the
//! corresponding condvar.  Jobs are kept in the table after they finish (the daemon is a
//! diagnostic tool, not a long-lived production queue), so `GET /jobs/<id>` works for the
//! daemon's whole lifetime.

use crate::fuzz::FuzzOptions;
use crate::runner::RunRequest;
use analysis::scenario::ScenarioSpec;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Distinguishes daemon incarnations within and across processes.  Every event line
/// carries it, so a watcher that reconnects to a *different* daemon (same address, same
/// job id) can tell the new daemon's events apart from a replay of lines it already saw.
static BOOTS: AtomicU64 = AtomicU64::new(0);

fn next_boot_id() -> u64 {
    // The process id separates daemons across restarts; the counter separates daemons
    // started within one process (the tests bounce servers without forking).
    ((std::process::id() as u64) << 20) | (BOOTS.fetch_add(1, Ordering::Relaxed) + 1)
}

/// What one job executes.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// A scenario run through [`crate::runner::run_rows`].
    Run {
        /// The spec (compiled by the worker; submission only validates the JSON).
        /// Boxed to keep the enum small next to the slim `Fuzz` variant.
        spec: Box<ScenarioSpec>,
        /// Backend/shard/thread selection.
        request: RunRequest,
    },
    /// A fuzz campaign through [`crate::fuzz::run_campaign_observed`].
    Fuzz {
        /// The campaign options (seed defaulted from the server's stream at submit).
        opts: FuzzOptions,
    },
}

impl JobKind {
    /// The wire name of the kind.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Run { .. } => "run",
            JobKind::Fuzz { .. } => "fuzz",
        }
    }
}

/// The lifecycle states of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; `result` holds the JSONL rows / campaign summary.
    Done,
    /// Finished with an error; `error` says why.
    Failed,
    /// Cancelled while queued, or a worker observed the cancel flag mid-run.
    Cancelled,
}

impl JobState {
    /// The wire name of the state.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True when the job will never change again.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// One job.
#[derive(Clone, Debug)]
struct Job {
    name: String,
    kind: JobKind,
    state: JobState,
    events: Vec<String>,
    result: Option<String>,
    error: Option<String>,
    cancel: Arc<AtomicBool>,
}

/// A displayable copy of a job's current state.
#[derive(Clone, Debug)]
pub struct JobSnapshot {
    /// Job id (assigned at submit, starting from 1).
    pub id: u64,
    /// The job's name (the scenario name, or `fuzz-<seed>`).
    pub name: String,
    /// The kind label (`run` / `fuzz`).
    pub kind: &'static str,
    /// Current lifecycle state.
    pub state: JobState,
    /// Number of progress events recorded so far.
    pub events: usize,
    /// The result payload, when done.
    pub result: Option<String>,
    /// The error, when failed.
    pub error: Option<String>,
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — retry later (HTTP 503).
    QueueFull,
    /// The daemon is shutting down (HTTP 503).
    ShuttingDown,
}

#[derive(Default)]
struct TableState {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
    shutdown: bool,
}

/// The shared job table.
pub struct JobTable {
    state: Mutex<TableState>,
    /// Wakes workers blocked in [`JobTable::claim_next`].
    worker_wake: Condvar,
    /// Wakes watchers blocked in [`JobTable::wait_events`].
    watchers: Condvar,
    queue_cap: usize,
    /// This daemon incarnation's id, stamped into every event line.
    boot: u64,
}

impl JobTable {
    /// An empty table whose queue holds at most `queue_cap` waiting jobs.
    pub fn new(queue_cap: usize) -> JobTable {
        JobTable {
            state: Mutex::new(TableState::default()),
            worker_wake: Condvar::new(),
            watchers: Condvar::new(),
            queue_cap: queue_cap.max(1),
            boot: next_boot_id(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableState> {
        self.state.lock().expect("unpoisoned job table")
    }

    /// Appends `line` to a job's event log, stamped with this daemon's boot id and the
    /// line's position as a per-job sequence number.  Watchers dedup replayed lines on
    /// the `(boot, seq)` key, so a reconnect — even one that lands on a different daemon
    /// incarnation reusing the same job id — delivers each event exactly once.
    fn append_event(&self, job: &mut Job, mut line: String) {
        debug_assert!(line.ends_with('}'), "event lines are single JSON objects");
        line.pop();
        line.push_str(&format!(",\"boot\":{},\"seq\":{}}}", self.boot, job.events.len()));
        job.events.push(line);
    }

    /// Enqueues a job, returning its id and cancel flag.
    pub fn submit(
        &self,
        name: String,
        kind: JobKind,
    ) -> Result<(u64, Arc<AtomicBool>), SubmitError> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        state.next_id += 1;
        let id = state.next_id;
        let cancel = Arc::new(AtomicBool::new(false));
        state.jobs.insert(
            id,
            Job {
                name,
                kind,
                state: JobState::Queued,
                events: Vec::new(),
                result: None,
                error: None,
                cancel: Arc::clone(&cancel),
            },
        );
        state.queue.push_back(id);
        drop(state);
        self.worker_wake.notify_one();
        Ok((id, cancel))
    }

    /// Blocks until a job is available (or shutdown), marks it running, and returns its
    /// id, kind and cancel flag.  `None` means the daemon is shutting down.
    pub fn claim_next(&self) -> Option<(u64, JobKind, Arc<AtomicBool>)> {
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return None;
            }
            if let Some(id) = state.queue.pop_front() {
                let job = state.jobs.get_mut(&id).expect("queued job exists");
                // A queued job cancelled before any worker reached it was already marked
                // terminal by `cancel` — skip it.
                if job.state != JobState::Queued {
                    continue;
                }
                job.state = JobState::Running;
                let line = event_line("state", &[("state", EventValue::Str("running"))]);
                self.append_event(job, line);
                let claimed = (id, job.kind.clone(), Arc::clone(&job.cancel));
                drop(state);
                self.watchers.notify_all();
                return Some(claimed);
            }
            state = self.worker_wake.wait(state).expect("unpoisoned job table");
        }
    }

    /// Appends one JSONL progress event to a job and wakes its watchers.
    pub fn push_event(&self, id: u64, line: String) {
        let mut state = self.lock();
        if let Some(job) = state.jobs.get_mut(&id) {
            // Bound the per-job replay buffer; the stride-based throttling in the sink
            // keeps normal jobs far below this.
            if job.events.len() < 100_000 {
                self.append_event(job, line);
            }
        }
        drop(state);
        self.watchers.notify_all();
    }

    /// Records a finished job: `Ok(result)` → done, `Err(error)` → failed — unless its
    /// cancel flag was raised, in which case the job is cancelled and the result is
    /// discarded (a cancelled run's output is partial by construction).
    pub fn finish(&self, id: u64, outcome: Result<String, String>) {
        let mut state = self.lock();
        if let Some(job) = state.jobs.get_mut(&id) {
            let cancelled = job.cancel.load(Ordering::Relaxed);
            match (cancelled, outcome) {
                (true, _) => job.state = JobState::Cancelled,
                (false, Ok(result)) => {
                    job.result = Some(result);
                    job.state = JobState::Done;
                }
                (false, Err(error)) => {
                    job.error = Some(error);
                    job.state = JobState::Failed;
                }
            }
            let label = job.state.label();
            let line = event_line("state", &[("state", EventValue::Str(label))]);
            self.append_event(job, line);
        }
        drop(state);
        self.watchers.notify_all();
    }

    /// Cancels a job.  Queued jobs become terminal immediately; running jobs get their
    /// cancel flag raised and wind down at the next sink poll.  Returns the state after
    /// the cancel request, or `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut state = self.lock();
        let job = state.jobs.get_mut(&id)?;
        job.cancel.store(true, Ordering::Relaxed);
        if job.state == JobState::Queued {
            job.state = JobState::Cancelled;
            let line = event_line("state", &[("state", EventValue::Str("cancelled"))]);
            self.append_event(job, line);
        }
        let after = job.state;
        // A cancelled queued job must stop occupying queue capacity.
        state.queue.retain(|&queued| queued != id);
        drop(state);
        self.watchers.notify_all();
        Some(after)
    }

    /// A displayable copy of one job.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let state = self.lock();
        state.jobs.get(&id).map(|job| JobSnapshot {
            id,
            name: job.name.clone(),
            kind: job.kind.label(),
            state: job.state,
            events: job.events.len(),
            result: job.result.clone(),
            error: job.error.clone(),
        })
    }

    /// Displayable copies of every job, in id order.
    pub fn list(&self) -> Vec<JobSnapshot> {
        let state = self.lock();
        state
            .jobs
            .iter()
            .map(|(&id, job)| JobSnapshot {
                id,
                name: job.name.clone(),
                kind: job.kind.label(),
                state: job.state,
                events: job.events.len(),
                result: None, // list view stays light; fetch one job for the payload
                error: job.error.clone(),
            })
            .collect()
    }

    /// `(queued, running, done, failed, cancelled)` counts for the metrics endpoint.
    pub fn counts(&self) -> [u64; 5] {
        let state = self.lock();
        let mut counts = [0u64; 5];
        for job in state.jobs.values() {
            counts[match job.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            }] += 1;
        }
        counts
    }

    /// Returns the events of job `id` from index `from` on, plus the job's current state.
    /// Blocks up to `timeout` when nothing new is available yet; an unknown id yields
    /// `None`.
    pub fn wait_events(
        &self,
        id: u64,
        from: usize,
        timeout: Duration,
    ) -> Option<(Vec<String>, JobState)> {
        let mut state = self.lock();
        loop {
            let job = state.jobs.get(&id)?;
            if job.events.len() > from || job.state.terminal() || state.shutdown {
                return Some((job.events[from.min(job.events.len())..].to_vec(), job.state));
            }
            let (next, wait) =
                self.watchers.wait_timeout(state, timeout).expect("unpoisoned job table");
            state = next;
            if wait.timed_out() {
                let job = state.jobs.get(&id)?;
                return Some((Vec::new(), job.state));
            }
        }
    }

    /// Initiates shutdown: rejects new submissions, cancels every queued job, raises the
    /// cancel flag of every running job, and wakes all workers and watchers.
    pub fn request_shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        state.queue.clear();
        for job in state.jobs.values_mut() {
            job.cancel.store(true, Ordering::Relaxed);
            if job.state == JobState::Queued {
                job.state = JobState::Cancelled;
                let line = event_line("state", &[("state", EventValue::Str("cancelled"))]);
                self.append_event(job, line);
            }
        }
        drop(state);
        self.worker_wake.notify_all();
        self.watchers.notify_all();
    }
}

/// A value in a progress event line.
pub enum EventValue<'a> {
    /// A JSON string (escaped minimally; event strings are ASCII identifiers).
    Str(&'a str),
    /// A JSON integer.
    Int(u64),
}

/// Renders one single-line JSONL event: `{"event": "<kind>", <fields>...}`.
pub fn event_line(kind: &str, fields: &[(&str, EventValue<'_>)]) -> String {
    let mut out = format!("{{\"event\":\"{kind}\"");
    for (key, value) in fields {
        match value {
            EventValue::Str(s) => {
                let escaped = s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
                out.push_str(&format!(",\"{key}\":\"{escaped}\""));
            }
            EventValue::Int(i) => out.push_str(&format!(",\"{key}\":{i}")),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::scenario::preset;

    fn run_kind() -> JobKind {
        JobKind::Run {
            spec: Box::new(preset("checker-safety").expect("known preset")),
            request: RunRequest::default(),
        }
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let table = JobTable::new(4);
        let (id, _cancel) = table.submit("j".into(), run_kind()).unwrap();
        assert_eq!(table.snapshot(id).unwrap().state, JobState::Queued);
        let (claimed, _, _) = table.claim_next().unwrap();
        assert_eq!(claimed, id);
        assert_eq!(table.snapshot(id).unwrap().state, JobState::Running);
        table.finish(id, Ok("rows".into()));
        let snap = table.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.result.as_deref(), Some("rows"));
    }

    #[test]
    fn queue_capacity_rejects_and_cancel_prevents_claim() {
        let table = JobTable::new(1);
        let (first, _) = table.submit("a".into(), run_kind()).unwrap();
        assert_eq!(table.submit("b".into(), run_kind()).unwrap_err(), SubmitError::QueueFull);
        assert_eq!(table.cancel(first), Some(JobState::Cancelled));
        // The cancelled job never reaches a worker; with the queue drained and a second
        // job submitted, the worker claims the new one.
        let (second, _) = table.submit("c".into(), run_kind()).unwrap();
        let (claimed, _, _) = table.claim_next().unwrap();
        assert_eq!(claimed, second);
    }

    #[test]
    fn cancelling_a_running_job_discards_its_result() {
        let table = JobTable::new(4);
        let (id, _) = table.submit("a".into(), run_kind()).unwrap();
        let (_, _, cancel) = table.claim_next().unwrap();
        assert_eq!(table.cancel(id), Some(JobState::Running));
        assert!(cancel.load(Ordering::Relaxed), "worker sees the cancel flag");
        table.finish(id, Ok("partial rows".into()));
        let snap = table.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Cancelled);
        assert_eq!(snap.result, None);
    }

    #[test]
    fn shutdown_unblocks_workers_and_cancels_the_queue() {
        let table = Arc::new(JobTable::new(4));
        let (id, _) = table.submit("a".into(), run_kind()).unwrap();
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let first = table.claim_next();
                assert!(first.is_some());
                table.finish(first.unwrap().0, Ok("done".into()));
                table.claim_next() // blocks until shutdown
            })
        };
        // Wait for the worker to drain the queue, then shut down.
        while !table.snapshot(id).unwrap().state.terminal() {
            std::thread::yield_now();
        }
        table.request_shutdown();
        assert_eq!(waiter.join().unwrap().map(|(id, _, _)| id), None);
        assert_eq!(table.submit("late".into(), run_kind()).unwrap_err(), SubmitError::ShuttingDown);
    }

    #[test]
    fn wait_events_sees_progress_and_terminal_states() {
        let table = JobTable::new(4);
        let (id, _) = table.submit("a".into(), run_kind()).unwrap();
        table.claim_next().unwrap();
        table.push_event(id, "{\"event\":\"progress\"}".into());
        let (events, state) = table.wait_events(id, 0, Duration::from_millis(10)).unwrap();
        assert_eq!(events.len(), 2, "state(running) + progress");
        assert_eq!(state, JobState::Running);
        table.finish(id, Err("boom".into()));
        let (more, state) = table.wait_events(id, 2, Duration::from_millis(10)).unwrap();
        assert_eq!(more.len(), 1);
        assert!(more[0].starts_with("{\"event\":\"state\",\"state\":\"failed\""));
        assert_eq!(state, JobState::Failed);
        assert!(table.wait_events(99, 0, Duration::from_millis(1)).is_none());

        // Every line carries the daemon's boot id and its index as a sequence number —
        // the key `serve::client::watch` dedups replayed lines on.
        let (all, _) = table.wait_events(id, 0, Duration::ZERO).unwrap();
        let boot = format!(",\"boot\":{},", table.boot);
        for (seq, line) in all.iter().enumerate() {
            assert!(line.contains(&boot), "missing boot id: {line}");
            assert!(line.ends_with(&format!(",\"seq\":{seq}}}")), "bad seq: {line}");
        }
    }
}
