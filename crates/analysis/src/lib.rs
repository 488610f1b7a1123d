//! `analysis` — measurement and experiment harness for the k-out-of-ℓ exclusion reproduction.
//!
//! This crate turns raw execution traces and network snapshots into the quantities the
//! paper's claims are about:
//!
//! * [`waiting`] — the paper's *waiting time*: how many critical sections other processes
//!   enter between a request and its satisfaction (Theorem 2 bounds it by ℓ(2n−3)²);
//! * [`convergence`] — stabilization time from an arbitrary configuration (Theorem 1), using
//!   sustained legitimacy as the empirical convergence criterion;
//! * [`snapshot`] — cut-level safety verdicts ([`snapshot::CutVerdict`]) over the
//!   in-simulation Chandy–Lamport snapshots assembled by [`treenet::SnapshotRunner`]
//!   (continuous per-activation safety is [`klex_core::LiveCensus`]);
//! * [`monitor`] — the temporal monitors ([`Monitor`]: request-eventually-CS,
//!   at-most-k-in-CS, ℓ-availability, convergence-witnessed), judged by one streaming
//!   [`Observer`] over simulator traces and checker lassos;
//! * [`coverage`] — structural coverage signatures over exploration reports and monitor
//!   verdicts, the novelty metric of the coverage-guided fuzz campaign;
//! * [`fairness`] — per-process service counts, starvation detection and Jain's index;
//! * [`deadlock`] — quiescence-with-unsatisfied-requests detection (the Figure 2 scenario);
//! * [`stats`] — summary statistics for repeated trials;
//! * [`histogram`] — bucketed distributions (waiting-time and convergence-time spreads);
//! * [`timeline`] — terminal renderings of executions: per-process activity lanes, the
//!   virtual ring, and token-census sparklines;
//! * [`scenario`] — the unified declarative scenario API: one serde-serializable
//!   [`scenario::ScenarioSpec`] drives the simulator, the sharded trial harness, and the
//!   bounded-exhaustive checker (plus the `klex` CLI in the `bench` crate); the exact
//!   configurations of the paper's figures are its [`scenario::preset`]s;
//! * [`harness`] — sharded repeated trials and markdown/JSONL/CSV rendering of result
//!   tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod coverage;
pub mod deadlock;
pub mod fairness;
pub mod harness;
pub mod histogram;
pub mod monitor;
pub mod progress;
pub mod scenario;
pub mod snapshot;
pub mod stats;
pub mod timeline;
pub mod waiting;

pub use convergence::{measure_convergence, ConvergenceOutcome};
pub use coverage::{CoverageSignature, FrontierShape};
pub use deadlock::{detect_deadlock, DeadlockVerdict};
pub use fairness::{jains_index, FairnessReport};
pub use harness::{render_csv, render_markdown_table, ExperimentRow};
pub use histogram::Histogram;
pub use monitor::{Monitor, MonitorReport, Observer, Verdict};
pub use progress::{Counter, MetricsRegistry, NullSink, ProgressSink};
pub use scenario::{CompiledScenario, Scenario, ScenarioError, ScenarioSpec};
pub use snapshot::{CutVerdict, SnapshotMonitor};
pub use stats::Summary;
pub use timeline::{render_activity_gantt, render_virtual_ring, CensusRecorder};
pub use waiting::{waiting_times, WaitingRecord};
