//! The unified scenario API: one declarative spec drives the simulator, the sharded trial
//! harness, and the bounded-exhaustive checker.
//!
//! The paper evaluates one protocol ladder under many regimes — topologies, (k, ℓ)
//! configurations, workloads, daemons, transient faults.  This module turns "a regime" into
//! a first-class value:
//!
//! ```text
//!  ScenarioSpec ── JSON ⇄ to_json (derived Serialize) / from_json (derived Deserialize)
//!       │ compile() (validates)
//!       ▼
//!  CompiledScenario
//!       ├── run() / run_trial()      one simulated execution  (fused engine / any daemon)
//!       ├── run_harness(shards)      N-trial sharded experiment, shard-count-independent
//!       └── check()                  bounded-exhaustive exploration of small instances
//! ```
//!
//! A spec captures *everything* the three backends need: topology builder, protocol rung,
//! [`klex_core::KlConfig`] knobs, workload, daemon, initial-configuration overrides (exact
//! paper configurations like the Figure-2 deadlock are data, not code), warmup phase, fault
//! plan, stop condition, metric selection, trial plan and checking bounds.  The named
//! [`preset`]s cover the paper's figures and experiment regimes; the `klex` CLI in the
//! `bench` crate runs any preset or JSON spec from the command line.
//!
//! # Example
//!
//! ```
//! use analysis::scenario::{Scenario, StopSpec, TopologySpec, WorkloadSpec};
//!
//! let scenario = Scenario::builder("demo")
//!     .topology(TopologySpec::Chain { n: 4 })
//!     .kl(1, 2)
//!     .workload(WorkloadSpec::Saturated { units: 1, hold: 3 })
//!     .stop(StopSpec::CsEntries { entries: 5, max_steps: 2_000_000 })
//!     .build()
//!     .unwrap();
//! let outcome = scenario.run();
//! assert!(outcome.outcome.is_satisfied());
//! assert!(outcome.metric("cs_entries").unwrap() >= 5.0);
//! ```

mod check;
mod compile;
pub mod mutate;
mod presets;
mod schedule;
mod spec;

pub use compile::{
    deepest_node, CompiledScenario, Daemon, EpochOutcome, HarnessReport, Scenario, ScenarioNode,
    ScenarioOutcome,
};
pub use mutate::{mutate_spec, random_spec, GenLimits};
pub use presets::{figure2_deadlock_init, preset, FIGURE2_NEEDS, FIGURE3_NEEDS, PRESET_NAMES};
pub use spec::{
    is_metric_name, CheckSpec, ConfigSpec, CsStateSpec, DaemonSpec, FaultEventSpec, FaultPlanSpec,
    FaultScheduleSpec, FaultSpec, InitSpec, InitiatorSpec, InjectSpec, MessageSpec, NodeInit,
    ProtocolSpec, ScenarioBuilder, ScenarioSpec, SnapshotSpec, StopSpec, TopologySpec, WarmupSpec,
    WorkloadSpec, DEFAULT_METRICS, METRIC_NAMES,
};

use std::fmt;

/// Why a spec could not be parsed, validated, or lowered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec is self-inconsistent (bad parameters, out-of-range nodes, unknown names).
    Invalid(String),
    /// The JSON document does not describe a spec.
    Json(String),
    /// The scenario cannot be lowered into the exhaustive checker.
    NotCheckable(String),
    /// No preset of that name exists.
    UnknownPreset(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Json(msg) => write!(f, "bad scenario JSON: {msg}"),
            ScenarioError::NotCheckable(msg) => write!(f, "scenario not checkable: {msg}"),
            ScenarioError::UnknownPreset(name) => write!(f, "unknown preset `{name}`"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<serde::DeError> for ScenarioError {
    fn from(e: serde::DeError) -> Self {
        ScenarioError::Json(e.to_string())
    }
}
