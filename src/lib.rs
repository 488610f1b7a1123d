//! `kl-exclusion` — self-stabilizing k-out-of-ℓ exclusion on tree networks.
//!
//! This is the facade crate of the workspace: it re-exports every public component so that a
//! downstream user (and the examples and integration tests in this repository) can depend on
//! a single crate.
//!
//! * [`topology`] — oriented trees, virtual rings, rings, complete graphs, rooted graphs.
//! * [`treenet`] — the asynchronous message-passing simulator (schedulers, fault injection,
//!   traces, metrics).
//! * [`protocol`] (`klex-core`) — the paper's protocol ladder, culminating in the
//!   self-stabilizing Algorithms 1 & 2.
//! * [`workloads`] — application drivers.
//! * [`baselines`] — ring-based, centralized and permission-based comparators.
//! * [`analysis`] — waiting time, convergence, fairness, deadlock detection, histograms,
//!   timelines, experiment harness.
//! * [`checker`] — bounded-exhaustive state-space exploration (safety, closure, deadlock and
//!   livelock checking on small instances).
//! * [`stree`] — self-stabilizing spanning-tree construction and the composition that runs
//!   the protocol on arbitrary rooted networks.
//!
//! # Quickstart
//!
//! One declarative [`ScenarioSpec`](analysis::scenario::ScenarioSpec) describes the whole
//! regime — topology, protocol rung, (k, ℓ), workload, daemon, stop condition — and drives
//! the simulator, the sharded trial harness, and the bounded-exhaustive checker:
//!
//! ```
//! use kl_exclusion::prelude::*;
//!
//! // 3-out-of-5 exclusion on the paper's Figure-1 tree, every process requesting.
//! let scenario = Scenario::builder("quickstart")
//!     .topology(TopologySpec::Figure1)
//!     .kl(3, 5)
//!     .workload(WorkloadSpec::Saturated { units: 2, hold: 10 })
//!     .daemon(DaemonSpec::RandomFair { seed: 42 })
//!     .stop(StopSpec::CsEntries { entries: 20, max_steps: 2_000_000 })
//!     .build()
//!     .expect("the scenario validates");
//!
//! // Run until the protocol has bootstrapped and serves requests.
//! let outcome = scenario.run();
//! assert!(outcome.outcome.is_satisfied());
//! assert!(outcome.metric("cs_entries").unwrap() >= 20.0);
//! ```
//!
//! The same spec value feeds `scenario.run_harness(shards)` (N seeded trials, sharded across
//! cores) and `scenario.check()` (exhaustive exploration of small instances), and the `klex`
//! CLI runs any spec from JSON: `klex run figure2 --backend all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analysis;
pub use baselines;
pub use checker;
pub use klex_core as protocol;
pub use stree;
pub use topology;
pub use treenet;
pub use workloads;

/// The most common imports, bundled for examples and downstream users.
pub mod prelude {
    pub use crate::{analysis, baselines, checker, protocol, stree, topology, treenet, workloads};
    pub use analysis::scenario::{
        preset, CheckSpec, CompiledScenario, ConfigSpec, DaemonSpec, FaultPlanSpec, InitSpec,
        ProtocolSpec, Scenario, ScenarioError, ScenarioOutcome, ScenarioSpec, StopSpec,
        TopologySpec, WarmupSpec, WorkloadSpec,
    };
    pub use analysis::{
        measure_convergence, render_markdown_table, waiting_times, CensusRecorder, ExperimentRow,
        FairnessReport, Histogram, MonitorReport, Summary, Verdict,
    };
    pub use klex_core::{
        count_tokens, is_legitimate, KlConfig, KlInspect, LiveCensus, Message, SsNode, TokenCensus,
    };
    pub use topology::{OrientedTree, Ring, Topology, VirtualRing};
    pub use treenet::{
        engine, run_for, run_sustained, run_until, run_until_quiescent, Adversarial, AppDriver,
        CsState, Event, EventScheduler, FaultInjector, FaultPlan, Network, RandomFair, Restartable,
        RoundRobin, Synchronous,
    };
}
