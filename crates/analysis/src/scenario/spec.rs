//! The declarative scenario specification: serializable data describing *one* evaluation
//! regime end to end — topology, protocol rung, (k, ℓ) parameters, workload, daemon,
//! initial-configuration overrides, warmup, fault plan, stop condition, metric selection,
//! trial plan and checker bounds.
//!
//! A [`ScenarioSpec`] is pure data (serde-serializable, JSON-parsable via
//! [`ScenarioSpec::from_json`]); [`ScenarioSpec::compile`] validates it into a
//! [`crate::scenario::CompiledScenario`] that can drive the simulator, the sharded trial
//! harness, and the bounded-exhaustive checker.

use super::{CompiledScenario, ScenarioError};
use serde::{Deserialize, Serialize};
use topology::{OrientedTree, RootedGraph, SpanningTreeMethod, Topology};

/// How the network's oriented tree is built.
///
/// `Random*` and `SpanningTree` shapes carry a base seed; in multi-trial harness runs the
/// trial *index* is added to it, so every trial explores a fresh tree while trial 0
/// reproduces the spec's seed exactly.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// A path of `n` nodes rooted at one end (worst-case depth).
    Chain {
        /// Number of processes.
        n: usize,
    },
    /// A root with `n − 1` leaves (best-case depth).
    Star {
        /// Number of processes.
        n: usize,
    },
    /// A balanced binary tree of `n` nodes.
    Binary {
        /// Number of processes.
        n: usize,
    },
    /// A balanced tree of the given arity.
    Balanced {
        /// Number of processes.
        n: usize,
        /// Children per internal node.
        arity: usize,
    },
    /// A caterpillar: a spine path with `legs` leaves per spine node.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// A broom: a handle path ending in a star of bristles.
    Broom {
        /// Handle length.
        handle: usize,
        /// Number of bristles.
        bristles: usize,
    },
    /// A uniformly random recursive tree.
    Random {
        /// Number of processes.
        n: usize,
        /// Base seed (offset by the trial index in harness runs).
        seed: u64,
    },
    /// A random tree with bounded down-degree.
    BoundedDegree {
        /// Number of processes.
        n: usize,
        /// Maximum children per node.
        max_children: usize,
        /// Base seed (offset by the trial index in harness runs).
        seed: u64,
    },
    /// The BFS spanning tree of a random connected rooted graph — the conclusion's
    /// composition with a spanning-tree construction, in its offline-extraction form.
    SpanningTree {
        /// Number of processes.
        n: usize,
        /// Redundant links beyond a spanning tree.
        extra_edges: usize,
        /// Base seed (offset by the trial index in harness runs).
        seed: u64,
    },
    /// The paper's Figure-1 tree (8 processes).
    Figure1,
    /// The paper's Figure-3 tree (3 processes).
    Figure3,
}

impl TopologySpec {
    /// Number of processes of the built tree.
    pub fn len(&self) -> usize {
        match *self {
            TopologySpec::Chain { n }
            | TopologySpec::Star { n }
            | TopologySpec::Binary { n }
            | TopologySpec::Balanced { n, .. }
            | TopologySpec::Random { n, .. }
            | TopologySpec::BoundedDegree { n, .. }
            | TopologySpec::SpanningTree { n, .. } => n,
            // Saturating, so a hostile size reads as huge (and fails validation) instead of
            // wrapping to a small count.
            TopologySpec::Caterpillar { spine, legs } => {
                spine.saturating_add(spine.saturating_mul(legs))
            }
            TopologySpec::Broom { handle, bristles } => handle.saturating_add(bristles),
            TopologySpec::Figure1 => 8,
            TopologySpec::Figure3 => 3,
        }
    }

    /// True when the spec describes no processes (never, for any constructible spec).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the built tree varies with the trial index (seeded random shapes).
    pub fn is_seeded(&self) -> bool {
        matches!(
            self,
            TopologySpec::Random { .. }
                | TopologySpec::BoundedDegree { .. }
                | TopologySpec::SpanningTree { .. }
        )
    }

    /// Builds the oriented tree; `stream` is the trial index added to random seeds (0 for
    /// single runs, so the spec's seed is reproduced exactly).
    pub fn build(&self, stream: u64) -> OrientedTree {
        use topology::builders;
        match *self {
            TopologySpec::Chain { n } => builders::chain(n),
            TopologySpec::Star { n } => builders::star(n),
            TopologySpec::Binary { n } => builders::binary(n),
            TopologySpec::Balanced { n, arity } => builders::balanced(n, arity),
            TopologySpec::Caterpillar { spine, legs } => builders::caterpillar(spine, legs),
            TopologySpec::Broom { handle, bristles } => builders::broom(handle, bristles),
            TopologySpec::Random { n, seed } => builders::random_tree(n, seed.wrapping_add(stream)),
            TopologySpec::BoundedDegree { n, max_children, seed } => {
                builders::random_bounded_degree(n, max_children, seed.wrapping_add(stream))
            }
            TopologySpec::SpanningTree { n, extra_edges, seed } => {
                let graph = RootedGraph::random_connected(n, extra_edges, seed.wrapping_add(stream));
                graph.spanning_tree(SpanningTreeMethod::Bfs).0
            }
            TopologySpec::Figure1 => builders::figure1_tree(),
            TopologySpec::Figure3 => builders::figure3_tree(),
        }
    }
}

/// Which rung of the protocol ladder (or which baseline) the scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolSpec {
    /// Rung 1: the naive ℓ-token circulation (deadlock-prone — Figure 2).
    Naive,
    /// Rung 2: naive plus the pusher token (livelock-prone — Figure 3).
    Pusher,
    /// Rung 3: pusher plus the priority token (non-self-stabilizing).
    NonStab,
    /// Rung 4: the full self-stabilizing protocol (Algorithms 1 & 2).
    Ss,
    /// The ring-based self-stabilizing baseline (related-work comparator); runs on a ring of
    /// the same size as the spec'd tree.
    Ring,
}

impl ProtocolSpec {
    /// Short lowercase label used in tables and the CLI.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolSpec::Naive => "naive",
            ProtocolSpec::Pusher => "pusher",
            ProtocolSpec::NonStab => "nonstab",
            ProtocolSpec::Ss => "ss",
            ProtocolSpec::Ring => "ring",
        }
    }
}

/// Protocol parameters: `k`/`ℓ` plus optional overrides of the self-stabilization knobs.
///
/// Unset options take the [`klex_core::KlConfig::new`] defaults for the network size the
/// scenario compiles against (this is why the spec stores overrides rather than a full
/// `KlConfig`: the default timeout depends on `n`, which the topology determines).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigSpec {
    /// Maximum units per request (`1 ≤ k ≤ ℓ`).
    pub k: usize,
    /// Total resource units.
    pub l: usize,
    /// Override of the CMAX channel-garbage bound.
    pub cmax: Option<usize>,
    /// Override of the root's controller-retransmission timeout (activations of the root).
    pub timeout: Option<u64>,
    /// Use the paper-literal pusher guard (ablation).
    pub literal_pusher_guard: bool,
    /// Use the paper-literal controller-completion order (ablation).
    pub literal_completion_order: bool,
    /// Use the unbounded counter-flushing domain (the conclusion's adaptation).
    pub unbounded_counter: bool,
}

impl ConfigSpec {
    /// A `k`-out-of-`l` configuration with every knob at its default.
    pub fn new(k: usize, l: usize) -> Self {
        ConfigSpec {
            k,
            l,
            cmax: None,
            timeout: None,
            literal_pusher_guard: false,
            literal_completion_order: false,
            unbounded_counter: false,
        }
    }

    /// Override CMAX.
    pub fn with_cmax(mut self, cmax: usize) -> Self {
        self.cmax = Some(cmax);
        self
    }

    /// Override the root timeout.
    pub fn with_timeout(mut self, timeout: u64) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Select the unbounded counter-flushing domain.
    pub fn with_unbounded_counter(mut self, unbounded: bool) -> Self {
        self.unbounded_counter = unbounded;
        self
    }

    /// Resolves the spec into a concrete [`klex_core::KlConfig`] for an `n`-process network.
    pub fn to_kl(&self, n: usize) -> klex_core::KlConfig {
        let mut cfg = klex_core::KlConfig::new(self.k, self.l, n)
            .with_literal_pusher_guard(self.literal_pusher_guard)
            .with_literal_completion_order(self.literal_completion_order)
            .with_unbounded_counter(self.unbounded_counter);
        if let Some(cmax) = self.cmax {
            cfg = cfg.with_cmax(cmax);
        }
        if let Some(timeout) = self.timeout {
            cfg = cfg.with_timeout(timeout);
        }
        cfg
    }
}

/// The application workload: when processes request, how many units, how long they hold.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Nobody ever requests.
    Idle,
    /// Every process perpetually requests `units`, holding for `hold` activations.
    Saturated {
        /// Units per request.
        units: usize,
        /// Critical-section duration in activations.
        hold: u64,
    },
    /// Every process requests with probability `p_request` per tick, uniform sizes and holds
    /// (per-node independent streams derived from `seed`, offset per trial in harness runs).
    Uniform {
        /// Base RNG seed.
        seed: u64,
        /// Per-tick request probability while idle.
        p_request: f64,
        /// Largest request size drawn.
        max_units: usize,
        /// Longest hold drawn.
        max_hold: u64,
    },
    /// A fixed per-node request size (`needs[v]` units; 0 = passive), holding for `hold`.
    /// This is the Figure-2/Figure-3 heterogeneous workload.
    Needs {
        /// Requested units per node (missing entries default to 0).
        needs: Vec<usize>,
        /// Critical-section duration in activations.
        hold: u64,
    },
    /// Like [`WorkloadSpec::Uniform`], but only the *leaves* of the tree request — the
    /// introduction's resource-pool framing (hosts at the edge lease units; interior routers
    /// only forward).  Not available on the ring baseline.
    LeafUniform {
        /// Base RNG seed.
        seed: u64,
        /// Per-tick request probability while idle.
        p_request: f64,
        /// Largest request size drawn.
        max_units: usize,
        /// Longest hold drawn.
        max_hold: u64,
    },
}

/// The scheduling daemon driving the asynchronous execution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DaemonSpec {
    /// Deterministic round-robin over processes (fair).
    RoundRobin,
    /// Seeded uniform random choice among enabled activations (fair; the seed is offset by
    /// the per-trial stream in harness runs).
    RandomFair {
        /// Base RNG seed.
        seed: u64,
    },
    /// Lock-step synchronous rounds.
    Synchronous,
    /// Bounded-unfairness adversary that starves the `victims` as long as fairness allows;
    /// an empty victim list targets the deepest node of the built topology.
    Adversarial {
        /// Starved processes (empty = deepest node).
        victims: Vec<usize>,
        /// How many activations the adversary may withhold a victim's turn.
        patience: u64,
    },
}

/// Overrides applied to the freshly built network before anything runs — this is how exact
/// paper configurations (e.g. the Figure-2 deadlock) are expressed as data.
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InitSpec {
    /// Mark the root as already bootstrapped (it will not create fresh tokens).  Only
    /// meaningful for the non-self-stabilizing rungs.
    pub bootstrapped_root: bool,
    /// Per-node request-state overrides.
    pub nodes: Vec<NodeInit>,
    /// Messages placed in flight before the run starts.
    pub inject: Vec<InjectSpec>,
}

/// One node's initial request state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeInit {
    /// The node.
    pub node: usize,
    /// Initial `State`.
    pub state: CsStateSpec,
    /// Initial `Need`.
    pub need: usize,
    /// Initial `RSet` (channel labels of reserved tokens).
    pub rset: Vec<usize>,
}

/// Serializable mirror of [`treenet::CsState`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CsStateSpec {
    /// Not requesting.
    Out,
    /// Requesting.
    Req,
    /// In the critical section.
    In,
}

impl CsStateSpec {
    /// The simulator-side state.
    pub fn to_cs(self) -> treenet::CsState {
        match self {
            CsStateSpec::Out => treenet::CsState::Out,
            CsStateSpec::Req => treenet::CsState::Req,
            CsStateSpec::In => treenet::CsState::In,
        }
    }
}

/// One message injected before the run starts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectSpec {
    /// Sending node.
    pub from: usize,
    /// Outgoing channel label at the sender.
    pub channel: usize,
    /// The message.
    pub message: MessageSpec,
}

/// Serializable mirror of the protocol message alphabet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MessageSpec {
    /// A resource token.
    ResT,
    /// The pusher token.
    PushT,
    /// The priority token.
    PrioT,
    /// A controller message `⟨ctrl, C, R, PT, PPr⟩`.
    Ctrl {
        /// Counter-flushing flag value.
        c: u64,
        /// Reset flag.
        r: bool,
        /// Resource tokens passed so far.
        pt: u64,
        /// Priority tokens passed so far.
        ppr: u8,
    },
    /// An arbitrary garbage message.
    Garbage {
        /// Payload tag.
        tag: u16,
    },
}

impl MessageSpec {
    /// The wire-level message.
    pub fn to_message(self) -> klex_core::Message {
        match self {
            MessageSpec::ResT => klex_core::Message::ResT,
            MessageSpec::PushT => klex_core::Message::PushT,
            MessageSpec::PrioT => klex_core::Message::PrioT,
            MessageSpec::Ctrl { c, r, pt, ppr } => klex_core::Message::Ctrl { c, r, pt, ppr },
            MessageSpec::Garbage { tag } => klex_core::Message::Garbage(tag),
        }
    }
}

/// An optional stabilization phase run before faults and measurement: the network runs under
/// the warmup daemon (default: the main daemon) until the protocol's legitimacy predicate has
/// held for a confirmation window, then the trace and metrics are reset.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmupSpec {
    /// Step budget for stabilization.
    pub max_steps: u64,
    /// Sustained-legitimacy confirmation window (default: `4 n²` activations).
    pub window: Option<u64>,
    /// Daemon override for the warmup phase (e.g. stabilize under a fair daemon before
    /// measuring under an adversarial one).
    pub daemon: Option<DaemonSpec>,
}

/// A transient fault injected after warmup (or at time 0 without one).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Injector RNG seed (offset by the per-trial stream in harness runs).
    pub seed: u64,
    /// Fault severity.
    pub plan: FaultPlanSpec,
}

/// Serializable mirror of the bundled [`treenet::FaultPlan`] severities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPlanSpec {
    /// Every local state corrupted; channels refilled with ≤ CMAX garbage.
    Catastrophic,
    /// Half the nodes corrupted plus message loss/duplication.
    Moderate,
    /// Message corruption only.
    MessageOnly,
}

impl FaultPlanSpec {
    /// Resolves to a concrete fault plan (CMAX from `cfg`).
    pub fn to_plan(self, cfg: &klex_core::KlConfig) -> treenet::FaultPlan {
        match self {
            FaultPlanSpec::Catastrophic => treenet::FaultPlan::catastrophic(cfg.cmax),
            FaultPlanSpec::Moderate => treenet::FaultPlan::moderate(cfg.cmax),
            FaultPlanSpec::MessageOnly => treenet::FaultPlan::message_only(),
        }
    }
}

/// One epoch of a [`FaultScheduleSpec`]: the perturbation applied at the start of the epoch.
/// Every event is followed by a re-convergence phase whose stabilization time is measured
/// and recorded per epoch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultEventSpec {
    /// A transient fault at one of the bundled severities (the legacy one-shot plans).
    Transient {
        /// Fault severity.
        plan: FaultPlanSpec,
    },
    /// A burst of message-level faults on the in-flight channels: each queued message is
    /// independently dropped with probability `drop` or duplicated with probability
    /// `duplicate`, then up to `garbage` arbitrary messages are injected per channel.
    MessageBurst {
        /// Per-message drop probability.
        drop: f64,
        /// Per-message duplication probability.
        duplicate: f64,
        /// Garbage messages injected.
        garbage: usize,
    },
    /// Crash-restart of `count` random nodes: local state reset to the initial process
    /// state, optionally losing the crashed nodes' incoming channels.
    Crash {
        /// Nodes crashed (each restarted in place).
        count: usize,
        /// Also clear the crashed nodes' incoming channels.
        lose_incoming: bool,
    },
    /// The adversarial placer: corrupts every node on the root path of the current deepest
    /// token holder (the paper's worst case — faults chase the resource tokens).
    TargetTokenPath,
    /// Topology churn: a fresh leaf joins under a random node.
    JoinLeaf,
    /// Topology churn: a random non-root leaf leaves the network (skipped when the network
    /// is already at the 2-node minimum).
    LeaveLeaf,
    /// Topology churn: a random non-root node is re-attached (with its whole subtree) under
    /// a new parent outside that subtree (skipped when no valid rewiring exists).
    RewireEdge,
}

impl FaultEventSpec {
    /// Short lowercase label used in per-epoch report rows.
    pub fn label(&self) -> &'static str {
        match self {
            FaultEventSpec::Transient { .. } => "transient",
            FaultEventSpec::MessageBurst { .. } => "message-burst",
            FaultEventSpec::Crash { .. } => "crash",
            FaultEventSpec::TargetTokenPath => "target-token-path",
            FaultEventSpec::JoinLeaf => "join-leaf",
            FaultEventSpec::LeaveLeaf => "leave-leaf",
            FaultEventSpec::RewireEdge => "rewire-edge",
        }
    }

    /// True for the topology-churn events (those that change the network's shape).
    pub fn is_churn(&self) -> bool {
        matches!(
            self,
            FaultEventSpec::JoinLeaf | FaultEventSpec::LeaveLeaf | FaultEventSpec::RewireEdge
        )
    }

    /// True for events only the tree rungs support (churn rebuilds an oriented tree;
    /// crash-restart and the token-path placer need the tree-side process traits).
    pub fn needs_tree(&self) -> bool {
        self.is_churn()
            || matches!(self, FaultEventSpec::Crash { .. } | FaultEventSpec::TargetTokenPath)
    }
}

/// A declarative multi-epoch fault campaign: a timeline of fault epochs, each an event
/// followed by a measured re-convergence phase.  The schedule runs after warmup (and after
/// the legacy one-shot [`FaultSpec`], when both are present) and before the measured phase.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultScheduleSpec {
    /// Campaign RNG seed (offset by the per-trial stream in harness runs).  Churn placement
    /// draws from an independent stream of this seed, so the epoch topology sequence is
    /// reproducible from the spec alone.
    pub seed: u64,
    /// The fault epochs, applied in order.
    pub epochs: Vec<FaultEventSpec>,
    /// Per-epoch re-convergence step budget.
    pub max_steps: u64,
    /// Sustained-legitimacy confirmation window (default: `4 n²` for the epoch's network
    /// size).
    pub window: Option<u64>,
}

/// Which node initiates each snapshot — the serializable mirror of
/// [`treenet::InitiatorPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitiatorSpec {
    /// The root (node 0) initiates every snapshot.
    Root,
    /// Snapshot `i` is initiated by node `i mod n`.
    Rotate,
}

impl InitiatorSpec {
    /// The simulator-side policy.
    pub fn to_policy(self) -> treenet::InitiatorPolicy {
        match self {
            InitiatorSpec::Root => treenet::InitiatorPolicy::Root,
            InitiatorSpec::Rotate => treenet::InitiatorPolicy::Rotate,
        }
    }
}

/// Periodic in-simulation Chandy–Lamport snapshots during the measured phase: every
/// `interval` activations a consistent cut is assembled on the live channels (marker
/// messages FIFO with protocol traffic) and handed to the cut-level safety monitor
/// ([`crate::snapshot::SnapshotMonitor`]), which asserts the (ℓ, 1, 1) token census and the
/// per-process `k` bounds on every cut.  Runs report the `snapshots_taken` and
/// `snapshots_clean` metrics and carry the per-cut verdicts in
/// [`crate::scenario::ScenarioOutcome::snapshots`].
///
/// Marker traffic is observability-only (never delivered to protocol code, never counted as
/// tokens), but it does occupy channels: with a [`StopSpec::Quiescent`] stop, keep the
/// quiescence grace shorter than the snapshot interval or in-flight markers will keep
/// interrupting the quiet streak.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotSpec {
    /// Activations between the completion of one cut and the initiation of the next (and
    /// before the first).  Must be positive.
    pub interval: u64,
    /// Initiator choice per snapshot.
    pub initiator: InitiatorSpec,
}

impl SnapshotSpec {
    /// The simulator-side plan.
    pub fn to_plan(&self) -> treenet::SnapshotPlan {
        treenet::SnapshotPlan { interval: self.interval, initiator: self.initiator.to_policy() }
    }
}

/// When the measured (main) phase of a run stops.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopSpec {
    /// Run exactly this many activations.
    Steps {
        /// Activations to execute.
        steps: u64,
    },
    /// Run until the network is quiescent for `grace` consecutive activations (the Figure-2
    /// deadlock detector) or the budget runs out.
    Quiescent {
        /// Step budget.
        max_steps: u64,
        /// Consecutive quiet activations required.
        grace: u64,
    },
    /// Run until this many critical sections have been entered (since the phase started).
    CsEntries {
        /// Critical-section entries to wait for.
        entries: u64,
        /// Step budget.
        max_steps: u64,
    },
    /// Run until a named predicate holds — sustained for `sustained_for` activations when
    /// that is non-zero (the convergence-measurement mode).  Known names:
    /// `"legitimate"`, `"census-complete"`, `"all-requesters-served"`.
    Predicate {
        /// Predicate name.
        name: String,
        /// Step budget.
        max_steps: u64,
        /// Sustained-window length (0 = stop the first time the predicate holds).
        sustained_for: u64,
    },
}

impl StopSpec {
    /// The names accepted by [`StopSpec::Predicate`].
    pub const PREDICATES: [&'static str; 3] =
        ["legitimate", "census-complete", "all-requesters-served"];
}

/// Bounds and properties for the bounded-exhaustive checking backend.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckSpec {
    /// Maximum distinct configurations to visit.
    pub max_configurations: usize,
    /// Maximum exploration depth (0 = unbounded).
    pub max_depth: usize,
    /// Property names to check.  Per-configuration predicates: `"safety"`,
    /// `"exact-census"`, `"no-garbage"`, `"legitimate"`.  The temporal name `"liveness"`
    /// instead enables graph recording plus the fair-cycle pass
    /// ([`checker::liveness::find_fair_cycles`]), whose lasso witnesses land in
    /// [`checker::ExplorationReport::liveness`].
    pub properties: Vec<String>,
    /// Explore from a *stabilized* configuration instead of the clean initial one: the
    /// lowered network first runs a deterministic fair schedule until sustained legitimacy
    /// (the closure half of Definition 1).  Only meaningful for the `ss` rung, and
    /// incompatible with init overrides.
    pub from_legitimate: bool,
}

impl CheckSpec {
    /// The names accepted in [`CheckSpec::properties`].
    pub const PROPERTIES: [&'static str; 5] =
        ["safety", "exact-census", "no-garbage", "legitimate", "liveness"];
}

impl Default for CheckSpec {
    fn default() -> Self {
        CheckSpec {
            max_configurations: 100_000,
            max_depth: 0,
            properties: vec!["safety".to_string()],
            from_legitimate: false,
        }
    }
}

/// Metric names the sim/harness backends can compute (see [`ScenarioSpec::metrics`]).
pub const METRIC_NAMES: [&str; 20] = [
    "steps",
    "satisfied",
    "converged",
    "cs_entries",
    "messages_sent",
    "in_flight",
    "blocked_requesters",
    "jain_index",
    "waiting_max",
    "waiting_mean",
    "warmup_activations",
    "convergence_activations",
    "resource_tokens",
    "census_matches",
    "epochs_total",
    "epochs_converged",
    "epoch_convergence_mean",
    "epoch_convergence_max",
    "snapshots_taken",
    "snapshots_clean",
];

/// True for names the sim/harness backends can emit: every [`METRIC_NAMES`] entry plus the
/// per-epoch family `epoch<i>_convergence` produced by fault-schedule runs.
pub fn is_metric_name(name: &str) -> bool {
    if METRIC_NAMES.contains(&name) {
        return true;
    }
    name.strip_prefix("epoch")
        .and_then(|rest| rest.strip_suffix("_convergence"))
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// The default metric selection when [`ScenarioSpec::metrics`] is empty.
pub const DEFAULT_METRICS: [&str; 4] = ["steps", "satisfied", "cs_entries", "messages_sent"];

/// A complete declarative scenario: one value describes topology, protocol, parameters,
/// workload, daemon, faults, stop condition, metrics, trial plan and checking bounds.
///
/// Build one fluently with [`ScenarioSpec::builder`], load one from JSON with
/// [`ScenarioSpec::from_json`], or take a named paper scenario from
/// [`crate::scenario::preset`]; then [`compile`](ScenarioSpec::compile) it and pick a
/// backend.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable scenario label (used as the table row label).
    pub name: String,
    /// How the tree is built.
    pub topology: TopologySpec,
    /// Which protocol rung runs.
    pub protocol: ProtocolSpec,
    /// Protocol parameters.
    pub config: ConfigSpec,
    /// Application workload.
    pub workload: WorkloadSpec,
    /// Scheduling daemon.
    pub daemon: DaemonSpec,
    /// Initial-configuration overrides.
    pub init: Option<InitSpec>,
    /// Optional stabilization phase before measurement.
    pub warmup: Option<WarmupSpec>,
    /// Optional transient fault after warmup.
    pub fault: Option<FaultSpec>,
    /// Optional multi-epoch fault campaign run between the (warmup + one-shot fault)
    /// preamble and the measured phase, with per-epoch re-convergence measurement.
    pub fault_schedule: Option<FaultScheduleSpec>,
    /// Optional periodic consistent snapshots (with cut-level safety verdicts) during the
    /// measured phase.
    pub snapshots: Option<SnapshotSpec>,
    /// Stop condition of the measured phase.
    pub stop: StopSpec,
    /// Metric selection (empty = [`DEFAULT_METRICS`]).
    pub metrics: Vec<String>,
    /// Temporal monitors evaluated on simulator runs ([`crate::monitor::MONITOR_NAMES`]):
    /// the paper property (or properties) this scenario certifies, as data.  Empty = no
    /// monitoring.
    pub properties: Vec<String>,
    /// Number of trials in harness runs.
    pub trials: u64,
    /// Base seed of the per-trial seed streams.
    pub base_seed: u64,
    /// Bounds and properties for the checking backend.
    pub check: CheckSpec,
}

impl ScenarioSpec {
    /// Starts a fluent builder; `name` labels the scenario in every rendered table.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }

    /// Serializes the spec as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("specs are serializable")
    }

    /// Parses a spec from its JSON representation (the format [`ScenarioSpec::to_json`]
    /// emits: externally tagged enums, structs as objects).
    pub fn from_json(input: &str) -> Result<Self, ScenarioError> {
        let value = serde_json::from_str(input)
            .map_err(|e| ScenarioError::Json(format!("unparsable spec: {e}")))?;
        super::json::spec_from_value(&value)
    }

    /// True when the fault schedule contains a topology-churn epoch (the network's shape
    /// changes mid-run).
    pub fn has_churn(&self) -> bool {
        self.fault_schedule
            .as_ref()
            .is_some_and(|s| s.epochs.iter().any(FaultEventSpec::is_churn))
    }

    /// The metric selection in effect (the default set when none was chosen).
    pub fn selected_metrics(&self) -> Vec<String> {
        if self.metrics.is_empty() {
            DEFAULT_METRICS.iter().map(|s| s.to_string()).collect()
        } else {
            self.metrics.clone()
        }
    }

    /// Validates the spec and returns the runnable form.
    pub fn compile(self) -> Result<CompiledScenario, ScenarioError> {
        self.validate()?;
        Ok(CompiledScenario::from_validated(self))
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::Invalid(msg));
        let n = self.topology.len();
        if n < 2 {
            return err(format!("topology has {n} processes; at least 2 are required"));
        }
        // Trace records carry node ids as `u32`.
        if u32::try_from(n).is_err() {
            return err(format!("topology has {n} processes; at most {} are supported", u32::MAX));
        }
        if self.config.k < 1 {
            return err("k must be at least 1".into());
        }
        if self.config.k > self.config.l {
            return err(format!("k ({}) must not exceed l ({})", self.config.k, self.config.l));
        }
        if let WorkloadSpec::Needs { needs, .. } = &self.workload {
            if needs.len() > n {
                return err(format!("needs lists {} nodes but the topology has {n}", needs.len()));
            }
        }
        // Trace records carry a request's unit count as `u16`; a larger one would be
        // recorded saturated rather than as requested.
        let units = match &self.workload {
            WorkloadSpec::Idle => None,
            WorkloadSpec::Saturated { units, .. } => Some(*units),
            WorkloadSpec::Needs { needs, .. } => needs.iter().copied().max(),
            WorkloadSpec::Uniform { max_units, .. }
            | WorkloadSpec::LeafUniform { max_units, .. } => Some(*max_units),
        };
        if let Some(units) = units.filter(|&u| u > usize::from(u16::MAX)) {
            return err(format!("a request of {units} units exceeds the supported {}", u16::MAX));
        }
        if let WorkloadSpec::Uniform { p_request, .. }
        | WorkloadSpec::LeafUniform { p_request, .. } = &self.workload
        {
            if !(0.0..=1.0).contains(p_request) {
                return err(format!("p_request {p_request} is not a probability"));
            }
        }
        if matches!(self.workload, WorkloadSpec::LeafUniform { .. })
            && matches!(self.protocol, ProtocolSpec::Ring)
        {
            return err("the LeafUniform workload needs a tree; the ring has no leaves".into());
        }
        let daemons = [Some(&self.daemon), self.warmup.as_ref().and_then(|w| w.daemon.as_ref())];
        for daemon in daemons.into_iter().flatten() {
            if let DaemonSpec::Adversarial { victims, .. } = daemon {
                if let Some(v) = victims.iter().find(|&&v| v >= n) {
                    return err(format!("adversarial victim {v} is out of range (n = {n})"));
                }
            }
        }
        if let Some(init) = &self.init {
            // Node/channel bounds below are checked against the trial-0 tree; with a seeded
            // topology every harness trial gets a *different* tree, so overrides addressing
            // concrete nodes cannot be validated (and would panic mid-run instead).
            if self.topology.is_seeded()
                && self.trials > 1
                && !(init.nodes.is_empty() && init.inject.is_empty())
            {
                return err(
                    "init overrides address concrete nodes/channels, which cannot be \
                     validated across the per-trial trees of a seeded topology; use a \
                     deterministic topology or trials = 1"
                        .into(),
                );
            }
            if init.bootstrapped_root
                && !matches!(
                    self.protocol,
                    ProtocolSpec::Naive | ProtocolSpec::Pusher | ProtocolSpec::NonStab
                )
            {
                return err(format!(
                    "bootstrapped_root is only meaningful for the non-self-stabilizing rungs, \
                     not {}",
                    self.protocol.label()
                ));
            }
            // The init addresses concrete nodes/channels: check them against the built tree.
            // (Random topologies: checked against the trial-0 tree; harness trials share the
            // node count, and degrees are re-checked at build time by the channel API.)
            let tree = self.topology.build(0);
            for node_init in &init.nodes {
                if node_init.node >= n {
                    return err(format!("init node {} is out of range (n = {n})", node_init.node));
                }
                let degree = tree.degree(node_init.node);
                if let Some(l) = node_init.rset.iter().find(|&&l| l >= degree) {
                    return err(format!(
                        "init rset label {l} exceeds the degree {degree} of node {}",
                        node_init.node
                    ));
                }
            }
            for inject in &init.inject {
                if inject.from >= n {
                    return err(format!("inject source {} is out of range (n = {n})", inject.from));
                }
                if inject.channel >= tree.degree(inject.from) {
                    return err(format!(
                        "inject channel {} exceeds the degree {} of node {}",
                        inject.channel,
                        tree.degree(inject.from),
                        inject.from
                    ));
                }
            }
            if matches!(self.protocol, ProtocolSpec::Ring) && !init.inject.is_empty() {
                return err("message injection into the ring baseline is not supported".into());
            }
        }
        if let StopSpec::Predicate { name, .. } = &self.stop {
            if !StopSpec::PREDICATES.contains(&name.as_str()) {
                return err(format!(
                    "unknown stop predicate {name:?} (known: {:?})",
                    StopSpec::PREDICATES
                ));
            }
        }
        match &self.stop {
            StopSpec::Steps { .. } => {}
            StopSpec::Quiescent { max_steps, .. }
            | StopSpec::CsEntries { max_steps, .. }
            | StopSpec::Predicate { max_steps, .. } => {
                if *max_steps == 0 {
                    return err("stop budget (max_steps) must be positive".into());
                }
            }
        }
        if let Some(schedule) = &self.fault_schedule {
            if !schedule.epochs.is_empty() && schedule.max_steps == 0 {
                return err("fault-schedule re-convergence budget (max_steps) must be positive".into());
            }
            if schedule.window == Some(0) {
                return err("fault-schedule window must be at least 1 when set".into());
            }
            for (i, epoch) in schedule.epochs.iter().enumerate() {
                if let FaultEventSpec::MessageBurst { drop, duplicate, .. } = epoch {
                    for (name, p) in [("drop", drop), ("duplicate", duplicate)] {
                        if !(0.0..=1.0).contains(p) {
                            return err(format!(
                                "fault-schedule epoch {i}: {name} probability {p} is not a \
                                 probability"
                            ));
                        }
                    }
                }
                if let FaultEventSpec::Crash { count, .. } = epoch {
                    if *count == 0 {
                        return err(format!(
                            "fault-schedule epoch {i}: a crash event must crash at least one node"
                        ));
                    }
                }
                if matches!(self.protocol, ProtocolSpec::Ring) && epoch.needs_tree() {
                    return err(format!(
                        "fault-schedule epoch {i} ({}) needs a tree; the ring baseline supports \
                         only transient and message-burst fault epochs",
                        epoch.label()
                    ));
                }
            }
            if self.has_churn() && matches!(self.daemon, DaemonSpec::Adversarial { .. }) {
                return err(
                    "an adversarial daemon addresses concrete victim nodes, whose ids are not \
                     stable under topology churn; use a fair daemon with a churn schedule"
                        .into(),
                );
            }
        }
        if let Some(snapshots) = &self.snapshots {
            if snapshots.interval == 0 {
                return err("snapshot interval must be positive".into());
            }
        }
        for metric in &self.metrics {
            if !METRIC_NAMES.contains(&metric.as_str()) {
                return err(format!("unknown metric {metric:?} (known: {METRIC_NAMES:?})"));
            }
        }
        for monitor in &self.properties {
            if !crate::monitor::MONITOR_NAMES.contains(&monitor.as_str()) {
                return err(format!(
                    "unknown property monitor {monitor:?} (known: {:?})",
                    crate::monitor::MONITOR_NAMES
                ));
            }
        }
        for property in &self.check.properties {
            if !CheckSpec::PROPERTIES.contains(&property.as_str()) {
                return err(format!(
                    "unknown check property {property:?} (known: {:?})",
                    CheckSpec::PROPERTIES
                ));
            }
        }
        if self.check.from_legitimate {
            if self.protocol != ProtocolSpec::Ss {
                return err(format!(
                    "check.from_legitimate stabilizes the self-stabilizing protocol before \
                     exploring; the {} rung has no legitimacy to stabilize into",
                    self.protocol.label()
                ));
            }
            if self.init.is_some() {
                return err(
                    "check.from_legitimate replaces the initial configuration with a \
                     stabilized one; init overrides would be discarded"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

/// Fluent constructor for [`ScenarioSpec`] — the `Scenario::builder()` entry point.
///
/// Every setter has a sensible default (see [`ScenarioBuilder::new`]), so a minimal scenario
/// is two lines: pick a topology and a stop condition.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// A builder with defaults: Figure-1 tree, self-stabilizing protocol, 1-out-of-2,
    /// saturated workload, round-robin daemon, 10 000-step run, 1 trial.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.into(),
                topology: TopologySpec::Figure1,
                protocol: ProtocolSpec::Ss,
                config: ConfigSpec::new(1, 2),
                workload: WorkloadSpec::Saturated { units: 1, hold: 5 },
                daemon: DaemonSpec::RoundRobin,
                init: None,
                warmup: None,
                fault: None,
                fault_schedule: None,
                snapshots: None,
                stop: StopSpec::Steps { steps: 10_000 },
                metrics: Vec::new(),
                properties: Vec::new(),
                trials: 1,
                base_seed: 0,
                check: CheckSpec::default(),
            },
        }
    }

    /// Sets the topology.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.spec.topology = topology;
        self
    }

    /// Sets the protocol rung.
    pub fn protocol(mut self, protocol: ProtocolSpec) -> Self {
        self.spec.protocol = protocol;
        self
    }

    /// Sets `k` and `ℓ` (other config knobs keep their defaults).
    pub fn kl(mut self, k: usize, l: usize) -> Self {
        let base = ConfigSpec::new(k, l);
        self.spec.config = ConfigSpec { k, l, ..std::mem::replace(&mut self.spec.config, base) };
        self
    }

    /// Sets the full protocol-parameter spec.
    pub fn config(mut self, config: ConfigSpec) -> Self {
        self.spec.config = config;
        self
    }

    /// Sets the workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.spec.workload = workload;
        self
    }

    /// Sets the daemon.
    pub fn daemon(mut self, daemon: DaemonSpec) -> Self {
        self.spec.daemon = daemon;
        self
    }

    /// Sets initial-configuration overrides.
    pub fn init(mut self, init: InitSpec) -> Self {
        self.spec.init = Some(init);
        self
    }

    /// Adds a stabilization warmup phase with the default window and the main daemon.
    pub fn warmup(mut self, max_steps: u64) -> Self {
        self.spec.warmup = Some(WarmupSpec { max_steps, window: None, daemon: None });
        self
    }

    /// Sets the full warmup spec.
    pub fn warmup_spec(mut self, warmup: WarmupSpec) -> Self {
        self.spec.warmup = Some(warmup);
        self
    }

    /// Injects a transient fault after warmup.
    pub fn fault(mut self, seed: u64, plan: FaultPlanSpec) -> Self {
        self.spec.fault = Some(FaultSpec { seed, plan });
        self
    }

    /// Attaches a multi-epoch fault campaign (see [`FaultScheduleSpec`]).
    pub fn fault_schedule(mut self, schedule: FaultScheduleSpec) -> Self {
        self.spec.fault_schedule = Some(schedule);
        self
    }

    /// Enables root-initiated consistent snapshots every `interval` activations of the
    /// measured phase.
    pub fn snapshots(mut self, interval: u64) -> Self {
        self.spec.snapshots = Some(SnapshotSpec { interval, initiator: InitiatorSpec::Root });
        self
    }

    /// Sets the full snapshot spec.
    pub fn snapshot_spec(mut self, snapshots: SnapshotSpec) -> Self {
        self.spec.snapshots = Some(snapshots);
        self
    }

    /// Sets the stop condition.
    pub fn stop(mut self, stop: StopSpec) -> Self {
        self.spec.stop = stop;
        self
    }

    /// Selects the metrics to compute.
    pub fn metrics(mut self, metrics: &[&str]) -> Self {
        self.spec.metrics = metrics.iter().map(|m| m.to_string()).collect();
        self
    }

    /// Selects the temporal monitors ([`crate::monitor::MONITOR_NAMES`]) simulator runs
    /// evaluate — the paper properties this scenario certifies.
    pub fn properties(mut self, properties: &[&str]) -> Self {
        self.spec.properties = properties.iter().map(|p| p.to_string()).collect();
        self
    }

    /// Sets the harness trial count.
    pub fn trials(mut self, trials: u64) -> Self {
        self.spec.trials = trials;
        self
    }

    /// Sets the base seed of the per-trial seed streams.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.spec.base_seed = base_seed;
        self
    }

    /// Sets the checking bounds and properties.
    pub fn check(mut self, check: CheckSpec) -> Self {
        self.spec.check = check;
        self
    }

    /// The raw spec (pure data; serialize it, store it, or `compile()` it later).
    pub fn spec(self) -> ScenarioSpec {
        self.spec
    }

    /// Validates and compiles the spec in one step.
    pub fn build(self) -> Result<CompiledScenario, ScenarioError> {
        self.spec.compile()
    }
}
