//! `sim_cache_1k` and `sim_dram_512k`: long asynchronous executions of the self-stabilizing
//! protocol on a binary tree, one cache-resident and one far outside the last-level cache.
//!
//! Both run the same spec, the same daemon and the same fused loop; only `n` differs.  An
//! optimisation that saves instructions per step moves the first and not the second; one
//! that saves cache misses per step does the opposite.

use super::{golden_check, seed_stream, timed, Ctx, Measured, Round};
use crate::report::Metric;
use analysis::scenario::{
    ConfigSpec, Daemon, DaemonSpec, ProtocolSpec, ScenarioSpec, StopSpec, TopologySpec,
    WorkloadSpec,
};
use klex_core::legitimacy::safety_holds;
use klex_core::{count_tokens, KlConfig, SsNode};
use topology::{OrientedTree, Topology};
use treenet::{Metrics, Network};

/// Sizes of one simulator workload.
pub struct SimParams {
    pub name: &'static str,
    pub nodes: usize,
    /// Activations of the warm-up pass (part of set-up): enough for the controller to
    /// stabilise the token census, so every measured round runs in the steady state.
    pub warmup_steps: u64,
    /// Activations per timed round.
    pub round_steps: u64,
    /// How often set-up is repeated (its median is reported).
    pub setups: usize,
    /// Declared footprint; above 64 MiB the pages are pre-faulted before any timer starts.
    pub footprint_mib: usize,
}

pub const CACHE_1K: SimParams = SimParams {
    name: "sim_cache_1k",
    nodes: 1023,
    warmup_steps: 32_000_000,
    round_steps: 10_000_000,
    setups: 3,
    footprint_mib: 4,
};

pub const DRAM_512K: SimParams = SimParams {
    name: "sim_dram_512k",
    nodes: 524_287,
    warmup_steps: 160 * 524_287,
    round_steps: 2_000_000,
    setups: 1,
    footprint_mib: 512,
};

/// The round after which the `Metrics` digest is compared with the golden file: every run
/// executes at least this many rounds, so the digest is taken after a fixed amount of work.
const GOLDEN_ROUND: usize = 3;

/// The spec both workloads run, as the JSON document a user would hand to `klex run`.
pub fn spec_json(nodes: usize, seed: u64) -> String {
    ScenarioSpec::builder(format!("benchmark sim n={nodes}"))
        .topology(TopologySpec::Binary { n: nodes })
        .protocol(ProtocolSpec::Ss)
        .config(ConfigSpec::new(3, 5).with_timeout(50))
        .workload(WorkloadSpec::Uniform {
            seed: seed_stream(seed, 1),
            p_request: 0.05,
            max_units: 3,
            max_hold: 20,
        })
        .daemon(DaemonSpec::RandomFair { seed: seed_stream(seed, 2) })
        .stop(StopSpec::Steps { steps: 0 })
        .spec()
        .to_json()
}

/// A built, warmed-up network with the daemon that drives it.
pub struct SimState {
    pub net: Network<SsNode, OrientedTree>,
    pub daemon: Daemon,
    pub cfg: KlConfig,
    /// Resident-set growth across `build_ss`, MiB.
    pub build_rss_mib: f64,
}

/// Spec decode → compile → build → warm-up, each inside its own span.
pub fn setup(params: &SimParams, spec: &str, ctx: &mut Ctx) -> Result<SimState, String> {
    let tracer = &mut *ctx.tracer;
    let decoded = tracer
        .span("analysis.scenario.json/from_json", 0, |_| ScenarioSpec::from_json(spec))
        .map_err(|e| e.to_string())?;
    let scenario = tracer
        .span("analysis.scenario.compile/compile", 0, |_| decoded.compile())
        .map_err(|e| e.to_string())?;
    let rss_before = crate::host::rss_mib()?;
    let mut net = tracer
        .span("treenet.network/build_ss", 0, |_| scenario.build_ss())
        .map_err(|e| e.to_string())?;
    let build_rss_mib = crate::host::rss_mib()? - rss_before;
    let mut daemon = scenario.make_daemon();
    tracer.span("treenet.engine/run(warm-up)", 0, |_| {
        treenet::engine::run(&mut net, &mut daemon, params.warmup_steps)
    });
    let cfg = scenario.spec().config.to_kl(params.nodes);
    Ok(SimState { net, daemon, cfg, build_rss_mib })
}

/// What must hold whenever a round ends: census (ℓ,1,1), the safety bounds, and on every
/// channel `enqueued == delivered + lost + len`.
pub fn invariants_hold(state: &SimState) -> bool {
    let net = &state.net;
    let conserved = (0..net.len()).all(|v| {
        (0..net.topology().degree(v)).all(|label| {
            let ch = net.channel(v, label);
            ch.enqueued() == ch.delivered() + ch.lost() + ch.len() as u64
        })
    });
    count_tokens(net).matches(state.cfg.l) && safety_holds(net, &state.cfg) && conserved
}

/// The exact counters of a run, as `name → count`.
pub fn metrics_digest(metrics: &Metrics) -> Vec<(String, u64)> {
    let mut digest = vec![
        ("activations".to_string(), metrics.activations),
        ("deliveries".to_string(), metrics.deliveries),
        ("ticks".to_string(), metrics.ticks),
        ("messages_sent".to_string(), metrics.messages_sent),
    ];
    digest.extend(
        metrics.messages_by_kind.iter().map(|(kind, count)| (format!("sent.{kind}"), *count)),
    );
    digest
}

pub fn run(params: &SimParams, ctx: &mut Ctx) -> Result<Measured, String> {
    let mut measured = Measured::default();
    if params.footprint_mib > 64 {
        measured.prefault_s = Some(crate::host::prefault(params.footprint_mib)?);
    }
    let spec = spec_json(params.nodes, ctx.seed);

    let mut state = None;
    for _ in 0..params.setups {
        drop(state.take());
        let (built, seconds) = timed(|| setup(params, &spec, ctx));
        state = Some(built?);
        measured.setup_s.push(seconds);
    }
    let mut state = state.expect("at least one set-up pass");
    if !invariants_hold(&state) {
        return Err(format!(
            "{}: the network has not stabilised after the {}-step warm-up",
            params.name, params.warmup_steps
        ));
    }

    let mut digest = Vec::new();
    super::run_rounds(ctx, GOLDEN_ROUND, &mut measured, |round, tracer| {
        let ((), seconds) = timed(|| {
            tracer.span("treenet.engine/run", round as u64, |_| {
                treenet::engine::run(&mut state.net, &mut state.daemon, params.round_steps)
            })
        });
        let ok = invariants_hold(&state);
        if round + 1 == GOLDEN_ROUND {
            digest = metrics_digest(state.net.metrics());
        }
        Ok(Round { ops: params.round_steps, seconds, attempted: 1, failed: u64::from(!ok) })
    })?;
    golden_check(ctx, params.name, &digest)?;

    let totals = state.net.metrics();
    measured.diagnostics.extend([
        Metric::new("nodes", params.nodes as f64, "count"),
        Metric::new("tick_share", totals.ticks as f64 / totals.activations as f64, "ratio"),
        Metric::new("build_rss_mib", state.build_rss_mib, "MiB"),
    ]);
    measured.exact = digest;
    if ctx.trace {
        measured.warm_net = Some(state);
    }
    Ok(measured)
}
