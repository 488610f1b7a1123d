//! Random generation and mutation of [`ScenarioSpec`]s for the fuzz campaign.
//!
//! Two entry points, both deterministic in their RNG:
//!
//! * [`random_spec`] draws a fresh small scenario from scratch — the blind generator the
//!   pre-campaign fuzzer used, now shared so corpus-less generation and coverage-guided
//!   mutation sample the same scenario family;
//! * [`mutate_spec`] perturbs an existing spec with one randomly chosen structural operator
//!   (topology grow/shrink/rewire, k/ℓ perturbation, protocol-rung swap, daemon and
//!   fault-plan swaps, init-override flips, workload perturbation, reseeding) — the
//!   coverage-guided campaign applies short chains of these to corpus entries instead of
//!   starting from scratch, which is what biases generation toward the neighborhood of
//!   specs that already reached novel checker-state-graph structure.
//!
//! Both functions **always** return a spec that validates ([`ScenarioSpec::compile`]
//! succeeds) and stays inside the checker-lowerable subset (tree protocol rungs, stateless
//! workloads): operators that could invalidate a spec repair it (needs lists are truncated
//! to the new topology, init overrides are dropped when the tree they address changes,
//! `k ≤ ℓ` is re-clamped), and a candidate that still fails validation is discarded for the
//! next operator draw.  The `tests/fuzz_regression.rs` proptest pins this contract over
//! thousands of mutation chains, including lossless JSON round-trips of every mutant.

use super::spec::{
    CheckSpec, DaemonSpec, FaultEventSpec, FaultPlanSpec, FaultScheduleSpec, InitSpec,
    ProtocolSpec, ScenarioSpec, StopSpec, TopologySpec, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Size and budget bounds shared by the generator and the mutation operators.
#[derive(Clone, Copy, Debug)]
pub struct GenLimits {
    /// Largest number of processes a generated or mutated topology may have.
    pub max_nodes: usize,
    /// Largest ℓ (total resource units) drawn.
    pub max_l: usize,
    /// Simulator activations per scenario (`stop` budget).
    pub sim_steps: u64,
    /// Checker state budget per scenario.
    pub max_configurations: usize,
    /// Largest number of fault epochs in a generated schedule.
    pub max_epochs: usize,
}

impl Default for GenLimits {
    fn default() -> Self {
        GenLimits {
            max_nodes: 9,
            max_l: 3,
            sim_steps: 3_000,
            max_configurations: 20_000,
            max_epochs: 3,
        }
    }
}

/// Generates one random small scenario.  All four tree rungs are drawn; workloads are
/// restricted to the checker-lowerable (stateless) shapes; holds are 0 (instantaneous
/// critical sections) or 1 (the shortest configuration-visible hold, which lowers to the
/// same driver the simulator runs).
pub fn random_spec(rng: &mut StdRng, limits: &GenLimits, name: impl Into<String>) -> ScenarioSpec {
    let n = rng.gen_range(2usize..=limits.max_nodes);
    let topology = match rng.gen_range(0u32..6) {
        0 => TopologySpec::Chain { n },
        1 => TopologySpec::Star { n },
        2 => TopologySpec::Binary { n },
        3 => TopologySpec::Random { n, seed: rng.gen::<u64>() },
        4 => TopologySpec::BoundedDegree {
            n,
            max_children: rng.gen_range(2usize..=3),
            seed: rng.gen::<u64>(),
        },
        _ => TopologySpec::Figure3,
    };
    let n = topology.len();
    let protocol = random_rung(rng);
    let l = rng.gen_range(1usize..=limits.max_l);
    let k = rng.gen_range(1usize..=l);
    let workload = random_workload(rng, n, k);
    let daemon = random_daemon(rng);
    // A quarter of the scenarios inject a transient fault before the simulated run (the
    // checker explores the fault-free instance either way; faulty scenarios exercise the
    // simulator path and are excluded from the sim-vs-checker safety oracle).
    let fault = rng.gen_bool(0.25).then(|| (rng.gen::<u64>(), random_fault_plan(rng)));
    // A fifth carry a multi-epoch fault schedule (campaign runs are likewise excluded from
    // the sim-vs-checker oracle; the checker replays the campaign prologue instead).
    let schedule = rng.gen_bool(0.2).then(|| random_schedule(rng, limits));

    let mut builder = ScenarioSpec::builder(name)
        .topology(topology)
        .protocol(protocol)
        .kl(k, l)
        .workload(workload)
        .daemon(daemon)
        .stop(StopSpec::Steps { steps: limits.sim_steps })
        .properties(&["request-eventually-cs", "at-most-k-in-cs", "l-availability"])
        .check(CheckSpec {
            max_configurations: limits.max_configurations,
            max_depth: 0,
            properties: vec!["safety".into(), "liveness".into()],
            ..CheckSpec::default()
        })
        .base_seed(rng.gen::<u64>());
    if let Some((seed, plan)) = fault {
        builder = builder.fault(seed, plan);
    }
    if let Some(schedule) = schedule {
        builder = builder.fault_schedule(schedule);
    }
    let spec = builder.spec();
    debug_assert!(spec.clone().compile().is_ok(), "generated specs always validate");
    spec
}

/// Applies one random mutation operator to `spec`, returning a perturbed spec that is
/// guaranteed to validate and to stay checker-lowerable.  Deterministic in the RNG.
pub fn mutate_spec(spec: &ScenarioSpec, rng: &mut StdRng, limits: &GenLimits) -> ScenarioSpec {
    let base = normalize(spec, rng, limits);
    for _ in 0..12 {
        let mut candidate = base.clone();
        let operator = rng.gen_range(0u32..13);
        match operator {
            0 => grow_topology(&mut candidate, rng, limits),
            1 => shrink_topology(&mut candidate, rng),
            2 => rewire_topology(&mut candidate, rng),
            3 => perturb_kl(&mut candidate, rng, limits),
            4 => candidate.protocol = random_rung(rng),
            5 => candidate.daemon = random_daemon(rng),
            6 => swap_fault(&mut candidate, rng),
            7 => flip_init(&mut candidate, rng),
            8 => perturb_workload(&mut candidate, rng),
            9 => candidate.fault_schedule = Some(random_schedule(rng, limits)),
            10 => drop_schedule(&mut candidate, rng),
            11 => perturb_schedule(&mut candidate, rng, limits),
            _ => candidate.base_seed = rng.gen::<u64>(),
        }
        if candidate != base && candidate.clone().compile().is_ok() {
            return candidate;
        }
    }
    // Every draw either produced no change or an invalid candidate (possible but vanishingly
    // rare on normalized specs); fall back to the always-valid reseed.
    let mut candidate = base;
    candidate.base_seed = rng.gen::<u64>();
    candidate
}

/// Pulls an arbitrary (possibly hand-written) spec into the campaign's checkable subset:
/// tree protocol rung, stateless workload, valid needs list, `k ≤ ℓ`.
fn normalize(spec: &ScenarioSpec, rng: &mut StdRng, limits: &GenLimits) -> ScenarioSpec {
    let mut spec = spec.clone();
    if matches!(spec.protocol, ProtocolSpec::Ring) {
        spec.protocol = random_rung(rng);
        spec.init = None;
    }
    spec.config.l = spec.config.l.clamp(1, limits.max_l);
    spec.config.k = spec.config.k.clamp(1, spec.config.l);
    let n = spec.topology.len();
    match &mut spec.workload {
        WorkloadSpec::Uniform { .. } | WorkloadSpec::LeafUniform { .. } => {
            spec.workload = random_workload(rng, n, spec.config.k);
        }
        WorkloadSpec::Needs { needs, .. } => needs.truncate(n),
        _ => {}
    }
    // Churn rebuilds invalidate the adversary's node-count assumptions; campaigns run under
    // the dynamic-size-safe daemons only.
    if spec.has_churn() && matches!(spec.daemon, DaemonSpec::Adversarial { .. }) {
        spec.daemon = random_daemon(rng);
    }
    if spec.clone().compile().is_err() {
        // Residual invalidity (out-of-range init overrides, bad stop predicate, …): drop the
        // exotic parts and re-anchor on a freshly generated scenario's scaffolding.
        let fresh = random_spec(rng, limits, spec.name.clone());
        return fresh;
    }
    spec
}

fn random_fault_event(rng: &mut StdRng) -> FaultEventSpec {
    match rng.gen_range(0u32..7) {
        0 => FaultEventSpec::Transient { plan: random_fault_plan(rng) },
        1 => FaultEventSpec::MessageBurst {
            drop: f64::from(rng.gen_range(0u32..=10)) / 10.0,
            duplicate: f64::from(rng.gen_range(0u32..=10)) / 10.0,
            garbage: rng.gen_range(0usize..=2),
        },
        2 => FaultEventSpec::Crash {
            count: rng.gen_range(1usize..=2),
            lose_incoming: rng.gen_bool(0.5),
        },
        3 => FaultEventSpec::TargetTokenPath,
        4 => FaultEventSpec::JoinLeaf,
        5 => FaultEventSpec::LeaveLeaf,
        _ => FaultEventSpec::RewireEdge,
    }
}

fn random_schedule(rng: &mut StdRng, limits: &GenLimits) -> FaultScheduleSpec {
    let epochs = rng.gen_range(1usize..=limits.max_epochs.max(1));
    FaultScheduleSpec {
        seed: rng.gen::<u64>(),
        epochs: (0..epochs).map(|_| random_fault_event(rng)).collect(),
        max_steps: limits.sim_steps.max(1),
        window: None,
    }
}

/// Removes one epoch from the schedule, or the whole schedule once it is down to one epoch.
fn drop_schedule(spec: &mut ScenarioSpec, rng: &mut StdRng) {
    if let Some(schedule) = &mut spec.fault_schedule {
        if schedule.epochs.len() > 1 {
            let slot = rng.gen_range(0usize..schedule.epochs.len());
            schedule.epochs.remove(slot);
        } else {
            spec.fault_schedule = None;
        }
    }
}

/// Reseeds the campaign or swaps one epoch for a freshly drawn event; attaches a fresh
/// single-epoch schedule when the spec has none.
fn perturb_schedule(spec: &mut ScenarioSpec, rng: &mut StdRng, limits: &GenLimits) {
    match &mut spec.fault_schedule {
        Some(schedule) if rng.gen_bool(0.5) => schedule.seed = rng.gen::<u64>(),
        Some(schedule) => {
            let slot = rng.gen_range(0usize..schedule.epochs.len());
            schedule.epochs[slot] = random_fault_event(rng);
        }
        None => {
            spec.fault_schedule = Some(FaultScheduleSpec {
                seed: rng.gen::<u64>(),
                epochs: vec![random_fault_event(rng)],
                max_steps: limits.sim_steps.max(1),
                window: None,
            });
        }
    }
}

fn random_rung(rng: &mut StdRng) -> ProtocolSpec {
    match rng.gen_range(0u32..4) {
        0 => ProtocolSpec::Naive,
        1 => ProtocolSpec::Pusher,
        2 => ProtocolSpec::NonStab,
        _ => ProtocolSpec::Ss,
    }
}

fn random_daemon(rng: &mut StdRng) -> DaemonSpec {
    match rng.gen_range(0u32..3) {
        0 => DaemonSpec::RoundRobin,
        1 => DaemonSpec::RandomFair { seed: rng.gen::<u64>() },
        _ => DaemonSpec::Synchronous,
    }
}

fn random_fault_plan(rng: &mut StdRng) -> FaultPlanSpec {
    match rng.gen_range(0u32..3) {
        0 => FaultPlanSpec::Catastrophic,
        1 => FaultPlanSpec::Moderate,
        _ => FaultPlanSpec::MessageOnly,
    }
}

fn random_workload(rng: &mut StdRng, n: usize, k: usize) -> WorkloadSpec {
    let hold = rng.gen_range(0u64..=1);
    if rng.gen_bool(0.5) {
        WorkloadSpec::Saturated { units: rng.gen_range(1usize..=k), hold }
    } else {
        let needs: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..=k)).collect();
        WorkloadSpec::Needs { needs, hold }
    }
}

/// Rebuilds the topology with a new process count, preserving the kind where it scales and
/// degrading to a seeded random tree where it does not (the paper-figure shapes).
fn resize_topology(topology: &TopologySpec, n: usize, rng: &mut StdRng) -> TopologySpec {
    match *topology {
        TopologySpec::Chain { .. } => TopologySpec::Chain { n },
        TopologySpec::Star { .. } => TopologySpec::Star { n },
        TopologySpec::Binary { .. } => TopologySpec::Binary { n },
        TopologySpec::Random { seed, .. } => TopologySpec::Random { n, seed },
        TopologySpec::BoundedDegree { max_children, seed, .. } => {
            TopologySpec::BoundedDegree { n, max_children, seed }
        }
        _ => TopologySpec::Random { n, seed: rng.gen::<u64>() },
    }
}

/// Resizing or rewiring invalidates anything that addresses concrete nodes or channels.
fn drop_tree_addressed(spec: &mut ScenarioSpec, n: usize) {
    spec.init = None;
    if let WorkloadSpec::Needs { needs, .. } = &mut spec.workload {
        needs.truncate(n);
    }
    if let DaemonSpec::Adversarial { victims, .. } = &mut spec.daemon {
        victims.retain(|&v| v < n);
    }
}

fn grow_topology(spec: &mut ScenarioSpec, rng: &mut StdRng, limits: &GenLimits) {
    let n = spec.topology.len();
    if n < limits.max_nodes {
        spec.topology = resize_topology(&spec.topology, n + 1, rng);
        drop_tree_addressed(spec, n + 1);
    }
}

fn shrink_topology(spec: &mut ScenarioSpec, rng: &mut StdRng) {
    let n = spec.topology.len();
    if n > 2 {
        spec.topology = resize_topology(&spec.topology, n - 1, rng);
        drop_tree_addressed(spec, n - 1);
    }
}

fn rewire_topology(spec: &mut ScenarioSpec, rng: &mut StdRng) {
    let n = spec.topology.len();
    spec.topology = match rng.gen_range(0u32..5) {
        0 => TopologySpec::Chain { n },
        1 => TopologySpec::Star { n },
        2 => TopologySpec::Binary { n },
        3 => TopologySpec::Random { n, seed: rng.gen::<u64>() },
        _ => TopologySpec::BoundedDegree {
            n,
            max_children: rng.gen_range(2usize..=3),
            seed: rng.gen::<u64>(),
        },
    };
    drop_tree_addressed(spec, n);
}

fn perturb_kl(spec: &mut ScenarioSpec, rng: &mut StdRng, limits: &GenLimits) {
    let l = if rng.gen_bool(0.5) && spec.config.l < limits.max_l {
        spec.config.l + 1
    } else if spec.config.l > 1 {
        spec.config.l - 1
    } else {
        spec.config.l + usize::from(spec.config.l < limits.max_l)
    };
    spec.config.l = l;
    spec.config.k = rng.gen_range(1usize..=l);
    clamp_workload_units(spec);
}

/// Keeps request sizes within the (possibly lowered) `k`.
fn clamp_workload_units(spec: &mut ScenarioSpec) {
    let k = spec.config.k;
    match &mut spec.workload {
        WorkloadSpec::Saturated { units, .. } => *units = (*units).clamp(1, k),
        WorkloadSpec::Needs { needs, .. } => {
            for need in needs {
                *need = (*need).min(k);
            }
        }
        _ => {}
    }
}

fn swap_fault(spec: &mut ScenarioSpec, rng: &mut StdRng) {
    spec.fault = match spec.fault {
        None => {
            Some(super::spec::FaultSpec { seed: rng.gen::<u64>(), plan: random_fault_plan(rng) })
        }
        Some(_) if rng.gen_bool(0.5) => None,
        Some(ref fault) => Some(super::spec::FaultSpec {
            seed: rng.gen::<u64>(),
            plan: match fault.plan {
                FaultPlanSpec::Catastrophic => FaultPlanSpec::Moderate,
                FaultPlanSpec::Moderate => FaultPlanSpec::MessageOnly,
                FaultPlanSpec::MessageOnly => FaultPlanSpec::Catastrophic,
            },
        }),
    };
}

fn flip_init(spec: &mut ScenarioSpec, rng: &mut StdRng) {
    if spec.init.is_some() {
        spec.init = None;
        return;
    }
    match spec.protocol {
        // Start the non-self-stabilizing rungs from an already-bootstrapped root: the
        // ℓ fresh tokens are never created, so token-starved structure becomes reachable.
        ProtocolSpec::Naive | ProtocolSpec::Pusher | ProtocolSpec::NonStab => {
            spec.init =
                Some(InitSpec { bootstrapped_root: true, nodes: Vec::new(), inject: Vec::new() });
        }
        // On the ss rung, place a garbage message in flight instead (channel 0 exists at
        // every node of a ≥2-process tree): exercises the no-hidden-timer bootstrap path
        // with a corrupted channel.
        _ => {
            let n = spec.topology.len();
            spec.init = Some(InitSpec {
                bootstrapped_root: false,
                nodes: Vec::new(),
                inject: vec![super::spec::InjectSpec {
                    from: rng.gen_range(0usize..n),
                    channel: 0,
                    message: super::spec::MessageSpec::Garbage { tag: rng.gen_range(0u16..1000) },
                }],
            });
        }
    }
    // Init overrides on seeded topologies do not validate across trials; trials are 1 in
    // fuzz specs, but corpus entries may differ — keep the operator total by pinning trials.
    spec.trials = 1;
}

fn perturb_workload(spec: &mut ScenarioSpec, rng: &mut StdRng) {
    let n = spec.topology.len();
    let k = spec.config.k;
    match rng.gen_range(0u32..3) {
        0 => spec.workload = random_workload(rng, n, k),
        1 => {
            // Flip the hold between the two checker-lowerable durations.
            if let WorkloadSpec::Saturated { hold, .. } | WorkloadSpec::Needs { hold, .. } =
                &mut spec.workload
            {
                *hold = u64::from(*hold == 0);
            }
        }
        _ => {
            // Perturb one node's demand.
            if let WorkloadSpec::Needs { needs, .. } = &mut spec.workload {
                if !needs.is_empty() {
                    let slot = rng.gen_range(0usize..needs.len());
                    needs[slot] = rng.gen_range(0usize..=k);
                }
            } else {
                spec.workload = random_workload(rng, n, k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_specs_validate_and_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        let limits = GenLimits::default();
        for index in 0..50 {
            let spec = random_spec(&mut rng, &limits, format!("gen-{index}"));
            assert!(spec.clone().compile().is_ok(), "{spec:?}");
            let json = spec.to_json();
            assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "round-trip {index}");
        }
    }

    #[test]
    fn mutants_validate_along_chains() {
        let mut rng = StdRng::seed_from_u64(23);
        let limits = GenLimits::default();
        let mut spec = random_spec(&mut rng, &limits, "chain-base");
        for step in 0..200 {
            spec = mutate_spec(&spec, &mut rng, &limits);
            assert!(spec.clone().compile().is_ok(), "step {step}: {spec:?}");
            assert!(spec.topology.len() <= limits.max_nodes, "step {step} grew past the cap");
        }
    }

    #[test]
    fn mutation_is_deterministic_in_the_rng() {
        let limits = GenLimits::default();
        let spec = random_spec(&mut StdRng::seed_from_u64(5), &limits, "det");
        let a = mutate_spec(&spec, &mut StdRng::seed_from_u64(99), &limits);
        let b = mutate_spec(&spec, &mut StdRng::seed_from_u64(99), &limits);
        assert_eq!(a, b);
    }

    #[test]
    fn ring_and_stateful_specs_are_normalized_into_the_checkable_subset() {
        let mut base = random_spec(&mut StdRng::seed_from_u64(7), &GenLimits::default(), "ring");
        base.protocol = ProtocolSpec::Ring;
        base.workload =
            WorkloadSpec::Uniform { seed: 1, p_request: 0.5, max_units: 1, max_hold: 3 };
        let mutant = mutate_spec(&base, &mut StdRng::seed_from_u64(8), &GenLimits::default());
        assert!(!matches!(mutant.protocol, ProtocolSpec::Ring));
        assert!(matches!(
            mutant.workload,
            WorkloadSpec::Saturated { .. } | WorkloadSpec::Needs { .. } | WorkloadSpec::Idle
        ));
        assert!(mutant.clone().compile().is_ok());
    }
}
