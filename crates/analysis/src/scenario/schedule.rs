//! Fault-schedule execution: churn placement, the adversarial token-holder-path placer, and
//! the shared per-epoch event applier every backend uses.
//!
//! # Determinism contract
//!
//! A schedule consumes two independent seeded streams derived from
//! [`super::spec::FaultScheduleSpec::seed`] and the per-trial stream:
//!
//! - the **placement** stream decides *where* churn lands (which node gains a leaf, which
//!   leaf leaves, which edge is rewired) and is consumed by **churn epochs only**;
//! - the **injector** stream feeds the [`FaultInjector`] that corrupts state and channels.
//!
//! Because the placement stream is untouched by non-churn epochs, the epoch-by-epoch
//! topology sequence is a function of the spec alone.

use super::compile::{deepest_node, ScenarioNode};
use super::spec::FaultEventSpec;
use klex_core::KlConfig;
use rand::rngs::StdRng;
use rand::Rng;
use topology::{OrientedTree, Topology};
use treenet::{FaultInjector, FaultPlan, Network, NodeId, Restartable};

/// Seed of the injector stream for a trial.
pub(super) fn injector_seed(schedule_seed: u64, stream: u64) -> u64 {
    schedule_seed.wrapping_add(stream)
}

/// Seed of the placement stream for a trial — decorrelated from the injector stream so that
/// replaying only the churn placements consumes exactly the draws churn consumed.
pub(super) fn placement_seed(schedule_seed: u64, stream: u64) -> u64 {
    schedule_seed.wrapping_add(stream) ^ 0x9E37_79B9_7F4A_7C15
}

/// Above this size, rewiring candidates are sampled instead of enumerated.
const REWIRE_ENUMERATION_LIMIT: usize = 512;
/// Sampling attempts for rewiring on large trees.
const REWIRE_SAMPLE_ATTEMPTS: usize = 64;

/// Decides where a churn event lands on `tree`, drawing only from `placement`.  Returns the
/// post-churn tree plus the old-id-of-new-id map [`Network::rebuild_from`] consumes, or
/// `None` when the event has no valid placement (leaf removal at the 2-node minimum, or a
/// tree with no legal rewiring).
///
/// # Panics
///
/// Panics on a non-churn event.
pub(super) fn place_churn(
    tree: &OrientedTree,
    event: &FaultEventSpec,
    placement: &mut StdRng,
) -> Option<(OrientedTree, Vec<Option<NodeId>>)> {
    let n = tree.len();
    match event {
        FaultEventSpec::JoinLeaf => {
            let parent = placement.gen_range(0..n);
            let map = (0..n).map(Some).chain([None]).collect();
            Some((tree.with_leaf_added(parent), map))
        }
        FaultEventSpec::LeaveLeaf => {
            // At the 2-node minimum nothing may leave; skip without consuming a draw so the
            // placement stream stays replayable from the tree sequence alone.
            if n <= 2 {
                return None;
            }
            let leaves: Vec<NodeId> = (1..n).filter(|&v| tree.is_leaf(v)).collect();
            let v = leaves[placement.gen_range(0..leaves.len())];
            let (new_tree, old_of_new) = tree.with_leaf_removed(v);
            Some((new_tree, old_of_new.into_iter().map(Some).collect()))
        }
        FaultEventSpec::RewireEdge => {
            let map = (0..n).map(Some).collect();
            let valid = |v: NodeId, u: NodeId| {
                v != 0 && u != v && tree.parent(v) != Some(u) && !tree.in_subtree(u, v)
            };
            if n <= REWIRE_ENUMERATION_LIMIT {
                let pairs: Vec<(NodeId, NodeId)> = (1..n)
                    .flat_map(|v| (0..n).map(move |u| (v, u)))
                    .filter(|&(v, u)| valid(v, u))
                    .collect();
                if pairs.is_empty() {
                    return None;
                }
                let (v, u) = pairs[placement.gen_range(0..pairs.len())];
                Some((tree.with_edge_rewired(v, u), map))
            } else {
                for _ in 0..REWIRE_SAMPLE_ATTEMPTS {
                    let v = placement.gen_range(1..n);
                    let u = placement.gen_range(0..n);
                    if valid(v, u) {
                        return Some((tree.with_edge_rewired(v, u), map));
                    }
                }
                None
            }
        }
        other => panic!("place_churn called with non-churn event {:?}", other.label()),
    }
}

/// The root path of the deepest process currently holding a resource or priority token — the
/// adversarial fault placer's victims: corrupting the whole path the tokens travel on is the
/// paper's worst-case transient fault.  Falls back to the deepest node's path when no process
/// holds a token (e.g. every token is in flight).
pub(super) fn token_path<P>(net: &Network<P, OrientedTree>) -> Vec<NodeId>
where
    P: ScenarioNode,
{
    let tree = net.topology();
    let holder = (0..net.len())
        .filter(|&v| net.node(v).reserved() > 0 || net.node(v).holds_priority())
        .max_by_key(|&v| tree.depth(v))
        .unwrap_or_else(|| deepest_node(tree));
    let mut path = vec![holder];
    let mut v = holder;
    while let Some(p) = tree.parent(v) {
        path.push(p);
        v = p;
    }
    path
}

/// Applies one fault epoch to a tree-protocol network.  Corruption events draw from the
/// injector; churn events draw their placement from `placement`, build a fresh donor network
/// over the new tree via `make_template`, and rebuild the live network with state carryover
/// ([`Network::rebuild_from`]: survivors keep their state, the churn locus restarts).
pub(super) fn apply_event<P>(
    net: &mut Network<P, OrientedTree>,
    event: &FaultEventSpec,
    cfg: &KlConfig,
    placement: &mut StdRng,
    injector: &mut FaultInjector,
    make_template: &mut dyn FnMut(&OrientedTree) -> Network<P, OrientedTree>,
) where
    P: ScenarioNode + Restartable,
{
    match event {
        FaultEventSpec::Transient { plan } => {
            injector.inject(net, &plan.to_plan(cfg));
        }
        FaultEventSpec::MessageBurst { drop, duplicate, garbage } => {
            let plan = FaultPlan {
                corrupt_node_prob: 0.0,
                channel_garbage_max: *garbage,
                drop_prob: *drop,
                duplicate_prob: *duplicate,
                clear_channel_prob: 0.0,
            };
            injector.inject(net, &plan);
        }
        FaultEventSpec::Crash { count, lose_incoming } => {
            injector.crash_random(net, *count, *lose_incoming);
        }
        FaultEventSpec::TargetTokenPath => {
            let path = token_path(net);
            injector.corrupt_nodes(net, &path);
        }
        churn => {
            if let Some((new_tree, old_of_new)) = place_churn(net.topology(), churn, placement) {
                let donor = make_template(&new_tree);
                net.rebuild_from(donor, &old_of_new);
            }
        }
    }
}
