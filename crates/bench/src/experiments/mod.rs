//! One module per experiment group; `klex experiment eN` runs experiment N.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`figures::e1_dfs_circulation`] | Figure 1 — depth-first token circulation |
//! | [`figures::e2_deadlock`] | Figure 2 — deadlock of the naive protocol |
//! | [`figures::e3_livelock`] | Figure 3 — starvation under the pusher-only protocol |
//! | [`figures::e4_virtual_ring`] | Figure 4 — the virtual ring |
//! | [`theorem1::e5_convergence`] | Theorem 1 — self-stabilization (convergence time) |
//! | [`theorem2::e6_waiting_time`] | Theorem 2 — waiting time vs the ℓ(2n−3)² bound |
//! | [`liveness::e7_kl_liveness`] | (k,ℓ)-liveness / efficiency property |
//! | [`comparison::e8_tree_vs_ring`] | Related-work comparison: tree vs ring vs arbiters |
//! | [`comparison::e9_throughput`] | Throughput and message overhead sweeps |
//! | [`ablation::e10_ablation`] | Ablation of the token ladder and the paper-literal guards |
//! | [`general::e11_general_networks`] | Conclusion's extension: spanning-tree composition on general rooted networks |
//! | [`exhaustive::e12_exhaustive`] | Bounded-exhaustive verification of the figure-level claims |
//! | [`timeout::e13_timeout_sweep`] | Ablation of the controller-timeout interval (footnote 4) |
//! | [`unbounded::e14_unbounded_counter`] | Conclusion's unbounded-memory adaptation: bounded vs unbounded counter domains under garbage ≫ CMAX |
//! | [`crash::e15_crash_recovery`] | Conclusion's "other failure patterns": crash-restart recovery |

pub mod ablation;
pub mod comparison;
pub mod crash;
pub mod exhaustive;
pub mod figures;
pub mod general;
pub mod liveness;
pub mod theorem1;
pub mod theorem2;
pub mod timeout;
pub mod unbounded;
