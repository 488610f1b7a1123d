//! `klex-core` — the paper's contribution: self-stabilizing k-out-of-ℓ exclusion on oriented
//! tree networks (Datta, Devismes, Horn, Larmore, IPPS 2009), together with the intermediate
//! protocols of its step-by-step construction.
//!
//! # The problem
//!
//! There are ℓ units of a shared resource; any process may request up to `k ≤ ℓ` units at a
//! time.  A k-out-of-ℓ exclusion protocol must guarantee (Section 2 of the paper):
//!
//! * **Safety** — each unit is used by at most one process, each process uses at most `k`
//!   units, at most `ℓ` units are in use.  These *in-use* clauses are the specification.
//!   The checks enforce the protocol invariant `|RSet| ≤ k` per process instead, which
//!   implies the per-process clause and is what keeps a requester's next entry safe;
//!   [`legitimacy`] defines each clause once;
//! * **Fairness** — every request for at most `k` units is eventually satisfied;
//! * **Efficiency** — as many requests as possible are satisfied simultaneously, formalised
//!   as *(k,ℓ)-liveness*.
//!
//! The protocol must additionally be **self-stabilizing**: starting from *any* configuration
//! (arbitrary local states, up to `CMAX` arbitrary messages per channel) it converges to a
//! legitimate configuration from which the specification holds forever.
//!
//! # The protocol ladder (Section 3)
//!
//! | Module | Tokens | Guarantees |
//! |--------|--------|------------|
//! | [`naive`] | ℓ resource tokens circulating in DFS order | safety only — deadlocks (Fig. 2) |
//! | [`pusher`] | + 1 pusher token | deadlock-free — livelocks/starves (Fig. 3) |
//! | [`nonstab`] | + 1 priority token | correct k-out-of-ℓ exclusion, **not** fault-tolerant |
//! | [`ss`] | + counter-flushing controller, bounded counters | **self-stabilizing** (Algorithms 1 & 2) |
//!
//! The first three rungs are one process type, [`ladder::LadderNode`], whose
//! [`ladder::Rung`] says which tokens it handles; each rung's module is its network
//! constructor.  All variants share the message vocabulary ([`message::Message`]), the
//! application interface ([`node::AppSide`]), and the DFS retransmission rule (a token
//! received on channel `i` leaves on channel `(i+1) mod Δp`), so experiments can ablate
//! exactly one mechanism at a time.
//!
//! # Faithfulness notes
//!
//! The implementation follows Algorithms 1 and 2 line by line; the module documentation of
//! [`ss`] maps code blocks to line numbers.  One apparent typo in the published pseudo-code
//! is corrected (and kept available behind a switch for the ablation study): the guard of the
//! pusher handler reads `Prio ≠ ⊥` in the paper, which would make the *holder* of the
//! priority token drop its reserved tokens — the opposite of the mechanism described in the
//! prose and used in the proofs of Lemmas 10–12.  [`KlConfig::literal_pusher_guard`] selects
//! the literal (buggy) guard; the default is the corrected `Prio = ⊥`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod inspect;
pub mod ladder;
pub mod legitimacy;
pub mod message;
pub mod naive;
pub mod node;
pub mod nonstab;
pub mod pusher;
pub mod ss;

pub use config::KlConfig;
pub use inspect::KlInspect;
pub use ladder::{LadderNode, Rung};
pub use legitimacy::{count_tokens, is_legitimate, LiveCensus, TokenCensus};
pub use message::Message;
pub use node::AppSide;
pub use ss::{SsNode, SsRole};
