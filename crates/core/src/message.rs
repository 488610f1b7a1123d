//! The protocol's message vocabulary.

use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;
use treenet::{ArbitraryMessage, MessageKind, SnapshotMessage};

/// A message of the k-out-of-ℓ exclusion protocol, `⟨type, value…⟩` in the paper's notation.
///
/// * [`Message::ResT`] — a resource token; one per resource unit, ℓ in a legitimate
///   configuration.
/// * [`Message::PushT`] — the pusher token; exactly one in a legitimate configuration.  It
///   forces processes that are neither in nor about to enter their critical section to
///   release reserved resource tokens, preventing the deadlock of Figure 2.
/// * [`Message::PrioT`] — the priority token; exactly one in a legitimate configuration.  Its
///   holder is immune to the pusher, preventing the livelock of Figure 3.
/// * [`Message::Ctrl`] — the controller, `⟨ctrl, C, R, PT, PPr⟩`: a counter-flushing DFS
///   token that counts the other tokens during one circulation so the root can repair their
///   number (create the missing ones, or reset the network when there are too many).
/// * [`Message::Garbage`] — an arbitrary corrupted message, as may populate channels after a
///   transient fault.  Legitimate protocol code never sends it; it exists so fault injection
///   can produce genuinely foreign channel content that the protocol must flush out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Message {
    /// A resource token (one unit of the shared resource).
    ResT,
    /// The pusher token.
    PushT,
    /// The priority token.
    PrioT,
    /// The controller token `⟨ctrl, C, R, PT, PPr⟩`.
    Ctrl {
        /// The counter-flushing flag value `C` (the sender's `myC`).
        c: u64,
        /// The reset flag `R`: when true, every visited process erases its reserved tokens.
        r: bool,
        /// Number of resource tokens *passed* by the controller so far in this circulation.
        pt: u64,
        /// Number of priority tokens passed by the controller so far in this circulation.
        ppr: u8,
    },
    /// An arbitrary corrupted message (never produced by correct protocol code).
    Garbage(u16),
    /// A Chandy–Lamport snapshot marker carrying its snapshot id.  Markers are consumed by
    /// the snapshot layer ([`treenet::SnapshotRunner`]) before protocol code sees them and
    /// are never counted as tokens — the token census of a cut ignores them entirely.
    Marker(u32),
}

impl Message {
    /// True for controller messages.
    pub fn is_ctrl(&self) -> bool {
        matches!(self, Message::Ctrl { .. })
    }
}

impl MessageKind for Message {
    fn kind(&self) -> &'static str {
        match self {
            Message::ResT => "ResT",
            Message::PushT => "PushT",
            Message::PrioT => "PrioT",
            Message::Ctrl { .. } => "ctrl",
            Message::Garbage(_) => "garbage",
            Message::Marker(_) => "marker",
        }
    }
}

impl SnapshotMessage for Message {
    fn marker(snap: u32) -> Self {
        Message::Marker(snap)
    }

    fn as_marker(&self) -> Option<u32> {
        match self {
            Message::Marker(snap) => Some(*snap),
            _ => None,
        }
    }
}

impl ArbitraryMessage for Message {
    fn arbitrary(rng: &mut StdRng) -> Self {
        // Faults can forge any message type, including plausible-looking tokens and
        // controllers with arbitrary field values.  Markers are deliberately excluded: the
        // range 0..5 is pinned by the fuzz corpus signatures, and forging markers would let
        // fault injection confuse the snapshot layer rather than the protocol under test.
        match rng.gen_range(0..5) {
            0 => Message::ResT,
            1 => Message::PushT,
            2 => Message::PrioT,
            3 => Message::Ctrl {
                c: rng.gen_range(0..1_000),
                r: rng.gen_bool(0.3),
                pt: rng.gen_range(0..16),
                ppr: rng.gen_range(0..3),
            },
            _ => Message::Garbage(rng.gen()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kinds_are_distinct() {
        let msgs = [
            Message::ResT,
            Message::PushT,
            Message::PrioT,
            Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 },
            Message::Garbage(9),
            Message::Marker(0),
        ];
        let kinds: std::collections::BTreeSet<&str> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), msgs.len());
    }

    #[test]
    fn predicates_match_variants() {
        assert!(Message::Ctrl { c: 1, r: true, pt: 2, ppr: 1 }.is_ctrl());
        assert!(!Message::Garbage(0).is_ctrl());
        assert!(!Message::ResT.is_ctrl());
    }

    #[test]
    fn marker_roundtrips_through_the_snapshot_trait() {
        let m = <Message as SnapshotMessage>::marker(7);
        assert_eq!(m, Message::Marker(7));
        assert_eq!(m.as_marker(), Some(7));
        assert_eq!(Message::ResT.as_marker(), None);
        assert_eq!(m.kind(), "marker");
    }

    #[test]
    fn arbitrary_covers_all_variants() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut kinds = std::collections::BTreeSet::new();
        for _ in 0..500 {
            kinds.insert(Message::arbitrary(&mut rng).kind());
        }
        assert_eq!(kinds.len(), 5, "fault injection should be able to forge every message kind");
    }
}
