//! Capturing and restoring protocol configurations.
//!
//! A *configuration* in the paper's sense is the product of all process states and channel
//! contents.  [`Configuration`] is the explorer's concrete representation of that: one
//! [`NodeState`] per process plus the full FIFO content of every incoming channel.  It is
//! `Eq + Hash`, so the explorer can recognise configurations it has already visited, and it
//! can be written back into a live [`Network`] so that the *actual* protocol code computes the
//! successors.
//!
//! # The state abstraction
//!
//! Two pieces of run-time state are deliberately **excluded** from the abstraction:
//!
//! * the logical clock (`now`) and the root's timeout counter — the paper treats the timeout
//!   interval as "sufficiently large"; checked networks are built with an effectively
//!   infinite interval (see [`crate::scenarios::ss_for_checking`]) so the timer can never
//!   fire during a bounded exploration and its value is behaviourally irrelevant;
//! * application-driver internals — the drivers of [`crate::drivers`] are stateless, so their
//!   behaviour is a function of the captured `State`/`Need` alone.
//!
//! Everything the protocol itself reads — `State`, `Need`, `RSet`, `Prio`, the counter-flushing
//! variables `myC`/`Succ`, the root's census counters and `Reset` flag, and every in-flight
//! message — is part of the abstraction.
//!
//! # Packed configurations and interning
//!
//! [`Configuration`] is convenient for property predicates and witnesses, but too heavy for
//! the explorer's hot loop: it is a Vec-of-Vecs structure whose cloning and (Sip-)hashing
//! dominated exploration time.  The exploration engine therefore works on a **packed**
//! representation instead: [`pack_configuration`] serializes a configuration into one flat,
//! canonical byte string (varint-encoded fields in a fixed order, so *equal configurations
//! produce equal bytes and vice versa*), [`capture_packed`] produces those bytes straight from
//! a live network without materializing a `Configuration`, and [`restore_packed`] writes them
//! back the same way.  A [`StateArena`] hash-conses packed configurations: each distinct
//! configuration is stored exactly once in one contiguous buffer and identified by a dense
//! `u32` id, with an open-addressing table over 64-bit fx hashes replacing the old
//! `HashMap<Configuration, usize>`.  [`unpack_configuration_into`] recovers a full
//! [`Configuration`] into a reused buffer — the explorer decodes each admitted state once,
//! for its property checks and recorded-graph facts — and [`unpack_configuration`] into a
//! fresh one, for witnesses.
//!
//! # Segments and incremental hashing
//!
//! The packed encoding is naturally *segmented*: after the constant header, the buffer is a
//! sequence of per-node state segments followed by per-channel content segments, and a
//! single transition dirties only the activated node's segment plus the few channels it
//! touched.  [`SegmentMap`] records every segment's byte span and every channel's message
//! count (by [`map_packed`], a skip-only parse that decodes nothing), and
//! [`segmented_hash`] defines a whole-configuration hash as the XOR of per-segment terms
//! ([`segment_term`]) so it can be patched per dirty segment instead of recomputed over the
//! whole buffer.  The delta successor engine in [`crate::explore`] builds on exactly these
//! two primitives, interning through [`StateArena::intern_capped_hashed`] (one hash scheme
//! per arena — see its docs).

use klex_core::ss::SsRole;
use klex_core::{Message, SsNode};
use topology::Topology;
use treenet::{ChannelLabel, CsState, Network, Process};

/// The controller-related (self-stabilization) part of a process state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CtrlState {
    /// The root's Algorithm-1 variables.
    Root {
        /// Counter-flushing value `myC`.
        my_c: u64,
        /// Successor pointer `Succ`.
        succ: ChannelLabel,
        /// The `Reset` flag.
        reset: bool,
        /// `SToken`.
        s_token: u64,
        /// `SPush`.
        s_push: u8,
        /// `SPrio`.
        s_prio: u8,
    },
    /// A non-root process's Algorithm-2 variables.
    NonRoot {
        /// Counter-flushing value `myC`.
        my_c: u64,
        /// Successor pointer `Succ`.
        succ: ChannelLabel,
    },
}

/// The protocol-relevant local state of one process.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodeState {
    /// The paper's `State ∈ {Req, In, Out}`.
    pub cs: CsState,
    /// The paper's `Need`.
    pub need: usize,
    /// The paper's `RSet`, as a sorted multiset of channel labels.  Sorting is safe because
    /// `RSet` is a multiset: the retransmission target of a reserved token depends only on
    /// its own label, never on its position in the collection.
    pub rset: Vec<ChannelLabel>,
    /// The paper's `Prio` (`None` for protocol rungs without the priority token).
    pub prio: Option<ChannelLabel>,
    /// Whether the root has already created its initial tokens (naive / pusher / non-stabilizing
    /// rungs only; the self-stabilizing protocol has no such flag).
    pub bootstrapped: bool,
    /// Counter-flushing state (self-stabilizing protocol only).
    pub ctrl: Option<CtrlState>,
}

/// A global configuration: all process states plus all channel contents.
///
/// `channels[v][l]` is the FIFO content (head first) of node `v`'s incoming channel `l`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// Per-process protocol state.
    pub nodes: Vec<NodeState>,
    /// Per-channel in-flight messages, head first.
    pub channels: Vec<Vec<Vec<Message>>>,
}

impl Configuration {
    /// Total number of in-flight messages.
    pub fn messages_in_flight(&self) -> usize {
        self.channels.iter().flat_map(|per_node| per_node.iter().map(Vec::len)).sum()
    }

    /// Indices of processes that are unsatisfied requesters (`State = Req ∧ |RSet| < Need`).
    pub fn unsatisfied_requesters(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cs == CsState::Req && s.rset.len() < s.need)
            .map(|(v, _)| v)
            .collect()
    }

    /// Number of resource tokens in the configuration (in flight plus reserved).
    pub fn resource_tokens(&self) -> usize {
        self.in_flight_matching(Message::is_resource)
            + self.nodes.iter().map(|s| s.rset.len()).sum::<usize>()
    }

    /// Number of pusher tokens (always in flight: no process ever holds the pusher).
    pub fn pusher_tokens(&self) -> usize {
        self.in_flight_matching(Message::is_pusher)
    }

    /// Number of priority tokens, in flight plus held (`Prio ≠ ⊥`).
    pub fn priority_tokens(&self) -> usize {
        self.in_flight_matching(Message::is_priority)
            + self.nodes.iter().filter(|s| s.prio.is_some()).count()
    }

    /// Number of garbage (non-protocol) messages in flight.
    pub fn garbage_messages(&self) -> usize {
        self.in_flight_matching(|m| matches!(m, Message::Garbage(_)))
    }

    /// Resource units currently *in use* in the sense of the safety property: tokens reserved
    /// by processes executing their critical section.
    pub fn units_in_use(&self) -> usize {
        self.nodes.iter().filter(|s| s.cs == CsState::In).map(|s| s.rset.len()).sum()
    }

    fn in_flight_matching(&self, pred: impl Fn(&Message) -> bool) -> usize {
        self.channels
            .iter()
            .flat_map(|per_node| per_node.iter())
            .flat_map(|ch| ch.iter())
            .filter(|&m| pred(m))
            .count()
    }
}

/// A protocol process whose state can be captured into a [`NodeState`] and written back.
///
/// Implemented for every rung of the protocol ladder.  The contract is that
/// `restore(&capture())` is an identity on the behaviourally relevant state, and that two
/// processes with equal captures behave identically on every input (given stateless drivers).
///
/// The explorer's hot path rests on the second half: [`crate::Explorer::run`] executes one
/// activation per distinct (process, activation, encoded capture, head message) and reuses
/// its effect for every configuration that presents the same input (see [`crate::explore`]).
/// Anything an activation reads beyond the capture and the consumed message — a counter in
/// a driver, the logical clock — would make those reuses wrong, so debug builds re-execute
/// every reuse and panic, naming the process and the activation, when the effect differs.
/// The one sanctioned clock read is [`crate::drivers::HoldOneActivation`]'s
/// `now > entered_at`: every restore resets `entered_at` to 0 and `now ≥ 1` at every
/// execution (the clock advances before the handlers run), so in an explored network the
/// comparison is true exactly for a process that entered its critical section in an
/// earlier activation — a fact of the capture (`State = In`).
pub trait CheckableNode: Process<Msg = Message> + klex_core::KlInspect {
    /// Captures the protocol-relevant local state into `state`, overwriting every field and
    /// reusing its `rset` buffer (the explorer's per-transition capture allocates nothing).
    fn capture_state_into(&self, state: &mut NodeState);

    /// Captures the protocol-relevant local state into a fresh [`NodeState`].
    fn capture_state(&self) -> NodeState {
        let mut state = NodeState::default();
        self.capture_state_into(&mut state);
        state
    }

    /// Restores a previously captured state.
    fn restore_state(&mut self, state: &NodeState);
}

/// Overwrites `state`'s application fields (`State`, `Need`, sorted `RSet`) from `app`.
fn capture_app(app: &klex_core::AppSide, state: &mut NodeState) {
    state.cs = app.state;
    state.need = app.need;
    state.rset.clone_from(&app.rset);
    state.rset.sort_unstable();
}

/// Restores the application fields captured by [`capture_app`]; the critical-section entry
/// time is outside the abstraction and resets to 0.
fn restore_app(app: &mut klex_core::AppSide, state: &NodeState) {
    app.state = state.cs;
    app.need = state.need;
    app.rset.clone_from(&state.rset);
    app.entered_at = 0;
}

impl CheckableNode for klex_core::naive::NaiveNode {
    fn capture_state_into(&self, state: &mut NodeState) {
        capture_app(&self.app, state);
        state.prio = None;
        state.bootstrapped = self.bootstrapped;
        state.ctrl = None;
    }

    fn restore_state(&mut self, state: &NodeState) {
        restore_app(&mut self.app, state);
        self.bootstrapped = state.bootstrapped;
    }
}

impl CheckableNode for klex_core::pusher::PusherNode {
    fn capture_state_into(&self, state: &mut NodeState) {
        capture_app(&self.app, state);
        state.prio = None;
        state.bootstrapped = self.bootstrapped;
        state.ctrl = None;
    }

    fn restore_state(&mut self, state: &NodeState) {
        restore_app(&mut self.app, state);
        self.bootstrapped = state.bootstrapped;
    }
}

impl CheckableNode for klex_core::nonstab::NonStabNode {
    fn capture_state_into(&self, state: &mut NodeState) {
        capture_app(&self.app, state);
        state.prio = self.prio;
        state.bootstrapped = self.bootstrapped;
        state.ctrl = None;
    }

    fn restore_state(&mut self, state: &NodeState) {
        restore_app(&mut self.app, state);
        self.prio = state.prio;
        self.bootstrapped = state.bootstrapped;
    }
}

impl CheckableNode for SsNode {
    fn capture_state_into(&self, state: &mut NodeState) {
        capture_app(&self.app, state);
        state.prio = self.prio;
        state.bootstrapped = true;
        state.ctrl = Some(match &self.role {
            SsRole::Root(r) => CtrlState::Root {
                my_c: r.my_c,
                succ: r.succ,
                reset: r.reset,
                s_token: r.s_token,
                s_push: r.s_push,
                s_prio: r.s_prio,
            },
            SsRole::NonRoot(st) => CtrlState::NonRoot { my_c: st.my_c, succ: st.succ },
        });
    }

    fn restore_state(&mut self, state: &NodeState) {
        restore_app(&mut self.app, state);
        self.prio = state.prio;
        match (&mut self.role, &state.ctrl) {
            (SsRole::Root(r), Some(CtrlState::Root { my_c, succ, reset, s_token, s_push, s_prio })) => {
                r.my_c = *my_c;
                r.succ = *succ;
                r.reset = *reset;
                r.s_token = *s_token;
                r.s_push = *s_push;
                r.s_prio = *s_prio;
            }
            (SsRole::NonRoot(st), Some(CtrlState::NonRoot { my_c, succ })) => {
                st.my_c = *my_c;
                st.succ = *succ;
            }
            (role, ctrl) => {
                panic!("mismatched controller state for role {role:?}: {ctrl:?}");
            }
        }
    }
}

/// Captures the full configuration of `net`.
pub fn capture<P, T>(net: &Network<P, T>) -> Configuration
where
    P: CheckableNode,
    T: Topology,
{
    let n = net.len();
    let nodes = (0..n).map(|v| net.node(v).capture_state()).collect();
    let channels = (0..n)
        .map(|v| {
            (0..net.topology().degree(v))
                .map(|l| net.channel(v, l).iter().cloned().collect())
                .collect()
        })
        .collect();
    Configuration { nodes, channels }
}

/// Writes `config` back into `net`: process states are restored and every channel is cleared
/// and refilled.  The logical clock and metrics are left untouched (they are not part of the
/// abstraction).
///
/// # Panics
///
/// Panics if the configuration's shape (node count or channel degrees) does not match the
/// network.
pub fn restore<P, T>(net: &mut Network<P, T>, config: &Configuration)
where
    P: CheckableNode,
    T: Topology,
{
    assert_eq!(config.nodes.len(), net.len(), "configuration has the wrong number of processes");
    for (v, state) in config.nodes.iter().enumerate() {
        net.node_mut(v).restore_state(state);
    }
    for (v, per_node) in config.channels.iter().enumerate() {
        assert_eq!(
            per_node.len(),
            net.topology().degree(v),
            "configuration has the wrong degree for node {v}"
        );
        for (l, msgs) in per_node.iter().enumerate() {
            let mut ch = net.channel_mut(v, l);
            // `reset`, not `clear`: a restore discards run-time state, it does not model
            // fault-injected message loss, so the `lost` counter must not move (same
            // discipline as `restore_packed`).
            ch.reset();
            for m in msgs {
                ch.push(*m);
            }
        }
    }
}

// --------------------------------------------------------------------- packed representation

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(cursor: &mut &[u8]) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = cursor[0];
        *cursor = &cursor[1..];
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

fn cs_to_byte(cs: CsState) -> u8 {
    match cs {
        CsState::Out => 0,
        CsState::Req => 1,
        CsState::In => 2,
    }
}

fn cs_from_byte(byte: u8) -> CsState {
    match byte {
        0 => CsState::Out,
        1 => CsState::Req,
        2 => CsState::In,
        other => panic!("corrupt packed configuration: CsState tag {other}"),
    }
}

pub(crate) fn write_message(out: &mut Vec<u8>, msg: &Message) {
    match *msg {
        Message::ResT => out.push(1),
        Message::PushT => out.push(2),
        Message::PrioT => out.push(3),
        Message::Ctrl { c, r, pt, ppr } => {
            out.push(4);
            write_varint(out, c);
            out.push(u8::from(r));
            write_varint(out, pt);
            out.push(ppr);
        }
        Message::Garbage(x) => {
            out.push(5);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Message::Marker(s) => {
            out.push(6);
            out.extend_from_slice(&s.to_le_bytes());
        }
    }
}

fn read_message(cursor: &mut &[u8]) -> Message {
    let tag = cursor[0];
    *cursor = &cursor[1..];
    match tag {
        1 => Message::ResT,
        2 => Message::PushT,
        3 => Message::PrioT,
        4 => {
            let c = read_varint(cursor);
            let r = cursor[0] != 0;
            *cursor = &cursor[1..];
            let pt = read_varint(cursor);
            let ppr = cursor[0];
            *cursor = &cursor[1..];
            Message::Ctrl { c, r, pt, ppr }
        }
        5 => {
            let x = u16::from_le_bytes([cursor[0], cursor[1]]);
            *cursor = &cursor[2..];
            Message::Garbage(x)
        }
        6 => {
            let s = u32::from_le_bytes([cursor[0], cursor[1], cursor[2], cursor[3]]);
            *cursor = &cursor[4..];
            Message::Marker(s)
        }
        other => panic!("corrupt packed configuration: message tag {other}"),
    }
}

fn write_node_state(out: &mut Vec<u8>, state: &NodeState) {
    out.push(cs_to_byte(state.cs));
    write_varint(out, state.need as u64);
    write_varint(out, state.rset.len() as u64);
    for &label in &state.rset {
        write_varint(out, label as u64);
    }
    match state.prio {
        None => out.push(0),
        Some(label) => {
            out.push(1);
            write_varint(out, label as u64);
        }
    }
    out.push(u8::from(state.bootstrapped));
    match &state.ctrl {
        None => out.push(0),
        Some(CtrlState::Root { my_c, succ, reset, s_token, s_push, s_prio }) => {
            out.push(1);
            write_varint(out, *my_c);
            write_varint(out, *succ as u64);
            out.push(u8::from(*reset));
            write_varint(out, *s_token);
            out.push(*s_push);
            out.push(*s_prio);
        }
        Some(CtrlState::NonRoot { my_c, succ }) => {
            out.push(2);
            write_varint(out, *my_c);
            write_varint(out, *succ as u64);
        }
    }
}

/// Decodes one node-state segment into `state`, overwriting every field and reusing its
/// `rset` buffer — the one node-state decoder, shared by restores and unpacking.
fn read_node_state_into(cursor: &mut &[u8], state: &mut NodeState) {
    state.cs = cs_from_byte(cursor[0]);
    *cursor = &cursor[1..];
    state.need = read_varint(cursor) as usize;
    let rset_len = read_varint(cursor) as usize;
    state.rset.clear();
    for _ in 0..rset_len {
        state.rset.push(read_varint(cursor) as usize);
    }
    state.prio = match cursor[0] {
        0 => {
            *cursor = &cursor[1..];
            None
        }
        _ => {
            *cursor = &cursor[1..];
            Some(read_varint(cursor) as usize)
        }
    };
    state.bootstrapped = cursor[0] != 0;
    *cursor = &cursor[1..];
    let ctrl_tag = cursor[0];
    *cursor = &cursor[1..];
    state.ctrl = match ctrl_tag {
        0 => None,
        1 => {
            let my_c = read_varint(cursor);
            let succ = read_varint(cursor) as usize;
            let reset = cursor[0] != 0;
            *cursor = &cursor[1..];
            let s_token = read_varint(cursor);
            let s_push = cursor[0];
            let s_prio = cursor[1];
            *cursor = &cursor[2..];
            Some(CtrlState::Root { my_c, succ, reset, s_token, s_push, s_prio })
        }
        2 => {
            let my_c = read_varint(cursor);
            let succ = read_varint(cursor) as usize;
            Some(CtrlState::NonRoot { my_c, succ })
        }
        other => panic!("corrupt packed configuration: ctrl tag {other}"),
    };
}

/// Appends the canonical packed encoding of `config` to `out`.
///
/// The encoding is injective on [`Configuration`] values: two configurations are equal **iff**
/// their packed encodings are byte-for-byte equal (varints are always minimal, fields appear
/// in a fixed order, and every length is explicit).  [`unpack_configuration`] inverts it.
pub fn pack_configuration(config: &Configuration, out: &mut Vec<u8>) {
    write_varint(out, config.nodes.len() as u64);
    for state in &config.nodes {
        write_node_state(out, state);
    }
    for per_node in &config.channels {
        write_varint(out, per_node.len() as u64);
        for channel in per_node {
            write_varint(out, channel.len() as u64);
            for msg in channel {
                write_message(out, msg);
            }
        }
    }
}

/// Decodes a packed configuration produced by [`pack_configuration`] or [`capture_packed`].
///
/// # Panics
///
/// Panics on malformed input; packed bytes only ever come from this module's encoders.
pub fn unpack_configuration(bytes: &[u8]) -> Configuration {
    let mut config = Configuration::default();
    unpack_configuration_into(bytes, &mut config);
    config
}

/// Decodes a packed configuration into `config`, overwriting it and reusing its vectors: a
/// buffer decoded into once per state of one exploration stops allocating after the first
/// few states.  Equal to `*config = unpack_configuration(bytes)`.
///
/// # Panics
///
/// Panics on malformed input; packed bytes only ever come from this module's encoders.
pub fn unpack_configuration_into(mut bytes: &[u8], config: &mut Configuration) {
    let cursor = &mut bytes;
    let n = read_varint(cursor) as usize;
    config.nodes.resize_with(n, NodeState::default);
    for state in &mut config.nodes {
        read_node_state_into(cursor, state);
    }
    config.channels.resize_with(n, Vec::new);
    for per_node in &mut config.channels {
        let degree = read_varint(cursor) as usize;
        per_node.resize_with(degree, Vec::new);
        for channel in per_node.iter_mut() {
            let len = read_varint(cursor) as usize;
            channel.clear();
            for _ in 0..len {
                channel.push(read_message(cursor));
            }
        }
    }
    assert!(cursor.is_empty(), "corrupt packed configuration: {} trailing bytes", cursor.len());
}

/// Captures the full configuration of `net` directly into its packed encoding, replacing the
/// contents of `out`.  Produces exactly the bytes `pack_configuration(&capture(net))` would,
/// without materializing the intermediate [`Configuration`].
pub fn capture_packed<P, T>(net: &Network<P, T>, out: &mut Vec<u8>)
where
    P: CheckableNode,
    T: Topology,
{
    out.clear();
    let n = net.len();
    write_varint(out, n as u64);
    let mut state = NodeState::default();
    for v in 0..n {
        net.node(v).capture_state_into(&mut state);
        write_node_state(out, &state);
    }
    for v in 0..n {
        let degree = net.topology().degree(v);
        write_varint(out, degree as u64);
        for l in 0..degree {
            let channel = net.channel(v, l);
            write_varint(out, channel.len() as u64);
            for msg in channel.iter() {
                write_message(out, msg);
            }
        }
    }
}

/// Writes a packed configuration back into `net`, borrowing the bytes (the inverse of
/// [`capture_packed`], and the hot-path replacement for `restore(net, &config.clone())`).
///
/// # Panics
///
/// Panics if the packed shape (node count or channel degrees) does not match the network.
pub fn restore_packed<P, T>(net: &mut Network<P, T>, bytes: &[u8])
where
    P: CheckableNode,
    T: Topology,
{
    let mut bytes = bytes;
    let cursor = &mut bytes;
    let n = read_varint(cursor) as usize;
    assert_eq!(n, net.len(), "packed configuration has the wrong number of processes");
    let mut state = NodeState::default();
    for v in 0..n {
        read_node_state_into(cursor, &mut state);
        net.node_mut(v).restore_state(&state);
    }
    for v in 0..n {
        let degree = read_varint(cursor) as usize;
        assert_eq!(
            degree,
            net.topology().degree(v),
            "packed configuration has the wrong degree for node {v}"
        );
        for l in 0..degree {
            let len = read_varint(cursor) as usize;
            let mut channel = net.channel_mut(v, l);
            channel.reset();
            for _ in 0..len {
                channel.push(read_message(cursor));
            }
        }
    }
}

/// Records the byte span of every mutable segment of a packed configuration, and every
/// channel's message count, into `map` (cleared first) — the per-state setup step of the
/// delta successor engine.  A skip-only parse: no [`NodeState`] or [`Message`] is decoded
/// and no network is touched.
pub fn map_packed(bytes: &[u8], map: &mut SegmentMap) {
    let total = bytes.len();
    let offset_of = |cursor: &[u8]| (total - cursor.len()) as u32;
    let mut bytes = bytes;
    let cursor = &mut bytes;
    map.node_spans.clear();
    map.chan_spans.clear();
    map.chan_lens.clear();
    let n = read_varint(cursor) as usize;
    for _ in 0..n {
        let start = offset_of(cursor);
        skip_node_state(cursor);
        map.node_spans.push((start, offset_of(cursor)));
    }
    for _ in 0..n {
        let degree = read_varint(cursor) as usize;
        for _ in 0..degree {
            let start = offset_of(cursor);
            let len = read_varint(cursor);
            for _ in 0..len {
                *cursor = &cursor[message_len(cursor)..];
            }
            map.chan_spans.push((start, offset_of(cursor)));
            map.chan_lens.push(len as u32);
        }
    }
    assert!(cursor.is_empty(), "corrupt packed configuration: {} trailing bytes", cursor.len());
}

fn skip_varint(cursor: &mut &[u8]) {
    let len = cursor.iter().position(|&b| b & 0x80 == 0).expect("truncated varint") + 1;
    *cursor = &cursor[len..];
}

/// Advances `cursor` past one node-state segment (the layout [`write_node_state`] writes).
fn skip_node_state(cursor: &mut &[u8]) {
    *cursor = &cursor[1..]; // State
    skip_varint(cursor); // Need
    let rset_len = read_varint(cursor);
    for _ in 0..rset_len {
        skip_varint(cursor);
    }
    let prio_tag = cursor[0];
    *cursor = &cursor[1..];
    if prio_tag != 0 {
        skip_varint(cursor);
    }
    let ctrl_tag = cursor[1]; // after the bootstrapped byte
    *cursor = &cursor[2..];
    match ctrl_tag {
        0 => {}
        1 => {
            skip_varint(cursor); // myC
            skip_varint(cursor); // Succ
            *cursor = &cursor[1..]; // Reset
            skip_varint(cursor); // SToken
            *cursor = &cursor[2..]; // SPush, SPrio
        }
        2 => {
            skip_varint(cursor); // myC
            skip_varint(cursor); // Succ
        }
        other => panic!("corrupt packed configuration: ctrl tag {other}"),
    }
}

/// The length in bytes of the encoded message at the start of `bytes` (the layout
/// [`write_message`] writes).
pub(crate) fn message_len(bytes: &[u8]) -> usize {
    match bytes[0] {
        1..=3 => 1,
        4 => {
            let mut cursor = &bytes[1..];
            skip_varint(&mut cursor); // c
            cursor = &cursor[1..]; // r
            skip_varint(&mut cursor); // pt
            bytes.len() - cursor.len() + 1 // ppr
        }
        5 => 3,
        6 => 5,
        other => panic!("corrupt packed configuration: message tag {other}"),
    }
}

// --------------------------------------------------------------- segment map & delta hashing

/// The byte spans of the **mutable segments** of one packed configuration: one segment per
/// node state and one per channel content, recorded by [`map_packed`] together with every
/// channel's message count.
///
/// The remaining bytes of the encoding — the leading process count and the per-node degree
/// varints — are functions of the network *shape*, identical in every configuration of one
/// exploration, so they belong to no segment: a transition can never dirty them.
///
/// Segments are addressed by a single flat index: segment `s < n` is node `s`'s state,
/// segment `n + c` is the flat channel `c` (channels in `(node, label)` order).  This is the
/// index the incremental hash mixes into each segment's contribution ([`segment_term`]), so
/// configurations that exchange the contents of two segments hash differently.
#[derive(Clone, Debug, Default)]
pub struct SegmentMap {
    /// `node_spans[v]` is the span of node `v`'s encoded state.
    node_spans: Vec<(u32, u32)>,
    /// `chan_spans[c]` is the span of flat channel `c`'s encoding (count varint + messages).
    chan_spans: Vec<(u32, u32)>,
    /// `chan_lens[c]` is the number of messages in flat channel `c`.
    chan_lens: Vec<u32>,
}

impl SegmentMap {
    /// Number of node segments.
    pub fn nodes(&self) -> usize {
        self.node_spans.len()
    }

    /// Number of channel segments.
    pub fn channels(&self) -> usize {
        self.chan_spans.len()
    }

    /// Total number of segments (nodes first, then channels).
    pub fn segments(&self) -> usize {
        self.node_spans.len() + self.chan_spans.len()
    }

    /// The flat segment index of node `v`'s state.
    pub fn node_segment(&self, v: usize) -> usize {
        debug_assert!(v < self.node_spans.len());
        v
    }

    /// The flat segment index of flat channel `c`.
    pub fn channel_segment(&self, c: usize) -> usize {
        self.node_spans.len() + c
    }

    /// The byte span `[start, end)` of segment `seg`.
    pub fn span(&self, seg: usize) -> (usize, usize) {
        let (start, end) = if seg < self.node_spans.len() {
            self.node_spans[seg]
        } else {
            self.chan_spans[seg - self.node_spans.len()]
        };
        (start as usize, end as usize)
    }

    /// The bytes of segment `seg` within `packed`.
    pub fn segment<'a>(&self, packed: &'a [u8], seg: usize) -> &'a [u8] {
        let (start, end) = self.span(seg);
        &packed[start..end]
    }

    /// Number of messages in flat channel `c`.
    pub fn channel_len(&self, c: usize) -> usize {
        self.chan_lens[c] as usize
    }

    /// The encoded messages of flat channel `c` within `packed`, head first: its segment
    /// without the leading count varint.
    pub fn channel_messages<'a>(&self, packed: &'a [u8], c: usize) -> &'a [u8] {
        let segment = self.segment(packed, self.channel_segment(c));
        let mut cursor = segment;
        skip_varint(&mut cursor);
        cursor
    }
}

/// The contribution of segment `seg` holding `bytes` to the segmented configuration hash:
/// the fx hash of the segment bytes, mixed with the segment index so position matters.
///
/// The whole-configuration hash ([`segmented_hash`]) is the XOR of all segment terms, which
/// is what makes it *incrementally maintainable*: replacing segment `s`'s bytes updates the
/// hash as `h ^= segment_term(s, old) ^ segment_term(s, new)` — only dirty segments are
/// re-mixed, never the whole buffer.  XOR-combining is weaker than sequential mixing, but a
/// hash collision costs only one extra byte comparison in the arena probe; equality is
/// always decided on the bytes.
pub fn segment_term(seg: usize, bytes: &[u8]) -> u64 {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    const K: u64 = 0x517c_c1b7_2722_0a95;
    (fx_hash(bytes) ^ (seg as u64 + 1).wrapping_mul(PHI)).wrapping_mul(K)
}

/// The segmented hash of a whole packed configuration: XOR of [`segment_term`] over every
/// segment of `map`.  This is the hash scheme of the delta successor engine; see
/// [`StateArena`] for the one-scheme-per-arena rule.
pub fn segmented_hash(packed: &[u8], map: &SegmentMap) -> u64 {
    let mut hash = 0u64;
    for seg in 0..map.segments() {
        hash ^= segment_term(seg, map.segment(packed, seg));
    }
    hash
}

/// Appends the canonical encoding of one node-state segment (the delta engine's re-pack of
/// the single node a transition activated).
pub(crate) fn encode_node_segment(out: &mut Vec<u8>, state: &NodeState) {
    write_node_state(out, state);
}

// ------------------------------------------------------------------------------ state arena

/// The 64-bit fx hash (the `rustc-hash` multiply-xor scheme) over a byte string.
pub(crate) fn fx_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut hash = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = (hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    hash = (hash.rotate_left(5) ^ (tail | ((bytes.len() as u64) << 56))).wrapping_mul(K);
    hash
}

/// A dense identifier of an interned configuration.
pub type StateId = u32;

/// The result of [`StateArena::intern_capped`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InternOutcome {
    /// The configuration was already interned under this id.
    Existing(StateId),
    /// The configuration was inserted fresh under this id.
    Inserted(StateId),
    /// The configuration is new but inserting it would exceed the cap; nothing was stored.
    Full,
}

/// A hash-consing store of packed configurations.
///
/// Every distinct packed configuration is stored exactly once, contiguously in one growing
/// byte buffer, and is identified by the dense [`StateId`] of its insertion order.  Lookup
/// uses an open-addressing table of fx hashes with linear probing; collisions fall back to a
/// byte comparison against the arena, so no separate key copies exist (unlike a
/// `HashMap<Vec<u8>, u32>`, which would store every configuration twice).
#[derive(Clone, Debug, Default)]
pub struct StateArena {
    bytes: Vec<u8>,
    /// Prefix offsets: state `i` occupies `offsets[i]..offsets[i + 1]`; `offsets.len()` is
    /// `len + 1` (a single leading 0 when empty is elided — empty arena has no offsets).
    offsets: Vec<usize>,
    hashes: Vec<u64>,
    /// Open-addressing slots holding `id + 1` (0 = empty).  Power-of-two sized.
    slots: Vec<u32>,
}

impl StateArena {
    /// An empty arena.
    pub fn new() -> Self {
        StateArena::default()
    }

    /// Number of interned configurations.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Total bytes of packed configuration data stored.
    pub fn bytes_used(&self) -> usize {
        self.bytes.len()
    }

    /// The packed bytes of state `id`.
    pub fn get(&self, id: StateId) -> &[u8] {
        let i = id as usize;
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Decodes state `id` into a full [`Configuration`].
    pub fn config(&self, id: StateId) -> Configuration {
        unpack_configuration(self.get(id))
    }

    /// Looks up previously interned bytes without modifying the arena.
    pub fn lookup(&self, packed: &[u8]) -> Option<StateId> {
        self.lookup_hashed(packed, fx_hash(packed))
    }

    /// Like [`StateArena::lookup`], with the key's hash supplied by the caller (the delta
    /// engine's incrementally maintained [`segmented_hash`]).  See
    /// [`StateArena::intern_capped_hashed`] for the one-scheme-per-arena rule.
    pub fn lookup_hashed(&self, packed: &[u8], hash: u64) -> Option<StateId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.slots[slot] {
                0 => return None,
                stored => {
                    let id = stored - 1;
                    if self.hashes[id as usize] == hash && self.get(id) == packed {
                        return Some(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `packed`, returning its id and whether it was newly inserted.
    pub fn intern(&mut self, packed: &[u8]) -> (StateId, bool) {
        match self.intern_capped(packed, usize::MAX) {
            InternOutcome::Existing(id) => (id, false),
            InternOutcome::Inserted(id) => (id, true),
            InternOutcome::Full => unreachable!("uncapped intern cannot be full"),
        }
    }

    /// Interns `packed` unless doing so would grow the arena beyond `cap` states: one hash
    /// and one table probe decide between "already present", "inserted", and "over the cap"
    /// (the hot-loop shape — a separate `lookup` + `intern` would hash and probe twice).
    pub fn intern_capped(&mut self, packed: &[u8], cap: usize) -> InternOutcome {
        self.intern_capped_hashed(packed, fx_hash(packed), cap)
    }

    /// Like [`StateArena::intern_capped`], with the key's hash supplied by the caller.
    ///
    /// **One hash scheme per arena.**  The table stores whatever hash accompanied each
    /// insertion and compares it against whatever hash accompanies each probe, so every
    /// operation on one arena must use the *same* key function: either let every call
    /// compute the fx hash (the [`StateArena::intern_capped`]/[`StateArena::lookup`]
    /// wrappers — the interned engine), or supply [`segmented_hash`] values everywhere (the
    /// delta engine, which maintains them incrementally).  Mixing schemes makes equal
    /// configurations invisible to each other and silently double-interns them.
    pub fn intern_capped_hashed(&mut self, packed: &[u8], hash: u64, cap: usize) -> InternOutcome {
        if self.slots.is_empty() {
            self.grow_slots(64);
        } else if (self.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow_slots(self.slots.len() * 2);
        }
        let mask = self.slots.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.slots[slot] {
                0 => break,
                stored => {
                    let id = stored - 1;
                    if self.hashes[id as usize] == hash && self.get(id) == packed {
                        return InternOutcome::Existing(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        if self.len() >= cap {
            return InternOutcome::Full;
        }
        let id = self.len() as StateId;
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.bytes.extend_from_slice(packed);
        self.offsets.push(self.bytes.len());
        self.hashes.push(hash);
        self.slots[slot] = id + 1;
        InternOutcome::Inserted(id)
    }

    fn grow_slots(&mut self, new_size: usize) {
        debug_assert!(new_size.is_power_of_two());
        self.slots = vec![0; new_size];
        let mask = new_size - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::AlwaysRequest;
    use klex_core::KlConfig;
    use treenet::RoundRobin;

    fn ss_net() -> Network<SsNode, topology::OrientedTree> {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3).with_timeout(u64::MAX / 4);
        klex_core::ss::network(tree, cfg, |_| AlwaysRequest::boxed(1))
    }

    #[test]
    fn capture_restore_roundtrip_is_identity() {
        let mut net = ss_net();
        // Put the network in a non-trivial state first.
        net.inject_from(0, 0, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 });
        let mut sched = RoundRobin::new();
        for _ in 0..500 {
            net.step_event(&mut sched);
        }
        let snap = capture(&net);
        // Keep running, then restore and recapture: the captures must agree.
        for _ in 0..200 {
            net.step_event(&mut sched);
        }
        assert_ne!(capture(&net), snap, "the network should have moved on");
        restore(&mut net, &snap);
        assert_eq!(capture(&net), snap);
    }

    #[test]
    fn equal_captures_compare_and_hash_equal() {
        use std::collections::HashSet;
        let net = ss_net();
        let a = capture(&net);
        let b = capture(&net);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn rset_order_does_not_distinguish_configurations() {
        let tree = topology::builders::figure1_tree();
        let cfg = KlConfig::new(3, 5, 8);
        let mut net1 = klex_core::naive::network(tree.clone(), cfg, |_| AlwaysRequest::boxed(3));
        let mut net2 = klex_core::naive::network(tree, cfg, |_| AlwaysRequest::boxed(3));
        net1.node_mut(1).app.state = CsState::Req;
        net1.node_mut(1).app.need = 3;
        net1.node_mut(1).app.rset = vec![2, 0, 1];
        net2.node_mut(1).app.state = CsState::Req;
        net2.node_mut(1).app.need = 3;
        net2.node_mut(1).app.rset = vec![0, 1, 2];
        assert_eq!(capture(&net1), capture(&net2));
    }

    #[test]
    fn configuration_helpers_report_tokens_and_requesters() {
        let tree = topology::builders::figure3_tree();
        let cfg = KlConfig::new(2, 3, 3);
        let mut net = klex_core::naive::network(tree, cfg, |_| AlwaysRequest::boxed(2));
        net.node_mut(1).app.state = CsState::Req;
        net.node_mut(1).app.need = 2;
        net.node_mut(1).app.rset = vec![0];
        net.inject_into(2, 0, Message::ResT);
        net.inject_into(2, 0, Message::PushT);
        let c = capture(&net);
        assert_eq!(c.messages_in_flight(), 2);
        assert_eq!(c.resource_tokens(), 2);
        assert_eq!(c.unsatisfied_requesters(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "wrong number of processes")]
    fn restore_rejects_mismatched_shapes() {
        let mut net = ss_net();
        let mut config = capture(&net);
        config.nodes.pop();
        restore(&mut net, &config);
    }

    // ------------------------------------------------------------------ packed representation

    /// A deterministic soup of configurations with every field exercised: all three protocol
    /// roles' control states, every message variant (including extreme field values), empty
    /// and loaded channels, and every `CsState`.
    fn assorted_configurations() -> Vec<Configuration> {
        let ctrl_variants = [
            None,
            Some(CtrlState::Root {
                my_c: u64::MAX,
                succ: 3,
                reset: true,
                s_token: 1 << 40,
                s_push: 255,
                s_prio: 2,
            }),
            Some(CtrlState::NonRoot { my_c: 0, succ: 0 }),
            Some(CtrlState::NonRoot { my_c: 127, succ: 128 }),
        ];
        let messages = [
            Message::ResT,
            Message::PushT,
            Message::PrioT,
            Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 },
            Message::Ctrl { c: u64::MAX, r: true, pt: 300, ppr: 255 },
            Message::Garbage(0),
            Message::Garbage(u16::MAX),
            Message::Marker(u32::MAX),
        ];
        let mut configs = Vec::new();
        for (i, ctrl) in ctrl_variants.iter().enumerate() {
            for cs in [CsState::Out, CsState::Req, CsState::In] {
                let nodes = vec![
                    NodeState {
                        cs,
                        need: i * 127,
                        rset: (0..i).collect(),
                        prio: if i % 2 == 0 { None } else { Some(i) },
                        bootstrapped: i % 2 == 1,
                        ctrl: ctrl.clone(),
                    },
                    NodeState {
                        cs: CsState::Out,
                        need: 0,
                        rset: vec![],
                        prio: None,
                        bootstrapped: true,
                        ctrl: None,
                    },
                ];
                let channels = vec![
                    vec![messages.iter().copied().cycle().take(i + 1).collect()],
                    vec![vec![], messages[..i.min(messages.len())].to_vec()],
                ];
                configs.push(Configuration { nodes, channels });
            }
        }
        configs
    }

    #[test]
    fn packed_roundtrip_is_identity_on_assorted_configurations() {
        for config in assorted_configurations() {
            let mut packed = Vec::new();
            pack_configuration(&config, &mut packed);
            assert_eq!(unpack_configuration(&packed), config);
        }
    }

    #[test]
    fn unpacking_into_a_reused_buffer_equals_a_fresh_unpack() {
        // Shapes and field values change from one configuration to the next, so every
        // vector of the buffer must be resized and overwritten, never appended to.
        let mut configs = assorted_configurations();
        configs.push(capture(&ss_net()));
        configs.extend(assorted_configurations().into_iter().rev());
        let mut buffer = Configuration::default();
        for config in &configs {
            let mut packed = Vec::new();
            pack_configuration(config, &mut packed);
            unpack_configuration_into(&packed, &mut buffer);
            assert_eq!(&buffer, config);
        }
    }

    #[test]
    fn equal_configurations_iff_equal_packed_bytes() {
        let configs = assorted_configurations();
        for (i, a) in configs.iter().enumerate() {
            for (j, b) in configs.iter().enumerate() {
                let mut pa = Vec::new();
                let mut pb = Vec::new();
                pack_configuration(a, &mut pa);
                pack_configuration(b, &mut pb);
                assert_eq!(a == b, pa == pb, "configs {i} and {j} disagree with their bytes");
            }
        }
    }

    #[test]
    fn capture_packed_matches_pack_of_capture() {
        let mut net = ss_net();
        net.inject_from(0, 0, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 });
        let mut sched = RoundRobin::new();
        let mut scratch = Vec::new();
        for _ in 0..700 {
            net.step_event(&mut sched);
            capture_packed(&net, &mut scratch);
            let mut reference = Vec::new();
            pack_configuration(&capture(&net), &mut reference);
            assert_eq!(scratch, reference);
        }
    }

    #[test]
    fn restore_packed_roundtrips_through_a_live_network() {
        let mut net = ss_net();
        net.inject_from(0, 0, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 });
        let mut sched = RoundRobin::new();
        for _ in 0..500 {
            net.step_event(&mut sched);
        }
        let mut snap = Vec::new();
        capture_packed(&net, &mut snap);
        for _ in 0..200 {
            net.step_event(&mut sched);
        }
        let mut moved_on = Vec::new();
        capture_packed(&net, &mut moved_on);
        assert_ne!(snap, moved_on, "the network should have moved on");
        restore_packed(&mut net, &snap);
        let mut recaptured = Vec::new();
        capture_packed(&net, &mut recaptured);
        assert_eq!(snap, recaptured);
        // And the packed snapshot decodes to exactly the structural capture.
        assert_eq!(unpack_configuration(&snap), capture(&net));
    }

    #[test]
    fn segment_map_tiles_the_mutable_bytes_and_reencodes_identically() {
        let mut net = ss_net();
        net.inject_from(0, 0, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 });
        let mut sched = RoundRobin::new();
        for _ in 0..300 {
            net.step_event(&mut sched);
        }
        let mut packed = Vec::new();
        capture_packed(&net, &mut packed);
        let mut map = SegmentMap::default();
        map_packed(&packed, &mut map);

        let n = net.len();
        let total_channels: usize = (0..n).map(|v| net.topology().degree(v)).sum();
        assert_eq!(map.nodes(), n);
        assert_eq!(map.channels(), total_channels);
        assert_eq!(map.segments(), n + total_channels);

        // Spans are ordered, disjoint, in-bounds.
        let mut prev_end = 0;
        for seg in 0..map.segments() {
            let (start, end) = map.span(seg);
            assert!(start >= prev_end && start <= end && end <= packed.len());
            prev_end = end;
        }

        // Re-encoding every segment from the restored network reproduces its bytes.
        let mut scratch = Vec::new();
        for v in 0..n {
            scratch.clear();
            encode_node_segment(&mut scratch, &net.node(v).capture_state());
            assert_eq!(&scratch[..], map.segment(&packed, map.node_segment(v)), "node {v}");
        }
        let mut flat = 0;
        for v in 0..n {
            for l in 0..net.topology().degree(v) {
                scratch.clear();
                let channel = net.channel(v, l);
                write_varint(&mut scratch, channel.len() as u64);
                let count_len = scratch.len();
                for msg in channel.iter() {
                    write_message(&mut scratch, msg);
                }
                assert_eq!(
                    &scratch[..],
                    map.segment(&packed, map.channel_segment(flat)),
                    "channel ({v}, {l})"
                );
                assert_eq!(map.channel_len(flat), channel.len(), "channel ({v}, {l})");
                assert_eq!(
                    map.channel_messages(&packed, flat),
                    &scratch[count_len..],
                    "channel ({v}, {l})"
                );
                flat += 1;
            }
        }
    }

    #[test]
    fn skip_parse_agrees_with_a_full_decode_on_assorted_configurations() {
        // Every controller role and message variant: the skip-only parse must find the
        // boundaries the decoder finds, segment by segment and message by message.
        for config in assorted_configurations() {
            let mut packed = Vec::new();
            pack_configuration(&config, &mut packed);
            let mut map = SegmentMap::default();
            map_packed(&packed, &mut map);
            let mut expected = Vec::new();
            for (v, state) in config.nodes.iter().enumerate() {
                expected.clear();
                encode_node_segment(&mut expected, state);
                assert_eq!(map.segment(&packed, map.node_segment(v)), &expected[..]);
            }
            let mut flat = 0;
            for channel in config.channels.iter().flatten() {
                assert_eq!(map.channel_len(flat), channel.len());
                let mut rest = map.channel_messages(&packed, flat);
                for msg in channel {
                    expected.clear();
                    write_message(&mut expected, msg);
                    assert_eq!(message_len(rest), expected.len(), "{msg:?}");
                    assert_eq!(&rest[..expected.len()], &expected[..], "{msg:?}");
                    rest = &rest[expected.len()..];
                }
                assert!(rest.is_empty());
                flat += 1;
            }
            assert_eq!(map.channels(), flat);
        }
    }

    #[test]
    fn segmented_hash_updates_incrementally_per_dirty_segment() {
        let mut net = ss_net();
        net.inject_from(0, 0, Message::Ctrl { c: 0, r: false, pt: 0, ppr: 0 });
        let mut sched = RoundRobin::new();
        for _ in 0..200 {
            net.step_event(&mut sched);
        }
        let mut before = Vec::new();
        capture_packed(&net, &mut before);
        let mut map = SegmentMap::default();
        map_packed(&before, &mut map);
        let mut h_before = segmented_hash(&before, &map);

        // Execute one activation and recapture; patch the hash only through the dirty
        // segments and compare with a from-scratch hash of the successor — maintained
        // across 50 consecutive steps so patching errors compound visibly.
        for _ in 0..50 {
            net.step_event(&mut sched);
            let mut after = Vec::new();
            capture_packed(&net, &mut after);
            let mut after_map = SegmentMap::default();
            map_packed(&after, &mut after_map);
            let mut patched = h_before;
            // Shape is constant, so segment counts agree; xor out/in only changed segments.
            for seg in 0..map.segments() {
                let old = map.segment(&before, seg);
                let new = after_map.segment(&after, seg);
                if old != new {
                    patched ^= segment_term(seg, old) ^ segment_term(seg, new);
                }
            }
            assert_eq!(patched, segmented_hash(&after, &after_map));
            before.clone_from(&after);
            map = after_map;
            h_before = patched;
        }
    }

    #[test]
    fn hashed_arena_ops_agree_with_the_default_scheme_when_given_fx_hashes() {
        let mut arena = StateArena::new();
        let keys: Vec<Vec<u8>> =
            (0..64u32).map(|i| i.to_le_bytes().repeat(3)).collect();
        for (i, key) in keys.iter().enumerate() {
            let outcome = arena.intern_capped_hashed(key, fx_hash(key), usize::MAX);
            assert_eq!(outcome, InternOutcome::Inserted(i as u32));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(arena.lookup_hashed(key, fx_hash(key)), Some(i as u32));
            assert_eq!(arena.lookup(key), Some(i as u32));
        }
    }

    #[test]
    fn arena_interns_each_distinct_configuration_once() {
        let mut arena = StateArena::new();
        let configs = assorted_configurations();
        let mut packed: Vec<Vec<u8>> = Vec::new();
        for config in &configs {
            let mut bytes = Vec::new();
            pack_configuration(config, &mut bytes);
            packed.push(bytes);
        }
        let mut ids = Vec::new();
        for bytes in &packed {
            let (id, fresh) = arena.intern(bytes);
            assert!(fresh, "first insertion must be fresh");
            assert_eq!(id as usize, ids.len(), "ids are dense and in insertion order");
            ids.push(id);
        }
        assert_eq!(arena.len(), configs.len());
        // Re-interning and lookup both find the original ids; bytes are preserved.
        for (bytes, &id) in packed.iter().zip(&ids) {
            assert_eq!(arena.intern(bytes), (id, false));
            assert_eq!(arena.lookup(bytes), Some(id));
            assert_eq!(arena.get(id), &bytes[..]);
        }
        assert_eq!(arena.len(), configs.len());
        assert!(arena.lookup(b"not a packed configuration").is_none());
    }

    #[test]
    fn arena_survives_growth_across_many_states() {
        // Force several table growths and verify every id stays retrievable.
        let mut arena = StateArena::new();
        let mut keys = Vec::new();
        for i in 0..5_000u32 {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&i.to_le_bytes());
            bytes.extend_from_slice(&[0xAB; 7]);
            let (id, fresh) = arena.intern(&bytes);
            assert!(fresh);
            assert_eq!(id, i);
            keys.push(bytes);
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(arena.lookup(key), Some(i as u32));
        }
        assert_eq!(arena.len(), 5_000);
        assert!(arena.bytes_used() >= 5_000 * 11);
    }
}
