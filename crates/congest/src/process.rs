//! The node-program abstraction: what runs at each network node.

use crate::message::{Message, MAX_MESSAGE_BITS};
use crate::metrics::BitBudget;
use crate::topology::Port;

/// Whether a node keeps participating after the current round.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// The node wants to receive messages and be stepped again.
    Running,
    /// The node has terminated; it is never stepped again and messages sent
    /// to it are dropped (and counted in the metrics).
    Halted,
}

/// An incoming message together with the local port it arrived on.
///
/// The round engine stores mail in a flat port-indexed slot arena, so this
/// type does not appear in storage; inbox iteration *yields* `Incoming`
/// values (cheap — message types are small and `Copy`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incoming<M> {
    /// The local port (link) the message arrived on.
    pub port: Port,
    /// The message payload.
    pub msg: M,
}

/// A node program in the synchronous message-passing model.
///
/// The simulator calls [`on_round`](Process::on_round) once per round for
/// every non-halted node, passing a [`Ctx`] that exposes the inbox (messages
/// sent to this node in the *previous* round, indexed by arrival port) and
/// collects outgoing messages (delivered to neighbors in the *next* round).
/// Round 0 has an empty inbox everywhere; local input must be baked into the
/// node value before the simulation starts — exactly the CONGEST convention.
pub trait Process: Send {
    /// The message type of this protocol.
    type Msg: Message;

    /// Executes one synchronous round.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>) -> Status;
}

/// Read-only view of the messages a node received this round, indexed by
/// arrival port: one optional message per port (the engine's flat mailbox
/// arena view).
///
/// Iteration yields [`Incoming`] values in ascending port order — port order
/// is structural in the mailbox arena, so no sorting ever happens. `Inbox`
/// is `Copy`; methods take `self` by value so views returned from
/// [`Ctx::inbox`] can be chained freely.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    slots: &'a [Option<M>],
}

// Manual impls: `Inbox` is a reference, so it is `Copy` for every `M` (a
// derive would wrongly require `M: Copy`).
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'a, M: Message> Inbox<'a, M> {
    /// A view over per-port slots (`slots[p]` = message arrived on port
    /// `p`). Useful for driving [`Process::on_round`] without a simulator.
    #[must_use]
    pub fn from_slots(slots: &'a [Option<M>]) -> Self {
        Self { slots }
    }

    /// Number of messages received this round.
    ///
    /// Counts occupied ports, i.e. costs `O(degree)`.
    #[must_use]
    pub fn len(self) -> usize {
        self.slots.iter().filter(|m| m.is_some()).count()
    }

    /// Whether no message arrived this round.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// The message that arrived on `port`, if any.
    #[must_use]
    pub fn get(self, port: Port) -> Option<&'a M> {
        self.slots.get(port).and_then(Option::as_ref)
    }

    /// The lowest-port message, if any arrived.
    #[must_use]
    pub fn first(self) -> Option<Incoming<M>> {
        self.iter().next()
    }

    /// Iterates received messages as [`Incoming`] values in ascending port
    /// order.
    #[must_use]
    pub fn iter(self) -> InboxIter<'a, M> {
        InboxIter {
            slots: self.slots,
            next: 0,
        }
    }
}

impl<'a, M: Message> IntoIterator for Inbox<'a, M> {
    type Item = Incoming<M>;
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding [`Incoming`] values.
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    slots: &'a [Option<M>],
    next: usize,
}

impl<M: Message> Iterator for InboxIter<'_, M> {
    type Item = Incoming<M>;

    fn next(&mut self) -> Option<Incoming<M>> {
        while self.next < self.slots.len() {
            let port = self.next;
            self.next += 1;
            if let Some(msg) = &self.slots[port] {
                return Some(Incoming { port, msg: *msg });
            }
        }
        None
    }
}

/// Sentinel destination-chunk value marking a port whose receiving slot
/// lies in the *sender's own* chunk: such messages take the intra-chunk
/// fast path (a direct write into the local next-round mailbox) instead
/// of the staging buckets.
pub(crate) const LOCAL_CHUNK: u32 = u32::MAX;

/// The engine-side send machinery a stepped node writes into: staging
/// buckets for cross-chunk mail, the chunk's own next-round mailbox for
/// the intra-chunk fast path, and send-side accounting.
///
/// `dest_chunk[p]` / `dest_local[p]` give, for the node's port `p`, the
/// receiving chunk (or [`LOCAL_CHUNK`]) and its chunk-local slot index.
#[derive(Debug)]
pub(crate) struct StagedSends<'a, M> {
    /// Per-destination-chunk staging buckets of `(chunk-local slot, payload)`.
    pub buckets: &'a mut [Vec<(u32, M)>],
    /// Port → receiving chunk index, [`LOCAL_CHUNK`] for intra-chunk ports.
    pub dest_chunk: &'a [u32],
    /// Port → chunk-local slot in the receiving chunk's mailbox.
    pub dest_local: &'a [u32],
    /// The sender chunk's next-round mailbox (fast-path destination).
    pub nxt: &'a mut [Option<M>],
    /// Occupied-slot list for `nxt`; fast-path writes append here so the
    /// engine's sweep and round-limit duplicate scan see them.
    pub dirty_nxt: &'a mut Vec<u32>,
    /// The sender chunk's own index — the bucket a fast-path message falls
    /// back to when its slot is already occupied (duplicate send), so the
    /// canonical delivery-phase halted/duplicate checks still apply.
    pub self_bucket: usize,
    /// Send-side accounting for this chunk's current round.
    pub tally: &'a mut SendTally,
    /// Per-message bit budget, if one is enforced.
    pub budget: Option<BitBudget>,
}

/// Where [`Ctx::send`] puts outgoing messages.
#[derive(Debug)]
enum OutboxRepr<'a, M> {
    /// The engine path: per-destination-chunk staging plus the intra-chunk
    /// fast path, with send-side metric accounting.
    Staged(StagedSends<'a, M>),
    /// The unit-test path: collect raw `(port, message)` pairs.
    Collect(&'a mut Vec<(Port, M)>),
}

/// Send-side accounting accumulated while a round is stepped. Per-link
/// maxima are exact because CONGEST permits one message per directed link
/// per round (the engine rejects duplicate same-port sends at delivery).
#[derive(Clone, Debug, Default)]
pub(crate) struct SendTally {
    /// Messages sent.
    pub messages: u64,
    /// Messages whose destination slot lies in a *different* chunk (the
    /// staging-bucket path); `messages - cross_messages` took the
    /// intra-chunk fast path.
    pub cross_messages: u64,
    /// Total bits sent.
    pub bits: u64,
    /// Largest single-link payload.
    pub max_link_bits: u64,
    /// First budget violation in step order: `(sender, port, bits)`.
    pub violation: Option<(usize, Port, u64)>,
}

impl SendTally {
    pub(crate) fn clear(&mut self) {
        *self = SendTally::default();
    }

    /// Folds `other` (a later chunk's tally) into `self`, keeping the
    /// earliest violation.
    pub(crate) fn merge(&mut self, other: &SendTally) {
        self.messages += other.messages;
        self.cross_messages += other.cross_messages;
        self.bits += other.bits;
        self.max_link_bits = self.max_link_bits.max(other.max_link_bits);
        if self.violation.is_none() {
            self.violation = other.violation;
        }
    }
}

/// Per-round execution context handed to [`Process::on_round`].
#[derive(Debug)]
pub struct Ctx<'a, M> {
    pub(crate) round: u64,
    pub(crate) node: usize,
    pub(crate) degree: usize,
    inbox: Inbox<'a, M>,
    outbox: OutboxRepr<'a, M>,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Creates a context manually — lets protocol crates unit-test
    /// [`Process`] implementations round-by-round without a simulator.
    /// `inbox` holds one slot per port (`inbox[p]` = the message that
    /// arrived on port `p`), so its length is the node's degree; sent
    /// messages are collected into `outgoing` as `(port, message)` pairs.
    #[must_use]
    pub fn new(
        round: u64,
        node: usize,
        inbox: &'a [Option<M>],
        outgoing: &'a mut Vec<(Port, M)>,
    ) -> Self {
        Self {
            round,
            node,
            degree: inbox.len(),
            inbox: Inbox::from_slots(inbox),
            outbox: OutboxRepr::Collect(outgoing),
        }
    }

    /// Engine-internal constructor over arena slots and the send machinery.
    pub(crate) fn staged(
        round: u64,
        node: usize,
        inbox_slots: &'a [Option<M>],
        sends: StagedSends<'a, M>,
    ) -> Self {
        Self {
            round,
            node,
            degree: inbox_slots.len(),
            inbox: Inbox::from_slots(inbox_slots),
            outbox: OutboxRepr::Staged(sends),
        }
    }

    /// The current round number (0-based).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's id. Available because CONGEST assumes unique `O(log n)`-
    /// bit identifiers; protocols that want anonymity simply don't read it.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Number of ports (neighbors) of this node.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Messages received this round, indexed by arrival port.
    #[must_use]
    pub fn inbox(&self) -> Inbox<'a, M> {
        self.inbox
    }

    /// Sends `msg` over the link at `port`; it arrives next round.
    ///
    /// CONGEST permits one message per directed link per round: sending
    /// twice on the same port in one round is a protocol bug, and the
    /// engine aborts the run with
    /// [`SimError::DuplicateSend`](crate::SimError::DuplicateSend) when the
    /// duplicate is delivered.
    ///
    /// A message type whose [`Message::MAX_BITS`] exceeds the 256-bit
    /// budget fails to compile here.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree()`, and in a debug build if the message's
    /// [`bit_size`](Message::bit_size) exceeds its type's `MAX_BITS`.
    pub fn send(&mut self, port: Port, msg: M) {
        const { assert!(M::MAX_BITS <= MAX_MESSAGE_BITS) };
        assert!(
            port < self.degree,
            "send on port {port} but node {} has degree {}",
            self.node,
            self.degree
        );
        match &mut self.outbox {
            OutboxRepr::Staged(sends) => {
                let bits = msg.bit_size();
                debug_assert!(bits <= M::MAX_BITS, "{msg:?} is wider than MAX_BITS");
                sends.tally.messages += 1;
                sends.tally.bits += bits;
                sends.tally.max_link_bits = sends.tally.max_link_bits.max(bits);
                if sends.tally.violation.is_none() {
                    if let Some(b) = sends.budget {
                        if bits > b.bits() {
                            sends.tally.violation = Some((self.node, port, bits));
                        }
                    }
                }
                let chunk = sends.dest_chunk[port];
                let local = sends.dest_local[port];
                if chunk == LOCAL_CHUNK {
                    // Intra-chunk fast path: write straight into the local
                    // next-round mailbox. An occupied slot means a duplicate
                    // same-port send; route the duplicate through the
                    // sender chunk's own staging bucket so the delivery
                    // phase applies the canonical halted-before-duplicate
                    // semantics (same error, same round, as cross-chunk).
                    let slot = &mut sends.nxt[local as usize];
                    if slot.is_none() {
                        *slot = Some(msg);
                        sends.dirty_nxt.push(local);
                    } else {
                        sends.buckets[sends.self_bucket].push((local, msg));
                    }
                } else {
                    sends.tally.cross_messages += 1;
                    sends.buckets[chunk as usize].push((local, msg));
                }
            }
            OutboxRepr::Collect(out) => out.push((port, msg)),
        }
    }

    /// Sends a copy of `msg` on every port.
    pub fn broadcast(&mut self, msg: M) {
        for port in 0..self.degree {
            self.send(port, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_send_and_broadcast() {
        let inbox: Vec<Option<u64>> = vec![None; 3];
        let mut out = Vec::new();
        let mut ctx = Ctx::new(3, 1, &inbox, &mut out);
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.node(), 1);
        assert_eq!(ctx.degree(), 3);
        assert!(ctx.inbox().is_empty());
        ctx.send(1, 42);
        ctx.broadcast(7);
        assert_eq!(out, vec![(1, 42), (0, 7), (1, 7), (2, 7)]);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn send_out_of_range_panics() {
        let inbox: Vec<Option<u64>> = vec![None];
        let mut out = Vec::new();
        let mut ctx = Ctx::new(0, 0, &inbox, &mut out);
        ctx.send(1, 0);
    }

    #[test]
    fn inbox_views_agree() {
        let slots: Vec<Option<u64>> = vec![None, Some(8), None, Some(3)];
        let list = vec![
            Incoming { port: 1, msg: 8u64 },
            Incoming { port: 3, msg: 3 },
        ];
        let mut out = Vec::new();
        let ctx = Ctx::new(0, 0, &slots, &mut out);
        for view in [Inbox::from_slots(&slots), ctx.inbox()] {
            assert_eq!(view.len(), 2);
            assert!(!view.is_empty());
            assert_eq!(view.get(1), Some(&8));
            assert_eq!(view.get(0), None);
            assert_eq!(view.get(4), None);
            assert_eq!(view.first(), Some(Incoming { port: 1, msg: 8 }));
            assert_eq!(view.iter().collect::<Vec<_>>(), list);
            // `for` loops work directly on the view.
            let mut total = 0;
            for item in view {
                total += item.msg + item.port as u64;
            }
            assert_eq!(total, 8 + 1 + 3 + 3);
        }
    }

    #[test]
    fn empty_inbox() {
        let slots: Vec<Option<u64>> = vec![None, None];
        let v = Inbox::from_slots(&slots);
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert_eq!(v.first(), None);
        assert_eq!(v.iter().count(), 0);
    }
}
