//! Message trait and bit-size accounting.
//!
//! The CONGEST model restricts every link to one `O(log n)`-bit message per
//! direction per round. The simulator cannot check an asymptotic bound, but
//! it can check a concrete budget: every message reports its encoded size via
//! [`Message::bit_size`], the simulator tracks the maximum number of bits
//! crossing any link in any round, and a [`BitBudget`](crate::BitBudget) can
//! turn an overshoot into a hard error. Protocol crates compute sizes from
//! the actual field values (e.g. a weight `w` costs [`bits_for_value`]`(w)`
//! bits), so the recorded maxima are meaningful, not worst-case constants.

/// The per-link, per-round budget every [`Message::MAX_BITS`] must fit:
/// comfortable `O(log n)` headroom for the `n` this repository simulates,
/// small enough to reject an accidentally unbounded payload.
pub(crate) const MAX_MESSAGE_BITS: u64 = 256;

/// A message exchanged between neighboring nodes.
///
/// Implementations must report a faithful encoded size so the simulator's
/// CONGEST accounting is meaningful, and declare in [`MAX_BITS`] the
/// largest size any value reports. `Send + Sync` because the parallel
/// scheduler moves envelopes across worker threads and shares inbox
/// slices.
///
/// The width is checked by the compiler and at run time:
///
/// * `Copy` (a broadcast duplicates the message per port) makes rustc
///   reject every growable field — `Vec`, `String`, `Box`, `Arc`, maps —
///   so a message cannot carry an unbounded payload;
/// * sending a type whose `MAX_BITS` exceeds the 256-bit budget fails to
///   compile where [`Ctx::send`](crate::Ctx::send) is instantiated;
/// * every send in a debug build checks the message's
///   [`bit_size`](Message::bit_size) against `MAX_BITS`.
///
/// A type over the budget is rejected once a [`Process`](crate::Process)
/// sends it:
///
/// ```compile_fail,E0080
/// use dcover_congest::{Ctx, Message, Process, Simulator, Status, Topology};
///
/// #[derive(Clone, Copy, Debug)]
/// struct Wide([u64; 4], bool);
///
/// impl Message for Wide {
///     const MAX_BITS: u64 = 257;
///     fn bit_size(&self) -> u64 {
///         257
///     }
/// }
///
/// struct Sender;
/// impl Process for Sender {
///     type Msg = Wide;
///     fn on_round(&mut self, ctx: &mut Ctx<'_, Wide>) -> Status {
///         ctx.send(0, Wide([u64::MAX; 4], true));
///         Status::Halted
///     }
/// }
///
/// let topo = Topology::from_links(2, &[(0, 1)]);
/// Simulator::new(topo, vec![Sender, Sender]).run(1).unwrap();
/// ```
///
/// and a growable field is rejected at the impl:
///
/// ```compile_fail,E0277
/// use dcover_congest::Message;
///
/// #[derive(Clone, Debug)]
/// struct Growable(Vec<u64>);
///
/// impl Message for Growable {
///     const MAX_BITS: u64 = 64;
///     fn bit_size(&self) -> u64 {
///         64
///     }
/// }
/// ```
///
/// [`MAX_BITS`]: Message::MAX_BITS
pub trait Message: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// The largest [`bit_size`](Message::bit_size) any value of the type
    /// reports: a proven bound, pinned by a test per type that reaches it.
    const MAX_BITS: u64;

    /// Number of bits needed to encode this message on the wire (including
    /// any tag bits distinguishing message kinds).
    fn bit_size(&self) -> u64;
}

/// Bits needed to store the value `x` in binary (at least 1).
///
/// # Examples
///
/// ```
/// use dcover_congest::bits_for_value;
/// assert_eq!(bits_for_value(0), 1);
/// assert_eq!(bits_for_value(1), 1);
/// assert_eq!(bits_for_value(255), 8);
/// assert_eq!(bits_for_value(256), 9);
/// ```
#[must_use]
pub fn bits_for_value(x: u64) -> u64 {
    (64 - x.leading_zeros()).max(1) as u64
}

impl Message for () {
    const MAX_BITS: u64 = 1;

    fn bit_size(&self) -> u64 {
        1
    }
}

impl Message for bool {
    const MAX_BITS: u64 = 1;

    fn bit_size(&self) -> u64 {
        1
    }
}

impl Message for u32 {
    const MAX_BITS: u64 = 32;

    fn bit_size(&self) -> u64 {
        bits_for_value(u64::from(*self))
    }
}

impl Message for u64 {
    const MAX_BITS: u64 = 64;

    fn bit_size(&self) -> u64 {
        bits_for_value(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_widths() {
        assert_eq!(bits_for_value(0), 1);
        assert_eq!(bits_for_value(1), 1);
        assert_eq!(bits_for_value(2), 2);
        assert_eq!(bits_for_value(7), 3);
        assert_eq!(bits_for_value(8), 4);
        assert_eq!(bits_for_value(u64::MAX), 64);
    }

    #[test]
    fn primitives_reach_their_max_bits() {
        assert_eq!(().bit_size(), <()>::MAX_BITS);
        assert_eq!(false.bit_size().max(true.bit_size()), bool::MAX_BITS);
        assert_eq!(u32::MAX.bit_size(), u32::MAX_BITS);
        assert_eq!(u64::MAX.bit_size(), u64::MAX_BITS);
    }

    #[test]
    fn primitive_messages() {
        assert_eq!(().bit_size(), 1);
        assert_eq!(true.bit_size(), 1);
        assert_eq!(300u32.bit_size(), 9);
        assert_eq!(300u64.bit_size(), 9);
    }
}
