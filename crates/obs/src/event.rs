//! Structured protocol events: the taxonomy and its packed wire form.
//!
//! Every event carries the *protocol-instance coordinates* that the
//! paper's cost claims are stated in: which layer of the stack, which
//! instance, which round/epoch, which party. An [`Event`] packs into
//! exactly four `u64` words so the flight recorder can store it in
//! pre-allocated atomic slots without ever allocating on the hot path.

/// The layer of the stack an event originates from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Layer {
    /// The network substrate (simulator or TCP runtime).
    Net = 0,
    /// Reliable broadcast.
    Rbc = 1,
    /// Consistent broadcast.
    Cbc = 2,
    /// Binary randomized agreement (CKS).
    Abba = 3,
    /// Multi-valued validated agreement.
    Mvba = 4,
    /// Atomic broadcast.
    Abc = 5,
    /// Secure causal atomic broadcast.
    Scabc = 6,
    /// The optimistic fast-path atomic broadcast.
    Optimistic = 7,
    /// The failure-detector baseline.
    Fdabc = 8,
    /// State machine replication.
    Rsm = 9,
    /// Threshold-cryptography operations.
    Crypto = 10,
    /// Replicated applications.
    App = 11,
    /// The multi-group shard router.
    Shard = 12,
}

impl Layer {
    /// The stable metric-name prefix for this layer.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Net => "net",
            Layer::Rbc => "rbc",
            Layer::Cbc => "cbc",
            Layer::Abba => "abba",
            Layer::Mvba => "mvba",
            Layer::Abc => "abc",
            Layer::Scabc => "scabc",
            Layer::Optimistic => "opt",
            Layer::Fdabc => "fdabc",
            Layer::Rsm => "rsm",
            Layer::Crypto => "crypto",
            Layer::App => "app",
            Layer::Shard => "shard",
        }
    }

    fn from_u8(v: u8) -> Layer {
        match v {
            0 => Layer::Net,
            1 => Layer::Rbc,
            2 => Layer::Cbc,
            3 => Layer::Abba,
            4 => Layer::Mvba,
            5 => Layer::Abc,
            6 => Layer::Scabc,
            7 => Layer::Optimistic,
            8 => Layer::Fdabc,
            9 => Layer::Rsm,
            10 => Layer::Crypto,
            12 => Layer::Shard,
            _ => Layer::App,
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A message was handed to the transport.
    MsgSent = 0,
    /// A message was delivered to this party.
    MsgRecv = 1,
    /// A protocol round started (`round` names it).
    RoundStart = 2,
    /// A one-shot decision was reached (`value` is the decision).
    Decide = 3,
    /// A payload was delivered to the application (`value` is a seq).
    Deliver = 4,
    /// A threshold coin settled (`value` is the coin bit).
    CoinFlip = 5,
    /// A message/share was rejected or dropped (`value` is a reason code).
    Reject = 6,
    /// A span opened (`value` carries a caller-chosen label hash).
    SpanStart = 7,
    /// A span closed (`value` is the elapsed time in nanoseconds).
    SpanEnd = 8,
    /// Anything else; meaning is up to the emitter.
    Custom = 9,
}

impl EventKind {
    /// Short stable name for dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::MsgSent => "sent",
            EventKind::MsgRecv => "recv",
            EventKind::RoundStart => "round",
            EventKind::Decide => "decide",
            EventKind::Deliver => "deliver",
            EventKind::CoinFlip => "coin",
            EventKind::Reject => "reject",
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Custom => "custom",
        }
    }

    fn from_u8(v: u8) -> EventKind {
        match v {
            0 => EventKind::MsgSent,
            1 => EventKind::MsgRecv,
            2 => EventKind::RoundStart,
            3 => EventKind::Decide,
            4 => EventKind::Deliver,
            5 => EventKind::CoinFlip,
            6 => EventKind::Reject,
            7 => EventKind::SpanStart,
            8 => EventKind::SpanEnd,
            _ => EventKind::Custom,
        }
    }
}

/// One structured trace event, tagged with protocol-instance
/// coordinates. Packs losslessly into four `u64` words (party ids above
/// `u16::MAX` and instance/round/epoch above `u32::MAX` saturate — far
/// beyond anything the runtimes support).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Originating stack layer.
    pub layer: Layer,
    /// Event kind.
    pub kind: EventKind,
    /// The local party the event was observed at.
    pub party: u16,
    /// Protocol-instance discriminator (e.g. ABC round, MVBA election).
    pub instance: u32,
    /// Protocol round within the instance (0 when not applicable).
    pub round: u32,
    /// Proactive-refresh epoch (0 when not applicable).
    pub epoch: u32,
    /// Kind-specific payload (decision bit, seq, ns, reason code, ...).
    pub value: u64,
    /// When: the simulator step or a wall-clock ns reading, depending on
    /// the runtime that recorded it.
    pub at: u64,
}

impl Event {
    /// A blank event for `layer`/`kind` at `party`; fill the rest with
    /// struct update syntax.
    pub fn new(layer: Layer, kind: EventKind, party: usize) -> Event {
        Event {
            layer,
            kind,
            party: party.min(u16::MAX as usize) as u16,
            instance: 0,
            round: 0,
            epoch: 0,
            value: 0,
            at: 0,
        }
    }

    /// Sets the instance discriminator (builder style).
    pub fn instance(mut self, instance: u32) -> Event {
        self.instance = instance;
        self
    }

    /// Sets the round (builder style; saturates at `u32::MAX`).
    pub fn round(mut self, round: u32) -> Event {
        self.round = round;
        self
    }

    /// Sets the epoch (builder style).
    pub fn epoch(mut self, epoch: u32) -> Event {
        self.epoch = epoch;
        self
    }

    /// Sets the kind-specific payload (builder style).
    pub fn value(mut self, value: u64) -> Event {
        self.value = value;
        self
    }

    /// Sets the timestamp (builder style).
    pub fn at(mut self, at: u64) -> Event {
        self.at = at;
        self
    }

    /// Packs into the recorder's four-word slot form.
    pub fn pack(&self) -> [u64; 4] {
        let w0 = ((self.layer as u64) << 56)
            | ((self.kind as u64) << 48)
            | ((self.party as u64) << 32)
            | self.instance as u64;
        let w1 = ((self.round as u64) << 32) | self.epoch as u64;
        [w0, w1, self.value, self.at]
    }

    /// Unpacks a slot written by [`pack`](Self::pack).
    pub fn unpack(words: [u64; 4]) -> Event {
        Event {
            layer: Layer::from_u8((words[0] >> 56) as u8),
            kind: EventKind::from_u8((words[0] >> 48) as u8),
            party: (words[0] >> 32) as u16,
            instance: words[0] as u32,
            round: (words[1] >> 32) as u32,
            epoch: words[1] as u32,
            value: words[2],
            at: words[3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips() {
        let e = Event {
            layer: Layer::Abba,
            kind: EventKind::Decide,
            party: 3,
            instance: 17,
            round: 5,
            epoch: 2,
            value: 1,
            at: 123_456,
        };
        assert_eq!(Event::unpack(e.pack()), e);
    }

    #[test]
    fn all_layers_and_kinds_roundtrip() {
        for l in 0..=12u8 {
            let layer = Layer::from_u8(l);
            for k in 0..=9u8 {
                let kind = EventKind::from_u8(k);
                let mut e = Event::new(layer, kind, 9);
                e.value = 7;
                assert_eq!(Event::unpack(e.pack()), e, "{layer:?}/{kind:?}");
                assert!(!layer.as_str().is_empty());
                assert!(!kind.as_str().is_empty());
            }
        }
    }

    #[test]
    fn party_saturates() {
        let e = Event::new(Layer::Net, EventKind::MsgSent, usize::MAX);
        assert_eq!(e.party, u16::MAX);
    }
}
