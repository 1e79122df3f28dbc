//! The deterministic inter-shard fabric.
//!
//! Shards are independent [`vgprs_sim::Network`]s, so a subscriber that
//! leaves its home shard cannot simply be handed a `NodeId` in another
//! network. Instead every shard runs in **epoch lockstep**: all shards
//! simulate the same [`EPOCH_MS`] window of their busy hour, then a
//! barrier exchanges [`Flit`]s through the
//! [`TrunkFabric`](crate::trunk::TrunkFabric). A flit sent
//! during epoch `k` is delivered at the start of epoch `k + 1`, iterated
//! in (source-shard, send-order) order — a total order that depends only
//! on the configuration and seed. That is what keeps reruns
//! bit-identical even with subscribers migrating between shards
//! mid-call.
//!
//! Inside a shard, two *gate* nodes terminate the cross-shard legs:
//!
//! * [`TrunkGate`] sits at the far end of the home VMSC's E interface.
//!   Outbound MAP handoff dialogue and E-trunk voice are captured for
//!   the barrier; inbound flits are re-injected toward the VMSC. The
//!   home VMSC sees it as the neighboring VMSC of the paper's Figure 9.
//! * [`RadioGate`] plays the border cell ([`BORDER_CELL`]): an A
//!   interface toward the home VMSC (it is the "BSC" of every visiting
//!   handset) and a Um link to every local handset that may roam out.
//!
//! The [`HlrDirectory`] is the sharded-HLR ownership map: it watches
//! `Arrive`/`Depart` flits at the barrier and tracks which shard's HLR
//! currently holds each subscriber's record.

use vgprs_sim::{Context, Interface, Node, NodeId};
use vgprs_wire::{CallId, CellId, Cic, ConnRef, Dtap, MapMessage, Message};

/// Lockstep window length. Cross-shard signaling pays at least one
/// barrier per direction, so this is also the quantum of inter-VMSC
/// latency — 50 ms, on the order of a real inter-MSC SS7 round trip.
pub const EPOCH_MS: u64 = 50;

/// The pseudo-cell every cross-shard mover reports when it leaves its
/// home shard. The home VMSC routes it to the [`TrunkGate`]; the moving
/// MS camps on the [`RadioGate`].
pub const BORDER_CELL: CellId = CellId(0xFFFF);

/// One unit of cross-shard traffic, exchanged at epoch barriers.
#[derive(Clone, Debug)]
pub enum Flit {
    /// MAP handoff dialogue between anchor and target VMSC (Figure 9).
    Map(MapMessage),
    /// One E-trunk voice frame on an inter-VMSC circuit. `origin_off_us`
    /// is relative to the *source* shard's busy-hour start; the receiver
    /// rebases it onto its own clock so end-to-end delay stays
    /// meaningful across shards.
    Trunk {
        /// Circuit carrying the frame.
        cic: Cic,
        /// Call occupying the circuit.
        call: CallId,
        /// Frame sequence number.
        seq: u32,
        /// Frame creation time, microseconds since the source shard's t0.
        origin_off_us: u64,
    },
    /// Um uplink from a visiting subscriber's handset (radio leg lives
    /// in the target shard, the handset in the home shard).
    UmUp {
        /// The subscriber's global population index.
        global: usize,
        /// Signaling or voice content.
        dtap: Dtap,
    },
    /// A-interface downlink from the target VMSC toward a visiting
    /// subscriber's handset back home.
    ADown {
        /// The subscriber's global population index.
        global: usize,
        /// Signaling or voice content.
        dtap: Dtap,
    },
    /// Idle-mode arrival: the destination shard's HLR takes ownership of
    /// the subscriber's record.
    Arrive {
        /// The subscriber's global population index.
        global: usize,
    },
    /// Idle-mode departure: the destination shard's HLR cancels the
    /// subscriber's record (ownership returned to the sender).
    Depart {
        /// The subscriber's global population index.
        global: usize,
    },
    /// Transport notification, generated at the barrier by the trunk
    /// fabric (never posted by a shard): retransmission toward `peer`
    /// exhausted its backoff budget and the flit was abandoned. The
    /// *sender* shard receives this and resolves the affected call or
    /// subscriber — supervised teardown with a q850 cause for a
    /// mid-ladder handoff, HLR revert for a lost mobility move.
    TrunkExpired {
        /// Destination shard that never confirmed delivery.
        peer: usize,
        /// Call the abandoned flit belonged to, when it carried one.
        call: Option<CallId>,
        /// Subscriber the abandoned flit belonged to, when it named one.
        global: Option<usize>,
        /// What kind of traffic was abandoned.
        kind: ExpiredKind,
    },
    /// Transport notification: the partition on the trunk toward `peer`
    /// healed (its last chaos window closed). Both ends receive this and
    /// re-route any leg they tore down while the trunk was dark.
    TrunkHeal {
        /// The shard at the other end of the healed trunk.
        peer: usize,
    },
    /// Transport notification, in every shard's first inbox from an
    /// armed fabric: the trunk may lose, hold back or reorder flits.
    TrunkArmed,
}

/// What kind of traffic an abandoned (retransmission-exhausted) flit
/// carried; drives the sender shard's resolution procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpiredKind {
    /// Figure 9 MAP handoff dialogue, or a visiting subscriber's radio
    /// leg — the handoff cannot complete and the call must be torn down.
    Handoff,
    /// Rebased E-trunk voice: the frames are stale-cell loss.
    Voice,
    /// Idle-mode `Arrive`/`Depart`: the HLR ownership move never landed.
    Mobility,
    /// Any other cross-shard signaling.
    Signal,
}

impl Flit {
    /// Who is harmed if this flit is abandoned: the call it belongs to,
    /// the subscriber it names, and the resolution procedure to run.
    pub fn casualty(&self) -> (Option<CallId>, Option<usize>, ExpiredKind) {
        match self {
            Flit::Map(
                MapMessage::PrepareHandover { call, .. }
                | MapMessage::PrepareHandoverAck { call, .. }
                | MapMessage::SendEndSignal { call }
                | MapMessage::SendEndSignalAck { call },
            ) => (Some(*call), None, ExpiredKind::Handoff),
            Flit::Map(_) => (None, None, ExpiredKind::Signal),
            Flit::Trunk { call, .. } => (Some(*call), None, ExpiredKind::Voice),
            Flit::UmUp { global, .. } | Flit::ADown { global, .. } => {
                (None, Some(*global), ExpiredKind::Handoff)
            }
            Flit::Arrive { global } | Flit::Depart { global } => {
                (None, Some(*global), ExpiredKind::Mobility)
            }
            Flit::TrunkExpired { call, global, kind, .. } => (*call, *global, *kind),
            Flit::TrunkHeal { .. } | Flit::TrunkArmed => (None, None, ExpiredKind::Signal),
        }
    }
}

/// A flit addressed to a destination shard.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Destination shard index.
    pub to_shard: usize,
    /// The traffic.
    pub flit: Flit,
}

/// The bare epoch-barrier exchange, kept as the reference a disarmed
/// [`TrunkFabric`](crate::trunk::TrunkFabric) is compared against
/// (`disarmed_fabric_matches_bare_mailbox`); the engine itself always
/// goes through the fabric.
///
/// Delivery order is total and machine-independent: inbox entries are
/// appended in ascending source-shard order, and each source's envelopes
/// keep their send order.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct Mailbox {
    inboxes: Vec<Vec<(usize, Flit)>>,
}

#[cfg(test)]
impl Mailbox {
    /// An empty mailbox for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Mailbox {
            inboxes: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Posts one shard's epoch output. **Must** be called in ascending
    /// `from_shard` order within a barrier; the engine iterates shards
    /// in index order.
    pub fn post(&mut self, from_shard: usize, envelopes: Vec<Envelope>) {
        for env in envelopes {
            self.inboxes[env.to_shard].push((from_shard, env.flit));
        }
    }

    /// Takes everything queued for `shard`, in delivery order.
    pub fn take_inbox(&mut self, shard: usize) -> Vec<(usize, Flit)> {
        std::mem::take(&mut self.inboxes[shard])
    }

    /// Flits queued but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.inboxes.iter().map(Vec::len).sum()
    }
}

/// The sharded-HLR ownership map: which shard's HLR currently holds
/// each subscriber's record. Updated at epoch barriers from the
/// `Arrive`/`Depart` flits crossing the mailbox.
#[derive(Debug)]
pub struct HlrDirectory {
    owner: Vec<u32>,
    relocations: u64,
}

impl HlrDirectory {
    /// Initial ownership from the partition's `(base, size)` slices.
    pub fn new(partition: &[(usize, usize)]) -> Self {
        let total: usize = partition.iter().map(|p| p.1).sum();
        let mut owner = vec![0u32; total];
        for (shard, &(base, size)) in partition.iter().enumerate() {
            for o in &mut owner[base..base + size] {
                *o = shard as u32;
            }
        }
        HlrDirectory {
            owner,
            relocations: 0,
        }
    }

    /// Observes one flit crossing the barrier from `from_shard` to
    /// `to_shard`. An `Arrive` moves the record to the destination
    /// shard; a `Depart` returns it to the sender (the subscriber went
    /// home).
    pub fn observe(&mut self, from_shard: usize, to_shard: usize, flit: &Flit) {
        let (global, new_owner) = match *flit {
            Flit::Arrive { global } => (global, to_shard as u32),
            Flit::Depart { global } => (global, from_shard as u32),
            _ => return,
        };
        if self.owner[global] != new_owner {
            self.owner[global] = new_owner;
            self.relocations += 1;
        }
    }

    /// Which shard's HLR owns `global`'s record right now.
    #[cfg(test)]
    pub(crate) fn owner_of(&self, global: usize) -> usize {
        self.owner[global] as usize
    }

    /// How many times any record changed hands.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }
}

/// The far end of the home VMSC's inter-shard E interface.
///
/// To the VMSC this node *is* the neighbor VMSC serving [`BORDER_CELL`]:
/// MAP dialogue and trunk voice sent to it are captured for the next
/// barrier, and flits delivered from other shards are relayed in.
#[derive(Debug)]
pub struct TrunkGate {
    vmsc: NodeId,
    captured: Vec<Message>,
}

impl TrunkGate {
    /// A gate relaying to/capturing from `vmsc`.
    pub fn new(vmsc: NodeId) -> Self {
        TrunkGate {
            vmsc,
            captured: Vec::new(),
        }
    }

    /// Drains everything the VMSC sent out since the last barrier.
    pub fn take_captured(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.captured)
    }
}

impl Node<Message> for TrunkGate {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match iface {
            // Flits delivered at the barrier re-enter the sim here.
            Interface::Internal => ctx.send(self.vmsc, msg),
            Interface::E => self.captured.push(msg),
            _ => ctx.count("gate.unexpected_message"),
        }
    }
}

/// The border cell: radio infrastructure for subscribers visiting from
/// or roaming to another shard.
///
/// Toward the home VMSC it is the BSC of every *visiting* handset (the
/// A interface the target VMSC's radio leg lands on). Toward local
/// handsets it is the serving BTS while they roam out: their Um uplink
/// is captured for the barrier, and downlink queued by the driver is
/// flushed to them in-sim.
#[derive(Debug)]
pub struct RadioGate {
    vmsc: NodeId,
    pending_um: Vec<(NodeId, Dtap)>,
    um_up: Vec<(NodeId, Dtap, u64)>,
    a_down: Vec<(ConnRef, Dtap)>,
}

impl RadioGate {
    /// A gate whose A interface terminates at `vmsc`.
    pub fn new(vmsc: NodeId) -> Self {
        RadioGate {
            vmsc,
            pending_um: Vec::new(),
            um_up: Vec::new(),
            a_down: Vec::new(),
        }
    }

    /// Queues downlink toward a local handset. Takes effect when the
    /// driver next kicks the gate with an internal (non-A) message.
    pub fn queue_um(&mut self, ms: NodeId, dtap: Dtap) {
        self.pending_um.push((ms, dtap));
    }

    /// Drains captured Um uplink: `(handset, content, capture time µs)`.
    pub fn take_um_up(&mut self) -> Vec<(NodeId, Dtap, u64)> {
        std::mem::take(&mut self.um_up)
    }

    /// Drains captured A-interface downlink for visiting subscribers.
    pub fn take_a_down(&mut self) -> Vec<(ConnRef, Dtap)> {
        std::mem::take(&mut self.a_down)
    }
}

impl Node<Message> for RadioGate {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            // A visitor's uplink, delivered at the barrier: relay into
            // the VMSC as this "BSC"'s A-interface traffic.
            (Interface::Internal, Message::A { conn, dtap }) => {
                ctx.send(self.vmsc, Message::A { conn, dtap });
            }
            // Any other internal message is the driver's kick: flush
            // queued downlink to the local handsets camped on us.
            (Interface::Internal, _) => {
                for (ms, dtap) in std::mem::take(&mut self.pending_um) {
                    ctx.send(ms, Message::Um(dtap));
                }
            }
            (Interface::Um, Message::Um(dtap)) => {
                self.um_up.push((from, dtap, ctx.now().as_micros()));
            }
            (Interface::A, Message::A { conn, dtap }) => {
                self.a_down.push((conn, dtap));
            }
            _ => ctx.count("gate.unexpected_message"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_wire::Imsi;

    #[test]
    fn mailbox_orders_by_source_shard_then_send_order() {
        let mut mb = Mailbox::new(3);
        // Posted in shard order, as the engine guarantees.
        mb.post(
            0,
            vec![
                Envelope {
                    to_shard: 2,
                    flit: Flit::Arrive { global: 10 },
                },
                Envelope {
                    to_shard: 2,
                    flit: Flit::Depart { global: 11 },
                },
            ],
        );
        mb.post(
            1,
            vec![Envelope {
                to_shard: 2,
                flit: Flit::Arrive { global: 12 },
            }],
        );
        assert_eq!(mb.in_flight(), 3);
        let inbox = mb.take_inbox(2);
        let order: Vec<(usize, usize)> = inbox
            .iter()
            .map(|(from, flit)| {
                let g = match flit {
                    Flit::Arrive { global } | Flit::Depart { global } => *global,
                    _ => unreachable!(),
                };
                (*from, g)
            })
            .collect();
        assert_eq!(order, vec![(0, 10), (0, 11), (1, 12)]);
        assert_eq!(mb.in_flight(), 0);
        assert!(mb.take_inbox(2).is_empty(), "inbox drains exactly once");
    }

    #[test]
    fn directory_tracks_ownership_round_trip() {
        let mut dir = HlrDirectory::new(&[(0, 4), (4, 4)]);
        assert_eq!(dir.owner_of(5), 1);
        dir.observe(1, 0, &Flit::Arrive { global: 5 });
        assert_eq!(dir.owner_of(5), 0);
        assert_eq!(dir.relocations(), 1);
        // The return trip: shard 1 tells shard 0 to drop the record.
        dir.observe(1, 0, &Flit::Depart { global: 5 });
        assert_eq!(dir.owner_of(5), 1);
        assert_eq!(dir.relocations(), 2);
        // Non-mobility flits never touch ownership.
        dir.observe(
            0,
            1,
            &Flit::Map(MapMessage::CancelLocation {
                imsi: Imsi::parse("466920000000001").expect("valid"),
            }),
        );
        assert_eq!(dir.relocations(), 2);
    }
}
