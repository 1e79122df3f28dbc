//! The paper's ladder figures, stated once: each one's rungs and the
//! world it runs in.
//!
//! The paper's results are its message ladders: Figure 4 (registration),
//! Figure 5 (origination and release), Figure 6 (termination) and
//! Figure 9 (inter-system handoff). A [`Figure`] lists a ladder as
//! `(step, label)` rungs in the order its messages are delivered. A trace
//! follows the figure when its labels hold the rungs' labels in that
//! order; other messages (authentication, ciphering, a second party's)
//! may come between them. [`Figure::follow`] is the one matcher: it
//! counts the rungs held in order and names the first one missing.
//!
//! Figures 4–6 run in [`SingleZone`] and Figure 9 in [`HandoffWorld`].
//! The tests in `crates/core/tests` and `tests/`, the at-scale Figure 4
//! check in `crates/load/tests/provision.rs` and `harness fig4`…`fig9`
//! read their ladders and worlds from here.

use std::fmt;

use vgprs_pstn::PstnSwitch;
use vgprs_sim::{held_in_order, Interface, LadderDiagram, Network, NodeId, SimDuration, Trace};
use vgprs_wire::{CallId, CellId, Command, Imsi, Ipv4Addr, Lai, Message, Msisdn, TransportAddr};

use crate::testbed::{
    AccessHalf, Architecture, GsmZone, GsmZoneConfig, LatencyProfile, VgprsZone, VgprsZoneConfig,
};
use crate::vmsc::Vmsc;

/// One rung of a ladder: the paper's step and the label of the message
/// that delivers it.
pub type Rung = (&'static str, &'static str);

/// One of the paper's ladder figures.
#[derive(Debug)]
pub struct Figure {
    /// What a report calls it, such as "Figure 5 steps 2.1–2.9".
    caption: &'static str,
    /// The rungs, in delivery order.
    rungs: &'static [Rung],
}

/// How far a sequence of message labels follows a [`Figure`].
#[derive(Clone, Copy, Debug)]
pub struct Conformance<'f> {
    figure: &'f Figure,
    held: usize,
}

impl Figure {
    /// How far `labels` follow this ladder: the rungs they hold in order,
    /// each label taken at its first chance, up to the first they lack.
    pub fn follow<'a>(&self, labels: impl IntoIterator<Item = &'a str>) -> Conformance<'_> {
        let held = held_in_order(labels, self.rungs.iter().map(|&(_, label)| label));
        Conformance { figure: self, held }
    }

    /// Panics unless `trace` holds every rung in order, naming the first
    /// rung it lacks and rendering the trace's ladder.
    #[track_caller]
    pub fn assert_holds(&self, trace: &Trace) {
        let conformance = self.follow(trace.labels());
        assert!(
            conformance.holds(),
            "{conformance}; got:\n{}",
            LadderDiagram::new(trace).render()
        );
    }
}

impl Conformance<'_> {
    /// True when every rung is held in order.
    pub fn holds(&self) -> bool {
        self.missing().is_none()
    }

    /// The first rung not held in order, if any.
    pub fn missing(&self) -> Option<Rung> {
        self.figure.rungs.get(self.held).copied()
    }
}

/// "Figure 5 steps 2.1–2.9: 18 of 18 rungs in order", with the first
/// missing rung appended on a miss.
impl fmt::Display for Conformance<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (caption, rungs) = (self.figure.caption, self.figure.rungs.len());
        write!(f, "{caption}: {} of {rungs} rungs in order", self.held)?;
        match self.missing() {
            Some((step, label)) => write!(f, "; first missing: {label} ({step})"),
            None => Ok(()),
        }
    }
}

/// Figure 4, steps 1.1–1.6: vGPRS registration, as the labels of the
/// messages its ladder delivers. The RRQ is tunnelled (Figure 3) before
/// it reaches the gatekeeper's LAN.
pub static FIGURE_4: Figure = Figure {
    caption: "Figure 4 steps 1.1–1.6",
    rungs: &[
        ("step 1.1", "Um_Location_Update_Request"),
        ("step 1.1", "Abis_Location_Update"),
        ("step 1.1", "A_Location_Update"),
        ("step 1.1", "MAP_Update_Location_Area"),
        ("step 1.2", "MAP_Update_Location"),
        ("step 1.2", "MAP_Insert_Subs_Data"),
        ("step 1.2", "MAP_Update_Location_Area_ack"),
        ("step 1.3", "GPRS_Attach_Request"),
        ("step 1.3", "GPRS_Attach_Accept"),
        ("step 1.3", "Activate_PDP_Context_Request"),
        ("step 1.3", "Activate_PDP_Context_Accept"),
        ("step 1.4", "LLC:RAS_RRQ"),
        ("step 1.4", "GTP:RAS_RRQ"),
        ("step 1.4", "RAS_RRQ"),
        ("step 1.5", "RAS_RCF"),
        ("step 1.6", "A_Location_Update_Accept"),
        ("step 1.6", "Um_Location_Update_Accept"),
    ],
};

/// Figure 5, steps 2.1–2.9: the MS calls an H.323 terminal. The VMSC
/// asks for admission at step 2.3 and the called terminal at step 2.5.
pub static FIGURE_5_ORIGINATION: Figure = Figure {
    caption: "Figure 5 steps 2.1–2.9",
    rungs: &[
        ("step 2.1", "Um_CM_Service_Request"),
        ("step 2.1", "Um_Setup"),
        ("step 2.2", "MAP_Send_Info_For_Outgoing_Call"),
        ("step 2.2", "MAP_Send_Info_For_Outgoing_Call_ack"),
        ("step 2.3", "RAS_ARQ"),
        ("step 2.3", "RAS_ACF"),
        ("step 2.4", "Q931_Setup"),
        ("step 2.4", "Q931_Call_Proceeding"),
        ("step 2.5", "RAS_ARQ"),
        ("step 2.5", "RAS_ACF"),
        ("step 2.6", "Q931_Alerting"),
        ("step 2.7", "A_Alerting"),
        ("step 2.7", "Um_Alerting"),
        ("step 2.8", "Q931_Connect"),
        ("step 2.8", "A_Connect"),
        ("step 2.8", "Um_Connect"),
        ("step 2.9", "Activate_PDP_Context_Request"), // the voice context
        ("step 2.9", "Activate_PDP_Context_Accept"),
    ],
};

/// Figure 5, steps 3.1–3.4: the MS hangs up first. The release leaves
/// the VMSC (step 3.2) before the voice context goes (step 3.4), and
/// reaches the LAN after.
pub static FIGURE_5_RELEASE: Figure = Figure {
    caption: "Figure 5 steps 3.1–3.4",
    rungs: &[
        ("step 3.1", "Um_Disconnect"),
        ("step 3.2", "LLC:Q931_Release_Complete"),
        ("step 3.4", "Deactivate_PDP_Context_Request"),
        ("step 3.2", "Q931_Release_Complete"),
        ("step 3.3", "RAS_DRQ"),
        ("step 3.3", "RAS_DCF"),
    ],
};

/// Figure 6, steps 4.1–4.8: an H.323 terminal calls the MS. The setup
/// crosses the GGSN and the tunnel (step 4.2), and the caller hears the
/// connect after the voice context is asked for.
pub static FIGURE_6: Figure = Figure {
    caption: "Figure 6 steps 4.1–4.8",
    rungs: &[
        ("step 4.1", "RAS_ARQ"),
        ("step 4.1", "RAS_ACF"),
        ("step 4.2", "Q931_Setup"),
        ("step 4.2", "GTP:Q931_Setup"),
        ("step 4.2", "LLC:Q931_Setup"),
        ("step 4.2", "LLC:Q931_Call_Proceeding"),
        ("step 4.3", "RAS_ARQ"),
        ("step 4.3", "RAS_ACF"),
        ("step 4.4", "A_Paging"),
        ("step 4.4", "Abis_Paging"),
        ("step 4.4", "Um_Paging"),
        ("step 4.5", "Um_Paging_Response"),
        ("step 4.5", "A_Setup"),
        ("step 4.5", "Um_Setup"),
        ("step 4.6", "Um_Alerting"),
        ("step 4.6", "Q931_Alerting"),
        ("step 4.7", "Um_Connect"),
        ("step 4.7", "LLC:Q931_Connect"),
        ("step 4.8", "Activate_PDP_Context_Request"),
        ("step 4.7", "Q931_Connect"),
    ],
};

/// Figure 9: mid-call, the MS moves into a cell of a neighbouring MSC
/// (classic or VMSC); the anchor keeps the call and hands the radio leg
/// over through a MAP dialogue on the E interface (GSM 03.09).
pub static FIGURE_9: Figure = Figure {
    caption: "Figure 9 inter-system handoff",
    rungs: &[
        ("target cell stronger", "Um_Measurement_Report"),
        ("anchor asks the target", "MAP_Prepare_Handover"),
        (
            "circuit and reference allocated",
            "MAP_Prepare_Handover_ack",
        ),
        ("command down the old cell", "A_Handover_Command"),
        ("command down the old cell", "Um_Handover_Command"),
        ("MS on the target cell", "Um_Handover_Complete"),
        ("MS on the target cell", "A_Handover_Complete"),
        ("target tells the anchor", "MAP_Send_End_Signal"),
        ("anchor frees the old channel", "A_Channel_Release"),
        ("anchor closes the dialogue", "MAP_Send_End_Signal_ack"),
    ],
};

/// One zone of architecture `A` with one mobile and one H.323 terminal on
/// its LAN: the world of Figures 1–6 (`A` = [`VgprsZone`]) and of
/// Section 6's comparisons.
pub struct Single<A> {
    /// The network.
    pub net: Network<Message>,
    /// Zone handles.
    pub zone: A,
    /// The mobile station, `ms1`.
    pub ms: NodeId,
    /// The MS's identity.
    pub ms_imsi: Imsi,
    /// The MS's number.
    pub ms_msisdn: Msisdn,
    /// The wireline H.323 terminal, `term1`.
    pub term: NodeId,
    /// The terminal's alias.
    pub term_alias: Msisdn,
}

/// A single vGPRS zone: the world of Figures 1–6.
pub type SingleZone = Single<VgprsZone>;

impl<A: Architecture> Single<A> {
    /// The reference zone in a network seeded with `seed`, with MS `ms1`
    /// (IMSI 466920000000001, Ki 0xABCD, MSISDN 886912000001) and
    /// terminal `term1` (886220001111). Nothing has run yet.
    pub fn new(seed: u64) -> Self {
        let mut net = Network::new(seed);
        let zone = A::build(&mut net, A::taiwan());
        Self::around(net, zone)
    }

    /// [`Single::new`] with the MS powered on and the network run until
    /// quiet: both endpoints are registered.
    pub fn build(seed: u64) -> Self {
        let mut single = Self::new(seed);
        single.register();
        single
    }

    /// Adds the two endpoints to `zone`.
    fn around(mut net: Network<Message>, mut zone: A) -> Self {
        let ms_imsi = Imsi::parse("466920000000001").expect("valid");
        let ms_msisdn = Msisdn::parse("886912000001").expect("valid");
        let term_alias = Msisdn::parse("886220001111").expect("valid");
        let ms = zone.add_mobile(&mut net, "ms1", ms_imsi, 0xABCD, ms_msisdn);
        let term = zone.packet().add_terminal(&mut net, "term1", term_alias);
        Single {
            net,
            zone,
            ms,
            ms_imsi,
            ms_msisdn,
            term,
            term_alias,
        }
    }

    fn register(&mut self) {
        self.net
            .inject(SimDuration::ZERO, self.ms, Message::Cmd(Command::PowerOn));
        self.net.run_until_quiescent();
    }

    /// Places an MS→terminal call and runs until both talk, returning the
    /// post-dial delay (dial → ringback) in milliseconds.
    pub fn call_from_ms(&mut self, call: CallId, talk_for: SimDuration) -> f64 {
        let dial = Command::Dial {
            call,
            called: self.term_alias,
        };
        self.net
            .inject(SimDuration::ZERO, self.ms, Message::Cmd(dial));
        let deadline = self.net.now() + SimDuration::from_secs(5) + talk_for;
        self.net.run_until(deadline);
        let delay = self.net.stats().histogram(A::POST_DIAL_DELAY_MS);
        delay.map_or(f64::NAN, |h| h.mean())
    }

    /// Hangs up from the MS side and drains the release.
    pub fn hangup_from_ms(&mut self) {
        self.net
            .inject(SimDuration::ZERO, self.ms, Message::Cmd(Command::Hangup));
        self.net.run_until_quiescent();
    }
}

/// The world of Figure 9: a [`SingleZone`] whose MS also hears cell 2,
/// which a neighbouring zone serves, its MSC joined to the VMSC over E.
pub struct HandoffWorld {
    /// The anchor's zone with its MS and terminal.
    pub home: SingleZone,
    /// The access half that serves cell 2.
    pub neighbor: AccessHalf,
}

impl HandoffWorld {
    /// Builds the world around the access half `neighbor` creates
    /// ([`classic_neighbor`] or [`vmsc_neighbor`]), the MS registered
    /// at home.
    pub fn build(seed: u64, neighbor: fn(&mut Network<Message>) -> AccessHalf) -> Self {
        let mut net = Network::new(seed);
        let zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        let neighbor = neighbor(&mut net);
        // E interface between the two MSCs; the VMSC knows cell 2's owner.
        // The nodes come in this order because node IDs break ties.
        net.connect(
            zone.access.msc,
            neighbor.msc,
            Interface::E,
            neighbor.latency.e,
        );
        net.node_mut::<Vmsc>(zone.access.msc)
            .expect("vmsc")
            .add_neighbor_cell(neighbor.cell, neighbor.msc);
        let mut home = Single::around(net, zone);
        neighbor.cover(&mut home.net, home.ms);
        home.register();
        HandoffWorld { home, neighbor }
    }
}

/// Cell 2 under a classic MSC (same country) with its own BSC/BTS.
pub fn classic_neighbor(net: &mut Network<Message>) -> AccessHalf {
    let pstn = net.add_node("tw.pstn", PstnSwitch::new("tw"));
    let cfg = GsmZoneConfig {
        name: "tw2".into(),
        country_code: "886".into(),
        home_prefix: "8869".into(),
        msrn_prefix: "8869991".into(),
        lai: Lai::new(466, 92, 2),
        cell: CellId(2),
        latency: LatencyProfile::default(),
    };
    GsmZone::build(net, cfg, pstn).access
}

/// Cell 2 under a second VMSC with its own GPRS core and H.323 zone.
pub fn vmsc_neighbor(net: &mut Network<Message>) -> AccessHalf {
    let cfg = VgprsZoneConfig {
        name: "tw2".into(),
        lai: Lai::new(466, 92, 2),
        cell: CellId(2),
        msrn_prefix: "8869991".into(),
        pool: (Ipv4Addr::from_octets(10, 201, 0, 0), 16),
        gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 2, 0, 2), 1719),
        ..VgprsZoneConfig::taiwan()
    };
    VgprsZone::build(net, cfg).access
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_h323::{H323Terminal, TerminalState};

    fn labels(figure: &Figure) -> Vec<&'static str> {
        figure.rungs.iter().map(|&(_, label)| label).collect()
    }

    #[test]
    fn a_miss_names_the_first_missing_rung() {
        let mut origination = labels(&FIGURE_5_ORIGINATION);
        assert!(FIGURE_5_ORIGINATION
            .follow(origination.iter().copied())
            .holds());
        let second_arq = origination.iter().rposition(|&l| l == "RAS_ARQ");
        origination.remove(second_arq.expect("two ARQs"));
        let conformance = FIGURE_5_ORIGINATION.follow(origination);
        assert_eq!(conformance.missing(), Some(("step 2.5", "RAS_ARQ")));
        assert_eq!(
            conformance.to_string(),
            "Figure 5 steps 2.1–2.9: 8 of 18 rungs in order; first missing: RAS_ARQ (step 2.5)"
        );

        let mut handoff = labels(&FIGURE_9);
        let end = handoff.iter().position(|&l| l == "MAP_Send_End_Signal");
        let end = end.expect("an end signal");
        handoff.swap(end, end + 1);
        let conformance = FIGURE_9.follow(handoff);
        assert_eq!(
            conformance.missing(),
            Some(("anchor frees the old channel", "A_Channel_Release"))
        );
    }

    #[test]
    fn the_worlds_start_registered() {
        let registered =
            |net: &Network<Message>, vmsc| net.node::<Vmsc>(vmsc).expect("vmsc").registered_count();
        let single = SingleZone::build(42);
        assert_eq!(registered(&single.net, single.zone.access.msc), 1);
        let terminal = single.net.node::<H323Terminal>(single.term);
        assert_eq!(terminal.expect("term").state(), TerminalState::Idle);
        for neighbor in [classic_neighbor, vmsc_neighbor] {
            let world = HandoffWorld::build(42, neighbor);
            assert_eq!(registered(&world.home.net, world.home.zone.access.msc), 1);
            assert_eq!(world.neighbor.cell, CellId(2));
        }
    }
}
