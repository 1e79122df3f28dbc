//! Starting a zone registered: what Figure 4 leaves behind, written
//! without running it.
//!
//! A population run registers every handset (steps 1.1–1.6) and every
//! wireline terminal before its busy hour, and none of its KPIs reads
//! that ladder. [`VgprsZone::provision_registered`] writes the state
//! the ladder would leave in every register it touches, in the ladder's
//! order and at its instants, and returns the instant the ladder would
//! have gone quiet at. It can be exact because, in a zone whose links
//! have neither jitter, loss nor a bandwidth limit:
//!
//! * every ladder takes the same time: a hop's delay is its link's
//!   latency, and no node queues, so the instants below are sums of
//!   latencies along the ladder's path;
//! * the ladders of different handsets meet at no counter out of order:
//!   each node bumps each of its counters at one step of the ladder, so
//!   handsets powered on in order reach every counter in order;
//! * the only random draws are the HLR's RANDs (three per handset, one
//!   step), so drawing them handset by handset draws the same values;
//! * every other identifier (connection reference, TMSI, P-TMSI, TEID,
//!   PDP address) comes from a per-node counter.
//!
//! A hop on a link that breaks the first premise panics.

use vgprs_gprs::{Ggsn, Sgsn};
use vgprs_gsm::{Bsc, Bts, Hlr, MobileStation, Vlr};
use vgprs_h323::{Gatekeeper, H323Terminal};
use vgprs_sim::{Network, NodeId, SimDuration, SimTime};
use vgprs_wire::{Message, QosProfile, TransportAddr};

use crate::testbed::VgprsZone;
use crate::vmsc::{sig_nsapi, Registration, Vmsc, H225_PORT};

/// The one-way delay from `from` to `to`.
///
/// # Panics
///
/// Panics unless the link's latency is the whole delay.
fn hop(net: &Network<Message>, from: NodeId, to: NodeId) -> SimDuration {
    let quality = net
        .link_between(from, to)
        .unwrap_or_else(|| panic!("no link {from} -> {to} on the ladder"))
        .quality;
    assert!(
        quality.jitter.is_zero() && quality.loss == 0.0 && quality.bandwidth_bps.is_none(),
        "{from} -> {to} delays by more than its latency: {quality:?}"
    );
    quality.latency
}

/// The delay along `nodes`, hop by hop.
fn path(net: &Network<Message>, nodes: &[NodeId]) -> SimDuration {
    nodes
        .windows(2)
        .fold(SimDuration::ZERO, |sum, w| sum + hop(net, w[0], w[1]))
}

impl VgprsZone {
    /// Writes what registering `terminals` (each at its start) and then
    /// `handsets` (each `(MS, power-on instant)`, in power-on order)
    /// would leave in this zone, and returns the instant the ladders
    /// would have gone quiet at. Every handset must be provisioned in
    /// this zone's HLR and camped on its cell.
    pub fn provision_registered(
        &self,
        net: &mut Network<Message>,
        terminals: &[NodeId],
        handsets: &[(NodeId, SimTime)],
    ) -> SimTime {
        let (access, packet) = (&self.access, &self.packet);
        let (bts, bsc, vmsc, vlr, hlr) =
            (access.bts, access.bsc, access.msc, access.vlr, access.hlr);
        let (sgsn, ggsn, router, gk) = (packet.sgsn, packet.ggsn, packet.router, packet.gk);
        let mut quiet = SimTime::ZERO;

        // A terminal's RRQ goes out from its `on_start`, at time zero.
        for &terminal in terminals {
            let config = net
                .node::<H323Terminal>(terminal)
                .expect("a terminal")
                .config();
            let confirmed = SimTime::ZERO + path(net, &[terminal, router, gk]);
            net.provision(gk, confirmed, |g: &mut Gatekeeper, ctx| {
                g.register(ctx, config.alias, config.addr)
            });
            let idle = confirmed + path(net, &[gk, router, terminal]);
            net.provision(terminal, idle, |t: &mut H323Terminal, ctx| {
                t.confirm_registration(ctx)
            });
            quiet = quiet.max(idle);
        }

        // The ladder's legs behind the cell, the same for every handset:
        // the radio path's wired half, steps 1.1–1.2 between the VMSC
        // and the registers (vectors, the HLR update, the VLR's answer),
        // the attach and activation of step 1.3, and the RRQ and RCF of
        // steps 1.4–1.5, tunnelled through the GPRS core.
        let (to_vmsc, from_vmsc) = (path(net, &[bts, bsc, vmsc]), path(net, &[vmsc, bsc, bts]));
        let registers = path(net, &[vmsc, vlr, hlr, vlr, vmsc])
            + path(net, &[vmsc, vlr, hlr, vlr, hlr, vlr, vmsc])
            + path(net, &[vmsc, vlr, vmsc]);
        let attach = path(net, &[vmsc, sgsn, vmsc, sgsn, ggsn, sgsn, vmsc]);
        let (rrq, rcf) = (
            path(net, &[vmsc, sgsn, ggsn, router, gk]),
            path(net, &[gk, router, ggsn, sgsn, vmsc]),
        );
        let guard = net.node::<Vmsc>(vmsc).expect("zone VMSC").ras_guard();
        let point_code = net.node::<Vlr>(vlr).expect("zone VLR").point_code();
        let (nsapi, qos) = (sig_nsapi(), QosProfile::signaling());
        for &(ms, powered_on) in handsets {
            let imsi = net.node::<MobileStation>(ms).expect("a handset").imsi();
            let up = hop(net, ms, bts) + to_vmsc;
            let down = from_vmsc + hop(net, bts, ms);
            // Step 1.1: the location update opens a radio connection.
            let started = powered_on + up;
            let conn = net.provision(bts, started, |b: &mut Bts, ctx| b.open_connection(ctx, ms));
            net.node_mut::<Bsc>(bsc)
                .expect("zone BSC")
                .provision_connection(conn, bts);
            // Steps 1.1–1.2, with the challenge and the ciphering order
            // each a round trip to the handset.
            let located = started + registers + down + up + down + up;
            let (profile, triplets) = net
                .provision(hlr, located, |h: &mut Hlr, ctx| {
                    h.provision_location(ctx, imsi, (vlr, point_code))
                })
                .unwrap_or_else(|| panic!("{imsi} is not provisioned in the zone's HLR"));
            let lai = access.lai;
            let tmsi = net.provision(vlr, located, |v: &mut Vlr, ctx| {
                v.provision_registered(ctx, imsi, lai, profile, triplets)
            });
            // Step 1.3: GPRS attach and the signaling context.
            let activated = located + attach;
            let sgsn_teid = net.provision(sgsn, activated, |s: &mut Sgsn, ctx| {
                s.attach(ctx, imsi, vmsc);
                s.open_pdp(imsi, nsapi, qos)
            });
            let (addr, ggsn_teid) = net
                .provision(ggsn, activated, |g: &mut Ggsn, ctx| {
                    g.create_pdp(ctx, (imsi, nsapi), None, (sgsn, sgsn_teid))
                })
                .expect("the GGSN's pool holds every handset");
            net.provision(sgsn, activated, |s: &mut Sgsn, ctx| {
                s.pdp_up(ctx, imsi, nsapi, (addr, ggsn_teid, qos))
            });
            // Steps 1.4–1.5: the RRQ, tunnelled to the gatekeeper.
            let admitted = activated + rrq;
            let transport = TransportAddr::new(addr, H225_PORT);
            net.provision(gk, admitted, |g: &mut Gatekeeper, ctx| {
                g.register(ctx, profile.msisdn, transport)
            });
            let confirmed = admitted + rcf;
            let reg = Registration {
                imsi,
                msisdn: profile.msisdn,
                tmsi,
                conn: (conn, bsc),
                addr,
                started,
            };
            net.provision(vmsc, confirmed, |v: &mut Vmsc, ctx| {
                v.provision_registered(ctx, reg)
            });
            // Step 1.6: the accept reaches the handset.
            let accepted = confirmed + down;
            net.provision(ms, accepted, |m: &mut MobileStation, ctx| {
                m.provision_registered(ctx, powered_on, tmsi)
            });
            quiet = quiet.max(accepted);
            if let Some(guard) = guard {
                quiet = quiet.max(activated + guard);
            }
        }
        quiet
    }
}
