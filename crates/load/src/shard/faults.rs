//! Fault application: opening and closing the impairment windows of the
//! shard's compiled [`FaultPlan`](vgprs_faults::FaultPlan) on the home
//! zone's links and nodes, and driving the recovery each kind needs.

use vgprs_faults::{FaultKind, LinkSel, NodeSel};
use vgprs_sim::{LinkQuality, NodeId, SimDuration};
use vgprs_wire::{Command, Message};

use super::Shard;

/// How long after a crashed backbone peer comes back the VMSC is told
/// to rebuild its subscribers' contexts.
const RESYNC_DELAY_MS: u64 = 100;

impl Shard {
    /// The home-zone endpoints and healthy quality of a fault-plan link.
    fn fault_link(&self, link: LinkSel) -> (NodeId, NodeId, LinkQuality) {
        let (vmsc, packet) = (self.home.access.msc, &self.home.packet);
        match link {
            LinkSel::Gb => (vmsc, packet.sgsn, self.gb_quality),
            LinkSel::Gn => (packet.sgsn, packet.ggsn, self.gn_quality),
        }
    }

    /// The home-zone node a fault-plan selector names.
    fn fault_node(&self, node: NodeSel) -> NodeId {
        match node {
            NodeSel::Sgsn => self.home.packet.sgsn,
            NodeSel::Ggsn => self.home.packet.ggsn,
            NodeSel::Gatekeeper => self.home.packet.gk,
            NodeSel::Vmsc => self.home.access.msc,
        }
    }

    /// Opens impairment window `i` of the fault plan.
    pub(super) fn fault_start(&mut self, i: usize) {
        let ev = self.plan.events[i];
        let key = ev.kind.class().key();
        self.count("load.faults_injected");
        self.net
            .stats_mut()
            .count_by(&format!("load.unavailability_ms_{key}"), ev.duration_ms);
        match ev.kind {
            FaultKind::DegradeLink {
                link,
                added_latency,
                loss,
                bandwidth_bps,
            } => {
                let (a, b, base) = self.fault_link(link);
                let degraded = LinkQuality {
                    latency: base.latency + added_latency,
                    jitter: base.jitter,
                    loss,
                    bandwidth_bps: Some(bandwidth_bps),
                };
                self.net.set_link_quality(a, b, degraded);
            }
            FaultKind::Crash { node } => self.cmd(self.fault_node(node), Command::Crash),
            FaultKind::Blackhole { node } => self.cmd(self.fault_node(node), Command::Blackhole),
        }
    }

    /// Closes impairment window `i` and drives recovery: links get
    /// their healthy quality back, restarted peers trigger a VMSC
    /// resync, and a VMSC cold start power-cycles the home population
    /// so every handset re-registers.
    pub(super) fn fault_end(&mut self, i: usize) {
        match self.plan.events[i].kind {
            FaultKind::DegradeLink { link, .. } => {
                let (a, b, base) = self.fault_link(link);
                self.net.set_link_quality(a, b, base);
            }
            FaultKind::Blackhole { node } => self.cmd(self.fault_node(node), Command::Restore),
            FaultKind::Crash { node } => {
                self.cmd(self.fault_node(node), Command::Restore);
                if node == NodeSel::Vmsc {
                    self.recycle_population();
                } else {
                    // A backbone peer restarted with empty tables: the
                    // VMSC re-attaches every subscriber to rebuild MM
                    // state, PDP contexts and gatekeeper registrations.
                    self.net.inject(
                        SimDuration::from_millis(RESYNC_DELAY_MS),
                        self.home.access.msc,
                        Message::Cmd(Command::Resync),
                    );
                }
            }
        }
    }

    /// The VMSC cold-started with an empty MS table: power-cycle the
    /// home population (staggered like boot) so every handset re-runs
    /// location update, PDP activation and RAS registration.
    fn recycle_population(&mut self) {
        for local in 0..self.subs.len() {
            if self.subs[local].away {
                continue;
            }
            let ms = self.subs[local].ms;
            let off = SimDuration::from_millis(1 + local as u64 * 7);
            let on = off + SimDuration::from_millis(3);
            self.net.inject(off, ms, Message::Cmd(Command::PowerOff));
            self.net.inject(on, ms, Message::Cmd(Command::PowerOn));
            self.count("load.fault_recycles");
        }
    }
}
