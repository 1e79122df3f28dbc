//! # vgprs-core — the paper's contribution
//!
//! The [`Vmsc`] (VoIP Mobile Switching Center) and the [`testbed`]
//! builders that assemble complete networks around it:
//!
//! * [`AccessHalf`] (HLR, VLR, an MSC, BSC, BTS; adds subscribers) and
//!   [`PacketHalf`] (PSDN router, gatekeeper, GGSN, SGSN; adds H.323
//!   terminals and a PSTN gateway) — the two halves of Figure 2(b), each
//!   built once.
//! * [`VgprsZone`] — one vGPRS serving network: both halves around the
//!   VMSC.
//! * [`GsmZone`] — the classic circuit-switched baseline network
//!   (Figure 7): the access half around a [`vgprs_gsm::GsmMsc`].
//!
//! See the crate's integration tests (workspace `tests/`) for the
//! reproduced message flows of Figures 4–6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod testbed;
mod vmsc;

pub use testbed::{
    AccessHalf, Architecture, GsmZone, GsmZoneConfig, LatencyProfile, PacketHalf, VgprsZone,
    VgprsZoneConfig,
};
pub use vmsc::{MsEntry, RegPhase, Vmsc, VmscConfig};
