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
//! The paper's ladder figures (4, 5, 6 and 9) and the worlds they run in
//! are stated once, in [`figures`]; the crate's integration tests
//! (`crates/core/tests`) check them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod provision;
pub mod testbed;
mod vmsc;

pub use figures::FIGURE_4;
pub use testbed::{
    AccessHalf, Architecture, GsmZone, GsmZoneConfig, HomeNumbers, LatencyProfile,
    OverloadControls, PacketHalf, VgprsZone, VgprsZoneConfig,
};
pub use vmsc::{MsEntry, RegPhase, Vmsc, VmscConfig};
