//! # vgprs-tr22973 — the 3GPP baseline the paper argues against
//!
//! An implementation of the 3G TR 22.973-style "VoIP over GPRS"
//! architecture that the vGPRS paper compares itself to in Section 6:
//!
//! * the MS is itself an H.323 terminal with a vocoder ([`H323Ms`]),
//! * every byte — RAS, Q.931, RTP — crosses the *shared* packet radio
//!   channel (no circuit-switched air interface, no real-time guarantee),
//! * the PDP context is deactivated whenever the MS is idle and
//!   re-established per call (MS-initiated out, network-initiated via the
//!   GGSN's static-address PDU notification in),
//! * the subscriber's IMSI is handed to the H.323 domain at registration
//!   (`Gatekeeper::imsi_disclosures` counts the leak).
//!
//! Experiments C1–C4 run this baseline side-by-side with the vGPRS
//! system under identical network conditions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ms;
mod testbed;

pub use ms::{H323Ms, Pdch, TrMsConfig};
pub use testbed::{TrZone, TrZoneConfig};
