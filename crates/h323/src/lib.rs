//! # vgprs-h323 — the H.323 VoIP substrate
//!
//! The standard H.323 network elements of the paper's Figure 2(b):
//!
//! * [`Gatekeeper`] — address translation, admission control with a
//!   bandwidth budget, disengage/charging. Deliberately GSM-ignorant: it
//!   never sees an IMSI (the confidentiality property of Section 6).
//! * [`H323Endpoint`] — a complete VoIP endpoint (RAS registration,
//!   Q.931 fast-connect call control, RTP media) over an [`Uplink`];
//!   [`H323Terminal`] is the endpoint on a LAN port.
//! * [`PstnGateway`] — ISUP ↔ H.323 bridging with bearer transcoding and
//!   PSTN fallback when the gatekeeper does not know the dialed alias
//!   (the Figure 8 "otherwise" branch).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gatekeeper;
mod gateway;
mod terminal;

pub use gatekeeper::{ChargingRecord, Gatekeeper, GatekeeperConfig};
pub use gateway::{GatewayConfig, PstnGateway};
pub use terminal::{
    EndpointNames, H323Endpoint, H323Terminal, Lan, Outcome, TerminalConfig, TerminalState, Uplink,
};
