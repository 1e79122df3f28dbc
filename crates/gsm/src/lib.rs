//! # vgprs-gsm — the GSM circuit-switched substrate
//!
//! Every GSM network element the vGPRS architecture touches, as
//! deterministic simulation nodes over [`vgprs_sim::Network`]:
//!
//! * [`MobileStation`] — the *unmodified* handset (GSM 04.08 only),
//! * [`Bts`] — radio head with per-transaction connection references and a
//!   shared packet-channel (PDCH) model,
//! * [`Bsc`] — BTS aggregation, TCH pool with blocking, PCU toward the
//!   SGSN,
//! * [`Vlr`] — visited-network registration, TMSI/MSRN allocation, call
//!   authorization,
//! * [`Hlr`] — home subscriber database with embedded AuC,
//! * [`GsmMsc`] — the classic circuit-switched MSC/GMSC baseline that the
//!   paper's VMSC replaces,
//! * [`GsmSide`] — what both of them are toward the radio network and the
//!   VLR: security relay, paging, GSM 03.09 handover, written once,
//! * [`auth`] — the simulated A3/A8 algorithms.
//!
//! The crate's integration tests drive a complete GSM PLMN end to end:
//! registration, mobile-originated and mobile-terminated calls, release,
//! authentication failure and channel blocking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
mod bsc;
mod bts;
mod hlr;
mod ms;
mod msc;
mod side;
mod vlr;

pub use bsc::{Bsc, BscConfig};
pub use bts::{Bts, BtsConfig, PCH_PAGES_PER_S};
pub use hlr::Hlr;
pub use ms::{MobileStation, MsConfig, MsState};
pub use msc::{GsmMsc, MscConfig};
pub use side::{GsmSide, SideNames, TargetArrival};
pub use vlr::{Vlr, VlrConfig};
