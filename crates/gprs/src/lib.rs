//! # vgprs-gprs — the GPRS packet core substrate
//!
//! The two GPRS support nodes of the paper's Figure 1 plus the external
//! packet-data network:
//!
//! * [`Sgsn`] — attach/detach, PDP session management toward the
//!   endpoints on Gb, GTP tunneling toward the GGSN on Gn,
//! * [`Ggsn`] — PDP context anchor: address allocation (dynamic pool +
//!   provisioned static addresses), tunnel switching, Gi routing, and the
//!   network-requested activation path (with packet buffering) that the
//!   TR 22.973 baseline's call termination depends on,
//! * [`IpRouter`] — the PSDN connecting the GGSN with the H.323 zone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contexts;
mod ggsn;
mod router;
mod sgsn;

pub use ggsn::Ggsn;
pub use router::IpRouter;
pub use sgsn::Sgsn;
