//! # vgprs-wire — identities and protocol PDUs
//!
//! Everything the vGPRS reproduction puts on a wire lives here:
//!
//! * typed identities ([`Imsi`], [`Msisdn`], [`Tmsi`], [`Lai`], [`Teid`],
//!   [`Nsapi`], [`Cic`], …),
//! * GSM 04.08 signaling content ([`Dtap`]) shared by the Um/Abis/A
//!   interfaces,
//! * MAP operations ([`MapMessage`]) for the SS7 interfaces,
//! * GPRS mobility/session management ([`GmmMessage`]) and GTP
//!   ([`GtpMessage`], with an exact GSM 09.60 v0 header codec),
//! * H.225 RAS ([`RasMessage`]) and Q.931 call signaling
//!   ([`Q931Message`], with a TLV codec),
//! * ISUP trunk signaling ([`IsupMessage`], with a codec),
//! * RTP media packets ([`RtpPacket`], with the 12-byte header codec),
//! * the [`Message`] union that `vgprs_sim::Network` carries.
//!
//! Labels reproduce the paper's message names (`Um_Location_Update_Request`,
//! `MAP_Insert_Subs_Data`, `RAS_ARQ`, `Q931_Setup`, …) so recorded traces
//! can be compared one-to-one with Figures 4–6 of the paper.
//!
//! ## Example
//!
//! ```rust
//! use vgprs_wire::{Dtap, Message, Msisdn, CallId};
//!
//! let called: Msisdn = "85291234567".parse()?;
//! let setup = Message::um(Dtap::Setup { call: CallId(1), called });
//! assert_eq!(setup.label_str(), "Um_Setup");
//! # Ok::<(), vgprs_wire::ParseIdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cause;
mod command;
mod dtap;
mod gmm;
mod gtp;
mod ids;
mod ip;
mod isup;
mod map;
mod message;
mod q931;
mod qos;
mod ras;
mod rtp;
mod subscriber;

pub use cause::Cause;
pub use command::{Command, ANSWER_DELAY};
pub use dtap::Dtap;
pub use gmm::GmmMessage;
pub use gtp::{DecodeGtpError, GtpHeader, GtpMessage, GtpMsgType};
pub use ids::{
    AuthTriplet, CallId, CellId, Cic, ConnRef, Crv, Imsi, Ipv4Addr, Issued, Lai, MsIdentity, Msisdn,
    NonZeroId, Nsapi, ParseIdError, PointCode, Teid, Tmsi, TransportAddr,
};
pub use ip::{IpPacket, IpPayload};
pub use isup::{DecodeIsupError, IsupKind, IsupMessage};
pub use map::{DecodeMapError, MapMessage};
pub use message::Message;
pub use q931::{DecodeQ931Error, Q931Kind, Q931Message};
pub use qos::{DelayClass, PeakThroughputClass, Precedence, QosProfile, ReliabilityClass};
pub use ras::RasMessage;
pub use rtp::{DecodeRtpError, RtpPacket, GSM_FRAME_BYTES, PAYLOAD_TYPE_GSM};
pub use subscriber::SubscriberProfile;
