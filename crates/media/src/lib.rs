//! # vgprs-media — the voice media plane
//!
//! Frame-level voice modeling for the reproduction's experiments:
//!
//! * [`Vocoder`] — GSM-FR frame parameters (cadence, size, E-model
//!   impairments),
//! * [`EModel`] — ITU-T G.107 transmission rating and MOS, and the one
//!   mouth-to-ear rule ([`EModel::mouth_to_ear`]) that C1 and the load
//!   engine's MOS both score through,
//! * [`JitterBuffer`] — a receiver-side playout buffer with late-frame
//!   accounting. No experiment scores through it: the scored paths
//!   assume its fixed 60 ms playout depth instead,
//! * [`VoiceSource`] and [`VoiceSink`] — the 20 ms voice source and the
//!   receive tally every endpoint (handset, H.323 endpoint, phone)
//!   talks and listens through, voice trains included.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emodel;
mod jitter;
mod vocoder;
mod voice;

pub use emodel::EModel;
pub use jitter::{JitterBuffer, PlayoutOutcome};
pub use vocoder::Vocoder;
pub use voice::{Frames, Talk, VoiceSink, VoiceSource, PATH_BOUND};
