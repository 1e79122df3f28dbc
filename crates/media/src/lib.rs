//! # vgprs-media — the voice media plane
//!
//! Frame-level voice modeling for the reproduction's experiments:
//!
//! * [`Vocoder`] — GSM-FR frame parameters (cadence, size,
//!   processing delay, E-model impairments),
//! * [`JitterBuffer`] — receiver-side playout buffering with late-frame
//!   accounting,
//! * [`EModel`] — ITU-T G.107 transmission rating and MOS,
//! * [`StreamAnalyzer`] — the one instrument every voice experiment
//!   scores through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod emodel;
mod jitter;
mod vocoder;

pub use analyzer::{FrameRecord, StreamAnalyzer, VoiceScore};
pub use emodel::EModel;
pub use jitter::{JitterBuffer, PlayoutOutcome};
pub use vocoder::Vocoder;
