//! GSM full-rate vocoder model.
//!
//! The real GSM 06.10 RPE-LTP DSP is replaced by a frame-accurate model
//! (see DESIGN.md's substitution table): what the experiments need is the
//! frame cadence (20 ms), the frame size (260 bits), the codec's lookahead
//! and processing latency, and its E-model equipment impairment — not the
//! audio samples.

use vgprs_sim::SimDuration;

/// Frame-level parameters of a voice codec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vocoder {
    /// Time covered by one frame.
    pub frame_interval: SimDuration,
    /// Encoded bits per frame.
    pub bits_per_frame: u32,
    /// One-way algorithmic + processing delay added by an encode or a
    /// decode pass.
    pub processing_delay: SimDuration,
    /// ITU-T G.113 equipment impairment factor (Ie) for the E-model.
    pub impairment_ie: f64,
    /// Packet-loss robustness factor (Bpl) for the E-model.
    pub loss_robustness_bpl: f64,
}

impl Vocoder {
    /// GSM full rate (GSM 06.10): 20 ms / 260-bit frames, Ie = 20.
    pub fn gsm_full_rate() -> Self {
        Vocoder {
            frame_interval: SimDuration::from_millis(20),
            bits_per_frame: 260,
            processing_delay: SimDuration::from_millis(10),
            impairment_ie: 20.0,
            loss_robustness_bpl: 10.0,
        }
    }

    /// Delay of one tandem transcoding stage (decode + re-encode), as the
    /// VMSC performs between the circuit leg and the RTP leg.
    pub fn transcoding_delay(&self) -> SimDuration {
        self.processing_delay * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gsm_fr_parameters() {
        let v = Vocoder::gsm_full_rate();
        assert_eq!(v.bits_per_frame, 260);
        assert_eq!(v.transcoding_delay(), SimDuration::from_millis(20));
    }
}
