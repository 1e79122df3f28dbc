//! ITU-T G.107 E-model voice-quality scoring (simplified).
//!
//! Quantifies the paper's Section 6 "real-time communication" claim: a
//! voice path is scored from its one-way mouth-to-ear delay, its effective
//! frame loss, and the codec's equipment impairment. The resulting MOS
//! lets experiment C1 compare vGPRS's circuit-switched air interface with
//! the TR 22.973 baseline's contended packet air interface on one scale.

use vgprs_sim::SimDuration;

use crate::vocoder::Vocoder;

/// Default transmission rating with no impairments (G.107).
const R0: f64 = 93.2;

/// The E-model calculator for one codec.
#[derive(Clone, Copy, Debug)]
pub struct EModel {
    ie: f64,
    bpl: f64,
}

impl EModel {
    /// Builds the model from a codec's impairment parameters.
    pub fn for_codec(codec: &Vocoder) -> Self {
        EModel {
            ie: codec.impairment_ie,
            bpl: codec.loss_robustness_bpl,
        }
    }

    /// Delay impairment Id (G.107 simplified form, G.114 alignment):
    /// negligible below ~100 ms, growing sharply past 177.3 ms.
    pub fn delay_impairment(one_way: SimDuration) -> f64 {
        let d = one_way.as_secs_f64() * 1000.0;
        let base = 0.024 * d;
        let knee = if d > 177.3 { 0.11 * (d - 177.3) } else { 0.0 };
        base + knee
    }

    /// Effective equipment impairment under loss (G.107 §7.2):
    /// `Ie_eff = Ie + (95 − Ie) · Ppl / (Ppl + Bpl)`.
    pub fn loss_impairment(&self, loss_ratio: f64) -> f64 {
        let ppl = (loss_ratio.clamp(0.0, 1.0)) * 100.0;
        self.ie + (95.0 - self.ie) * ppl / (ppl + self.bpl)
    }

    /// The transmission rating R for a path.
    pub fn rating(&self, one_way_delay: SimDuration, loss_ratio: f64) -> f64 {
        (R0 - Self::delay_impairment(one_way_delay) - self.loss_impairment(loss_ratio))
            .clamp(0.0, 100.0)
    }

    /// Maps an R rating to a mean opinion score (G.107 Annex B).
    pub fn mos_from_rating(r: f64) -> f64 {
        if r <= 0.0 {
            return 1.0;
        }
        if r >= 100.0 {
            return 4.5;
        }
        1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    }

    /// Convenience: MOS for a path.
    pub fn mos(&self, one_way_delay: SimDuration, loss_ratio: f64) -> f64 {
        Self::mos_from_rating(self.rating(one_way_delay, loss_ratio))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gsm() -> EModel {
        EModel::for_codec(&Vocoder::gsm_full_rate())
    }

    #[test]
    fn perfect_path_scores_well() {
        let mos = gsm().mos(SimDuration::from_millis(20), 0.0);
        assert!(mos > 3.5, "clean GSM call should be good: {mos}");
    }

    #[test]
    fn delay_monotonically_hurts() {
        let m = gsm();
        let a = m.mos(SimDuration::from_millis(50), 0.0);
        let b = m.mos(SimDuration::from_millis(200), 0.0);
        let c = m.mos(SimDuration::from_millis(400), 0.0);
        assert!(a > b && b > c, "{a} > {b} > {c} expected");
    }

    #[test]
    fn loss_monotonically_hurts() {
        let m = gsm();
        let a = m.mos(SimDuration::from_millis(50), 0.0);
        let b = m.mos(SimDuration::from_millis(50), 0.05);
        let c = m.mos(SimDuration::from_millis(50), 0.20);
        assert!(a > b && b > c, "{a} > {b} > {c} expected");
    }

    #[test]
    fn knee_at_g114_threshold() {
        // Id grows faster past 177.3 ms.
        let below = EModel::delay_impairment(SimDuration::from_millis(170));
        let above = EModel::delay_impairment(SimDuration::from_millis(190));
        let slope_below = below - EModel::delay_impairment(SimDuration::from_millis(150));
        let slope_above = above - below;
        assert!(slope_above > slope_below);
    }

    #[test]
    fn mos_bounds() {
        assert_eq!(EModel::mos_from_rating(-5.0), 1.0);
        assert_eq!(EModel::mos_from_rating(150.0), 4.5);
        let mid = EModel::mos_from_rating(70.0);
        assert!((1.0..=4.5).contains(&mid));
    }

    #[test]
    fn g711_better_than_gsm_fr() {
        // G.711 PCM: no equipment impairment, Bpl 4.3 (ITU-T G.113).
        let g711 = EModel::for_codec(&Vocoder {
            impairment_ie: 0.0,
            loss_robustness_bpl: 4.3,
            ..Vocoder::gsm_full_rate()
        });
        let d = SimDuration::from_millis(50);
        assert!(g711.mos(d, 0.0) > gsm().mos(d, 0.0));
    }

    #[test]
    fn total_loss_is_unusable() {
        let mos = gsm().mos(SimDuration::from_millis(50), 1.0);
        assert!(mos < 2.0, "{mos}");
    }
}
