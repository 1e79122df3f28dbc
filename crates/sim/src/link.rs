//! Point-to-point links with latency, jitter, loss and bandwidth.


use crate::interface::Interface;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Transmission quality parameters of a [`Link`].
///
/// # Examples
///
/// ```rust
/// use vgprs_sim::{LinkQuality, SimDuration};
/// let q = LinkQuality::new(SimDuration::from_millis(10))
///     .with_jitter(SimDuration::from_millis(2))
///     .with_loss(0.01)
///     .with_bandwidth_bps(2_048_000);
/// assert_eq!(q.latency, SimDuration::from_millis(10));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkQuality {
    /// Fixed one-way propagation + processing delay.
    pub latency: SimDuration,
    /// Maximum additional uniformly distributed delay.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
    /// Serialization rate in bits per second; `None` means infinite.
    pub bandwidth_bps: Option<u64>,
}

impl LinkQuality {
    /// A link with the given fixed latency, no jitter, no loss and
    /// unlimited bandwidth.
    pub fn new(latency: SimDuration) -> Self {
        LinkQuality {
            latency,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            bandwidth_bps: None,
        }
    }

    /// Adds uniformly distributed jitter up to `jitter`.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the loss probability, clamped to `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Sets the serialization bandwidth in bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn with_bandwidth_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.bandwidth_bps = Some(bps);
        self
    }

    /// Samples the total transfer delay for a message of `size` bytes,
    /// and whether it is lost. Reliable messages are never lost (their
    /// transport retransmits; the abstraction keeps them delivered).
    pub(crate) fn sample(
        &self,
        size: usize,
        reliable: bool,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        if !reliable && self.loss > 0.0 && rng.chance(self.loss) {
            return None;
        }
        let mut delay = self.latency;
        if !self.jitter.is_zero() {
            delay += SimDuration::from_micros(rng.range(0, self.jitter.as_micros() + 1));
        }
        if let Some(bps) = self.bandwidth_bps {
            let bits = (size as u64) * 8;
            delay += SimDuration::from_micros(bits.saturating_mul(1_000_000) / bps);
        }
        Some(delay)
    }
}

impl Default for LinkQuality {
    /// A 1 ms ideal link.
    fn default() -> Self {
        LinkQuality::new(SimDuration::from_millis(1))
    }
}

/// A provisioned link: the reference point it models and its quality,
/// the same both ways. [`Network::link_between`](crate::Network::link_between)
/// returns one by value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Reference point this link models.
    pub interface: Interface,
    /// Transmission quality, in either direction.
    pub quality: LinkQuality,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_no_impairments() {
        let q = LinkQuality::new(SimDuration::from_millis(3));
        let mut rng = SimRng::new(1);
        assert_eq!(q.sample(100, false, &mut rng), Some(SimDuration::from_millis(3)));
    }

    #[test]
    fn sample_bandwidth_adds_serialization() {
        let q = LinkQuality::new(SimDuration::ZERO).with_bandwidth_bps(8_000);
        let mut rng = SimRng::new(1);
        // 100 bytes = 800 bits at 8000 bps = 0.1 s
        assert_eq!(q.sample(100, false, &mut rng), Some(SimDuration::from_millis(100)));
    }

    #[test]
    fn sample_jitter_bounded() {
        let q = LinkQuality::new(SimDuration::from_millis(5))
            .with_jitter(SimDuration::from_millis(2));
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            let d = q.sample(10, false, &mut rng).unwrap();
            assert!(d >= SimDuration::from_millis(5));
            assert!(d <= SimDuration::from_millis(7));
        }
    }

    #[test]
    fn sample_total_loss() {
        let q = LinkQuality::new(SimDuration::ZERO).with_loss(1.0);
        let mut rng = SimRng::new(1);
        assert_eq!(q.sample(10, false, &mut rng), None);
    }

    #[test]
    fn reliable_messages_survive_total_loss() {
        let q = LinkQuality::new(SimDuration::from_millis(2)).with_loss(1.0);
        let mut rng = SimRng::new(1);
        assert_eq!(
            q.sample(10, true, &mut rng),
            Some(SimDuration::from_millis(2)),
            "reliable transport retransmits through loss"
        );
    }

    #[test]
    fn loss_is_clamped() {
        let q = LinkQuality::new(SimDuration::ZERO).with_loss(9.0);
        assert_eq!(q.loss, 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkQuality::new(SimDuration::ZERO).with_bandwidth_bps(0);
    }
}
