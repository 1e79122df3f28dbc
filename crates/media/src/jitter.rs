//! Receiver-side jitter buffer.
//!
//! Frames arriving over a packet network are re-timed before playout: the
//! buffer trades extra delay for fewer late losses. The C1 experiment runs
//! both systems' frame streams through the same buffer so their MOS
//! scores are directly comparable.

use vgprs_sim::{IdSet, SimDuration, SimTime};

/// What happened to a frame offered to the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlayoutOutcome {
    /// The frame arrived in time and will play at its slot.
    OnTime,
    /// The frame arrived after its playout slot and is discarded.
    Late,
    /// A frame with this sequence number was already accepted.
    Duplicate,
}

/// A fixed-playout-point jitter buffer.
///
/// The playout clock starts when the first frame arrives: frame `s` plays
/// at `first_arrival + playout_delay + (s - first_seq) × frame_interval`.
///
/// # Examples
///
/// ```rust
/// use vgprs_media::JitterBuffer;
/// use vgprs_sim::{SimDuration, SimTime};
///
/// let mut jb = JitterBuffer::new(SimDuration::from_millis(60), SimDuration::from_millis(20));
/// jb.offer(1, SimTime::from_micros(0));
/// jb.offer(2, SimTime::from_micros(15_000));
/// assert_eq!(jb.accepted(), 2);
/// ```
#[derive(Debug)]
pub struct JitterBuffer {
    playout_delay: SimDuration,
    frame_interval: SimDuration,
    first: Option<(u32, SimTime)>,
    highest_seq: u32,
    accepted: u64,
    late: u64,
    duplicates: u64,
    seen: IdSet<u32>,
}

impl JitterBuffer {
    /// Creates a buffer with the given playout delay and frame cadence.
    pub fn new(playout_delay: SimDuration, frame_interval: SimDuration) -> Self {
        JitterBuffer {
            playout_delay,
            frame_interval,
            first: None,
            highest_seq: 0,
            accepted: 0,
            late: 0,
            duplicates: 0,
            seen: IdSet::default(),
        }
    }

    /// The playout deadline for sequence number `seq`, once the clock has
    /// started. `None` before the first frame.
    pub fn playout_time(&self, seq: u32) -> Option<SimTime> {
        let (first_seq, first_arrival) = self.first?;
        let slots = seq.saturating_sub(first_seq) as u64;
        Some(first_arrival + self.playout_delay + self.frame_interval * slots)
    }

    /// Offers a frame to the buffer.
    pub fn offer(&mut self, seq: u32, arrival: SimTime) -> PlayoutOutcome {
        if self.first.is_none() {
            self.first = Some((seq, arrival));
        }
        if !self.seen.insert(seq) {
            self.duplicates += 1;
            return PlayoutOutcome::Duplicate;
        }
        self.highest_seq = self.highest_seq.max(seq);
        let deadline = self.playout_time(seq).expect("clock started above");
        if arrival > deadline {
            self.late += 1;
            PlayoutOutcome::Late
        } else {
            self.accepted += 1;
            PlayoutOutcome::OnTime
        }
    }

    /// Frames accepted for playout.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Frames discarded as late.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Duplicate frames discarded.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Frames that never arrived, inferred from sequence gaps.
    pub fn missing(&self) -> u64 {
        let Some((first_seq, _)) = self.first else {
            return 0;
        };
        let expected = u64::from(self.highest_seq - first_seq) + 1;
        expected.saturating_sub(self.accepted + self.late)
    }

    /// Effective loss ratio experienced by the listener: late frames and
    /// never-arrived frames both play as gaps.
    pub fn effective_loss(&self) -> f64 {
        let Some((first_seq, _)) = self.first else {
            return 0.0;
        };
        let expected = (u64::from(self.highest_seq - first_seq) + 1) as f64;
        if expected == 0.0 {
            return 0.0;
        }
        (self.late + self.missing()) as f64 / expected
    }

    /// The buffering delay added to every on-time frame.
    pub fn playout_delay(&self) -> SimDuration {
        self.playout_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jb() -> JitterBuffer {
        JitterBuffer::new(SimDuration::from_millis(60), SimDuration::from_millis(20))
    }

    #[test]
    fn on_time_frames_accepted() {
        let mut b = jb();
        // frame 1 at t=0 → plays at 60 ms; frame 2 → 80 ms; frame 3 → 100 ms
        assert_eq!(b.offer(1, SimTime::from_micros(0)), PlayoutOutcome::OnTime);
        assert_eq!(
            b.offer(2, SimTime::from_micros(70_000)),
            PlayoutOutcome::OnTime
        );
        assert_eq!(
            b.offer(3, SimTime::from_micros(99_000)),
            PlayoutOutcome::OnTime
        );
        assert_eq!(b.accepted(), 3);
        assert_eq!(b.effective_loss(), 0.0);
    }

    #[test]
    fn late_frame_discarded() {
        let mut b = jb();
        b.offer(1, SimTime::from_micros(0));
        assert_eq!(
            b.offer(2, SimTime::from_micros(81_000)),
            PlayoutOutcome::Late
        );
        assert_eq!(b.late(), 1);
        assert!(b.effective_loss() > 0.0);
    }

    #[test]
    fn duplicates_rejected() {
        let mut b = jb();
        b.offer(1, SimTime::from_micros(0));
        assert_eq!(
            b.offer(1, SimTime::from_micros(1_000)),
            PlayoutOutcome::Duplicate
        );
        assert_eq!(b.duplicates(), 1);
        assert_eq!(b.accepted(), 1);
    }

    #[test]
    fn gaps_counted_as_missing() {
        let mut b = jb();
        b.offer(1, SimTime::from_micros(0));
        b.offer(5, SimTime::from_micros(80_000)); // plays at 60+4*20=140ms, on time
        assert_eq!(b.accepted(), 2);
        assert_eq!(b.missing(), 3); // frames 2,3,4
        assert!((b.effective_loss() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_buffer_is_lossless() {
        let b = jb();
        assert_eq!(b.missing(), 0);
        assert_eq!(b.effective_loss(), 0.0);
        assert_eq!(b.playout_time(1), None);
    }
}
