//! Receiver-side jitter buffer.
//!
//! Frames arriving over a packet network are re-timed before playout: the
//! buffer trades extra delay for fewer late losses. No experiment replays
//! its frames through the buffer; C1 and the load engine score a fixed
//! 60 ms playout depth through [`crate::EModel::mouth_to_ear`].

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
        assert_eq!(b.late(), 0);
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
    fn empty_buffer_is_lossless() {
        let b = jb();
        assert_eq!((b.accepted(), b.late(), b.duplicates()), (0, 0, 0));
        assert_eq!(b.playout_time(1), None);
    }
}
