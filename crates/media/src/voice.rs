//! The one voice source and the one voice sink every endpoint talks and
//! listens through: a handset, an H.323 endpoint and a fixed-line phone
//! each keep only their framing (a TCH frame on Um, RTP over IP, trunk
//! voice on ISUP).
//!
//! A talking source ticks every 20 ms. Where the world promises
//! that nothing will change a call's frames for a while
//! ([`Context::train_horizon`] and the source's own
//! [horizon](VoiceSource::set_horizon)), one tick sends every frame due
//! before that promise ends as one message, a *train*, and the next tick
//! comes after the train's last frame. A sink counts a train's frames
//! and their one delay in bulk.

use vgprs_sim::{Context, SimDuration, SimTime, TimerToken};

/// Frames one train may carry: an RTP packet holds at most
/// `u16::MAX / 33` GSM frames, and a horizon is never further ahead.
const MAX_TRAIN: u64 = 1_024;

/// The frames one step of a [`VoiceSource`] sends: `count` consecutive
/// frames from sequence number `seq` on, the first stamped `origin_us`
/// and each next one 20 ms later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frames {
    /// Sequence number of the first frame.
    pub seq: u32,
    /// How many frames: 1, or a train's length.
    pub count: u16,
    /// Origination time of the first frame, in simulated microseconds.
    pub origin_us: u64,
}

/// A talking source's armed tick: an endpoint keeps it with its call,
/// so one at rest pays nothing for it.
#[derive(Debug, Default)]
pub struct Talk(Option<TimerToken>);

impl Talk {
    /// A silent source's tick: none armed.
    pub const IDLE: Talk = Talk(None);

    /// Whether the source talks: its tick is armed.
    pub fn talking(&self) -> bool {
        self.0.is_some()
    }

    /// Starts talking: the first frame goes 20 ms from now. A source
    /// that talks already goes on as it was.
    pub fn start<M>(&mut self, ctx: &mut Context<'_, M>) {
        if self.0.is_none() {
            self.0 = Some(ctx.set_timer(VoiceSource::FRAME_INTERVAL, VoiceSource::TICK));
        }
    }

    /// Stops talking: the armed tick is cancelled.
    pub fn stop<M>(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(t) = self.0.take() {
            ctx.cancel_timer(t);
        }
    }

    /// Arms the tick for the frame after `sent`'s last one.
    pub fn rearm<M>(&mut self, ctx: &mut Context<'_, M>, sent: Frames) {
        let after = VoiceSource::FRAME_INTERVAL * u64::from(sent.count);
        self.0 = Some(ctx.set_timer(after, VoiceSource::TICK));
    }
}

/// An endpoint's voice source: the sequence number of every frame it
/// has sent (a call's first frame continues the last call's numbering)
/// and how far ahead it may send; the tick it talks by is a [`Talk`].
#[derive(Debug, Default)]
pub struct VoiceSource {
    seq: u32,
    /// The last instant, in whole milliseconds, a frame of a train may
    /// be sent at; see [`set_horizon`](Self::set_horizon).
    last_ms: u32,
}

impl VoiceSource {
    /// The timer tag of the tick. An endpoint gives its other timers
    /// other tags.
    pub const TICK: u64 = 1;

    /// Time between two frames of a source.
    pub const FRAME_INTERVAL: SimDuration = SimDuration::from_millis(20);

    /// The frames the source has sent, over every call.
    pub fn frames_sent(&self) -> u32 {
        self.seq
    }

    /// Promises that nothing changes the fate of a frame this source
    /// sends before `until` (a frame that would reach its sink at or
    /// after a change of its call is not sent before `until`). The
    /// driver that knows the call's schedule sets it; until it does,
    /// or once `until` has passed, the source sends frame by frame. Kept
    /// to the millisecond, rounded toward now.
    pub fn set_horizon(&mut self, until: SimTime) {
        let last_us = until.as_micros().saturating_sub(1);
        self.last_ms = u32::try_from(last_us / 1_000).unwrap_or(u32::MAX);
    }

    /// `talk`'s tick fired. Returns the frames to send now — one, or a
    /// train of every frame due before the earlier of the two horizons —
    /// or `None` when the endpoint cannot send (`live` is false): the
    /// source then falls silent. Counts a train and its frames in
    /// `sim.voice.trains` and `sim.voice.train_frames`. Send the
    /// frames, then [`Talk::rearm`].
    pub fn fire<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        talk: &mut Talk,
        live: bool,
    ) -> Option<Frames> {
        talk.0 = None;
        if !live {
            return None;
        }
        let now = ctx.now();
        let own = SimTime::from_micros(u64::from(self.last_ms) * 1_000 + 1);
        let until = ctx.train_horizon().map_or(now, |world| world.min(own));
        let count = if until > now {
            let span_us = until.duration_since(now).as_micros() - 1;
            (span_us / Self::FRAME_INTERVAL.as_micros() + 1).min(MAX_TRAIN) as u16
        } else {
            1
        };
        if count > 1 {
            ctx.count("sim.voice.trains");
            ctx.count_by("sim.voice.train_frames", u64::from(count));
        }
        let seq = self.seq.wrapping_add(1);
        self.seq = self.seq.wrapping_add(u32::from(count));
        Some(Frames {
            seq,
            count,
            origin_us: now.as_micros(),
        })
    }
}

/// The longest a frame takes from its source to its sink on a path with
/// no fault: a horizon set by a change that a frame in flight would see
/// is pulled back by this much, and a sink holds every train to it.
pub const PATH_BOUND: SimDuration = SimDuration::from_millis(50);

/// An endpoint's voice sink: the counter its frames land in and the
/// histogram of their mouth-to-ear delay, both literals of the owner.
#[derive(Clone, Copy, Debug)]
pub struct VoiceSink {
    /// Counter of frames received.
    pub frames: &'static str,
    /// Histogram of each frame's delay, in milliseconds.
    pub delay_ms: &'static str,
}

impl VoiceSink {
    /// Tallies `count` frames whose first was sent at `origin_us` and
    /// arrives now: each frame of a train is counted, and observed at
    /// the path's one delay.
    ///
    /// # Panics
    ///
    /// Panics when a train took longer than [`PATH_BOUND`]: its horizon
    /// did not cover its frames.
    pub fn receive<M>(&self, ctx: &mut Context<'_, M>, origin_us: u64, count: u16) {
        let delay_us = ctx.now().as_micros().saturating_sub(origin_us);
        assert!(
            count == 1 || delay_us < PATH_BOUND.as_micros(),
            "a voice train took {delay_us} us, past the path bound"
        );
        ctx.count_by(self.frames, u64::from(count));
        ctx.observe_n(self.delay_ms, delay_us as f64 / 1000.0, u64::from(count));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_sim::{Interface, Network, Node, NodeId};
    use vgprs_wire::Message;

    /// A node that talks from its start and records every step.
    #[derive(Default)]
    struct Talker {
        voice: VoiceSource,
        talk: Talk,
        sent: Vec<Frames>,
    }

    impl Node<Message> for Talker {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            self.voice.set_horizon(SimTime::from_micros(200_000));
            self.talk.start(ctx);
        }

        fn on_message(
            &mut self,
            _: &mut Context<'_, Message>,
            _: NodeId,
            _: Interface,
            _: Message,
        ) {
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _: TimerToken, tag: u64) {
            assert_eq!(tag, VoiceSource::TICK);
            let live = ctx.now() < SimTime::from_micros(300_000);
            if let Some(frames) = self.voice.fire(ctx, &mut self.talk, live) {
                self.sent.push(frames);
                self.talk.rearm(ctx, frames);
            }
        }
    }

    fn run(horizon: Option<SimTime>) -> Vec<Frames> {
        let mut net = Network::<Message>::new(1);
        let id = net.add_node("talker", Talker::default());
        net.set_train_horizon(horizon);
        net.run_until_quiescent();
        net.node::<Talker>(id).unwrap().sent.clone()
    }

    /// Without a world horizon every step is one frame, 20 ms apart,
    /// numbered on; the source falls silent when it cannot send.
    #[test]
    fn without_a_horizon_every_frame_is_its_own_step() {
        let sent = run(None);
        assert_eq!(sent.len(), 14, "20 ms … 280 ms");
        for (k, f) in sent.iter().enumerate() {
            assert_eq!((f.seq, f.count), (k as u32 + 1, 1));
            assert_eq!(f.origin_us, 20_000 * (k as u64 + 1));
        }
    }

    /// With one, the frames before the nearer horizon ride one train
    /// (20 … 180 ms: nine frames before 200 ms), and the rest go one by
    /// one; the numbering is the same.
    #[test]
    fn a_horizon_sends_the_frames_before_it_as_one_train() {
        let sent = run(Some(SimTime::from_micros(1_000_000)));
        assert_eq!(
            sent[0],
            Frames {
                seq: 1,
                count: 9,
                origin_us: 20_000
            }
        );
        assert_eq!(
            sent[1],
            Frames {
                seq: 10,
                count: 1,
                origin_us: 200_000
            }
        );
        let total: u32 = sent.iter().map(|f| u32::from(f.count)).sum();
        assert_eq!(total, 14);
        assert_eq!(sent.len(), 1 + 5);
    }
}
