//! Fixed-line telephone endpoints.

use vgprs_media::{Talk, VoiceSink, VoiceSource};
use vgprs_sim::{Context, Interface, Node, NodeId, SimTime, TimerToken};
use vgprs_wire::{
    CallId, Cause, Cic, Command, IsupKind, IsupMessage, Message, Msisdn, ANSWER_DELAY,
};

/// Timer tag: answer the ringing call (the voice tick is
/// [`VoiceSource::TICK`]).
const TIMER_ANSWER: u64 = 2;

/// Where a phone tallies the frames it hears.
const SINK: VoiceSink = VoiceSink {
    frames: "phone.voice_frames_received",
    delay_ms: "phone.voice_e2e_ms",
};

/// Observable state of a phone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhoneState {
    /// On hook.
    Idle,
    /// Dialed, waiting for the network.
    Calling,
    /// Hearing ringback.
    Ringback,
    /// Ringing (incoming).
    Ringing,
    /// In conversation.
    Active,
}

/// A plain telephone attached to a [`PstnSwitch`](crate::PstnSwitch).
///
/// Speaks a subscriber-line simplification of ISUP directly: the paper's
/// scenarios only need the phone to originate, ring, answer and clear.
/// It keeps no tally of a `Stats` counter: its frames and connected
/// calls are `phone.voice_frames_received` and `phone.calls_connected`.
#[derive(Debug)]
pub struct PstnPhone {
    msisdn: Msisdn,
    switch: NodeId,
    state: PhoneState,
    call: Option<CallId>,
    cic: Option<Cic>,
    voice: VoiceSource,
    talk: Talk,
    dialed_at: Option<SimTime>,
}

impl PstnPhone {
    /// Creates an idle phone attached to `switch`.
    pub fn new(msisdn: Msisdn, switch: NodeId) -> Self {
        PstnPhone {
            msisdn,
            switch,
            state: PhoneState::Idle,
            call: None,
            cic: None,
            voice: VoiceSource::default(),
            talk: Talk::default(),
            dialed_at: None,
        }
    }

    /// The phone's number.
    pub fn msisdn(&self) -> Msisdn {
        self.msisdn
    }

    /// Current state.
    pub fn state(&self) -> PhoneState {
        self.state
    }

    fn send_isup(&self, ctx: &mut Context<'_, Message>, kind: IsupKind) {
        if let (Some(call), Some(cic)) = (self.call, self.cic) {
            ctx.send(
                self.switch,
                Message::Isup(IsupMessage { cic, call, kind }),
            );
        }
    }

    fn enter_active(&mut self, ctx: &mut Context<'_, Message>) {
        self.state = PhoneState::Active;
        ctx.count("phone.calls_connected");
        if let Some(at) = self.dialed_at.take() {
            ctx.observe_duration("phone.call_setup_ms", ctx.now().duration_since(at));
        }
        self.talk.start(ctx);
    }

    fn clear(&mut self, ctx: &mut Context<'_, Message>) {
        self.talk.stop(ctx);
        self.state = PhoneState::Idle;
        self.call = None;
        self.cic = None;
    }
}

impl Node<Message> for PstnPhone {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Internal, Message::Cmd(cmd)) => match cmd {
                Command::Dial { call, called } => {
                    if self.state != PhoneState::Idle {
                        return;
                    }
                    self.state = PhoneState::Calling;
                    self.call = Some(call);
                    self.cic = Some(Cic(1));
                    self.dialed_at = Some(ctx.now());
                    ctx.count("phone.calls_dialed");
                    self.send_isup(
                        ctx,
                        IsupKind::Iam {
                            called,
                            calling: Some(self.msisdn),
                        },
                    );
                }
                Command::Hangup
                    if self.state != PhoneState::Idle => {
                        self.send_isup(
                            ctx,
                            IsupKind::Rel {
                                cause: Cause::NormalClearing,
                            },
                        );
                        self.talk.stop(ctx);
                    }
                Command::StartTalking
                    if self.state == PhoneState::Active => {
                        self.talk.start(ctx);
                    }
                Command::StopTalking => self.talk.stop(ctx),
                _ => {}
            },
            (Interface::Isup, Message::Isup(IsupMessage { cic, call, kind })) => match kind {
                IsupKind::Iam { .. } => {
                    if self.state != PhoneState::Idle {
                        ctx.send(
                            self.switch,
                            Message::Isup(IsupMessage {
                                cic,
                                call,
                                kind: IsupKind::Rel {
                                    cause: Cause::UserBusy,
                                },
                            }),
                        );
                        return;
                    }
                    self.state = PhoneState::Ringing;
                    self.call = Some(call);
                    self.cic = Some(cic);
                    ctx.count("phone.ringing");
                    self.send_isup(ctx, IsupKind::Acm);
                    ctx.set_timer(ANSWER_DELAY, TIMER_ANSWER);
                }
                IsupKind::Acm => {
                    if self.state == PhoneState::Calling && self.call == Some(call) {
                        self.state = PhoneState::Ringback;
                        if let Some(at) = self.dialed_at {
                            ctx.observe_duration(
                                "phone.post_dial_delay_ms",
                                ctx.now().duration_since(at),
                            );
                        }
                    }
                }
                IsupKind::Anm => {
                    if self.call == Some(call)
                        && matches!(self.state, PhoneState::Calling | PhoneState::Ringback)
                    {
                        self.enter_active(ctx);
                    }
                }
                IsupKind::Rel { .. } => {
                    self.send_isup(ctx, IsupKind::Rlc);
                    self.clear(ctx);
                }
                IsupKind::Rlc => self.clear(ctx),
            },
            (
                Interface::Isup,
                Message::TrunkVoice {
                    call, origin_us, ..
                },
            ) => {
                if self.call == Some(call) {
                    SINK.receive(ctx, origin_us, 1);
                }
            }
            _ => ctx.count("phone.unexpected_message"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _token: TimerToken, tag: u64) {
        match tag {
            TIMER_ANSWER
                if self.state == PhoneState::Ringing => {
                    self.send_isup(ctx, IsupKind::Anm);
                    self.enter_active(ctx);
                }
            VoiceSource::TICK => {
                // A phone is never promised a horizon: trunk voice is
                // one frame per message.
                let call = self.call.filter(|_| self.state == PhoneState::Active);
                let Some(sent) = self.voice.fire(ctx, &mut self.talk, call.is_some()) else {
                    return;
                };
                let voice = Message::TrunkVoice {
                    cic: self.cic.unwrap_or(Cic(0)),
                    call: call.expect("a live source has a call"),
                    seq: sent.seq,
                    origin_us: sent.origin_us,
                };
                ctx.send(self.switch, voice);
                self.talk.rearm(ctx, sent);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::TrunkClass;
    use crate::switch::PstnSwitch;
    use vgprs_sim::{Network, SimDuration};

    fn msisdn(s: &str) -> Msisdn {
        Msisdn::parse(s).unwrap()
    }

    /// Two phones on one switch: a complete POTS call.
    fn two_phone_rig() -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let sw = net.add_node("switch", PstnSwitch::new("co"));
        let a = net.add_node("alice", PstnPhone::new(msisdn("88620001111"), sw));
        let b = net.add_node("bob", PstnPhone::new(msisdn("88620002222"), sw));
        net.connect(a, sw, Interface::Isup, SimDuration::from_millis(2));
        net.connect(b, sw, Interface::Isup, SimDuration::from_millis(2));
        {
            let s = net.node_mut::<PstnSwitch>(sw).unwrap();
            s.add_route("88620001", a, TrunkClass::Local);
            s.add_route("88620002", b, TrunkClass::Local);
        }
        (net, sw, a, b)
    }

    #[test]
    fn pots_call_connects_and_talks() {
        let (mut net, _sw, a, b) = two_phone_rig();
        net.inject(
            SimDuration::ZERO,
            a,
            Message::Cmd(Command::Dial {
                call: CallId(1),
                called: msisdn("88620002222"),
            }),
        );
        net.run_until(SimTime::from_micros(5_000_000));
        let alice = net.node::<PstnPhone>(a).unwrap();
        let bob = net.node::<PstnPhone>(b).unwrap();
        assert_eq!(alice.state(), PhoneState::Active);
        assert_eq!(bob.state(), PhoneState::Active);
        assert_eq!(net.stats().counter("phone.calls_connected"), 2);
        // One phone hears no more than the other sends, so each heard at
        // least the total less what it sent itself.
        let heard = net.stats().counter("phone.voice_frames_received");
        for (who, sent) in [("alice", alice.voice.frames_sent()), ("bob", bob.voice.frames_sent())] {
            let own = heard.saturating_sub(u64::from(sent));
            assert!(own > 50, "{who} heard {own} of {heard}");
        }
        // ringback observed before answer
        assert!(net.stats().histogram("phone.post_dial_delay_ms").is_some());
    }

    #[test]
    fn hangup_tears_down_both_ends() {
        let (mut net, sw, a, b) = two_phone_rig();
        net.inject(
            SimDuration::ZERO,
            a,
            Message::Cmd(Command::Dial {
                call: CallId(1),
                called: msisdn("88620002222"),
            }),
        );
        net.run_until(SimTime::from_micros(4_000_000));
        net.inject(SimDuration::ZERO, a, Message::Cmd(Command::Hangup));
        net.run_until_quiescent();
        assert_eq!(net.node::<PstnPhone>(a).unwrap().state(), PhoneState::Idle);
        assert_eq!(net.node::<PstnPhone>(b).unwrap().state(), PhoneState::Idle);
        assert_eq!(net.node::<PstnSwitch>(sw).unwrap().active_calls(), 0);
    }

    #[test]
    fn busy_phone_rejects_second_call() {
        let (mut net, _sw, a, b) = two_phone_rig();
        net.inject(
            SimDuration::ZERO,
            a,
            Message::Cmd(Command::Dial {
                call: CallId(1),
                called: msisdn("88620002222"),
            }),
        );
        net.run_until(SimTime::from_micros(5_000_000));
        // third phone calls bob, who is busy
        let sw = net.node::<PstnPhone>(a).unwrap().switch;
        let c = net.add_node("carol", PstnPhone::new(msisdn("88620003333"), sw));
        net.connect(c, sw, Interface::Isup, SimDuration::from_millis(2));
        net.inject(
            SimDuration::ZERO,
            c,
            Message::Cmd(Command::Dial {
                call: CallId(2),
                called: msisdn("88620002222"),
            }),
        );
        net.run_until(SimTime::from_micros(6_000_000));
        assert_eq!(net.node::<PstnPhone>(c).unwrap().state(), PhoneState::Idle);
        let _ = b;
    }
}
