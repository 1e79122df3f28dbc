//! A PSTN switch: longest-prefix ISUP routing with trunk accounting.

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId};
use vgprs_wire::{CallId, Cause, Cic, IsupKind, IsupMessage, Message, Msisdn};

use crate::accounting::{Ledger, TrunkClass};

/// One routing-table entry.
#[derive(Clone, Debug)]
pub struct Route {
    /// Digit prefix this route matches.
    pub prefix: String,
    /// Next hop (another switch, an MSC, a gateway, or a phone).
    pub next_hop: NodeId,
    /// Tariff class of the trunk group toward that hop.
    pub class: TrunkClass,
}

/// The two trunk legs of a transit call.
#[derive(Debug)]
struct CallLegs {
    leg_in: (NodeId, Cic),
    leg_out: Option<(NodeId, Cic)>,
    called: Msisdn,
    calling: Option<Msisdn>,
    answered: bool,
    /// Next hops already attempted (crankback / alternate routing).
    tried: Vec<NodeId>,
}

impl CallLegs {
    /// The leg opposite to the one identified by `(from, cic)`, if that
    /// pair is one of this call's legs.
    fn opposite(&self, from: NodeId, cic: Cic) -> Option<(NodeId, Cic)> {
        if self.leg_in == (from, cic) {
            self.leg_out
        } else if self.leg_out == Some((from, cic)) {
            Some(self.leg_in)
        } else {
            None
        }
    }
}

/// A circuit-switched telephone exchange.
///
/// Routes IAMs by longest matching digit prefix, relays the rest of the
/// ISUP dialogue and the bearer frames between the two legs, and records
/// every outgoing trunk seizure in its [`Ledger`] — the data source for
/// the tromboning experiments (Figures 7–8).
#[derive(Debug)]
pub struct PstnSwitch {
    name: String,
    routes: Vec<Route>,
    calls: IdMap<CallId, CallLegs>,
    /// Both legs of every call, for exact (node, circuit) resolution —
    /// a call may transit this switch more than once (looping routes).
    leg_index: IdMap<(NodeId, Cic), CallId>,
    ledger: Ledger,
    next_cic: u16,
}

impl PstnSwitch {
    /// Creates a switch with no routes.
    pub fn new(name: impl Into<String>) -> Self {
        PstnSwitch {
            name: name.into(),
            routes: Vec::new(),
            calls: IdMap::default(),
            leg_index: IdMap::default(),
            ledger: Ledger::new(),
            next_cic: 1000,
        }
    }

    /// The switch's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a route. Longest prefix wins; ties resolve to the earliest
    /// entry.
    pub fn add_route(&mut self, prefix: impl Into<String>, next_hop: NodeId, class: TrunkClass) {
        self.routes.push(Route {
            prefix: prefix.into(),
            next_hop,
            class,
        });
    }

    /// The accounting ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Calls currently transiting this switch.
    pub fn active_calls(&self) -> usize {
        self.calls.len()
    }

    /// Candidate routes for `called`, best (longest prefix) first,
    /// excluding already-tried next hops.
    fn candidates(&self, called: &Msisdn, tried: &[NodeId]) -> Vec<Route> {
        let digits = called.digits();
        let mut matching: Vec<Route> = self
            .routes
            .iter()
            .filter(|r| digits.starts_with(&r.prefix) && !tried.contains(&r.next_hop))
            .cloned()
            .collect();
        matching.sort_by_key(|r| std::cmp::Reverse(r.prefix.len()));
        matching
    }

    fn alloc_cic(&mut self) -> Cic {
        self.next_cic += 1;
        Cic(self.next_cic)
    }

    /// Resolves a message arriving on circuit `(from, cic)` to its call
    /// and the opposite leg.
    fn resolve(&self, from: NodeId, cic: Cic) -> Option<(CallId, Option<(NodeId, Cic)>)> {
        let call = *self.leg_index.get(&(from, cic))?;
        let legs = self.calls.get(&call)?;
        Some((call, legs.opposite(from, cic)))
    }

    /// Seizes the next untried candidate route for the call, if any.
    fn try_next_route(&mut self, ctx: &mut Context<'_, Message>, call: CallId) -> bool {
        let Some((called, calling, tried)) = self
            .calls
            .get(&call)
            .map(|l| (l.called, l.calling, l.tried.clone()))
        else {
            return false;
        };
        let Some(route) = self.candidates(&called, &tried).into_iter().next() else {
            return false;
        };
        let out_cic = self.alloc_cic();
        if let Some(legs) = self.calls.get_mut(&call) {
            legs.leg_out = Some((route.next_hop, out_cic));
            legs.tried.push(route.next_hop);
        }
        self.leg_index.insert((route.next_hop, out_cic), call);
        self.ledger.seize(call, route.class, ctx.now());
        ctx.count(route.class.counter_name());
        ctx.count("pstn.calls_routed");
        ctx.send(
            route.next_hop,
            Message::Isup(IsupMessage {
                cic: out_cic,
                call,
                kind: IsupKind::Iam { called, calling },
            }),
        );
        true
    }

    fn handle_isup(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: IsupMessage) {
        let IsupMessage { cic, call, kind } = msg;
        match kind {
            IsupKind::Iam { called, calling } => {
                self.calls.insert(
                    call,
                    CallLegs {
                        leg_in: (from, cic),
                        leg_out: None,
                        called,
                        calling,
                        answered: false,
                        tried: Vec::new(),
                    },
                );
                self.leg_index.insert((from, cic), call);
                if !self.try_next_route(ctx, call) {
                    ctx.count("pstn.unroutable");
                    self.calls.remove(&call);
                    self.leg_index.remove(&(from, cic));
                    ctx.send(
                        from,
                        Message::Isup(IsupMessage {
                            cic,
                            call,
                            kind: IsupKind::Rel {
                                cause: Cause::NoRouteToDestination,
                            },
                        }),
                    );
                }
            }
            IsupKind::Acm | IsupKind::Anm => {
                let Some((owning_call, other)) = self.resolve(from, cic) else {
                    ctx.count("pstn.unknown_circuit");
                    return;
                };
                if matches!(kind, IsupKind::Anm) {
                    if let Some(legs) = self.calls.get_mut(&owning_call) {
                        legs.answered = true;
                    }
                }
                if let Some((peer, peer_cic)) = other {
                    ctx.send(
                        peer,
                        Message::Isup(IsupMessage {
                            cic: peer_cic,
                            call,
                            kind,
                        }),
                    );
                }
            }
            IsupKind::Rel { cause } => {
                ctx.send(
                    from,
                    Message::Isup(IsupMessage {
                        cic,
                        call,
                        kind: IsupKind::Rlc,
                    }),
                );
                let Some((owning_call, other)) = self.resolve(from, cic) else {
                    ctx.count("pstn.unknown_circuit");
                    return;
                };
                // Crankback: the preferred route refused an unanswered call
                // with "no route" — try the next-best route instead of
                // clearing (this is how the Figure 8 gateway falls back to
                // the international PSTN when the gatekeeper misses).
                let is_out_leg = self
                    .calls
                    .get(&owning_call)
                    .and_then(|l| l.leg_out)
                    .map(|(peer, c)| peer == from && c == cic)
                    .unwrap_or(false);
                let unanswered = self
                    .calls
                    .get(&owning_call)
                    .map(|l| !l.answered)
                    .unwrap_or(false);
                if is_out_leg && unanswered && cause == Cause::NoRouteToDestination {
                    self.leg_index.remove(&(from, cic));
                    self.ledger.release(owning_call, ctx.now());
                    if self.try_next_route(ctx, owning_call) {
                        ctx.count("pstn.crankback_reroutes");
                        return;
                    }
                }
                if let Some((peer, peer_cic)) = other {
                    ctx.send(
                        peer,
                        Message::Isup(IsupMessage {
                            cic: peer_cic,
                            call,
                            kind: IsupKind::Rel { cause },
                        }),
                    );
                }
                self.ledger.release(owning_call, ctx.now());
                if let Some(legs) = self.calls.remove(&owning_call) {
                    self.leg_index.remove(&legs.leg_in);
                    if let Some(out) = legs.leg_out {
                        self.leg_index.remove(&out);
                    }
                }
            }
            IsupKind::Rlc => {}
        }
    }
}

impl Node<Message> for PstnSwitch {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Isup, Message::Isup(m)) => self.handle_isup(ctx, from, m),
            (
                Interface::Isup,
                Message::TrunkVoice {
                    cic,
                    call,
                    seq,
                    origin_us,
                },
            ) => {
                if let Some((_, Some((peer, peer_cic)))) = self.resolve(from, cic) {
                    ctx.send(
                        peer,
                        Message::TrunkVoice {
                            cic: peer_cic,
                            call,
                            seq,
                            origin_us,
                        },
                    );
                }
            }
            _ => ctx.count("pstn.unexpected_message"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_sim::{Network, SimDuration};

    struct Endpoint {
        switch: NodeId,
        originate: Option<(CallId, Msisdn)>,
        got: Vec<Message>,
        answer: bool,
    }
    impl Node<Message> for Endpoint {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            if let Some((call, called)) = self.originate.take() {
                ctx.send(
                    self.switch,
                    Message::Isup(IsupMessage {
                        cic: Cic(1),
                        call,
                        kind: IsupKind::Iam {
                            called,
                            calling: None,
                        },
                    }),
                );
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Message>,
            from: NodeId,
            _i: Interface,
            m: Message,
        ) {
            if let Message::Isup(ref isup) = m {
                if self.answer {
                    if let IsupKind::Iam { .. } = isup.kind {
                        ctx.send(
                            from,
                            Message::Isup(IsupMessage {
                                cic: isup.cic,
                                call: isup.call,
                                kind: IsupKind::Anm,
                            }),
                        );
                        ctx.send(
                            from,
                            Message::TrunkVoice {
                                cic: isup.cic,
                                call: isup.call,
                                seq: 1,
                                origin_us: 0,
                            },
                        );
                    }
                }
            }
            self.got.push(m);
        }
    }

    fn msisdn(s: &str) -> Msisdn {
        Msisdn::parse(s).unwrap()
    }

    fn rig() -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let sw = net.add_node("switch", PstnSwitch::new("test"));
        let caller = net.add_node(
            "caller",
            Endpoint {
                switch: sw,
                originate: Some((CallId(1), msisdn("85291234567"))),
                got: Vec::new(),
                answer: false,
            },
        );
        let callee = net.add_node(
            "callee",
            Endpoint {
                switch: sw,
                originate: None,
                got: Vec::new(),
                answer: true,
            },
        );
        net.connect(caller, sw, Interface::Isup, SimDuration::from_millis(2));
        net.connect(callee, sw, Interface::Isup, SimDuration::from_millis(8));
        net.node_mut::<PstnSwitch>(sw).unwrap().add_route(
            "852",
            callee,
            TrunkClass::International,
        );
        (net, sw, caller, callee)
    }

    #[test]
    fn routes_iam_and_relays_answer() {
        let (mut net, sw, caller, callee) = rig();
        net.run_until_quiescent();
        let callee_got = &net.node::<Endpoint>(callee).unwrap().got;
        assert!(matches!(
            callee_got[0],
            Message::Isup(IsupMessage {
                kind: IsupKind::Iam { .. },
                ..
            })
        ));
        let caller_got = &net.node::<Endpoint>(caller).unwrap().got;
        assert!(matches!(
            caller_got[0],
            Message::Isup(IsupMessage {
                kind: IsupKind::Anm,
                ..
            })
        ));
        let seized = net.node::<PstnSwitch>(sw).unwrap().ledger().entries();
        assert_eq!(seized.len(), 1);
        assert_eq!(
            (seized[0].call, seized[0].class),
            (CallId(1), TrunkClass::International)
        );
        assert_eq!(net.stats().counter("pstn.trunk_international_seized"), 1);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut net = Network::new(1);
        let sw = net.add_node("switch", PstnSwitch::new("test"));
        let generic = net.add_node(
            "generic",
            Endpoint {
                switch: sw,
                originate: None,
                got: Vec::new(),
                answer: false,
            },
        );
        let specific = net.add_node(
            "specific",
            Endpoint {
                switch: sw,
                originate: None,
                got: Vec::new(),
                answer: false,
            },
        );
        let caller = net.add_node(
            "caller",
            Endpoint {
                switch: sw,
                originate: Some((CallId(1), msisdn("85291234567"))),
                got: Vec::new(),
                answer: false,
            },
        );
        for (n, _) in [(generic, 0), (specific, 0), (caller, 0)] {
            net.connect(n, sw, Interface::Isup, SimDuration::from_millis(1));
        }
        {
            let s = net.node_mut::<PstnSwitch>(sw).unwrap();
            s.add_route("8", generic, TrunkClass::National);
            s.add_route("8529", specific, TrunkClass::Local);
        }
        net.run_until_quiescent();
        assert_eq!(net.node::<Endpoint>(specific).unwrap().got.len(), 1);
        assert!(net.node::<Endpoint>(generic).unwrap().got.is_empty());
    }

    #[test]
    fn unroutable_released_with_cause() {
        let mut net = Network::new(1);
        let sw = net.add_node("switch", PstnSwitch::new("test"));
        let caller = net.add_node(
            "caller",
            Endpoint {
                switch: sw,
                originate: Some((CallId(1), msisdn("99999999999"))),
                got: Vec::new(),
                answer: false,
            },
        );
        net.connect(caller, sw, Interface::Isup, SimDuration::from_millis(1));
        net.run_until_quiescent();
        match &net.node::<Endpoint>(caller).unwrap().got[0] {
            Message::Isup(IsupMessage {
                kind:
                    IsupKind::Rel {
                        cause: Cause::NoRouteToDestination,
                    },
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn release_clears_call_and_ledger() {
        // The caller endpoint hangs up on its own leg (circuits identify
        // legs, so a release must come from a real leg holder).
        struct HangingCaller {
            switch: NodeId,
            answered: bool,
        }
        impl Node<Message> for HangingCaller {
            fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
                ctx.send(
                    self.switch,
                    Message::Isup(IsupMessage {
                        cic: Cic(1),
                        call: CallId(1),
                        kind: IsupKind::Iam {
                            called: Msisdn::parse("85291234567").unwrap(),
                            calling: None,
                        },
                    }),
                );
            }
            fn on_message(
                &mut self,
                ctx: &mut Context<'_, Message>,
                from: NodeId,
                _i: Interface,
                m: Message,
            ) {
                if let Message::Isup(IsupMessage {
                    kind: IsupKind::Anm,
                    ..
                }) = m
                {
                    self.answered = true;
                    ctx.send(
                        from,
                        Message::Isup(IsupMessage {
                            cic: Cic(1),
                            call: CallId(1),
                            kind: IsupKind::Rel {
                                cause: Cause::NormalClearing,
                            },
                        }),
                    );
                }
            }
        }
        let mut net = Network::new(1);
        let sw = net.add_node("switch", PstnSwitch::new("test"));
        let caller = net.add_node(
            "caller",
            HangingCaller {
                switch: sw,
                answered: false,
            },
        );
        let callee = net.add_node(
            "callee",
            Endpoint {
                switch: sw,
                originate: None,
                got: Vec::new(),
                answer: true,
            },
        );
        net.connect(caller, sw, Interface::Isup, SimDuration::from_millis(2));
        net.connect(callee, sw, Interface::Isup, SimDuration::from_millis(8));
        net.node_mut::<PstnSwitch>(sw).unwrap().add_route(
            "852",
            callee,
            TrunkClass::International,
        );
        net.run_until_quiescent();
        assert!(net.node::<HangingCaller>(caller).unwrap().answered);
        let s = net.node::<PstnSwitch>(sw).unwrap();
        assert_eq!(s.active_calls(), 0);
        assert!(s.ledger().entries()[0].released_at.is_some());
    }

    #[test]
    fn voice_relayed_between_legs() {
        // The answering endpoint sends one voice frame right after ANM; the
        // switch must relay it to the originating leg.
        let (mut net, _sw, caller, _callee) = rig();
        net.run_until_quiescent();
        let caller_got = &net.node::<Endpoint>(caller).unwrap().got;
        assert!(caller_got
            .iter()
            .any(|m| matches!(m, Message::TrunkVoice { .. })));
    }

    #[test]
    fn voice_from_stranger_not_relayed() {
        let (mut net, sw, caller, callee) = rig();
        net.run_until_quiescent();
        struct Stranger {
            sw: NodeId,
        }
        impl Node<Message> for Stranger {
            fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
                ctx.send(
                    self.sw,
                    Message::TrunkVoice {
                        cic: Cic(9999),
                        call: CallId(1),
                        seq: 99,
                        origin_us: 0,
                    },
                );
            }
            fn on_message(
                &mut self,
                _c: &mut Context<'_, Message>,
                _f: NodeId,
                _i: Interface,
                _m: Message,
            ) {
            }
        }
        let before_caller = net.node::<Endpoint>(caller).unwrap().got.len();
        let before_callee = net.node::<Endpoint>(callee).unwrap().got.len();
        let s = net.add_node("stranger", Stranger { sw });
        net.connect(s, sw, Interface::Isup, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert_eq!(net.node::<Endpoint>(caller).unwrap().got.len(), before_caller);
        assert_eq!(net.node::<Endpoint>(callee).unwrap().got.len(), before_callee);
    }
}
