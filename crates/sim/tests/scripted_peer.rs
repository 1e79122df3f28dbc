//! `ScriptedPeer`, the test double every node test drives its node with:
//! its script leaves on time and in order, its rule answers the sender,
//! its log keeps arrival order, and a late peer starts its own clock.

use vgprs_sim::{Interface, Network, NodeId, Payload, ScriptedPeer, SimDuration, SimTime};

#[derive(Clone, Debug, PartialEq)]
struct Toy(u32);

impl Payload for Toy {
    fn label(&self) -> String {
        format!("toy{}", self.0)
    }
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Every delivery in the trace as `(arrival ms, label)`.
fn arrivals(net: &Network<Toy>) -> Vec<(u64, String)> {
    let trace = net.trace().messages();
    trace
        .map(|e| (e.at().as_millis(), e.label().unwrap().to_owned()))
        .collect()
}

#[test]
fn each_message_leaves_after_its_delay_in_script_order() {
    let mut net = Network::new(1);
    let sink = net.add_node("sink", ScriptedPeer::new());
    let script = [(20, 3), (10, 1), (20, 4), (0, 0), (10, 2)];
    let source = script
        .into_iter()
        .fold(ScriptedPeer::sending(sink, []), |peer, (delay, n)| {
            peer.at(ms(delay), Toy(n))
        });
    let source = net.add_node("source", source);
    net.connect(source, sink, Interface::Lan, ms(1));
    net.run_until_quiescent();
    assert_eq!(
        arrivals(&net),
        [
            (1, "toy0"),
            (11, "toy1"),
            (11, "toy2"),
            (21, "toy3"),
            (21, "toy4")
        ]
        .map(|(at, label)| (at, label.to_owned()))
    );
    assert_eq!(
        ScriptedPeer::of(&net, sink).labels(),
        ["toy0", "toy1", "toy2", "toy3", "toy4"]
    );
}

#[test]
fn replies_go_back_to_the_sender() {
    let mut net = Network::new(1);
    // The echo's script target is a bystander: answers go to the sender.
    let bystander = net.add_node("bystander", ScriptedPeer::new());
    let echo = ScriptedPeer::sending(bystander, [])
        .answering(|Toy(n): &Toy| vec![Toy(n + 100), Toy(n + 200)]);
    let echo = net.add_node("echo", echo);
    net.connect(echo, bystander, Interface::Lan, ms(1));
    let callers: Vec<NodeId> = (1..=2)
        .map(|n| {
            let caller = net.add_node(format_args!("caller{n}"), ScriptedPeer::sending(echo, [Toy(n)]));
            net.connect(caller, echo, Interface::Lan, ms(n as u64));
            caller
        })
        .collect();
    net.run_until_quiescent();
    for (caller, n) in callers.iter().zip(1..) {
        let heard = ScriptedPeer::of(&net, *caller).received();
        assert_eq!(heard, [&Toy(n + 100), &Toy(n + 200)]);
    }
    let senders: Vec<NodeId> = ScriptedPeer::of(&net, echo)
        .log()
        .iter()
        .map(|e| e.0)
        .collect();
    assert_eq!(senders, callers);
    assert!(ScriptedPeer::of(&net, bystander).log().is_empty());
}

#[test]
fn the_log_keeps_sender_interface_and_message_in_arrival_order() {
    let mut net = Network::new(1);
    let sink = net.add_node("sink", ScriptedPeer::new());
    let slow = net.add_node("slow", ScriptedPeer::sending(sink, [Toy(1), Toy(2)]));
    let fast = net.add_node("fast", ScriptedPeer::sending(sink, [Toy(3)]));
    net.connect(slow, sink, Interface::Gn, ms(5));
    net.connect(fast, sink, Interface::Gi, ms(1));
    net.run_until_quiescent();
    assert_eq!(
        ScriptedPeer::of(&net, sink).log(),
        [
            (fast, Interface::Gi, Toy(3)),
            (slow, Interface::Gn, Toy(1)),
            (slow, Interface::Gn, Toy(2)),
        ]
    );
}

#[test]
fn a_peer_added_to_a_running_network_starts_its_own_clock() {
    let mut net = Network::new(1);
    let sink = net.add_node("sink", ScriptedPeer::new());
    net.run_until(SimTime::from_micros(100_000));
    // Built before its target is known, as a rig that needs both ids does.
    let late = ScriptedPeer::new()
        .at(SimDuration::ZERO, Toy(1))
        .at(ms(10), Toy(2));
    let late = net.add_node("late", late);
    net.connect(late, sink, Interface::Lan, ms(1));
    net.node_mut::<ScriptedPeer<Toy>>(late)
        .unwrap()
        .set_target(sink);
    net.run_until_quiescent();
    assert_eq!(
        arrivals(&net),
        [(101, "toy1".to_owned()), (111, "toy2".to_owned())]
    );
}
