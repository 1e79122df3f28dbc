//! `Throttle`: the one-second window, the bounded FIFO deferral, the
//! shed, and the drain tick.

use vgprs_sim::{Context, Interface, Network, Node, NodeId, Offer, Payload, Throttle, TimerToken};

#[derive(Clone, Debug)]
struct Nothing;
impl Payload for Nothing {
    fn label(&self) -> String {
        "nothing".into()
    }
}

/// Offers 1..=8 at start through a throttle of rate 2, and drains on
/// its ticks, treating 4 as cleared while it waited.
struct Gate {
    throttle: Throttle<u32>,
    log: Vec<String>,
}

impl Node<Nothing> for Gate {
    fn on_start(&mut self, ctx: &mut Context<'_, Nothing>) {
        for item in 1..=8 {
            self.log.push(match self.throttle.offer(ctx, item) {
                Offer::Admitted(i) => format!("admit {i}"),
                Offer::Deferred => format!("defer {item}"),
                Offer::Shed(i) => format!("shed {i}"),
            });
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, Nothing>, _: NodeId, _: Interface, _: Nothing) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Nothing>, token: TimerToken, _tag: u64) {
        assert!(self.throttle.is_tick(token));
        self.throttle.tick(ctx.now());
        while let Some((item, waited)) = self.throttle.next(ctx, |i| *i != 4) {
            self.log.push(format!(
                "drain {item} after {} s",
                waited.as_millis() / 1_000
            ));
        }
    }
}

#[test]
fn admits_defers_sheds_and_drains_in_order() {
    let mut net = Network::new(1);
    let gate = net.add_node(
        "gate",
        Gate {
            throttle: Throttle::new(2),
            log: Vec::new(),
        },
    );
    net.run_until_quiescent();
    assert_eq!(
        net.node::<Gate>(gate).unwrap().log,
        [
            "admit 1",
            "admit 2",
            "defer 3",
            "defer 4",
            "defer 5",
            "defer 6",
            "shed 7",
            "shed 8",
            "drain 3 after 1 s",
            "drain 5 after 1 s",
            "drain 6 after 2 s",
        ]
    );
    assert_eq!(net.armed_timers(), 0, "an empty queue arms no tick");
}

#[test]
fn rate_zero_admits_everything() {
    let mut net = Network::new(1);
    let gate = net.add_node(
        "gate",
        Gate {
            throttle: Throttle::new(0),
            log: Vec::new(),
        },
    );
    net.run_until_quiescent();
    assert!(net
        .node::<Gate>(gate)
        .unwrap()
        .log
        .iter()
        .all(|l| l.starts_with("admit")));
}
