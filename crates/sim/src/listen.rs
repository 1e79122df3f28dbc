//! What a broadcast can know about a listener without calling it.
//!
//! A cell's page goes to every handset camped on it, and almost none of
//! them is the one paged. The network keeps one word per node, beside
//! the nodes in a dense array of its own: the node the listener is tuned
//! to and a 16-bit hash of each key it answers to, refreshed from
//! [`Node::tuning`](crate::Node::tuning) after every callback to it. A
//! node that reports no tuning when it is added is never read again. A
//! broadcast reads the word and skips the listener only when the word
//! proves that [`Node::hears`](crate::Node::hears) would say no; every
//! other listener is asked, so `hears` stays the only rule.

use crate::node::NodeId;

/// What a listener answers to, as [`Node::tuning`](crate::Node::tuning)
/// reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// The one sender whose keyed broadcasts the listener filters. A
    /// broadcast from any other node is always offered to `hears`.
    pub to: NodeId,
    /// The [broadcast keys](crate::Payload::broadcast_key) the listener
    /// hears from `to`. A listener with one key names it twice.
    pub keys: [u64; 2],
}

/// How a network's broadcasts fanned out, counted since it was built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FanOut {
    /// Broadcast events delivered.
    pub broadcasts: u64,
    /// Listeners they reached: the sender's links on the broadcast's
    /// interface, one per broadcast.
    pub listeners: u64,
    /// Listeners whose word could not rule the broadcast out, and so
    /// were asked whether they hear it.
    pub asked: u64,
    /// Listeners that heard it and were called back.
    pub heard: u64,
}

/// A listener's [`Tuning`] in one word: the node it is tuned to in the
/// low 32 bits, and above them the hash of each of its keys. A word
/// whose low half is `u32::MAX` rules nothing out: no sender has that id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Word(u64);

impl Word {
    /// A node that reported no tuning when it was added: it is never
    /// read again, and every broadcast asks it.
    const DEAF: Word = Word(u64::MAX);
    /// A listener whose tuning is not known: it reported none since it
    /// was added, or was handed out mutably since it last did.
    const ASK: Word = Word(u32::MAX as u64);

    /// The word of a node that reports `tuning` when it is added.
    pub(crate) fn added(tuning: Option<Tuning>) -> Word {
        match tuning {
            Some(tuning) => Word::of(tuning),
            None => Word::DEAF,
        }
    }

    /// Reads a listener's tuning again; a deaf node is not asked.
    #[inline]
    pub(crate) fn refresh(&mut self, tuning: impl FnOnce() -> Option<Tuning>) {
        if *self != Word::DEAF {
            *self = tuning().map_or(Word::ASK, Word::of);
        }
    }

    /// Forgets a listener's tuning until its next refresh.
    pub(crate) fn forget(&mut self) {
        if *self != Word::DEAF {
            *self = Word::ASK;
        }
    }

    fn of(Tuning { to, keys: [a, b] }: Tuning) -> Word {
        Word(u64::from(to.index()) | u64::from(key_hash(a)) << 32 | u64::from(key_hash(b)) << 48)
    }

    /// True when the word proves the listener does not hear a broadcast
    /// from `from` whose key hashes to `hash`: it is tuned to `from` and
    /// answers to no key of that hash.
    #[inline]
    pub(crate) fn rules_out(self, from: NodeId, hash: u16) -> bool {
        let hash = u64::from(hash);
        self.0 as u32 == from.index() && (self.0 >> 32) & 0xFFFF != hash && self.0 >> 48 != hash
    }
}

/// A broadcast key's 16-bit hash: the top bits of SplitMix64's
/// finalizer. Sequential IMSIs and TMSIs share their high bits, so
/// folding raw bits would leave almost every listener to ask; one round
/// of it clusters packed IMSI digits.
pub(crate) fn key_hash(key: u64) -> u16 {
    let mut z = key;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 48) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Interface, Network, Node, Payload, SimDuration, SimTime, TraceEntry};

    /// A page for one key, or a message with none.
    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Page(u64),
        Hello,
    }

    impl Payload for Msg {
        fn label(&self) -> String {
            format!("{self:?}")
        }
        fn broadcast_key(&self) -> Option<u64> {
            match self {
                Msg::Page(key) => Some(*key),
                Msg::Hello => None,
            }
        }
    }

    /// Hears a page for its key only from the cell it is tuned to, and
    /// everything else.
    struct Handset {
        cell: NodeId,
        key: u64,
        heard: Vec<(SimTime, NodeId, Msg)>,
    }

    impl Node<Msg> for Handset {
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Msg>,
            from: NodeId,
            _i: Interface,
            msg: Msg,
        ) {
            self.heard.push((ctx.now(), from, msg));
        }
        fn hears(&self, from: NodeId, msg: &Msg) -> bool {
            match msg {
                Msg::Page(key) => from != self.cell || *key == self.key,
                Msg::Hello => true,
            }
        }
        fn tuning(&self) -> Option<Tuning> {
            Some(Tuning {
                to: self.cell,
                keys: [self.key; 2],
            })
        }
    }

    /// Broadcasts each of its messages over its Um links at start.
    struct Cell {
        sends: Vec<Msg>,
    }

    impl Node<Msg> for Cell {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for msg in self.sends.drain(..) {
                ctx.broadcast(Interface::Um, msg);
            }
        }
        fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
    }

    fn handset(cell: NodeId, key: u64) -> Handset {
        Handset {
            cell,
            key,
            heard: Vec::new(),
        }
    }

    fn heard(net: &Network<Msg>, id: NodeId) -> Vec<Msg> {
        let node = net.node::<Handset>(id).unwrap();
        node.heard.iter().map(|(_, _, m)| m.clone()).collect()
    }

    /// Node 0 is the cell; each key in `keys` is a handset tuned to it,
    /// over a 1 ms Um link.
    fn camped(sends: Vec<Msg>, keys: &[u64]) -> (Network<Msg>, NodeId, Vec<NodeId>) {
        let mut net = Network::new(1);
        let tower = net.add_node("cell", Cell { sends });
        let handsets = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| {
                let ms = net.add_node(format_args!("ms{i}"), handset(tower, key));
                net.connect(tower, ms, Interface::Um, SimDuration::from_millis(1));
                ms
            })
            .collect();
        (net, tower, handsets)
    }

    #[test]
    fn a_word_rules_out_only_its_own_cell_and_other_keys() {
        let (cell, elsewhere) = (NodeId::new(5), NodeId::new(6));
        let mut word = Word::added(Some(Tuning {
            to: cell,
            keys: [11, 12],
        }));
        assert!(word.rules_out(cell, key_hash(13)));
        assert!(!word.rules_out(cell, key_hash(11)));
        assert!(!word.rules_out(cell, key_hash(12)));
        assert!(!word.rules_out(elsewhere, key_hash(13)));
        word.forget();
        let mut deaf = Word::added(None);
        deaf.refresh(|| panic!("a deaf node is not asked for its tuning"));
        deaf.forget();
        for hash in [0, key_hash(13), u16::MAX] {
            assert!(!word.rules_out(cell, hash));
            assert!(!deaf.rules_out(cell, hash));
        }
    }

    #[test]
    fn sequential_identities_spread_over_the_hash() {
        // A shard's handsets: 4 096 consecutive IMSIs, and the TMSIs its
        // VLR issues in order. A fold of raw bits would put each run on a
        // handful of values; a random hash leaves about 3 970 distinct.
        use vgprs_wire::{Imsi, MsIdentity, Tmsi};
        let imsi = |n: u32| MsIdentity::Imsi(Imsi::parse(&format!("46692{n:010}")).unwrap());
        let runs: [Vec<MsIdentity>; 2] = [
            (0..4_096).map(imsi).collect(),
            (1..=4_096).map(|n| MsIdentity::Tmsi(Tmsi(n))).collect(),
        ];
        for run in runs {
            let mut seen = vec![false; 1 << 16];
            for identity in run {
                seen[key_hash(identity.key()) as usize] = true;
            }
            let distinct = seen.iter().filter(|&&s| s).count();
            assert!(distinct > 3_900, "{distinct} distinct hashes of 4 096 keys");
        }
    }

    #[test]
    fn only_the_paged_handset_is_asked_and_heard() {
        let keys: Vec<u64> = (100..164).collect();
        let (mut net, _, handsets) = camped(vec![Msg::Page(142), Msg::Page(7)], &keys);
        net.run_until_quiescent();
        for (ms, key) in handsets.iter().zip(&keys) {
            let want = if *key == 142 {
                vec![Msg::Page(142)]
            } else {
                Vec::new()
            };
            assert_eq!(heard(&net, *ms), want);
        }
        let fan = net.fan_out();
        assert_eq!((fan.broadcasts, fan.listeners, fan.heard), (2, 128, 1));
        assert!(fan.asked < 4, "{} asked of 128", fan.asked);
    }

    #[test]
    fn a_listener_tuned_elsewhere_hears_the_broadcast() {
        let (mut net, tower, handsets) = camped(vec![Msg::Page(3)], &[1, 2]);
        let other = net.add_node("other", Cell { sends: Vec::new() });
        net.node_mut::<Handset>(handsets[1]).unwrap().cell = other;
        // The handset reports its new cell on its next callback.
        net.inject(SimDuration::ZERO, handsets[1], Msg::Hello);
        net.run_until_quiescent();
        assert_eq!(heard(&net, handsets[0]), Vec::<Msg>::new());
        let got = &net.node::<Handset>(handsets[1]).unwrap().heard;
        let at = SimTime::from_micros(1_000);
        assert_eq!(got[1], (at, tower, Msg::Page(3)));
        assert_eq!(net.fan_out().asked, 1);
    }

    #[test]
    fn a_key_whose_hash_collides_is_asked_and_hears_says_no() {
        let paged = 1_000;
        let twin = (paged + 1..)
            .find(|&k| key_hash(k) == key_hash(paged))
            .expect("16 bits collide");
        let (mut net, _, handsets) = camped(vec![Msg::Page(paged)], &[twin, paged]);
        net.run_until_quiescent();
        assert_eq!(heard(&net, handsets[0]), Vec::<Msg>::new());
        assert_eq!(heard(&net, handsets[1]), vec![Msg::Page(paged)]);
        let fan = net.fan_out();
        assert_eq!((fan.asked, fan.heard), (2, 1), "the twin was asked");
    }

    #[test]
    fn a_node_mut_that_changes_what_a_listener_hears_is_seen() {
        let (mut net, _, handsets) = camped(vec![Msg::Page(9)], &[1, 2]);
        // Its word was written for key 2; the page is for 9.
        net.node_mut::<Handset>(handsets[1]).unwrap().key = 9;
        net.run_until_quiescent();
        assert_eq!(heard(&net, handsets[0]), Vec::<Msg>::new());
        assert_eq!(heard(&net, handsets[1]), vec![Msg::Page(9)]);
    }

    #[test]
    fn a_broadcast_reaches_the_senders_links_on_its_interface_in_link_order() {
        let mut net = Network::new(1);
        let tower = net.add_node(
            "cell",
            Cell {
                sends: vec![Msg::Hello],
            },
        );
        let handsets: Vec<NodeId> = (0..6)
            .map(|i| net.add_node(format_args!("ms{i}"), handset(tower, i)))
            .collect();
        // Linked out of node order; ms1 and ms4 over Abis. The first Um
        // link takes 3 ms and the others 9, and half the links have the
        // listener as their `a` end.
        for (n, i) in [3, 1, 0, 4, 5, 2].into_iter().enumerate() {
            let iface = if i == 1 || i == 4 {
                Interface::Abis
            } else {
                Interface::Um
            };
            let latency = SimDuration::from_millis(if n == 0 { 3 } else { 9 });
            if n % 2 == 0 {
                net.connect(handsets[i], tower, iface, latency);
            } else {
                net.connect(tower, handsets[i], iface, latency);
            }
        }
        // A link between two listeners is not the cell's.
        net.connect(
            handsets[0],
            handsets[1],
            Interface::Um,
            SimDuration::from_millis(1),
        );
        net.run_until_quiescent();
        let calls: Vec<(SimTime, &str)> = net
            .trace()
            .entries()
            .iter()
            .map(|e| match e {
                TraceEntry::Message { at, to, .. } => (*at, net.node_name(*to)),
                TraceEntry::Note { .. } => panic!("no notes here"),
            })
            .collect();
        let at = SimTime::from_micros(3_000);
        let want = ["ms3", "ms0", "ms5", "ms2"].map(|name| (at, name));
        assert_eq!(calls, want, "link order, on the first link's delay");
    }
}
