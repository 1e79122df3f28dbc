//! A send finds its link by scanning the ports of the endpoint that has
//! fewer (`Network::port` in `crates/sim/src/net.rs`), which is cheap
//! because every link of the topology has a small node at one end: the
//! hubs — BTS, router — talk to leaves. A hub-to-hub link would still
//! work, and would quietly scan a long list on every send; it fails
//! here instead.

use vgprs_load::{run_load_with, LoadConfig, PopulationConfig, Registration};

#[test]
fn every_link_has_an_end_of_few_ports() {
    // The small world at the harness's defaults (`defaults` in
    // `armed_run_identity_is_pinned`).
    let cfg = LoadConfig {
        subscribers: 96,
        shards: 4,
        population: PopulationConfig {
            window_secs: 90,
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 20.0,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    };
    run_load_with(&cfg, 1, Registration::Provision, |shard| {
        let net = shard.network();
        let degree = |id| net.neighbors(id).count();
        let mut links = 0;
        for a in net.node_ids() {
            for b in net.neighbors(a) {
                links += 1;
                assert!(
                    degree(a).min(degree(b)) <= 8,
                    "{} ({} ports) - {} ({} ports): no small end",
                    net.node_name(a),
                    degree(a),
                    net.node_name(b),
                    degree(b),
                );
            }
        }
        assert!(
            links / 2 > cfg.subscribers / cfg.shards,
            "links were walked"
        );
    });
}
