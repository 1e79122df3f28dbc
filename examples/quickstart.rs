//! Quickstart: bring up a complete vGPRS network, register a standard GSM
//! handset, and place a voice call to an H.323 terminal.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use vgprs::core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs::gsm::MobileStation;
use vgprs::h323::H323Terminal;
use vgprs::sim::{LadderDiagram, Network, SimDuration};
use vgprs::wire::{CallId, Command, Imsi, Message, Msisdn};

fn main() {
    // 1. Build the serving network of the paper's Figure 2(b): BTS, BSC,
    //    VMSC, VLR, HLR, SGSN, GGSN, PSDN router and gatekeeper.
    let mut net = Network::new(42);
    let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());

    // 2. One ordinary GSM subscriber (no H.323 in the handset!) and one
    //    wireline H.323 terminal.
    let imsi: Imsi = "466920000000001".parse().expect("valid IMSI");
    let msisdn: Msisdn = "886912000001".parse().expect("valid MSISDN");
    let callee: Msisdn = "886220001111".parse().expect("valid alias");
    let ms = zone
        .access
        .add_subscriber(&mut net, "ms", imsi, 0xABCD, msisdn);
    let term = zone.packet.add_terminal(&mut net, "terminal", callee);

    // 3. Power the handset on: GSM location update + GPRS attach +
    //    signaling PDP context + H.323 registration (paper Figure 4).
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    println!("=== Registration (paper Figure 4) ===");
    print!("{}", LadderDiagram::new(net.trace()).render());

    // 4. Dial. The air interface stays circuit-switched; the VMSC
    //    transcodes to RTP and carries it through the GPRS tunnel.
    net.trace_mut().clear();
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: callee,
        }),
    );
    net.run_until(net.now() + SimDuration::from_secs(8));
    println!("\n=== Call origination (paper Figure 5) ===");
    print!("{}", LadderDiagram::new(net.trace()).render());

    // 5. Hang up and inspect the outcome.
    net.trace_mut().clear();
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::Hangup));
    net.run_until_quiescent();

    let handset = net.node::<MobileStation>(ms).expect("ms");
    let terminal = net.node::<H323Terminal>(term).expect("terminal");
    let vmsc = net.node::<Vmsc>(zone.access.msc).expect("vmsc");
    println!("\n=== Outcome ===");
    println!("handset connected calls : {}", handset.calls_connected);
    println!("handset frames heard    : {}", handset.frames_received);
    println!("terminal frames heard   : {}", terminal.frames_received);
    println!("VMSC registered MSs     : {}", vmsc.registered_count());
    println!(
        "voice one-way delay     : {:.1} ms (mean at terminal)",
        net.stats()
            .histogram("term.voice_e2e_ms")
            .map(|h| h.mean())
            .unwrap_or(f64::NAN)
    );
}
