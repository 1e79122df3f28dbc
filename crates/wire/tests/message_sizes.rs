//! What a message costs in memory, pinned.
//!
//! Every queued event carries a [`Message`] by value, so its size is paid
//! once per event in the wheel's slab and once per copy in every handler.
//! The table names the bulky variants by measurement; a change that grows
//! one fails here and says which. `Message` is as large as its largest
//! payload, `IpPacket`, whose `IpPayload` is as large as `Q931Message`.
//! Boxing `IpPayload::Q931` would bring `Message` to 64 bytes; measured on
//! the busy-hour workload that bought 1.3 % of peak RSS and no run time,
//! so it is not done (EXPERIMENTS "Message sizes").

#![cfg(target_pointer_width = "64")]

use std::mem::size_of;

use vgprs_wire::{
    Command, Dtap, GmmMessage, GtpMessage, IpPacket, IpPayload, IsupMessage, MapMessage, Message,
    Q931Message, RasMessage, RtpPacket,
};

#[test]
fn message_sizes_are_pinned() {
    let sizes = [
        ("Message", size_of::<Message>(), 80),
        ("IpPacket", size_of::<IpPacket>(), 80),
        ("IpPayload", size_of::<IpPayload>(), 56),
        ("Q931Message", size_of::<Q931Message>(), 56),
        ("MapMessage", size_of::<MapMessage>(), 40),
        ("IsupMessage", size_of::<IsupMessage>(), 40),
        ("GtpMessage", size_of::<GtpMessage>(), 32),
        ("RasMessage", size_of::<RasMessage>(), 32),
        ("RtpPacket", size_of::<RtpPacket>(), 32),
        ("Dtap", size_of::<Dtap>(), 24),
        ("GmmMessage", size_of::<GmmMessage>(), 24),
        ("Command", size_of::<Command>(), 24),
    ];
    let moved: Vec<String> = sizes
        .iter()
        .filter(|(_, size, pinned)| size != pinned)
        .map(|(name, size, pinned)| format!("{name}: {size} bytes, pinned at {pinned}"))
        .collect();
    assert!(
        moved.is_empty(),
        "message sizes moved:\n{}",
        moved.join("\n")
    );
}
