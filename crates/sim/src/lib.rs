//! # vgprs-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the whole vGPRS reproduction runs.
//! It provides:
//!
//! * [`SimTime`]/[`SimDuration`] — microsecond-resolution simulated time,
//! * an event queue with deterministic tie-breaking,
//! * a [`Network`] of [`Node`]s connected by typed [`Link`]s, each link
//!   tagged with the GSM/GPRS/H.323 [`Interface`] it models and configured
//!   with latency, jitter, loss and bandwidth,
//! * a message [`Trace`] that records every delivery so protocol message
//!   flows (the paper's Figures 4–6) can be rendered as ladder diagrams and
//!   asserted in tests,
//! * seeded, reproducible randomness via [`SimRng`].
//!
//! The kernel is generic over the message type `M: Payload`, so protocol
//! crates define their own PDU unions (see `vgprs-wire`) without this crate
//! knowing about them.
//!
//! ## Example
//!
//! ```rust
//! use vgprs_sim::{Network, Node, Context, Interface, NodeId, SimDuration, Payload};
//!
//! #[derive(Clone, Debug)]
//! enum Ping { Ping(u32), Pong(u32) }
//! impl Payload for Ping {
//!     fn label(&self) -> String {
//!         match self { Ping::Ping(_) => "Ping".into(), Ping::Pong(_) => "Pong".into() }
//!     }
//! }
//!
//! struct Echo;
//! impl Node<Ping> for Echo {
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, _i: Interface, msg: Ping) {
//!         if let Ping::Ping(n) = msg { ctx.send(from, Ping::Pong(n)); }
//!     }
//! }
//!
//! struct Caller { peer: NodeId, got: u32 }
//! impl Node<Ping> for Caller {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         ctx.send(self.peer, Ping::Ping(7));
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _f: NodeId, _i: Interface, msg: Ping) {
//!         if let Ping::Pong(n) = msg { self.got = n; }
//!     }
//! }
//!
//! let mut net = Network::new(42);
//! let echo = net.add_node("echo", Echo);
//! let caller = net.add_node("caller", Caller { peer: echo, got: 0 });
//! net.connect(caller, echo, Interface::Lan, SimDuration::from_millis(5));
//! net.run_until_quiescent();
//! assert_eq!(net.trace().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod context;
mod event;
mod fnv;
mod idmap;
mod interface;
pub mod json;
mod ladder;
mod link;
mod net;
mod node;
mod rng;
mod stats;
mod throttle;
mod time;
mod timer;
mod trace;
mod wheel;

pub use backoff::Backoff;
pub use context::{Context, TimerToken};
pub use event::Kernel;
pub use fnv::Fnv1a;
pub use idmap::{set_salt, IdHasher, IdMap, IdSet};
pub use interface::Interface;
pub use ladder::LadderDiagram;
pub use link::{Link, LinkConfig, LinkQuality};
pub use net::{census_counters, Network, RunOutcome};
pub use node::{Node, NodeId, Payload};
pub use rng::SimRng;
pub use json::{JsonError, JsonF64, JsonValue, JsonWriter};
pub use stats::{Counter, Histogram, Stats};
pub use throttle::{Offer, Throttle};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry};
pub use wheel::CalendarWheel;
