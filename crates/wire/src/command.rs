//! Scenario-driver commands.
//!
//! Commands are injected through
//! [`Network::inject`](vgprs_sim::Network::inject) and arrive over
//! [`Interface::Internal`](vgprs_sim::Interface::Internal); they model the
//! human side of the system — pressing the power button, dialing, picking
//! up, hanging up, walking across a cell boundary.

use std::fmt;

use vgprs_sim::SimDuration;

use crate::ids::{CallId, CellId, Msisdn};

/// How a subscriber's endpoint acts without a [`Command`], in one word:
/// the auto-answer delay's microseconds below the top bit (all ones:
/// wait for [`Command::Answer`]), talk-on-connect in the top bit.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Habits(u64);

impl Habits {
    const TALK: u64 = 1 << 63;
    const WAIT: u64 = Self::TALK - 1;

    /// Answers `auto_answer_after` ringing starts (`None`: on
    /// [`Command::Answer`]), and talks as soon as a call connects if
    /// `talk_on_connect`.
    ///
    /// # Panics
    ///
    /// Panics on a delay of 2^63 - 1 µs or more, which would never end.
    pub fn new(auto_answer_after: Option<SimDuration>, talk_on_connect: bool) -> Self {
        let after = auto_answer_after.map_or(Self::WAIT, |d| {
            assert!(d.as_micros() < Self::WAIT, "auto-answer delay {d} never ends");
            d.as_micros()
        });
        Habits(after | if talk_on_connect { Self::TALK } else { 0 })
    }

    /// How long after ringing starts the endpoint answers by itself.
    pub fn auto_answer_after(self) -> Option<SimDuration> {
        let micros = self.0 & Self::WAIT;
        (micros != Self::WAIT).then_some(SimDuration::from_micros(micros))
    }

    /// Whether the endpoint talks as soon as a call connects.
    pub fn talk_on_connect(self) -> bool {
        self.0 & Self::TALK != 0
    }
}

impl fmt::Debug for Habits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Habits")
            .field("auto_answer_after", &self.auto_answer_after())
            .field("talk_on_connect", &self.talk_on_connect())
            .finish()
    }
}

/// A local stimulus delivered to a node by the scenario driver.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Switch a mobile station on; it will register (paper Section 3).
    PowerOn,
    /// Switch a mobile station off; it will detach.
    PowerOff,
    /// Dial a number (paper Section 4). The scenario assigns the call id
    /// so statistics can be correlated end-to-end.
    Dial {
        /// Scenario-assigned call id.
        call: CallId,
        /// Number to dial.
        called: Msisdn,
    },
    /// Answer the currently alerting call.
    Answer,
    /// Hang up the active call (paper Section 4, release flow).
    Hangup,
    /// Start sending voice frames on the active call (media experiments).
    StartTalking,
    /// Stop sending voice frames.
    StopTalking,
    /// Move to a different cell, triggering handoff if on a call
    /// (paper Section 7).
    MoveToCell {
        /// Destination cell.
        cell: CellId,
    },
    /// Fault injection: crash a network element. All volatile state is
    /// lost and the node drops traffic until [`Command::Restore`].
    Crash,
    /// Fault injection: the node keeps its state but silently drops all
    /// traffic until [`Command::Restore`] — peers see timeouts, not
    /// rejections.
    Blackhole,
    /// Fault injection: end a [`Command::Crash`] or [`Command::Blackhole`]
    /// window; the node resumes serving (with whatever state survived).
    Restore,
    /// Recovery: tell the VMSC a backbone peer restarted; it re-runs
    /// attach → PDP activation → gatekeeper RRQ for every known MS.
    Resync,
}

impl Command {
    /// Trace label, e.g. `Cmd_Dial`.
    pub fn label(&self) -> &'static str {
        match self {
            Command::PowerOn => "Cmd_Power_On",
            Command::PowerOff => "Cmd_Power_Off",
            Command::Dial { .. } => "Cmd_Dial",
            Command::Answer => "Cmd_Answer",
            Command::Hangup => "Cmd_Hangup",
            Command::StartTalking => "Cmd_Start_Talking",
            Command::StopTalking => "Cmd_Stop_Talking",
            Command::MoveToCell { .. } => "Cmd_Move_To_Cell",
            Command::Crash => "Cmd_Crash",
            Command::Blackhole => "Cmd_Blackhole",
            Command::Restore => "Cmd_Restore",
            Command::Resync => "Cmd_Resync",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_prefixed() {
        assert_eq!(Command::PowerOn.label(), "Cmd_Power_On");
        assert_eq!(
            Command::Dial {
                call: CallId(1),
                called: Msisdn::parse("88612345678").unwrap()
            }
            .label(),
            "Cmd_Dial"
        );
        assert_eq!(Command::MoveToCell { cell: CellId(2) }.label(), "Cmd_Move_To_Cell");
        assert_eq!(Command::Crash.label(), "Cmd_Crash");
        assert_eq!(Command::Restore.label(), "Cmd_Restore");
        assert_eq!(Command::Resync.label(), "Cmd_Resync");
    }
}
