//! Scenario-driver commands.
//!
//! Commands are injected through
//! [`Network::inject`](vgprs_sim::Network::inject) and arrive over
//! [`Interface::Internal`](vgprs_sim::Interface::Internal); they model the
//! human side of the system — pressing the power button, dialing,
//! hanging up, walking across a cell boundary. Answering is not a
//! command: a ringing phone picks up after [`ANSWER_DELAY`].

use vgprs_sim::SimDuration;

use crate::ids::{CallId, CellId, Msisdn};

/// How long a subscriber's phone rings before its user answers: every
/// handset, terminal and fixed-line phone picks up this long after it
/// starts ringing, and talks as soon as the call connects.
pub const ANSWER_DELAY: SimDuration = SimDuration::from_secs(2);

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
