//! Release and failure causes shared across the signaling protocols.

use std::fmt;


/// Why a call, registration or context operation ended or failed.
///
/// A single cause space is shared by Q.931, ISUP, MAP and the GPRS session
/// management messages; each codec maps it to its own wire value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cause {
    /// Normal call clearing (Q.850 cause 16).
    NormalClearing,
    /// Called party busy (Q.850 cause 17).
    UserBusy,
    /// No answer from the user (Q.850 cause 19).
    NoAnswer,
    /// Unallocated / unassigned number (Q.850 cause 1).
    UnallocatedNumber,
    /// No route to destination (Q.850 cause 3).
    NoRouteToDestination,
    /// Network congestion / no circuit available (Q.850 cause 34).
    NetworkCongestion,
    /// Radio resource unavailable (no traffic channel).
    RadioResourceUnavailable,
    /// Authentication failed.
    AuthenticationFailure,
    /// The subscriber's profile does not allow the requested service.
    ServiceNotAllowed,
    /// H.323 gatekeeper rejected admission (ARJ).
    AdmissionRejected,
    /// GGSN could not allocate a PDP address or tunnel.
    PdpResourceUnavailable,
    /// The peer answered with something the protocol forbids.
    ProtocolError,
    /// The MS cannot be reached (detached or paging failed).
    SubscriberAbsent,
    /// Transient network failure — retry may succeed (Q.850 cause 41).
    /// Used when a recovery ladder exhausts its bounded retries.
    TemporaryFailure,
    /// A supervision timer expired and recovery released the call
    /// (Q.850 cause 102).
    RecoveryOnTimerExpiry,
}

impl Cause {
    /// The Q.850-compatible cause value used in Q.931 and ISUP encodings.
    pub fn q850_value(self) -> u8 {
        match self {
            Cause::UnallocatedNumber => 1,
            Cause::NoRouteToDestination => 3,
            Cause::NormalClearing => 16,
            Cause::UserBusy => 17,
            Cause::NoAnswer => 19,
            Cause::SubscriberAbsent => 20,
            Cause::NetworkCongestion => 34,
            Cause::RadioResourceUnavailable => 47,
            Cause::AuthenticationFailure => 57,
            Cause::ServiceNotAllowed => 63,
            Cause::AdmissionRejected => 21,
            Cause::PdpResourceUnavailable => 38,
            Cause::TemporaryFailure => 41,
            Cause::RecoveryOnTimerExpiry => 102,
            Cause::ProtocolError => 111,
        }
    }

    /// Reverse of [`q850_value`](Cause::q850_value).
    ///
    /// Returns `None` for values this reproduction never emits.
    pub fn from_q850(value: u8) -> Option<Self> {
        Some(match value {
            1 => Cause::UnallocatedNumber,
            3 => Cause::NoRouteToDestination,
            16 => Cause::NormalClearing,
            17 => Cause::UserBusy,
            19 => Cause::NoAnswer,
            20 => Cause::SubscriberAbsent,
            21 => Cause::AdmissionRejected,
            34 => Cause::NetworkCongestion,
            38 => Cause::PdpResourceUnavailable,
            41 => Cause::TemporaryFailure,
            47 => Cause::RadioResourceUnavailable,
            57 => Cause::AuthenticationFailure,
            63 => Cause::ServiceNotAllowed,
            102 => Cause::RecoveryOnTimerExpiry,
            111 => Cause::ProtocolError,
            _ => return None,
        })
    }

    /// All causes, for exhaustive round-trip tests.
    pub const ALL: [Cause; 15] = [
        Cause::NormalClearing,
        Cause::UserBusy,
        Cause::NoAnswer,
        Cause::UnallocatedNumber,
        Cause::NoRouteToDestination,
        Cause::NetworkCongestion,
        Cause::RadioResourceUnavailable,
        Cause::AuthenticationFailure,
        Cause::ServiceNotAllowed,
        Cause::AdmissionRejected,
        Cause::PdpResourceUnavailable,
        Cause::ProtocolError,
        Cause::SubscriberAbsent,
        Cause::TemporaryFailure,
        Cause::RecoveryOnTimerExpiry,
    ];
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Cause::NormalClearing => "normal clearing",
            Cause::UserBusy => "user busy",
            Cause::NoAnswer => "no answer",
            Cause::UnallocatedNumber => "unallocated number",
            Cause::NoRouteToDestination => "no route to destination",
            Cause::NetworkCongestion => "network congestion",
            Cause::RadioResourceUnavailable => "radio resource unavailable",
            Cause::AuthenticationFailure => "authentication failure",
            Cause::ServiceNotAllowed => "service not allowed",
            Cause::AdmissionRejected => "admission rejected",
            Cause::PdpResourceUnavailable => "PDP resource unavailable",
            Cause::ProtocolError => "protocol error",
            Cause::SubscriberAbsent => "subscriber absent",
            Cause::TemporaryFailure => "temporary failure",
            Cause::RecoveryOnTimerExpiry => "recovery on timer expiry",
        };
        f.write_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q850_roundtrip_all() {
        for c in Cause::ALL {
            assert_eq!(Cause::from_q850(c.q850_value()), Some(c), "cause {c}");
        }
    }

    #[test]
    fn q850_values_unique() {
        let mut vals: Vec<u8> = Cause::ALL.iter().map(|c| c.q850_value()).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), Cause::ALL.len());
    }

    #[test]
    fn unknown_q850_is_none() {
        assert_eq!(Cause::from_q850(255), None);
        assert_eq!(Cause::from_q850(0), None);
    }

    #[test]
    fn display_no_trailing_period_and_nonempty() {
        for c in Cause::ALL {
            let s = c.to_string();
            assert!(!s.ends_with('.'));
            assert!(!s.is_empty());
        }
    }
}
