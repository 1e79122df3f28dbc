//! Trunk classification and per-call cost accounting.
//!
//! The tromboning experiments (paper Figures 7–8) are entirely about
//! *which trunks* a call occupies: classic GSM call delivery to a roamer
//! burns two international trunks; vGPRS with a visited-network
//! gatekeeper burns none. Every switch records each trunk seizure here.

use vgprs_sim::{SimDuration, SimTime};
use vgprs_wire::CallId;

/// The tariff class of a trunk group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrunkClass {
    /// Within one metropolitan network.
    Local,
    /// Between cities of one country.
    National,
    /// Between countries — the expensive kind the paper eliminates.
    International,
}

impl TrunkClass {
    /// Cost units charged when the trunk is seized.
    pub fn setup_cost(self) -> f64 {
        match self {
            TrunkClass::Local => 1.0,
            TrunkClass::National => 5.0,
            TrunkClass::International => 50.0,
        }
    }

    /// Cost units per second of occupancy.
    pub fn per_second_cost(self) -> f64 {
        match self {
            TrunkClass::Local => 0.01,
            TrunkClass::National => 0.10,
            TrunkClass::International => 1.00,
        }
    }

    /// Counter name used in simulation statistics.
    pub fn counter_name(self) -> &'static str {
        match self {
            TrunkClass::Local => "pstn.trunk_local_seized",
            TrunkClass::National => "pstn.trunk_national_seized",
            TrunkClass::International => "pstn.trunk_international_seized",
        }
    }
}

/// One trunk occupancy interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrunkUse {
    /// The call occupying the trunk.
    pub call: CallId,
    /// Tariff class.
    pub class: TrunkClass,
    /// When the trunk was seized.
    pub seized_at: SimTime,
    /// When it was released (`None` while still occupied).
    pub released_at: Option<SimTime>,
}

impl TrunkUse {
    /// Occupancy duration up to `now` (or to release, if released).
    pub fn held_for(&self, now: SimTime) -> SimDuration {
        self.released_at
            .unwrap_or(now)
            .saturating_duration_since(self.seized_at)
    }

    /// Total cost of this occupancy at time `now`.
    pub fn cost(&self, now: SimTime) -> f64 {
        self.class.setup_cost() + self.class.per_second_cost() * self.held_for(now).as_secs_f64()
    }
}

/// A switch's accounting ledger.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    entries: Vec<TrunkUse>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records a seizure.
    pub fn seize(&mut self, call: CallId, class: TrunkClass, at: SimTime) {
        self.entries.push(TrunkUse {
            call,
            class,
            seized_at: at,
            released_at: None,
        });
    }

    /// Marks every open entry of `call` released.
    pub fn release(&mut self, call: CallId, at: SimTime) {
        for e in &mut self.entries {
            if e.call == call && e.released_at.is_none() {
                e.released_at = Some(at);
            }
        }
    }

    /// All entries.
    pub fn entries(&self) -> &[TrunkUse] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_cost_ordering() {
        assert!(TrunkClass::International.setup_cost() > TrunkClass::National.setup_cost());
        assert!(TrunkClass::National.setup_cost() > TrunkClass::Local.setup_cost());
        assert!(
            TrunkClass::International.per_second_cost() > TrunkClass::Local.per_second_cost()
        );
    }

    #[test]
    fn ledger_tracks_occupancy() {
        let mut ledger = Ledger::new();
        let call = CallId(1);
        ledger.seize(call, TrunkClass::International, SimTime::from_micros(0));
        ledger.seize(call, TrunkClass::International, SimTime::from_micros(0));
        ledger.seize(CallId(2), TrunkClass::Local, SimTime::from_micros(0));
        ledger.release(call, SimTime::from_micros(10_000_000));
        let open: Vec<_> = ledger
            .entries()
            .iter()
            .filter(|e| e.released_at.is_none())
            .collect();
        assert_eq!(open.len(), 1, "only the other call's trunk stays open");
    }

    #[test]
    fn cost_grows_with_time() {
        let mut ledger = Ledger::new();
        let call = CallId(1);
        ledger.seize(call, TrunkClass::International, SimTime::ZERO);
        let trunk = &ledger.entries()[0];
        let early = trunk.cost(SimTime::from_micros(1_000_000));
        let late = trunk.cost(SimTime::from_micros(60_000_000));
        assert!(late > early);
        // 50 setup + 60 s × 1.0
        assert!((late - 110.0).abs() < 1e-9);
    }

    #[test]
    fn held_for_stops_at_release() {
        let mut u = TrunkUse {
            call: CallId(1),
            class: TrunkClass::Local,
            seized_at: SimTime::from_micros(0),
            released_at: None,
        };
        assert_eq!(
            u.held_for(SimTime::from_micros(500)),
            SimDuration::from_micros(500)
        );
        u.released_at = Some(SimTime::from_micros(300));
        assert_eq!(
            u.held_for(SimTime::from_micros(500)),
            SimDuration::from_micros(300)
        );
    }
}
