//! Named reference points between network elements.
//!
//! GSM/GPRS architecture documents name every link between two element
//! types (GSM 03.02, GSM 03.60): the air interface is *Um*, BTS–BSC is
//! *Abis*, BSC–MSC is *A*, and so on. Tagging every simulated link with its
//! interface lets traces state not only *who* exchanged a message but *over
//! which reference point*, which is exactly how the paper's Figure 3
//! describes the protocol stack.

use std::fmt;


/// The reference point a [`Link`](crate::Link) models.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[non_exhaustive]
pub enum Interface {
    /// MS ↔ BTS radio interface (GSM 04.08).
    Um,
    /// BTS ↔ BSC (GSM 08.5x).
    Abis,
    /// BSC ↔ MSC/VMSC (GSM 08.08).
    A,
    /// MSC/VMSC ↔ VLR (MAP, GSM 09.02).
    B,
    /// MSC/VMSC ↔ HLR (MAP).
    C,
    /// VLR ↔ HLR (MAP).
    D,
    /// MSC ↔ MSC (MAP, inter-system handoff).
    E,
    /// SGSN ↔ HLR (MAP, GPRS).
    Gr,
    /// BSC(PCU) ↔ SGSN (GSM 08.14/08.16).
    Gb,
    /// SGSN ↔ GGSN (GTP, GSM 09.60).
    Gn,
    /// GGSN ↔ external packet-data network.
    Gi,
    /// Generic IP LAN segment inside the H.323 zone.
    Lan,
    /// SS7 ISUP trunk signaling between switches.
    Isup,
    /// Circuit-switched voice trunk (bearer, not signaling).
    Trunk,
    /// Node-internal companion channel (e.g. VMSC vocoder ↔ PCU).
    Internal,
}

impl Interface {
    /// All interfaces, in a stable order (useful for reports).
    pub const ALL: [Interface; 15] = [
        Interface::Um,
        Interface::Abis,
        Interface::A,
        Interface::B,
        Interface::C,
        Interface::D,
        Interface::E,
        Interface::Gr,
        Interface::Gb,
        Interface::Gn,
        Interface::Gi,
        Interface::Lan,
        Interface::Isup,
        Interface::Trunk,
        Interface::Internal,
    ];

    /// Position in [`Interface::ALL`]: a dense index for per-interface
    /// tables (the network's delivery census).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short name as used in architecture diagrams.
    pub fn name(self) -> &'static str {
        match self {
            Interface::Um => "Um",
            Interface::Abis => "Abis",
            Interface::A => "A",
            Interface::B => "B",
            Interface::C => "C",
            Interface::D => "D",
            Interface::E => "E",
            Interface::Gr => "Gr",
            Interface::Gb => "Gb",
            Interface::Gn => "Gn",
            Interface::Gi => "Gi",
            Interface::Lan => "LAN",
            Interface::Isup => "ISUP",
            Interface::Trunk => "Trunk",
            Interface::Internal => "Int",
        }
    }

    /// True for interfaces that carry SS7/MAP signaling.
    pub fn is_ss7(self) -> bool {
        matches!(
            self,
            Interface::B
                | Interface::C
                | Interface::D
                | Interface::E
                | Interface::Gr
                | Interface::Isup
        )
    }

    /// True for interfaces belonging to the GPRS packet core.
    pub fn is_packet_core(self) -> bool {
        matches!(
            self,
            Interface::Gb | Interface::Gn | Interface::Gi | Interface::Lan
        )
    }
}

impl fmt::Display for Interface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = [
            Interface::Um,
            Interface::Abis,
            Interface::A,
            Interface::B,
            Interface::C,
            Interface::D,
            Interface::E,
            Interface::Gr,
            Interface::Gb,
            Interface::Gn,
            Interface::Gi,
            Interface::Lan,
            Interface::Isup,
            Interface::Trunk,
            Interface::Internal,
        ]
        .iter()
        .map(|i| i.name())
        .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, iface) in Interface::ALL.iter().enumerate() {
            assert_eq!(iface.index(), i);
        }
    }

    #[test]
    fn classification() {
        assert!(Interface::B.is_ss7());
        assert!(Interface::Isup.is_ss7());
        assert!(!Interface::Um.is_ss7());
        assert!(Interface::Gn.is_packet_core());
        assert!(!Interface::A.is_packet_core());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Interface::Gb.to_string(), "Gb");
        assert_eq!(Interface::Lan.to_string(), "LAN");
    }
}
