//! Simulated GSM authentication (A3) and ciphering-key (A8) algorithms.
//!
//! The real SIM algorithms (typically COMP128) are operator secrets. The
//! reproduction substitutes a keyed 64-bit mixing function with the same
//! interface — `(Ki, RAND) → SRES` and `(Ki, RAND) → Kc` — because the
//! paper's flows depend only on the challenge–response *shape*, never on
//! cryptographic strength (see DESIGN.md, substitution table).

use vgprs_sim::NumberBlock;
use vgprs_wire::{AuthTriplet, Imsi};

/// A subscriber's secret key, shared between SIM and AuC.
pub type Ki = u64;

/// SplitMix64-style avalanche; good bit diffusion, trivially fast.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A3: computes the signed response for a challenge.
pub fn a3_sres(ki: Ki, rand: u64) -> u32 {
    (mix(ki ^ mix(rand)) >> 32) as u32
}

/// A8: derives the ciphering key for a challenge.
pub fn a8_kc(ki: Ki, rand: u64) -> u64 {
    mix(mix(ki) ^ rand)
}

/// The home network's Authentication Centre: holds every subscriber's Ki
/// and mints [`AuthTriplet`]s on demand (embedded in the HLR node, as is
/// conventional).
#[derive(Debug, Default)]
pub struct AuthCenter {
    keys: NumberBlock<Imsi, Ki>,
}

impl AuthCenter {
    /// Creates an empty AuC.
    pub fn new() -> Self {
        AuthCenter::default()
    }

    /// Gives the `count` IMSIs from `first` on a dense key slot each
    /// (see [`Hlr::declare_block`](crate::Hlr::declare_block)).
    pub fn declare_block(&mut self, first: Imsi, count: usize) {
        self.keys.declare(first, count);
    }

    /// Provisions a subscriber key. Re-provisioning replaces the old key.
    pub fn provision(&mut self, imsi: Imsi, ki: Ki) {
        self.keys.insert(imsi, ki);
    }

    /// True if the subscriber has a key.
    pub fn knows(&self, imsi: &Imsi) -> bool {
        self.keys.contains_key(imsi)
    }

    /// Mints a triplet for the subscriber using the caller-supplied
    /// challenge (the HLR draws it from the simulation RNG).
    ///
    /// Returns `None` for unknown subscribers.
    pub fn generate(&self, imsi: &Imsi, rand: u64) -> Option<AuthTriplet> {
        let ki = *self.keys.get(imsi)?;
        Some(AuthTriplet {
            rand,
            sres: a3_sres(ki, rand),
            kc: a8_kc(ki, rand),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi() -> Imsi {
        Imsi::parse("466920123456789").unwrap()
    }

    #[test]
    fn a3_deterministic() {
        assert_eq!(a3_sres(42, 1000), a3_sres(42, 1000));
    }

    #[test]
    fn a3_sensitive_to_key_and_challenge() {
        assert_ne!(a3_sres(42, 1000), a3_sres(43, 1000));
        assert_ne!(a3_sres(42, 1000), a3_sres(42, 1001));
    }

    #[test]
    fn a8_differs_from_a3_channel() {
        // Kc and SRES must not be trivially related.
        let kc = a8_kc(42, 1000);
        let sres = a3_sres(42, 1000);
        assert_ne!(kc as u32, sres);
        assert_ne!((kc >> 32) as u32, sres);
    }

    #[test]
    fn auc_generates_verifiable_triplets() {
        let mut auc = AuthCenter::new();
        auc.provision(imsi(), 0xDEAD);
        let t = auc.generate(&imsi(), 777).expect("provisioned");
        // The SIM side computes the same SRES from the same Ki + RAND.
        assert_eq!(t.sres, a3_sres(0xDEAD, 777));
        assert_eq!(t.kc, a8_kc(0xDEAD, 777));
        assert_eq!(t.rand, 777);
    }

    #[test]
    fn auc_unknown_subscriber() {
        let auc = AuthCenter::new();
        assert!(auc.generate(&imsi(), 1).is_none());
        assert!(!auc.knows(&imsi()));
    }

    #[test]
    fn wrong_key_fails_verification() {
        let mut auc = AuthCenter::new();
        auc.provision(imsi(), 0xDEAD);
        let t = auc.generate(&imsi(), 777).unwrap();
        // An impostor SIM with the wrong Ki produces a different SRES.
        assert_ne!(a3_sres(0xBEEF, t.rand), t.sres);
    }

    #[test]
    fn reprovision_replaces_key() {
        let mut auc = AuthCenter::new();
        auc.provision(imsi(), 1);
        auc.provision(imsi(), 2);
        let t = auc.generate(&imsi(), 9).unwrap();
        assert_eq!(t.sres, a3_sres(2, 9));
    }
}
