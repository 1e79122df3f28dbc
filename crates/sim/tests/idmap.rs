//! What `RandomState` gave for free and a fixed hash has to show: the
//! keys this repository really hashes spread over a table's buckets and
//! tags. Counts, not timings. Every bound is what a uniformly random
//! 64-bit hash reaches for the same number of keys (the worst of ten
//! draws at 2¹⁶ keys, of two hundred at a few hundred), so the fixed hash
//! has to be no worse than the one it replaced.

use std::hash::{BuildHasher, BuildHasherDefault, Hash};

use vgprs_sim::{census_counters, IdHasher, Interface, JsonValue};
use vgprs_wire::{ConnRef, Imsi, Ipv4Addr, Msisdn, Nsapi, Teid, Tmsi};

fn hash_of<K: Hash>(key: K) -> u64 {
    BuildHasherDefault::<IdHasher>::default().hash_one(key)
}

/// Largest count in a histogram of `values` over `slots` cells.
fn fullest(values: impl Iterator<Item = u64>, slots: usize) -> u32 {
    let mut cells = vec![0u32; slots];
    for v in values {
        cells[v as usize] += 1;
    }
    cells.into_iter().max().expect("at least one cell")
}

/// The three things hashbrown reads from a hash, for `keys` in the table
/// it would grow to hold them (load factor ≤ 7/8):
///
/// * bucket index = low bits: no bucket holds more than `bucket_max` keys;
/// * probe group = 16 consecutive slots: none holds more than
///   `group_factor` × its fair share;
/// * tag = top 7 bits: the commonest tag occurs at most `tag_factor` ×
///   its fair share.
fn assert_spread<K: Hash>(shape: &str, keys: impl Iterator<Item = K>, bounds: (u32, f64, f64)) {
    let hashes: Vec<u64> = keys.map(hash_of).collect();
    let n = hashes.len();
    let mut distinct = hashes.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), n, "{shape}: two keys share all 64 bits");

    let (bucket_max, group_factor, tag_factor) = bounds;
    let buckets = n.next_power_of_two();
    let bucket = fullest(hashes.iter().map(|h| h & (buckets as u64 - 1)), buckets);
    assert!(
        bucket <= bucket_max,
        "{shape}: {bucket} keys in one of {buckets} buckets"
    );

    let slots = (n * 8 / 7 + 1).next_power_of_two();
    let group = fullest(
        hashes.iter().map(|h| (h & (slots as u64 - 1)) / 16),
        slots / 16,
    );
    let fair = n as f64 * 16.0 / slots as f64;
    assert!(
        f64::from(group) <= group_factor * fair,
        "{shape}: {group} keys in one 16-slot group of {slots} slots, fair share {fair:.1}"
    );

    let tag = fullest(hashes.iter().map(|h| h >> 57), 128);
    let fair = n as f64 / 128.0;
    assert!(
        f64::from(tag) <= tag_factor * fair,
        "{shape}: one tag on {tag} of {n} keys, fair share {fair:.1}"
    );
}

/// 2¹⁶ consecutive identifiers, as the nodes issue them.
const RUN: u32 = 1 << 16;
/// Bounds for a run of [`RUN`] keys in its 2¹⁷-slot table, 8 keys to a
/// group and 512 to a tag. Random draws: fullest bucket 7–8, fullest
/// group 19–21, commonest tag 564–589. (Measured here: the integer keys
/// reach 3, 9 and 518; the BCD-packed `Imsi` and `Msisdn` 7, 21 and 555.)
const RUN_BOUNDS: (u32, f64, f64) = (8, 21.0 / 8.0, 589.0 / 512.0);

#[test]
fn consecutive_identifiers_spread_over_buckets_groups_and_tags() {
    let imsi = |g: u32| Imsi::parse(&format!("466920{g:09}")).expect("generated IMSI");
    let nsapi = Nsapi::new(Nsapi::MIN).expect("lowest NSAPI");
    assert_spread("Imsi", (0..RUN).map(imsi), RUN_BOUNDS);
    assert_spread(
        "Msisdn",
        (0..RUN).map(|g| Msisdn::parse(&format!("88691{g:07}")).expect("generated MSISDN")),
        RUN_BOUNDS,
    );
    assert_spread("Tmsi", (0..RUN).map(|n| Tmsi(0xA000_0000 | n)), RUN_BOUNDS);
    assert_spread("Teid", (0..RUN).map(|n| Teid(0x6000_0000 | n)), RUN_BOUNDS);
    // A BTS puts its node index in the high half; two cells' worth.
    assert_spread(
        "ConnRef",
        (0..RUN).map(|n| ConnRef((7 + (n >> 15)) << 16 | (n & 0x7FFF))),
        RUN_BOUNDS,
    );
    assert_spread(
        "Ipv4Addr",
        (0..RUN).map(|n| Ipv4Addr(Ipv4Addr::from_octets(10, 200, 0, 0).0 | n)),
        RUN_BOUNDS,
    );
    assert_spread(
        "(Imsi, Nsapi)",
        (0..RUN).map(|g| (imsi(g), nsapi)),
        RUN_BOUNDS,
    );
}

#[test]
fn stat_names_and_report_paths_spread() {
    // The committed small canonical run names every counter, histogram
    // and report path a population run creates: what `Stats` interns and
    // what `harness diff` looks up.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/load_small.json"
    );
    let text = std::fs::read_to_string(path).expect("committed baseline");
    let report = JsonValue::parse(&text).expect("baseline parses");
    let mut names: Vec<String> = report.flatten().into_iter().map(|(p, _)| p).collect();
    for section in ["counters", "histograms"] {
        let Some(JsonValue::Object(members)) = report.get(section) else {
            panic!("baseline has no {section} object");
        };
        names.extend(members.iter().map(|(k, _)| k.clone()));
    }
    for iface in Interface::ALL {
        names.extend(census_counters(iface).map(String::from));
    }
    names.sort_unstable();
    names.dedup();
    assert!(names.len() > 400, "only {} names", names.len());
    // 487 names today, in 1 024 slots: 7.6 to a group, 3.8 to a tag.
    // Random draws reach 7 in a bucket, 19 in a group, 14 on a tag
    // (medians 5, 14, 10); measured here 6, 15 and 10.
    assert_spread("names", names.iter().map(String::as_str), (7, 2.5, 3.7));
}
