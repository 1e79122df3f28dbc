//! `NumberBlock` against an `IdMap` model: the same seeded operations on
//! both, with keys inside a declared series, just outside it, and with the
//! same value at another digit count, which must never share a slot — for
//! the decimal numbers (IMSI, MSISDN) and for the IDs a node issues from a
//! counter (TMSI, TEID, connection reference, address).

use std::fmt::Debug;

use vgprs_sim::{IdMap, NumberBlock, NumberKey, SimRng};
use vgprs_wire::{ConnRef, Imsi, Ipv4Addr, Msisdn, Teid, Tmsi};

/// Keys `lo..hi` at `digits` digits (the ones that fit).
fn run<K: NumberKey>(lo: u64, hi: u64, digits: usize) -> impl Iterator<Item = K> {
    (lo..hi).filter_map(move |v| K::from_number(v, digits))
}

/// Both tables hold the same keys with the same values, and a walk of the
/// block visits each exactly once.
fn assert_same<K: NumberKey + Ord + Debug>(block: &NumberBlock<K, u64>, model: &IdMap<K, u64>) {
    assert_eq!(block.len(), model.len());
    assert_eq!(block.is_empty(), model.is_empty());
    let mut walked: Vec<(K, u64)> = block.iter().map(|(k, v)| (k, *v)).collect();
    let mut expected: Vec<(K, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    walked.sort();
    expected.sort();
    assert_eq!(walked, expected);
    let mut keys: Vec<K> = block.keys().collect();
    keys.sort();
    assert_eq!(keys, expected.iter().map(|(k, _)| *k).collect::<Vec<_>>());
    let mut values: Vec<u64> = block.values().copied().collect();
    let mut want: Vec<u64> = expected.iter().map(|(_, v)| *v).collect();
    values.sort();
    want.sort();
    assert_eq!(values, want);
}

/// Seeded random insert, get, get_mut, get-or-insert and remove over
/// `pool`, on a block with `series` declared and on the model.
fn against_the_model<K: NumberKey + Ord + Debug>(series: &[(K, usize)], pool: &[K], seed: u64) {
    let mut block = NumberBlock::default();
    for &(first, count) in series {
        block.declare(first, count);
    }
    let mut model: IdMap<K, u64> = IdMap::default();
    let mut rng = SimRng::new(seed);
    for step in 0..20_000u64 {
        let key = pool[rng.range(0, pool.len() as u64) as usize];
        match rng.range(0, 7) {
            0 | 1 => assert_eq!(block.insert(key, step), model.insert(key, step), "{key:?}"),
            2 => assert_eq!(block.remove(&key), model.remove(&key), "{key:?}"),
            3 => {
                let got = block.get_mut(&key).map(|v| {
                    *v += 1;
                    *v
                });
                let want = model.get_mut(&key).map(|v| {
                    *v += 1;
                    *v
                });
                assert_eq!(got, want, "{key:?}");
            }
            4 => {
                let got = *block.get_or_insert_with(key, || step);
                let want = *model.entry(key).or_insert_with(|| step);
                assert_eq!(got, want, "{key:?}");
            }
            5 => assert_eq!(
                block.contains_key(&key),
                model.contains_key(&key),
                "{key:?}"
            ),
            _ => assert_eq!(block.get(&key), model.get(&key), "{key:?}"),
        }
        if step % 1_000 == 999 {
            assert_same(&block, &model);
        }
        if step == 12_345 {
            block.clear();
            model.clear();
            assert_same(&block, &model);
        }
    }
    assert_same(&block, &model);
}

#[test]
fn msisdn_blocks_match_the_model() {
    // Two series, as the gatekeeper declares them: one starting on
    // leading zeros, one with the run's own prefix.
    let zeros = Msisdn::parse("0000100").expect("7 digits");
    let home = Msisdn::parse("88691000010").expect("11 digits");
    let mut pool: Vec<Msisdn> = Vec::new();
    for digits in [5, 6, 7, 8] {
        // 7 digits is the series and its edges; the same values at 5, 6
        // and 8 digits differ from it only in leading zeros.
        pool.extend(run::<Msisdn>(90, 160, digits));
    }
    for digits in [11, 12] {
        pool.extend(run::<Msisdn>(88_691_000_000, 88_691_000_060, digits));
    }
    against_the_model(&[(zeros, 50), (home, 40)], &pool, 1);
    against_the_model(&[(zeros, 50), (home, 40)], &pool, 2);
    // Undeclared, every key is hashed.
    against_the_model(&[], &pool, 3);
}

#[test]
fn imsi_blocks_match_the_model() {
    let first = Imsi::parse("466920000000100").expect("15 digits");
    let mut pool: Vec<Imsi> = run(466_920_000_000_090, 466_920_000_000_240, 15).collect();
    // The same values one digit shorter cannot exist, but a 14-digit
    // IMSI with the value of a slot's offset can; and the ends of the
    // number space, all zeros and all nines, sit outside any series.
    pool.extend(run::<Imsi>(46_692_000_000_090, 46_692_000_000_240, 14));
    pool.extend(run::<Imsi>(0, 4, 15).chain(run(0, 4, 14)));
    pool.extend(run::<Imsi>(999_999_999_999_990, 1_000_000_000_000_000, 15));
    against_the_model(&[(first, 128)], &pool, 4);
}

#[test]
fn a_slot_emptied_by_remove_takes_its_key_again() {
    let first = Imsi::parse("466920000000000").expect("15 digits");
    let mut block: NumberBlock<Imsi, u32> = NumberBlock::default();
    block.declare(first, 8);
    let keys: Vec<Imsi> = run(466_920_000_000_000, 466_920_000_000_008, 15).collect();
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(block.insert(k, i as u32), None);
    }
    assert_eq!(block.remove(&keys[3]), Some(3));
    assert_eq!((block.len(), block.get(&keys[3])), (7, None));
    assert_eq!(block.keys().count(), 7, "the hole is not walked");
    assert_eq!(*block.get_or_insert_with(keys[3], || 30), 30);
    assert_eq!(block.insert(keys[3], 31), Some(30));
    assert_eq!(block.len(), 8);
    // The walk is the series in number order.
    assert_eq!(block.keys().collect::<Vec<_>>(), keys);
}

#[test]
#[should_panic(expected = "number series overlap")]
fn overlapping_series_are_refused() {
    let mut block: NumberBlock<Msisdn, u32> = NumberBlock::default();
    block.declare(Msisdn::parse("886910000000").expect("12 digits"), 100);
    block.declare(Msisdn::parse("886910000099").expect("12 digits"), 100);
}

#[test]
#[should_panic(expected = "before the first insert")]
fn a_series_is_declared_on_an_empty_table() {
    let mut block: NumberBlock<Msisdn, u32> = NumberBlock::default();
    let first = Msisdn::parse("886910000000").expect("12 digits");
    block.insert(first, 1);
    block.declare(first, 100);
}

/// A series of `count` issued IDs from raw value `first`, as a register
/// declares it, against the model; the pool runs a few IDs either side of
/// it and takes in both ends of the 32-bit space.
fn issued_series<K: NumberKey + Ord + Debug>(make: fn(u32) -> K, first: u32, seed: u64) {
    let count = 64;
    let mut pool: Vec<K> = (first - 3..first + count + 3).map(make).collect();
    pool.extend([make(0), make(1), make(u32::MAX)]);
    against_the_model(&[(make(first), count as usize)], &pool, seed);
}

#[test]
fn issued_id_blocks_match_the_model() {
    // As the home zone declares them: a VLR's TMSIs, an SGSN's tunnel
    // ends, a BTS's connection references (its node index in the upper
    // half) and a GGSN's first pool addresses.
    issued_series(Tmsi, 0xA000_0001, 5);
    issued_series(Teid, 0x5000_0001, 6);
    issued_series(ConnRef, 7 << 16 | 1, 7);
    issued_series(Ipv4Addr, Ipv4Addr::from_octets(10, 200, 0, 1).0, 8);
}

#[test]
fn the_ids_either_side_of_a_series_are_hashed() {
    let mut block: NumberBlock<Teid, u32> = NumberBlock::default();
    block.declare(Teid(0x5000_0001), 4);
    for raw in 0x5000_0000..=0x5000_0005 {
        assert_eq!(block.insert(Teid(raw), raw), None);
    }
    // A walk is the series in number order, then the hashed keys: the
    // one before the series and the one past it.
    let walk: Vec<u32> = block.keys().map(|t| t.0).collect();
    assert_eq!(walk[..4], [0x5000_0001, 0x5000_0002, 0x5000_0003, 0x5000_0004]);
    let mut rest = walk[4..].to_vec();
    rest.sort();
    assert_eq!(rest, [0x5000_0000, 0x5000_0005]);
    assert!(block.iter().all(|(k, &v)| k.0 == v));
}

#[test]
fn issued_ids_of_one_value_are_different_numbers() {
    let raw = 0x5000_0001;
    let numbers = [
        Tmsi(raw).number(),
        Teid(raw).number(),
        ConnRef(raw).number(),
        Ipv4Addr(raw).number(),
    ];
    // One value, four width tags, none of them a digit count.
    assert!(numbers.iter().all(|&(value, _)| value == u64::from(raw)));
    for (i, a) in numbers.iter().enumerate() {
        assert!(a.1 > 15, "{a:?} could be a decimal number's");
        assert!(numbers[i + 1..].iter().all(|b| b.1 != a.1), "{a:?} shared");
    }
    // Each kind reads back only its own numbers.
    let (value, tmsi_tag) = numbers[0];
    assert_eq!(Tmsi::from_number(value, tmsi_tag), Some(Tmsi(raw)));
    assert_eq!(Teid::from_number(value, tmsi_tag), None);
    assert_eq!(Tmsi::from_number(1 << 32, tmsi_tag), None, "past 32 bits");
}
