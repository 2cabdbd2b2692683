//! The sliced CRC-32 against a bytewise reference kept here: the same
//! reflected `0xEDB88320` polynomial, one byte and eight shifts at a time,
//! with no table. Every length 0..=4,096 at every start offset mod 16, so
//! each count of whole 16-byte steps meets each tail length and each
//! alignment; and every split point of the incremental form, so a chain of
//! calls equals one call wherever a step boundary falls.

use fstore_common::crc::{crc32, crc32_update};
use proptest::prelude::*;

const MAX_LEN: usize = 4096;
const MAX_SKEW: usize = 16;

fn reference_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Seeded bytes with no short period, so no two steps read alike.
fn bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        })
        .collect()
}

#[test]
fn every_length_at_every_offset_matches_the_reference() {
    let data = bytes(MAX_LEN + MAX_SKEW, 0x9E37_79B9_7F4A_7C15);
    for len in 0..=MAX_LEN {
        let skew = len % MAX_SKEW;
        let slice = &data[skew..][..len];
        assert_eq!(crc32(slice), reference_update(0, slice), "len {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_slice_from_any_running_value_matches_the_reference(
        data in collection::vec(any::<u8>(), MAX_LEN + MAX_SKEW..MAX_LEN + MAX_SKEW + 1),
        skew in 0usize..MAX_SKEW,
        len in 0usize..MAX_LEN + 1,
        running in any::<u32>(),
    ) {
        let slice = &data[skew..][..len];
        prop_assert_eq!(crc32_update(running, slice), reference_update(running, slice));
    }

    #[test]
    fn every_split_point_chains_to_the_one_shot_value(
        seed in any::<u64>(),
        len in 0usize..MAX_LEN + 1,
    ) {
        let data = bytes(len, seed);
        let whole = reference_update(0, &data);
        prop_assert_eq!(crc32(&data), whole);
        for split in 0..=len {
            let (head, tail) = data.split_at(split);
            prop_assert_eq!(crc32_update(crc32_update(0, head), tail), whole, "split {}", split);
        }
    }
}
