//! Property tests for the WAL record format: every record round-trips
//! byte-exactly, strict prefixes of a valid record read as torn (never as
//! a different record, never a panic), and a log of committed groups of
//! publications cut at an arbitrary byte recovers exactly some prefix of
//! whole groups — nothing reordered, nothing invented, no group split.

use fstore_common::{ComponentKind, DeltaRecord};
use fstore_durable::wal::{decode_record, encode_record, recover};
use fstore_durable::{FsyncPolicy, WalRecord, WalWriter};
use proptest::prelude::*;
use std::path::PathBuf;

fn arb_component() -> impl Strategy<Value = ComponentKind> {
    prop_oneof![
        Just(ComponentKind::Offline),
        Just(ComponentKind::Embeddings),
        Just(ComponentKind::Index),
        Just(ComponentKind::Online),
    ]
}

fn arb_body() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("{}".to_string()),
        Just("{\"tables\":[],\"appends\":[]}".to_string()),
        Just("unicodé → 🦀 and \"quotes\"".to_string()),
        proptest::collection::vec(any::<u8>(), 0..200)
            .prop_map(|bs| String::from_utf8_lossy(&bs).into_owned()),
    ]
}

fn arb_delta() -> impl Strategy<Value = DeltaRecord> {
    (any::<u64>(), arb_component(), any::<u64>(), arb_body()).prop_map(
        |(seq, component, component_epoch, body)| DeltaRecord {
            seq,
            component,
            component_epoch,
            body,
        },
    )
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        arb_delta().prop_map(WalRecord::Delta),
        any::<u64>().prop_map(|seq| WalRecord::Commit { seq }),
    ]
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fstore_wal_props_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

proptest! {
    /// Encode → decode is the identity, and decode consumes exactly the
    /// encoded length (so records can be streamed back-to-back).
    #[test]
    fn records_round_trip_byte_exactly(record in arb_record()) {
        let bytes = encode_record(&record);
        let (decoded, consumed) = decode_record(&bytes).unwrap().expect("complete record");
        prop_assert_eq!(decoded, record);
        prop_assert_eq!(consumed, bytes.len());
    }

    /// A strict prefix of a record is always "torn" (`Ok(None)`) — it is
    /// never misread as a complete record and never an error, because a
    /// writer cut mid-append must look like a clean tail to recovery.
    #[test]
    fn strict_prefixes_read_as_torn(record in arb_record(), permille in 0u32..1000) {
        let bytes = encode_record(&record);
        let cut = bytes.len() * permille as usize / 1000; // < len since permille < 1000
        prop_assert!(decode_record(&bytes[..cut]).unwrap().is_none());
    }

    /// Two records streamed back-to-back decode in order from one buffer.
    #[test]
    fn concatenated_records_decode_in_order(a in arb_record(), b in arb_record()) {
        let mut buf = encode_record(&a);
        let second = encode_record(&b);
        buf.extend_from_slice(&second);
        let (first, used) = decode_record(&buf).unwrap().expect("first record");
        prop_assert_eq!(first, a);
        let (rest, used2) = decode_record(&buf[used..]).unwrap().expect("second record");
        prop_assert_eq!(rest, b);
        prop_assert_eq!(used + used2, buf.len());
    }

    /// Write committed groups of random size with one `append_group`
    /// each, cut the file at an arbitrary byte, and recover: the result is
    /// exactly the longest prefix of *whole* groups that fits in the cut —
    /// in order, byte-preserved, and stable under a second recovery.
    #[test]
    fn any_cut_recovers_an_exact_committed_prefix(
        groups in proptest::collection::vec(proptest::collection::vec(arb_body(), 1..5), 1..6),
        permille in 0u32..1001,
    ) {
        let path = tmp(&format!("cut-{:x}.log", crc_of(&groups.concat(), permille)));
        std::fs::remove_file(&path).ok();

        // Write the full log and remember where each group ends and how
        // many deltas precede that end.
        let mut writer = WalWriter::open(&path, FsyncPolicy::Never, true).unwrap();
        let mut group_ends = Vec::new();
        let mut deltas = Vec::new();
        let mut end = 0usize;
        for bodies in &groups {
            let first = deltas.len() as u64 + 1;
            end += writer
                .append_group(first, ComponentKind::Online, 0, bodies)
                .unwrap()
                .bytes as usize;
            for (seq, body) in (first..).zip(bodies) {
                deltas.push(DeltaRecord {
                    seq,
                    component: ComponentKind::Online,
                    component_epoch: 0,
                    body: body.clone(),
                });
            }
            group_ends.push((end, deltas.len()));
        }
        writer.sync().unwrap();
        drop(writer);

        let full = std::fs::read(&path).unwrap();
        prop_assert_eq!(full.len(), end);
        let cut = full.len() * permille as usize / 1000;
        std::fs::write(&path, &full[..cut]).unwrap();

        let (keep, survivors) = group_ends
            .iter()
            .copied()
            .take_while(|&(end, _)| end <= cut)
            .last()
            .unwrap_or((0, 0));
        let replay = recover(&path).unwrap();
        prop_assert_eq!(replay.committed.len(), survivors);
        prop_assert_eq!(&replay.committed[..], &deltas[..survivors]);
        prop_assert_eq!(replay.last_seq, survivors as u64);
        prop_assert_eq!(replay.truncated_bytes, (cut - keep) as u64);

        // The truncation left exactly the durable prefix on disk, and a
        // second recovery is a clean no-op over it.
        let after = std::fs::read(&path).unwrap();
        prop_assert_eq!(&after[..], &full[..keep]);
        let again = recover(&path).unwrap();
        prop_assert_eq!(again.committed.len(), survivors);
        prop_assert_eq!(again.truncated_bytes, 0);

        std::fs::remove_file(&path).ok();
    }
}

/// A stable per-case file name so parallel proptest cases don't collide.
fn crc_of(bodies: &[String], permille: u32) -> u32 {
    let mut buf = Vec::new();
    for b in bodies {
        buf.extend_from_slice(b.as_bytes());
        buf.push(0);
    }
    buf.extend_from_slice(&permille.to_le_bytes());
    fstore_common::crc32(&buf)
}
