//! The binary formats a restart or a new follower reads — a full-snapshot
//! payload, a checkpoint's `online.bin`, a WAL delta + commit pair:
//!
//! * a golden fixture pins their bytes, in the `golden_frames.bin`
//!   pattern: the current encoders must reproduce it exactly and the
//!   decoders must read it back to the same values;
//! * decoding is total: every truncation point and every single-bit flip
//!   is a typed error (a torn tail, for the WAL), never a panic, and a
//!   body mutated *inside* an intact envelope — so the structure decoders
//!   run, not just the CRC — never reserves more than its length implies.
//!
//! Fixture format (`tests/golden_records.bin`): a sequence of records,
//! each `kind u8 (0 = snapshot payload, 1 = online.bin, 2 = WAL pair) |
//! len u32 BE | bytes`. Regenerate with `FSTORE_GOLDEN_REGEN=1 cargo test
//! -p fstore-durable --test formats` only when a format changes *on
//! purpose*.

use fstore_common::{
    crc32_update, ComponentKind, DeltaRecord, EntityKey, FsError, Schema, Timestamp, Value,
    ValueType,
};
use fstore_durable::checkpoint::{decode_online_bin, encode_online_bin, ONLINE_MAGIC};
use fstore_durable::codec::{
    crc_block, decode_snapshot, encode, encode_snapshot, online_body, FullSnapshot, IndexBuild,
    OnlineDelta, OnlineRows, VersionRepr, SNAPSHOT_MAGIC,
};
use fstore_durable::wal::{decode_record, encode_record};
use fstore_durable::{FsyncPolicy, WalRecord, WalWriter};
use fstore_embed::EmbeddingProvenance;
use fstore_index::{HnswConfig, IvfConfig};
use fstore_serve::IndexSpec;
use fstore_storage::{OfflineStore, OnlineStore, TableConfig};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

thread_local! {
    /// The largest single allocation this thread asked for since the last
    /// reset; the harness's other threads don't disturb it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Tracking;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is updating a `const`-initialised, destructor-free thread-local, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        // SAFETY: forwarded with the caller's arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Decode `bytes` with `decode`, asserting that no single allocation is
/// out of proportion to the input: a count read from the bytes may size a
/// reservation only as far as the bytes left could fill it.
fn decode_bounded<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    LARGEST.with(|l| l.set(0));
    let out = decode(bytes);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 256 * bytes.len() + (64 << 10),
        "decoding {} bytes reserved {largest} at once",
        bytes.len()
    );
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_records.bin")
}

/// One snapshot touching every encoding: sealed and open offline
/// segments with a null, an embedding version, every `Value` tag across
/// two groups, and all three index families.
fn sample() -> FullSnapshot {
    let mut offline = OfflineStore::new();
    offline
        .create_table(
            "events",
            TableConfig::new(Schema::of(&[("n", ValueType::Int), ("s", ValueType::Str)]))
                .with_segment_rows(2),
        )
        .unwrap();
    for (n, s) in [
        (1, Value::Str("a".into())),
        (2, Value::Null),
        (3, "b🦀".into()),
    ] {
        offline.append("events", &[Value::Int(n), s]).unwrap();
    }

    let online = OnlineStore::default();
    online.put_row(
        "user",
        &EntityKey::new("u1"),
        &[
            ("n", Value::Null),
            ("i", Value::Int(i64::MIN)),
            ("f", Value::Float(-0.125)),
            ("b", Value::Bool(true)),
        ],
        Timestamp::millis(1_000),
    );
    online.put_row(
        "user",
        &EntityKey::new("u2"),
        &[("s", Value::Str("écrit 🦀".into())), ("i", Value::Int(7))],
        Timestamp::millis(2_000),
    );
    online.put(
        "driver",
        &EntityKey::new("d1"),
        "t",
        Value::Timestamp(Timestamp::millis(1_700_000_000_000)),
        Timestamp::millis(3_000),
    );

    let build = |table: &str, spec, generation| IndexBuild {
        table: table.into(),
        spec,
        built_from_version: 1,
        generation,
    };
    FullSnapshot {
        repl_epoch: 9,
        offline,
        offline_epoch: 3,
        embeddings: vec![VersionRepr {
            name: "emb".into(),
            version: 1,
            created_at: Timestamp::millis(5),
            provenance: EmbeddingProvenance::default(),
            dim: 2,
            keys: vec!["a".into(), "b".into()],
            vectors: vec![vec![1.0, 2.0], vec![3.0, -0.5]],
            consumers: vec!["ranker".into()],
        }],
        embeddings_epoch: 2,
        online: OnlineRows::capture(&online),
        indexes: vec![
            build("emb", IndexSpec::Flat, 4),
            build(
                "emb_ivf",
                IndexSpec::Ivf(IvfConfig {
                    nlist: 4,
                    nprobe: 2,
                    train_iters: 5,
                    seed: 11,
                }),
                5,
            ),
            build(
                "emb_hnsw",
                IndexSpec::Hnsw(HnswConfig {
                    m: 8,
                    ef_construction: 40,
                    ef_search: 32,
                    seed: u64::MAX,
                }),
                6,
            ),
        ],
        index_epoch: 4,
    }
}

fn wal_records() -> [WalRecord; 2] {
    let body = online_body(
        "user",
        "u1",
        &[
            ("score", Value::Float(0.5)),
            ("tier", Value::Str("gold".into())),
        ],
        Timestamp::millis(1_000),
    )
    .unwrap();
    [
        WalRecord::Delta(DeltaRecord {
            seq: 9,
            component: ComponentKind::Online,
            component_epoch: 0,
            body,
        }),
        WalRecord::Commit { seq: 9 },
    ]
}

/// The three artifacts, encoded by today's code.
fn artifacts() -> [Vec<u8>; 3] {
    let snapshot = sample();
    [
        encode_snapshot(&snapshot).unwrap(),
        encode_online_bin(&snapshot.online, &snapshot.indexes),
        wal_records().iter().flat_map(encode_record).collect(),
    ]
}

fn read_fixture() -> Vec<Vec<u8>> {
    let fixture = std::fs::read(fixture_path())
        .expect("tests/golden_records.bin missing — the format fixture must be checked in");
    let mut records = Vec::new();
    let mut cursor = &fixture[..];
    while !cursor.is_empty() {
        assert_eq!(
            usize::from(cursor[0]),
            records.len(),
            "fixture out of order"
        );
        let len = u32::from_be_bytes(cursor[1..5].try_into().unwrap()) as usize;
        records.push(cursor[5..5 + len].to_vec());
        cursor = &cursor[5 + len..];
    }
    records
}

#[test]
fn golden_records_decode_and_reencode_byte_identically() {
    let encoded = artifacts();
    if std::env::var_os("FSTORE_GOLDEN_REGEN").is_some() {
        let mut out = Vec::new();
        for (kind, bytes) in encoded.iter().enumerate() {
            out.push(kind as u8);
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(bytes);
        }
        std::fs::write(fixture_path(), out).unwrap();
        return;
    }
    let fixture = read_fixture();
    assert_eq!(fixture.len(), 3, "fixture is missing records");
    for (kind, (golden, now)) in fixture.iter().zip(&encoded).enumerate() {
        assert_eq!(golden, now, "record {kind} encodes to different bytes");
    }

    let want = sample();
    let got = decode_snapshot(&fixture[0]).unwrap();
    assert_eq!(
        [
            got.repl_epoch,
            got.offline_epoch,
            got.embeddings_epoch,
            got.index_epoch
        ],
        [9, 3, 2, 4]
    );
    assert_eq!(got.offline.encode_binary(), want.offline.encode_binary());
    assert_eq!(got.embeddings, want.embeddings);
    assert_eq!(got.online, want.online);
    assert_eq!(got.indexes, want.indexes);

    assert_eq!(
        decode_online_bin(&fixture[1]).unwrap(),
        (want.online, want.indexes)
    );

    let wal = &fixture[2];
    let (delta, used) = decode_record(wal).unwrap().unwrap();
    let (commit, rest) = decode_record(&wal[used..]).unwrap().unwrap();
    assert_eq!([delta, commit], wal_records());
    assert_eq!(used + rest, wal.len());
}

/// A publication is a WAL group of one: its single write is exactly the
/// golden delta + commit pair.
#[test]
fn one_publication_is_one_write_of_the_golden_pair() {
    let path = std::env::temp_dir().join(format!("fstore_formats_{}.log", std::process::id()));
    let mut writer = WalWriter::open(&path, FsyncPolicy::Never, true).unwrap();
    let records = wal_records();
    let WalRecord::Delta(delta) = &records[0] else {
        unreachable!("the first record is the delta")
    };
    let info = writer
        .append_group(
            delta.seq,
            delta.component,
            delta.component_epoch,
            std::slice::from_ref(&delta.body),
        )
        .unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, artifacts()[2]);
    assert_eq!(info.bytes, on_disk.len() as u64);
    assert_eq!(writer.appends(), 2);
    std::fs::remove_file(&path).ok();
}

fn corrupt<T: std::fmt::Debug>(result: fstore_common::Result<T>, what: &str) {
    match result {
        Err(FsError::Corruption(_)) => {}
        other => panic!("{what}: expected corruption, got {other:?}"),
    }
}

/// Decode a WAL buffer record by record: the records that decode cleanly,
/// and whether decoding stopped at a torn tail or a corrupt record rather
/// than at the end.
fn wal_prefix(bytes: &[u8]) -> (Vec<WalRecord>, bool) {
    let mut records = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        match decode_bounded(&bytes[at..], decode_record) {
            Ok(Some((record, used))) => {
                records.push(record);
                at += used;
            }
            Ok(None) | Err(FsError::Corruption(_)) => return (records, true),
            Err(e) => panic!("untyped WAL failure: {e}"),
        }
    }
    (records, false)
}

#[test]
fn every_truncation_is_a_typed_error() {
    let [snapshot, online, wal] = artifacts();
    for cut in 0..snapshot.len() {
        corrupt(
            decode_bounded(&snapshot[..cut], decode_snapshot),
            "snapshot cut",
        );
    }
    for cut in 0..online.len() {
        corrupt(
            decode_bounded(&online[..cut], decode_online_bin),
            "online.bin cut",
        );
    }
    let delta_len = encode_record(&wal_records()[0]).len();
    for cut in 0..wal.len() {
        let (records, stopped) = wal_prefix(&wal[..cut]);
        assert_eq!(records.len(), usize::from(cut >= delta_len), "cut {cut}");
        assert_eq!(records[..], wal_records()[..records.len()], "cut {cut}");
        assert_eq!(stopped, cut != 0 && cut != delta_len, "cut {cut}");
    }
}

/// Overwrite four bytes at `at` with `0xFF` — a `u32::MAX` count or
/// length wherever one is read — inside an intact envelope.
fn max_count_at(magic: &[u8; 4], artifact: &[u8], at: usize) -> Vec<u8> {
    let mut body = artifact[8..].to_vec();
    let end = (at + 4).min(body.len());
    body[at..end].fill(0xFF);
    crc_block::encode(magic, &body)
}

#[test]
fn a_max_count_anywhere_reserves_nothing_out_of_proportion() {
    let [snapshot, online, _] = artifacts();
    for at in 0..snapshot.len() - 8 {
        let bytes = max_count_at(SNAPSHOT_MAGIC, &snapshot, at);
        if let Err(e) = decode_bounded(&bytes, decode_snapshot) {
            corrupt::<()>(Err(e), "snapshot with a max count");
        }
    }
    for at in 0..online.len() - 8 {
        let bytes = max_count_at(ONLINE_MAGIC, &online, at);
        if let Err(e) = decode_bounded(&bytes, decode_online_bin) {
            corrupt::<()>(Err(e), "online.bin with a max count");
        }
    }
}

/// Recompute a WAL record's CRC after its body was mutated.
fn reseal_wal(record: &mut [u8]) {
    let crc = crc32_update(crc32_update(0, &record[..4]), &record[8..]);
    record[4..8].copy_from_slice(&crc.to_le_bytes());
}

fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("écrit 🦀 \"quoted\" back\\slash\ttab\u{1}".to_string()),
        proptest::collection::vec(any::<u8>(), 0..24)
            .prop_map(|bs| String::from_utf8_lossy(&bs).into_owned()),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        arb_text().prop_map(Value::Str),
        any::<i64>().prop_map(|ms| Value::Timestamp(Timestamp::millis(ms))),
    ]
}

proptest! {
    /// The write path's direct online encoder writes exactly the JSON of
    /// the equivalent `OnlineDelta` — the type followers and recovery
    /// decode — for any names, any values and any write time.
    #[test]
    fn online_body_is_the_json_of_its_delta(
        group in arb_text(),
        entity in arb_text(),
        row in proptest::collection::vec((arb_text(), arb_value()), 0..5),
        now in any::<i64>(),
    ) {
        let now = Timestamp::millis(now);
        let delta = OnlineDelta {
            group: group.clone(),
            entity: entity.clone(),
            features: row.iter().map(|(f, v)| (f.clone(), v.clone(), now)).collect(),
        };
        prop_assert_eq!(online_body(&group, &entity, &row, now).unwrap(), encode(&delta).unwrap());
    }

    /// A single flipped bit anywhere is caught: a typed error for the
    /// snapshot and `online.bin`; for the WAL, the records before the
    /// damaged one survive and decoding stops there.
    #[test]
    fn a_flipped_bit_is_a_typed_error(which in 0usize..3, bit in any::<usize>()) {
        let artifact = &artifacts()[which];
        let bit = bit % (artifact.len() * 8);
        let mut bytes = artifact.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        match which {
            0 => corrupt(decode_bounded(&bytes, decode_snapshot), "flipped snapshot"),
            1 => corrupt(decode_bounded(&bytes, decode_online_bin), "flipped online.bin"),
            _ => {
                let damaged = usize::from(bit / 8 >= encode_record(&wal_records()[0]).len());
                let (records, stopped) = wal_prefix(&bytes);
                prop_assert!(stopped);
                prop_assert_eq!(&records[..], &wal_records()[..damaged]);
            }
        }
    }

    /// A byte changed inside an intact envelope reaches the structure
    /// decoders: they return a value or a typed error, never panic, and
    /// never reserve out of proportion to the input.
    #[test]
    fn a_mutated_body_decodes_or_fails_typed(
        which in 0usize..3,
        at in any::<usize>(),
        mask in 1u8..255,
    ) {
        let artifact = &artifacts()[which];
        match which {
            0 | 1 => {
                let magic = if which == 0 { SNAPSHOT_MAGIC } else { ONLINE_MAGIC };
                let mut body = artifact[8..].to_vec();
                let at = at % body.len();
                body[at] ^= mask;
                let bytes = crc_block::encode(magic, &body);
                let result = if which == 0 {
                    decode_bounded(&bytes, decode_snapshot).map(drop)
                } else {
                    decode_bounded(&bytes, decode_online_bin).map(drop)
                };
                if let Err(e) = result {
                    corrupt::<()>(Err(e), "mutated body");
                }
            }
            _ => {
                // Mutate the delta's payload, length field excepted, and
                // reseal it.
                let delta_len = encode_record(&wal_records()[0]).len();
                let mut bytes = artifact.clone();
                let at = 8 + at % (delta_len - 8);
                bytes[at] ^= mask;
                reseal_wal(&mut bytes[..delta_len]);
                let (records, _) = wal_prefix(&bytes);
                prop_assert!(records.len() <= 2);
            }
        }
    }
}
