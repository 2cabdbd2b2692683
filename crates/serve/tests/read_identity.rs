//! Byte-identity property test for the direct read path: the frame
//! `ServeEngine::read_into` writes straight from the store must equal, byte
//! for byte, the frame the typed pipeline produces —
//! `FeatureServer::serve` → `WireVector::from` → `Response::encode_into` —
//! for every staleness policy, with missing features and entities, string
//! values, empty and duplicated feature lists, and batches (including a
//! batch one member of which `FailOnStale` refuses). The typed
//! `ServeEngine::handle` is held to the same reference, so the three ways
//! to answer a read cannot drift apart.

use bytes::{BufMut, BytesMut};
use fstore_common::{Duration, EntityKey, ReadEpoch, Timestamp, Value};
use fstore_core::{FeatureServer, StalenessPolicy};
use fstore_serve::{
    fixed_clock, ErrorCode, ReadScratch, Request, Response, ServeEngine, WireVector,
};
use fstore_storage::OnlineStore;
use proptest::prelude::*;
use std::sync::Arc;

const NOW: Timestamp = Timestamp(10_000);
/// `ghost` is never written, so it has no id in the store.
const FEATURES: [&str; 5] = ["a", "b", "c", "s", "ghost"];
const WRITTEN: usize = 4;
const STORED_ENTITIES: usize = 5;
/// Requests also name `e5..e7`, which have no row.
const ASKED_ENTITIES: usize = 8;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Float),
        (0usize..2).prop_map(|b| Value::Bool(b == 1)),
        (0usize..40).prop_map(|n| Value::Str("é".repeat(n))),
        (0i64..20_000).prop_map(|t| Value::Timestamp(Timestamp::millis(t))),
    ]
}

/// `(entity, feature, value, written_at)` writes; later ones overwrite.
fn writes() -> impl Strategy<Value = Vec<(usize, usize, Value, i64)>> {
    collection::vec(
        (0..STORED_ENTITIES, 0..WRITTEN, value(), 0i64..10_000),
        0..24,
    )
}

fn policy() -> impl Strategy<Value = StalenessPolicy> {
    prop_oneof![
        Just(StalenessPolicy::ServeAnyway),
        Just(StalenessPolicy::NullOnStale),
        Just(StalenessPolicy::FailOnStale),
    ]
}

fn feature_list() -> impl Strategy<Value = Vec<String>> {
    collection::vec(0..FEATURES.len(), 0..7)
        .prop_map(|fs| fs.into_iter().map(|f| FEATURES[f].to_string()).collect())
}

fn entity(e: usize) -> String {
    format!("e{e}")
}

fn refs(features: &[String]) -> Vec<&str> {
    features.iter().map(String::as_str).collect()
}

/// The pre-direct-path answer: typed vectors, converted, then encoded.
fn reference(server: &FeatureServer, request: &Request) -> Response {
    let served = match request {
        Request::GetFeatures {
            group,
            entity,
            features,
        } => server
            .serve(group, &EntityKey::new(entity.clone()), &refs(features), NOW)
            .map(|v| Response::Features(WireVector::from(&v))),
        Request::GetFeaturesBatch {
            group,
            entities,
            features,
        } => {
            let keys: Vec<EntityKey> = entities.iter().map(|e| EntityKey::new(e.clone())).collect();
            server
                .serve_batch(group, &keys, &refs(features), NOW)
                .map(|vs| Response::FeaturesBatch(vs.iter().map(WireVector::from).collect()))
        }
        other => panic!("not a read: {other:?}"),
    };
    // The serving path's only error is the FailOnStale refusal.
    served.unwrap_or_else(|e| Response::error(ErrorCode::Stale, e.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn direct_frames_equal_typed_frames(
        writes in writes(),
        policy in policy(),
        max_age in prop_oneof![Just(None), (0i64..10_000).prop_map(Some)],
        features in feature_list(),
        single in 0..ASKED_ENTITIES,
        batch in collection::vec(0..ASKED_ENTITIES, 0..6),
    ) {
        let online = Arc::new(OnlineStore::new(4));
        for (e, f, v, t) in writes {
            online.put("user", &EntityKey::new(entity(e)), FEATURES[f], v, Timestamp::millis(t));
        }
        let mut server = FeatureServer::new(online)
            .with_policy(policy)
            .with_epoch_source(Arc::new(|| ReadEpoch(7)));
        if let Some(ms) = max_age {
            server = server.with_max_age(Duration::millis(ms));
        }
        let engine = ServeEngine::new(server.clone(), fixed_clock(NOW));
        // One scratch across every request of the case: reuse must not
        // leak one request's ids, ages or stale set into the next.
        let mut scratch = ReadScratch::default();
        let requests = [
            Request::GetFeatures {
                group: "user".into(),
                entity: entity(single),
                features: features.clone(),
            },
            Request::GetFeaturesBatch {
                group: "user".into(),
                entities: batch.iter().map(|&e| entity(e)).collect(),
                features: features.clone(),
            },
            // A group nothing was written to: every slot misses.
            Request::GetFeatures {
                group: "nobody".into(),
                entity: entity(single),
                features,
            },
        ];
        for request in &requests {
            let want = reference(&server, request);
            let mut want_bytes = BytesMut::new();
            want_bytes.put_u8(0xAA);
            want.encode_into(&mut want_bytes);

            // `read_into` appends: what the frame already holds survives,
            // also when a refusal rewinds a half-written batch.
            let mut frame = BytesMut::new();
            frame.put_u8(0xAA);
            let ok = engine.read_into(request, &mut scratch, &mut frame);
            prop_assert_eq!(frame.as_slice(), want_bytes.as_slice(), "{:?}", request);
            prop_assert_eq!(ok, !matches!(want, Response::Error { .. }));
            prop_assert_eq!(&engine.handle(request, 0, false), &want);
        }
    }
}
