//! Model-based property test for leader fencing: arbitrary interleavings
//! of control-plane promotions, demotions (fences), and writes carrying
//! any previously issued term are replayed against a 3-node cluster of
//! real [`ServeEngine`]s and a reference state machine in parallel.
//! Writes arrive singly or as a burst — one group through
//! [`WriteState::put_online_many`], the group commit a worker runs for a
//! drain — which the model applies write by write.
//!
//! The safety property under test: **a term's writes are only ever
//! acknowledged by the single node the control plane assigned that term
//! to** — no interleaving of stale writes, delayed promotes, reordered
//! fences, or a newer term met in the middle of a group produces an ack
//! from two nodes at the same term (a double-ack), and a node never
//! applies a write it refused.

use fstore_common::{Timestamp, Value};
use fstore_core::FeatureServer;
use fstore_serve::{
    fixed_clock, ErrorCode, OnlineWrite, PromoteHook, Request, Response, ServeEngine,
    WriteProvider, WriteState,
};
use fstore_storage::OnlineStore;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 3;

fn now() -> Timestamp {
    Timestamp::millis(1_000)
}

/// A write sink that only counts applications (and the groups they came
/// in), so the test can prove the engine applied exactly the writes the
/// model says were acknowledged, in as many group commits as it predicts.
#[derive(Default)]
struct CountingProvider {
    applied: AtomicU64,
    groups: AtomicU64,
}

impl WriteProvider for CountingProvider {
    fn put_online_many(
        &self,
        writes: &[OnlineWrite<'_>],
        _now: Timestamp,
    ) -> Vec<fstore_common::Result<u64>> {
        self.groups.fetch_add(1, Ordering::SeqCst);
        writes
            .iter()
            .map(|_| Ok(self.applied.fetch_add(1, Ordering::SeqCst) + 1))
            .collect()
    }
}

/// One real node: an engine plus the counter its provider(s) feed.
struct Node {
    engine: ServeEngine,
    state: Arc<WriteState>,
    counter: Arc<CountingProvider>,
}

fn build_nodes() -> Vec<Node> {
    (0..NODES)
        .map(|i| {
            let counter = Arc::new(CountingProvider::default());
            let base = ServeEngine::new(
                FeatureServer::new(Arc::new(OnlineStore::default())),
                fixed_clock(now()),
            );
            // Node 0 boots as the leader at term 1; the rest are
            // promotable replicas whose hook installs the shared counter.
            let engine = if i == 0 {
                base.with_write_provider(Arc::clone(&counter) as Arc<dyn WriteProvider>, 1)
            } else {
                let hooked = Arc::clone(&counter);
                let hook: PromoteHook =
                    Arc::new(move |_term| Ok(Arc::clone(&hooked) as Arc<dyn WriteProvider>));
                base.with_promote_hook(hook)
            };
            let state = engine.write_state();
            Node {
                engine,
                state,
                counter,
            }
        })
        .collect()
}

/// Reference model of one node's fenced write state.
#[derive(Clone, Copy)]
struct ModelNode {
    term: u64,
    leader: bool,
    promotable: bool,
    applied: u64,
}

/// The operations the control plane and clients can interleave, with
/// operands resolved at replay time against the issued-term list.
#[derive(Debug, Clone)]
enum Op {
    /// Control plane assigns the next (strictly increasing) term to a node.
    Promote { node: u8 },
    /// A fence (or a stale, delayed fence) carrying an already-issued term.
    Demote { node: u8, term_pick: u8 },
    /// A client write stamped with an already-issued term — possibly
    /// stale, possibly newer than the receiving node has seen.
    Write { node: u8, term_pick: u8 },
    /// Pipelined client writes landing in one drain: one group commit,
    /// each write stamped with its own already-issued term.
    WriteBurst { node: u8, picks: Vec<u8> },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u8..NODES as u8).prop_map(|node| Op::Promote { node }),
        (0u8..NODES as u8, any::<u8>())
            .prop_map(|(node, term_pick)| Op::Demote { node, term_pick }),
        (0u8..NODES as u8, any::<u8>()).prop_map(|(node, term_pick)| Op::Write { node, term_pick }),
        (
            0u8..NODES as u8,
            proptest::collection::vec(any::<u8>(), 1..8)
        )
            .prop_map(|(node, picks)| Op::WriteBurst { node, picks }),
    ];
    proptest::collection::vec(op, 1..48)
}

fn put(term: u64) -> Request {
    Request::PutOnline {
        group: "user".into(),
        entity: "u1".into(),
        values: vec![("score".into(), Value::Float(1.0))],
        term,
    }
}

fn is_ack(response: &Response) -> bool {
    matches!(response, Response::PutAck { .. })
}

/// The `current_term=N` a typed refusal must carry.
fn refused_term(response: &Response) -> Option<u64> {
    match response {
        Response::Error {
            code: ErrorCode::NotLeader,
            message,
        } => message.strip_prefix("current_term=")?.parse().ok(),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn interleaved_promotions_and_stale_writes_never_double_ack(ops in arb_ops()) {
        let nodes = build_nodes();
        let mut model: Vec<ModelNode> = (0..NODES)
            .map(|i| ModelNode {
                term: if i == 0 { 1 } else { 0 },
                leader: i == 0,
                promotable: i != 0,
                applied: 0,
            })
            .collect();
        // Term 1 was issued to node 0 at startup; every promotion issues
        // the next term to exactly one node.
        let mut owner: Vec<usize> = vec![usize::MAX, 0];

        for op in ops {
            match op {
                Op::Promote { node } => {
                    let n = node as usize;
                    let term = owner.len() as u64;
                    owner.push(n);
                    let response = nodes[n]
                        .engine
                        .handle(&Request::Promote { shard: 0, term }, 0, false);
                    // A fresh term always exceeds the node's: the node
                    // re-affirms (sitting leader), promotes via its hook,
                    // or — fenced node 0, which has no hook — refuses.
                    let m = &mut model[n];
                    if m.leader || m.promotable {
                        prop_assert!(is_ack(&response), "promote to t{term} refused: {response:?}");
                        m.leader = true;
                        m.term = term;
                    } else {
                        prop_assert!(!is_ack(&response), "unpromotable node acked t{term}");
                    }
                }
                Op::Demote { node, term_pick } => {
                    let n = node as usize;
                    let term = pick_term(&owner, term_pick);
                    let response = nodes[n]
                        .engine
                        .handle(&Request::Demote { shard: 0, term }, 0, false);
                    let m = &mut model[n];
                    if term < m.term {
                        // Stale fence: refused, node untouched.
                        prop_assert_eq!(refused_term(&response), Some(m.term));
                    } else {
                        prop_assert!(is_ack(&response), "fence at t{term} refused: {response:?}");
                        m.term = term;
                        m.leader = false;
                    }
                }
                Op::Write { node, term_pick } => {
                    let n = node as usize;
                    let term = pick_term(&owner, term_pick);
                    let response = nodes[n].engine.handle(&put(term), 0, false);
                    check_write(&mut model[n], &owner, n, term, &response);
                }
                Op::WriteBurst { node, picks } => {
                    let n = node as usize;
                    let terms: Vec<u64> = picks.iter().map(|&p| pick_term(&owner, p)).collect();
                    let values = vec![("score".to_string(), Value::Float(1.0))];
                    let writes: Vec<(u64, OnlineWrite<'_>)> = terms
                        .iter()
                        .map(|&term| {
                            let write = OnlineWrite {
                                group: "user",
                                entity: "u1",
                                values: &values,
                            };
                            (term, write)
                        })
                        .collect();
                    let groups = nodes[n].counter.groups.load(Ordering::SeqCst);
                    let responses = nodes[n].state.put_online_many(&writes, now());
                    prop_assert_eq!(responses.len(), terms.len());
                    // Accepted writes commit as one group per run; only a
                    // fence met mid-burst closes a run early.
                    let (mut runs, mut in_run) = (0, false);
                    for (term, response) in terms.into_iter().zip(&responses) {
                        in_run &= term <= model[n].term;
                        if check_write(&mut model[n], &owner, n, term, response) && !in_run {
                            runs += 1;
                            in_run = true;
                        }
                    }
                    prop_assert_eq!(nodes[n].counter.groups.load(Ordering::SeqCst) - groups, runs);
                }
            }
            // Engine and model agree node-by-node after every step, and
            // terms never regress (the engine's term equals the model's,
            // which only ever increases).
            for (n, m) in model.iter().enumerate() {
                prop_assert_eq!(nodes[n].state.current_term(), m.term);
                prop_assert_eq!(nodes[n].state.is_leader(), m.leader);
                prop_assert_eq!(
                    nodes[n].counter.applied.load(Ordering::SeqCst),
                    m.applied,
                    "node {} applied a write the model says was refused",
                    n
                );
            }
        }
    }
}

/// Advance one node's model by a write at `term` and check the engine's
/// answer to it: an ack only from the term's owner, at that term; a typed
/// refusal naming the node's term otherwise. Returns whether it was acked.
fn check_write(
    m: &mut ModelNode,
    owner: &[usize],
    n: usize,
    term: u64,
    response: &Response,
) -> bool {
    let acked = if term > m.term {
        // Fence-on-contact: proof of a newer promotion.
        m.term = term;
        m.leader = false;
        false
    } else {
        m.leader && term == m.term
    };
    if acked {
        prop_assert!(
            matches!(response, Response::PutAck { term: t, .. } if *t == term),
            "live write at t{} refused: {:?}",
            term,
            response
        );
        m.applied += 1;
        // THE safety property: an acknowledged write at term t only ever
        // comes from t's assigned owner.
        prop_assert_eq!(
            owner[term as usize],
            n,
            "double-ack: node {} acked term {} owned by node {}",
            n,
            term,
            owner[term as usize]
        );
    } else {
        prop_assert_eq!(
            refused_term(response),
            Some(m.term),
            "stale write at t{} not refused with the node's term",
            term
        );
    }
    acked
}

/// Resolve a generated pick onto the issued-term list (1..=max issued).
fn pick_term(owner: &[usize], pick: u8) -> u64 {
    1 + (pick as u64) % (owner.len() as u64 - 1)
}
