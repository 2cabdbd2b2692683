//! `durable_write`: a `DurableLeader` (`FsyncPolicy::Never`) wrapped in a
//! `ReplLeader`, one `Follower` bootstrapped over the wire and syncing
//! every 5 ms, both served over TCP. Client A writes 4-feature rows to
//! uniform entities; client B reads the same key space from the leader.
//!
//! The write path (online mutate → delta encode ×2 → `PubLog` → WAL append
//! → ack → follower apply) does the work; `index`, `tier` and `shard` do
//! none. Reads run beside writes on the same store shards and the same
//! `WriteState`, so a write-side gain that costs readers shows in `read_*`
//! here and nowhere else.
//!
//! The key space is small on purpose: a checkpoint keeps online rows as
//! one JSON file and a follower bootstraps from one JSON snapshot, and the
//! repo's JSON parser re-validates the rest of its input at every string
//! character — quadratic in the document. 4,000 stored values already
//! cost about a second per load; the sizes the issue asked for would not
//! finish. `recovery_s`, `repl.bootstrap_ms` and this workload's `setup_s`
//! are where a fix to that shows.
//!
//! `FsyncPolicy::Never`: the sandbox's fsync is reported per layer
//! (`durable.wal.append_fsync_us`), never mixed into acknowledgements.

use crate::data::{entity_name, feature_names, mix, text, GROUP, NOW};
use crate::hist::{median, Hist};
use crate::layers::{
    p50, replay, rtt_floor_us, set_serve_costs, set_server_counters, set_server_latency,
    set_store_rows, Contention, ReadLayers,
};
use crate::load::{Class, Client, Traffic, BURST};
use crate::run::{explain, Ctx, Deep, System, Tally};
use fstore_common::{ComponentKind, DeltaRecord, EntityKey, Rng, Value, Xoshiro256};
use fstore_durable::codec::OnlineDelta;
use fstore_durable::{
    CheckpointStore, DurableConfig, DurableLeader, FsyncPolicy, WalRecord, WalWriter,
};
use fstore_embed::EmbeddingDb;
use fstore_repl::{Follower, LeaderParts, ReplLeader, SyncHandle};
use fstore_serve::{
    fixed_clock, start, FeatureClient, IndexCatalog, Request, Response, ServeConfig, ServerHandle,
    StoreApi, WriteProvider,
};
use fstore_storage::{OfflineDb, OnlineStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ENTITIES: usize = 1_000;
const FEATURES: usize = 4;
const TERM: u64 = 1;
/// Deltas the leader keeps for followers. Far above what 5 ms of writes
/// produce, so a follower never falls back to a full snapshot mid-run.
const RETENTION: usize = 1 << 16;
const SYNC_EVERY: Duration = Duration::from_millis(5);
/// The fixed WAL tail every recovery replays, whatever the run's speed.
const TAIL_WRITES: usize = 20_000;
const REOPENS: usize = 5;
const REPLAYED: usize = 10_000;
const FSYNC: DurableConfig = DurableConfig {
    fsync: FsyncPolicy::Never,
};

/// A written value names its entity, its feature and the global write
/// sequence it belongs to, so a reader can check a row it raced with.
fn encode(e: u32, seq: u64, j: usize) -> Value {
    Value::Int((((seq << 20) | u64::from(e)) << 3 | j as u64) as i64)
}

fn decode(value: &Value) -> Option<(u32, u64, usize)> {
    let Value::Int(raw) = value else { return None };
    let raw = *raw as u64;
    Some((
        ((raw >> 3) & 0xf_ffff) as u32,
        raw >> 23,
        (raw & 7) as usize,
    ))
}

fn row(names: &[String], e: u32, seq: u64) -> Vec<(String, Value)> {
    names
        .iter()
        .enumerate()
        .map(|(j, name)| (name.clone(), encode(e, seq, j)))
        .collect()
}

fn borrowed(row: &[(String, Value)]) -> Vec<(&str, Value)> {
    row.iter().map(|(f, v)| (f.as_str(), v.clone())).collect()
}

/// What both clients and the end-of-run checks know about the writes.
struct Ledger {
    /// Global write sequence: bumped before a write is sent.
    attempted: AtomicU64,
    /// Per entity, the newest acknowledged sequence.
    acked: Vec<AtomicU64>,
    /// Probe-phase writes time their visibility on the follower.
    visibility_on: AtomicBool,
    visibility: Mutex<Hist>,
    lag_max: AtomicU64,
}

struct DurableWrite {
    seed: u64,
    entities: u32,
    dir: PathBuf,
    names: Vec<String>,
    ledger: Arc<Ledger>,
    durable: Option<Arc<DurableLeader>>,
    repl: Option<Arc<ReplLeader>>,
    follower: Option<Arc<Follower>>,
    sync: Option<SyncHandle>,
    leader_server: Option<ServerHandle>,
    follower_server: Option<ServerHandle>,
    bootstrap_ms: f64,
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn System>, String> {
    let entities = ctx.scaled(ENTITIES) as u32;
    let names = feature_names(FEATURES);
    let dir = ctx.run_dir.join("durable");
    let (durable, _) = DurableLeader::open(&dir, FSYNC).map_err(text)?;
    let repl = ReplLeader::with_retention(LeaderParts::from_durable(&durable), RETENTION);
    repl.attach_durable(Arc::clone(&durable));
    for e in 0..entities {
        let values = row(&names, e, 0);
        repl.put_online(
            GROUP,
            &EntityKey::new(entity_name(e)),
            &borrowed(&values),
            NOW,
        )
        .map_err(text)?;
    }
    durable.checkpoint().map_err(text)?;

    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let engine = repl
        .engine(fixed_clock(NOW))
        .with_write_provider(Arc::clone(&repl) as Arc<dyn WriteProvider>, TERM);
    let leader_server = start(engine, config.clone()).map_err(|e| format!("start leader: {e}"))?;
    durable.attach_metrics(leader_server.metrics());

    let started = Instant::now();
    let follower = Arc::new(Follower::bootstrap(leader_server.addr().to_string()).map_err(text)?);
    let bootstrap_ms = started.elapsed().as_secs_f64() * 1e3;
    let sync = follower.start_sync(SYNC_EVERY);
    let follower_server = start(follower.engine(fixed_clock(NOW)), config)
        .map_err(|e| format!("start follower: {e}"))?;

    Ok(Box::new(DurableWrite {
        seed: ctx.seed,
        entities,
        dir,
        names,
        ledger: Arc::new(Ledger {
            attempted: AtomicU64::new(0),
            acked: (0..entities).map(|_| AtomicU64::new(0)).collect(),
            visibility_on: AtomicBool::new(ctx.trace),
            visibility: Mutex::new(Hist::new()),
            lag_max: AtomicU64::new(0),
        }),
        durable: Some(durable),
        repl: Some(repl),
        follower: Some(follower),
        sync: Some(sync),
        leader_server: Some(leader_server),
        follower_server: Some(follower_server),
        bootstrap_ms,
    }))
}

/// Client A: `PutOnline` of all four features of a uniform entity.
struct Writer {
    entities: u32,
    names: Vec<String>,
    ledger: Arc<Ledger>,
    follower: Arc<Follower>,
    rng: Xoshiro256,
    want: [(u32, u64); BURST],
    sent: u64,
    depth_one: bool,
}

impl Traffic for Writer {
    fn next(&mut self, slot: usize) -> (Request, Class) {
        self.depth_one = slot == 0;
        // Pipelined writes to one key may be applied in either order by
        // two workers, so a burst never names an entity twice.
        let e = loop {
            let e = self.rng.below(u64::from(self.entities)) as u32;
            if !self.want[..slot].iter().any(|w| w.0 == e) {
                break e;
            }
        };
        let seq = self.ledger.attempted.fetch_add(1, Ordering::AcqRel) + 1;
        self.want[slot] = (e, seq);
        self.sent += 1;
        let request = Request::PutOnline {
            group: GROUP.to_string(),
            entity: entity_name(e),
            values: row(&self.names, e, seq),
            term: TERM,
        };
        (request, Class::Write)
    }

    fn verify(&mut self, slot: usize, response: &Response) -> bool {
        let (e, seq) = self.want[slot];
        let acked =
            matches!(response, Response::PutAck { epoch, term } if *term == TERM && *epoch > 0);
        if !acked {
            return false;
        }
        self.ledger.acked[e as usize].fetch_max(seq, Ordering::AcqRel);
        if self.depth_one
            && self.sent.is_multiple_of(64)
            && self.ledger.visibility_on.load(Ordering::Relaxed)
        {
            // Every 64th probe write: how long until the follower can
            // serve this value.
            let started = Instant::now();
            let key = EntityKey::new(entity_name(e));
            loop {
                let seen = self.follower.online().get(GROUP, &key, "f0");
                if seen
                    .and_then(|entry| decode(&entry.value))
                    .is_some_and(|v| v.1 >= seq)
                {
                    break;
                }
                if started.elapsed() > Duration::from_secs(2) {
                    return false;
                }
                std::thread::yield_now();
            }
            let mut visibility = self.ledger.visibility.lock().expect("visibility lock");
            visibility.record(started.elapsed().as_nanos() as u64);
        }
        true
    }
}

/// Client B: `GetFeatures` of all four features from the leader. A row it
/// reads may be one client A is writing at that moment, so the check is:
/// the row is whole (one sequence across its features), it is this
/// entity's, and its sequence lies between the newest write acknowledged
/// before the read was sent and the newest write attempted when the
/// answer came back.
struct Reader {
    entities: u32,
    names: Vec<String>,
    ledger: Arc<Ledger>,
    follower: Arc<Follower>,
    rng: Xoshiro256,
    want: [(u32, u64); BURST],
    seen: u64,
}

fn whole_row(values: &[Value], e: u32) -> Option<u64> {
    let (_, seq, _) = decode(values.first()?)?;
    values
        .iter()
        .enumerate()
        .all(|(j, v)| decode(v) == Some((e, seq, j)))
        .then_some(seq)
}

impl Traffic for Reader {
    fn next(&mut self, slot: usize) -> (Request, Class) {
        let e = self.rng.below(u64::from(self.entities)) as u32;
        self.want[slot] = (e, self.ledger.acked[e as usize].load(Ordering::Acquire));
        let request = Request::GetFeatures {
            group: GROUP.to_string(),
            entity: entity_name(e),
            features: self.names.clone(),
        };
        (request, Class::Read)
    }

    fn verify(&mut self, slot: usize, response: &Response) -> bool {
        let (e, floor) = self.want[slot];
        self.seen += 1;
        if self.seen.is_multiple_of(256) {
            self.ledger
                .lag_max
                .fetch_max(self.follower.lag(), Ordering::Relaxed);
        }
        let Response::Features(got) = response else {
            return false;
        };
        let ceiling = self.ledger.attempted.load(Ordering::Acquire);
        got.entity == entity_name(e)
            && got.features == self.names
            && got.stale.is_empty()
            && got.ages_ms.iter().all(|a| *a == Some(0))
            && got.values.len() == FEATURES
            && whole_row(&got.values, e).is_some_and(|seq| floor <= seq && seq <= ceiling)
    }
}

/// Writes and reads by turns, for the in-process replay.
struct Alternate {
    writer: Writer,
    reader: Reader,
    turn: bool,
}

impl Traffic for Alternate {
    fn next(&mut self, slot: usize) -> (Request, Class) {
        self.turn = !self.turn;
        if self.turn {
            self.writer.next(slot)
        } else {
            self.reader.next(slot)
        }
    }

    fn verify(&mut self, slot: usize, response: &Response) -> bool {
        if self.turn {
            self.writer.verify(slot, response)
        } else {
            self.reader.verify(slot, response)
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<u64> {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            bytes += copy_dir(&entry.path(), &target)?;
        } else {
            bytes += std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(bytes)
}

impl DurableWrite {
    fn repl(&self) -> &Arc<ReplLeader> {
        self.repl
            .as_ref()
            .expect("leader lives until the restart check")
    }

    fn follower(&self) -> &Arc<Follower> {
        self.follower
            .as_ref()
            .expect("follower lives until the restart check")
    }

    fn leader_addr(&self) -> std::net::SocketAddr {
        self.leader_server
            .as_ref()
            .expect("leader server runs")
            .addr()
    }

    fn writer(&self, lane: u64) -> Writer {
        Writer {
            entities: self.entities,
            names: self.names.clone(),
            ledger: Arc::clone(&self.ledger),
            follower: Arc::clone(self.follower()),
            rng: Xoshiro256::seeded(mix(self.seed, lane, 0x7772697465)),
            want: [(0, 0); BURST],
            sent: 0,
            depth_one: false,
        }
    }

    fn reader(&self, lane: u64) -> Reader {
        Reader {
            entities: self.entities,
            names: self.names.clone(),
            ledger: Arc::clone(&self.ledger),
            follower: Arc::clone(self.follower()),
            rng: Xoshiro256::seeded(mix(self.seed, lane, 0x72656164)),
            want: [(0, 0); BURST],
            seen: 0,
        }
    }

    fn user_bytes_per_row(&self) -> u64 {
        (entity_name(0).len() + self.names.iter().map(|n| n.len() + 8).sum::<usize>()) as u64
    }

    /// The follower must hold exactly what the leader holds, and both
    /// must hold the newest acknowledged write of every entity.
    fn check_follower(&self, tally: &mut Tally) -> Result<(), String> {
        let target = self.repl().log().last_seq();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.follower().applied_epoch() != target {
            if Instant::now() > deadline {
                return Err(format!(
                    "follower stuck at epoch {} of {target}",
                    self.follower().applied_epoch()
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let follower_addr = self
            .follower_server
            .as_ref()
            .expect("follower server runs")
            .addr();
        let mut leader = FeatureClient::connect(self.leader_addr()).map_err(text)?;
        let mut follower = FeatureClient::connect(follower_addr).map_err(text)?;
        let features: Vec<&str> = self.names.iter().map(String::as_str).collect();
        for e in 0..self.entities {
            let name = entity_name(e);
            let want = self.ledger.acked[e as usize].load(Ordering::Acquire);
            let a = leader.get_features(GROUP, &name, &features).map_err(text)?;
            let b = follower
                .get_features(GROUP, &name, &features)
                .map_err(text)?;
            tally.check(whole_row(&a.values, e) == Some(want));
            tally.check(a == b);
        }
        Ok(())
    }

    /// Checkpoint, append the fixed tail over the wire, drop everything
    /// without a shutdown, reopen from disk and read every acknowledged
    /// write back. On a traced run, reopen five times from the same bytes
    /// and take the recovery layers apart.
    fn restart(
        &mut self,
        ctx: &Ctx,
        clients: &mut [Client],
        tally: &mut Tally,
        deep: Option<&mut Deep>,
    ) -> Result<(), String> {
        let durable = self.durable.take().expect("restart runs once");
        let started = Instant::now();
        durable.checkpoint().map_err(text)?;
        let checkpoint_write_ms = started.elapsed().as_secs_f64() * 1e3;

        let (mut requests, mut classes) = (Vec::new(), Vec::new());
        let tail = ctx.scaled(TAIL_WRITES) / BURST * BURST;
        for _ in 0..tail / BURST {
            clients[0].call_burst(&mut requests, &mut classes);
        }

        // A crash, as far as the directory can tell: nothing is flushed,
        // checkpointed or closed in order.
        if let Some(sync) = self.sync.take() {
            sync.stop();
        }
        for server in [self.follower_server.take(), self.leader_server.take()] {
            server.expect("servers run until the restart").shutdown();
        }
        self.follower = None;
        self.repl = None;
        drop(durable);

        let golden = ctx.run_dir.join("golden");
        let disk_bytes = copy_dir(&self.dir, &golden).map_err(text)?;
        let work = ctx.run_dir.join("reopen");
        let reopens = if deep.is_some() { REOPENS } else { 1 };
        let mut recovery_secs = Vec::new();
        for round in 0..reopens {
            copy_dir(&golden, &work).map_err(text)?;
            let started = Instant::now();
            let (revived, report) = DurableLeader::open(&work, FSYNC).map_err(text)?;
            recovery_secs.push(started.elapsed().as_secs_f64());
            if report.replayed != tail {
                tally.problem(format!(
                    "recovery replayed {} of a {tail}-write tail",
                    report.replayed
                ));
            }
            if round == 0 {
                for e in 0..self.entities {
                    let want = self.ledger.acked[e as usize].load(Ordering::Acquire);
                    let values: Option<Vec<Value>> = revived
                        .online()
                        .get_row(GROUP, &EntityKey::new(entity_name(e)))
                        .map(|row| row.into_iter().map(|(_, entry)| entry.value).collect());
                    tally.check(values.is_some_and(|v| whole_row(&v, e) == Some(want)));
                }
            }
        }
        let Some(deep) = deep else {
            return Ok(());
        };

        // The recovery layers, one public call each, on the same bytes.
        copy_dir(&golden, &work).map_err(text)?;
        let store = CheckpointStore::open(&work).map_err(text)?;
        let started = Instant::now();
        let checkpoint = store.load().map_err(text)?.ok_or("no checkpoint on disk")?;
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        let wal_path = store.wal_path(checkpoint.repl_epoch);
        let wal_bytes = std::fs::metadata(&wal_path).map_err(text)?.len();
        let embeddings = EmbeddingDb::new();
        let (offline, online) = (OfflineDb::new(), OnlineStore::default());
        let indexes = IndexCatalog::new(embeddings.clone());
        let started = Instant::now();
        let replay = fstore_durable::wal::recover(&wal_path).map_err(text)?;
        for record in &replay.committed {
            fstore_durable::codec::apply_record(&offline, &embeddings, &online, &indexes, record)
                .map_err(text)?;
        }
        let recover_wal_ms = started.elapsed().as_secs_f64() * 1e3;

        let recovery_s = median(&recovery_secs);
        let user_bytes = (u64::from(self.entities) + tail as u64) * self.user_bytes_per_row();
        let layers = &mut deep.layers;
        layers.set("client.recovery_s", recovery_s);
        layers.set("client.disk_amp", disk_bytes as f64 / user_bytes as f64);
        layers.set("durable.checkpoint_write_ms", checkpoint_write_ms);
        layers.set("durable.checkpoint_bytes", (disk_bytes - wal_bytes) as f64);
        layers.set("durable.checkpoint_load_ms", load_ms);
        layers.set("durable.recover_wal_ms", recover_wal_ms);
        layers.set(
            "durable.wal.bytes_per_user_byte",
            wal_bytes as f64 / (tail as u64 * self.user_bytes_per_row()) as f64,
        );
        let explained = load_ms + recover_wal_ms + checkpoint_write_ms;
        deep.table.push(format!(
            "layer table  durable_write / recovery  DurableLeader::open {:.1} ms (median of {reopens})",
            recovery_s * 1e3
        ));
        for (what, ms) in [
            ("durable.checkpoint_load (CheckpointStore::load)", load_ms),
            (
                "durable.recover_wal (wal::recover + apply_record)",
                recover_wal_ms,
            ),
            (
                "durable.checkpoint_write (open re-checkpoints)",
                checkpoint_write_ms,
            ),
            ("unexplained remainder", recovery_s * 1e3 - explained),
        ] {
            deep.table.push(format!("    {what:<52}{ms:>9.1} ms"));
        }
        Ok(())
    }

    /// Everything that needs the live leader and follower.
    fn layers(&mut self, ctx: &Ctx, tally: &mut Tally, deep: &mut Deep) -> Result<(), String> {
        let rtt = rtt_floor_us(self.leader_addr())?;
        deep.layers.set("serve.rtt_floor_us", rtt);
        {
            let visibility = self.ledger.visibility.lock().expect("visibility lock");
            deep.layers
                .set("repl.visibility_p50_us", visibility.quantile_us(0.5));
            deep.layers
                .set("repl.visibility_p99_us", visibility.quantile_us(0.99));
        }

        let (names, ledger) = (self.names.clone(), Arc::clone(&self.ledger));
        let (seed, entities) = (self.seed, u64::from(self.entities));
        let repl = Arc::clone(self.repl());
        let engine = repl
            .engine(fixed_clock(NOW))
            .with_write_provider(Arc::clone(&repl) as Arc<dyn WriteProvider>, TERM);
        let online = Arc::clone(&repl.parts().online);
        let mut reads = ReadLayers::new();
        let mut traffic = Alternate {
            writer: self.writer(2),
            reader: self.reader(3),
            turn: false,
        };
        let replayed = replay(
            &mut traffic,
            ctx.scaled(REPLAYED),
            &mut deep.tracer,
            &mut |request| engine.handle(request, 0, false),
            &mut |request, _class, id, parent, tracer| {
                if let Request::GetFeatures {
                    group,
                    entity,
                    features,
                } = request
                {
                    reads.time(tracer, (id, parent), &online, (group, entity, features));
                }
            },
        );
        tally.attempted += replayed.attempted;
        tally.failed += replayed.failed;
        set_serve_costs(&mut deep.layers, &replayed);
        reads.set(&mut deep.layers);

        // Rewriting a row with the value it already holds keeps every
        // expectation true while the write path's layers are timed apart.
        let mut rng = Xoshiro256::seeded(mix(seed, 6, 0));
        let mut current = || {
            let e = rng.below(entities) as u32;
            let seq = ledger.acked[e as usize].load(Ordering::Acquire);
            (EntityKey::new(entity_name(e)), row(&names, e, seq))
        };
        let (mut put_row, mut leader_put, mut encode_ns) = (Hist::new(), Hist::new(), Hist::new());
        let mut delta_bytes = 0usize;
        for i in 0..2_000u64 {
            let (key, values) = current();
            let refs = borrowed(&values);
            let (_, ns) = deep.tracer.time("storage.online.put_row", i, 0, || {
                online.put_row(GROUP, &key, &refs, NOW)
            });
            put_row.record(ns);
            let (result, ns) = deep.tracer.time("repl.leader.put_online", i, 0, || {
                repl.put_online(GROUP, &key, &refs, NOW)
            });
            result.map_err(text)?;
            leader_put.record(ns);
            let delta = OnlineDelta {
                group: GROUP.to_string(),
                entity: key.as_str().to_string(),
                features: values
                    .iter()
                    .map(|(f, v)| (f.clone(), v.clone(), NOW))
                    .collect(),
            };
            let (body, ns) = deep.tracer.time("durable.codec.delta_encode", i, 0, || {
                fstore_durable::codec::encode(&delta)
            });
            encode_ns.record(ns);
            delta_bytes = body.map_err(text)?.len();
        }
        deep.layers.set("storage.online.put_row_ns", p50(&put_row));
        deep.layers
            .set("repl.leader.put_online_us", p50(&leader_put) / 1e3);
        deep.layers
            .set("durable.codec.delta_encode_ns", p50(&encode_ns));
        deep.layers
            .set("durable.codec.delta_bytes", delta_bytes as f64);

        let rewrite = |e: u32| {
            let seq = ledger.acked[e as usize].load(Ordering::Acquire);
            let values = row(&names, e, seq);
            online.put_row(
                GROUP,
                &EntityKey::new(entity_name(e)),
                &borrowed(&values),
                NOW,
            );
        };
        set_store_rows(
            &mut deep.layers,
            &[online.as_ref()],
            Some(Contention {
                features: &names,
                entities,
                rewrite: &rewrite,
            }),
        );

        // The WAL and a durable leader of their own, in scratch files.
        let record = |seq: u64| {
            WalRecord::Delta(DeltaRecord {
                seq,
                component: ComponentKind::Online,
                component_epoch: 0,
                body: "x".repeat(delta_bytes),
            })
        };
        let append_pair = |policy: FsyncPolicy, pairs: u64| -> Result<f64, String> {
            let path = ctx.run_dir.join("scratch.wal");
            let mut wal = WalWriter::open(&path, policy, true).map_err(text)?;
            let mut h = Hist::new();
            for seq in 1..=pairs {
                let delta = record(seq);
                let t = Instant::now();
                wal.append(&delta).map_err(text)?;
                wal.append(&WalRecord::Commit { seq }).map_err(text)?;
                h.record(t.elapsed().as_nanos() as u64);
            }
            Ok(p50(&h) / 1e3)
        };
        deep.layers.set(
            "durable.wal.append_nosync_us",
            append_pair(FsyncPolicy::Never, 5_000)?,
        );
        deep.layers.set(
            "durable.wal.append_fsync_us",
            append_pair(FsyncPolicy::Always, 100)?,
        );
        let (scratch, _) =
            DurableLeader::open(ctx.run_dir.join("scratch-durable"), FSYNC).map_err(text)?;
        let mut durable_put = Hist::new();
        for _ in 0..2_000 {
            let (key, values) = current();
            let refs = borrowed(&values);
            let t = Instant::now();
            scratch.put_online(GROUP, &key, &refs, NOW).map_err(text)?;
            durable_put.record(t.elapsed().as_nanos() as u64);
        }
        drop(scratch);
        deep.layers
            .set("durable.put_online_us", p50(&durable_put) / 1e3);

        // One follower round over a known number of deltas, and fresh
        // bootstraps beside the one the set-up timed.
        if let Some(sync) = self.sync.take() {
            sync.stop();
        }
        let follower = Arc::clone(self.follower());
        let mut link = follower.connect().map_err(text)?;
        follower.sync_once(&mut link).map_err(text)?;
        for _ in 0..512 {
            let (key, values) = current();
            repl.put_online(GROUP, &key, &borrowed(&values), NOW)
                .map_err(text)?;
        }
        let started = Instant::now();
        let report = follower.sync_once(&mut link).map_err(text)?;
        deep.layers.set(
            "repl.follower.sync_once_us_per_delta",
            started.elapsed().as_secs_f64() * 1e6 / report.applied.max(1) as f64,
        );
        let mut bootstraps = vec![self.bootstrap_ms];
        for _ in 0..2 {
            let started = Instant::now();
            Follower::bootstrap(self.leader_addr().to_string()).map_err(text)?;
            bootstraps.push(started.elapsed().as_secs_f64() * 1e3);
        }
        deep.layers.set("repl.bootstrap_ms", median(&bootstraps));
        let mut puller = FeatureClient::connect(self.leader_addr()).map_err(text)?;
        let (_, payload) = puller.repl_snapshot().map_err(text)?;
        deep.layers
            .set("repl.bootstrap_bytes", payload.len() as f64);
        deep.layers.set(
            "repl.lag_max_epochs",
            self.ledger.lag_max.load(Ordering::Relaxed) as f64,
        );
        deep.layers
            .set("repl.fallbacks", follower.fallbacks() as f64);

        let snapshot = self
            .leader_server
            .as_ref()
            .expect("leader server runs")
            .metrics()
            .snapshot();
        deep.layers
            .set("durable.wal.fsyncs", snapshot.wal_fsyncs as f64);
        set_server_counters(&mut deep.layers, &snapshot);
        explain(
            deep,
            "durable_write",
            Class::Write,
            rtt,
            replayed.codec_ns(Class::Write),
            &[
                (
                    "serve.engine.handle (WriteState)",
                    p50(&replayed.class(Class::Write).handle),
                ),
                ("repl.leader.put_online", p50(&leader_put)),
                (
                    "durable.put_online (2 encodes + WAL append)",
                    p50(&durable_put),
                ),
            ],
        );
        explain(
            deep,
            "durable_write",
            Class::Read,
            rtt,
            replayed.codec_ns(Class::Read),
            &[
                (
                    "serve.engine.handle",
                    p50(&replayed.class(Class::Read).handle),
                ),
                ("core.serve", p50(&reads.core)),
                ("storage.online.get_many", p50(&reads.get_many)),
            ],
        );
        Ok(())
    }
}

impl System for DurableWrite {
    fn clients(&mut self, _ctx: &Ctx) -> Result<Vec<Client>, String> {
        let connect =
            || FeatureClient::connect(self.leader_addr()).map_err(|e| format!("connect: {e}"));
        Ok(vec![
            Client::new(0, Box::new(connect()?), Box::new(self.writer(0))),
            Client::new(1, Box::new(connect()?), Box::new(self.reader(1))),
        ])
    }

    fn focus(&self) -> Class {
        Class::Write
    }

    fn after_probe(&mut self, deep: &mut Deep) {
        let snapshot = self
            .leader_server
            .as_ref()
            .expect("leader server runs")
            .metrics()
            .snapshot();
        let client_p50 = deep.probe.latency_us(Class::Read, 0.5).0;
        set_server_latency(&mut deep.layers, &snapshot, "get_features", client_p50);
    }

    fn finish(
        &mut self,
        ctx: &Ctx,
        clients: &mut [Client],
        tally: &mut Tally,
        mut deep: Option<&mut Deep>,
    ) {
        self.ledger.visibility_on.store(false, Ordering::Relaxed);
        if let Err(e) = self.check_follower(tally) {
            tally.problem(e);
        }
        if self.follower().fallbacks() > 0 {
            tally.problem("the follower fell back to a full snapshot mid-run");
        }
        if let Some(deep) = deep.as_deref_mut() {
            if let Err(e) = self.layers(ctx, tally, deep) {
                tally.problem(e);
            }
        }
        if let Err(e) = self.restart(ctx, clients, tally, deep) {
            tally.problem(e);
        }
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(sync) = self.sync.take() {
            sync.stop();
        }
        for server in [self.follower_server.take(), self.leader_server.take()]
            .into_iter()
            .flatten()
        {
            server.shutdown();
        }
    }
}
