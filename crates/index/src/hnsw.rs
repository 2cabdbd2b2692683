//! HNSW — hierarchical navigable small world graph (Malkov & Yashunin),
//! the graph-index family of the E9 sweep. One beam search serves every
//! layer: width 1 (a greedy descent) through the sparse upper layers, width
//! `ef` in the base layer.
//!
//! The build inserts rows in batches, after ParlayANN (Manohar et al.,
//! PPoPP 2024): a batch searches the graph as it stood before the batch, in
//! parallel; installs its links; then re-prunes, once and in parallel, each
//! node that the batch gave back-links. Batches double from one row up to
//! 1/[`BATCH_SHARE`] of the rows. No thread's share of the work reaches the
//! result, so the graph is a function of the rows and the config alone: a
//! follower rebuilds the leader's graph on any number of cores.

use crate::flat::{FlatIndex, Scored};
use crate::kernel::l2_sq;
use crate::{check_query, Hit, SearchParams, VectorIndex};
use fstore_common::{FsError, Result, Rng, Xoshiro256};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::RwLock;

/// HNSW build/search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Max neighbours per node in upper layers (base layer gets 2·M).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Default beam width during search.
    pub ef_search: usize,
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 32,
            seed: 77,
        }
    }
}

/// The HNSW graph index.
pub struct HnswIndex {
    config: HnswConfig,
    rows: FlatIndex,
    graph: Graph,
}

/// `upper_at` of a node that lives on layer 0 alone.
const NO_UPPER: u32 = u32::MAX;

/// The largest batch is `1 / BATCH_SHARE` of the rows (2 %). The batches
/// are part of what the graph is, so this is a constant, not a setting.
const BATCH_SHARE: usize = 50;

/// A node's parent before a walk reaches it.
const UNREACHED: u32 = u32::MAX;

const POISONED: &str = "an HNSW build thread panicked";

/// The adjacency, apart from the vectors so that a build can read rows
/// while it rewires links. A record is a link count followed by that many
/// node ids, at a fixed stride, so expanding a node reads one short run of
/// ids and then the rows they name.
struct Graph {
    m: usize,
    /// Layer 0: node `n`'s record of `2m + 1` slots starts at `n * (2m + 1)`.
    base: Vec<u32>,
    /// Layers 1 and up, for the few nodes that reach them: node `n`'s
    /// layer-`l` record of `m + 1` slots starts at
    /// `upper_at[n] + (l - 1) * (m + 1)`.
    upper: Vec<u32>,
    upper_at: Vec<u32>,
    entry: u32,
    max_level: usize,
}

/// Everything a walk needs besides the index, kept per thread and reused:
/// a search allocates nothing but the hits it returns.
#[derive(Default)]
struct Scratch {
    /// `seen[n] == stamp` marks node `n` visited in the current walk, so
    /// bumping `stamp` unmarks every node at once.
    seen: Vec<u32>,
    stamp: u32,
    /// Nodes still to expand, nearest first.
    frontier: BinaryHeap<Reverse<Scored>>,
    /// The best `ef` nodes met so far, farthest at the root.
    best: BinaryHeap<Scored>,
    /// The not-yet-seen neighbours of the node being expanded, and their
    /// distances from one kernel call.
    ids: Vec<u32>,
    distances: Vec<f32>,
    /// What the last walk kept, nearest first.
    found: Vec<Scored>,
    /// Build only: the links chosen from `found`, and the passed-over rest.
    selected: Vec<u32>,
    pruned: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl Scratch {
    /// Start a walk over an index of `nodes` nodes with nothing marked.
    fn begin(&mut self, nodes: usize) {
        if self.seen.len() < nodes {
            self.seen.resize(nodes, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamps from 2^32 walks ago would read as fresh marks.
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.frontier.clear();
        self.best.clear();
    }

    /// Heuristic neighbor selection (Malkov & Yashunin, Alg. 4) of up to
    /// `max_links` of `found` into `selected`: walk the candidates in
    /// distance order and keep one only if it is closer to the base point
    /// than to every already-kept neighbor. This preserves links in
    /// *diverse directions* (including long-range inter-cluster edges)
    /// instead of letting one tight cluster monopolize the budget — without
    /// it, clustered data fragments the graph into islands and recall
    /// plateaus. Pruned candidates backfill any remaining slots.
    fn select_neighbors(&mut self, rows: &FlatIndex, max_links: usize) {
        let (selected, pruned) = (&mut self.selected, &mut self.pruned);
        selected.clear();
        pruned.clear();
        for &Scored(d_base, cand) in &self.found {
            if selected.len() >= max_links {
                break;
            }
            let diverse = selected
                .iter()
                .all(|&kept| l2_sq(rows.row(cand), rows.row(kept)) > d_base);
            if diverse {
                selected.push(cand);
            } else {
                pruned.push(cand);
            }
        }
        let spare = max_links - selected.len();
        selected.extend(pruned.iter().take(spare));
    }
}

impl Graph {
    /// A graph without links whose node `n` has layers `0..=levels[n]`.
    fn new(m: usize, levels: &[usize]) -> Self {
        let mut upper_at = vec![NO_UPPER; levels.len()];
        let mut upper_len = 0;
        for (at, &level) in upper_at.iter_mut().zip(levels) {
            if level > 0 {
                *at = u32::try_from(upper_len).expect("upper layers outgrew 32-bit offsets");
                upper_len += level * (m + 1);
            }
        }
        Graph {
            m,
            base: vec![0; levels.len() * (2 * m + 1)],
            upper: vec![0; upper_len],
            upper_at,
            entry: 0,
            max_level: 0,
        }
    }

    fn max_links(&self, l: usize) -> usize {
        if l == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Node `node`'s neighbours at layer `l` (at most the node's level).
    fn links(&self, node: u32, l: usize) -> &[u32] {
        let record = match l {
            0 => &self.base[node as usize * (2 * self.m + 1)..],
            _ => &self.upper[self.upper_at[node as usize] as usize + (l - 1) * (self.m + 1)..],
        };
        &record[1..=record[0] as usize]
    }

    /// Node `node`'s whole layer-`l` record: the count, then every slot.
    fn record_mut(&mut self, node: u32, l: usize) -> &mut [u32] {
        let slots = self.max_links(l) + 1;
        match l {
            0 => &mut self.base[node as usize * slots..][..slots],
            _ => {
                &mut self.upper[self.upper_at[node as usize] as usize + (l - 1) * slots..][..slots]
            }
        }
    }

    fn set_links(&mut self, node: u32, l: usize, links: &[u32]) {
        let record = self.record_mut(node, l);
        record[0] = links.len() as u32;
        record[1..=links.len()].copy_from_slice(links);
    }

    /// The walk a search takes: a greedy descent through the upper layers,
    /// then a beam of width `ef` in the base layer; leaves up to `ef` hits
    /// in `s.found`, ascending. The beam starts from where the descent
    /// ended and from the entry: the base layer need not lead back from the
    /// one to the other, but everything is reachable from the entry, so a
    /// beam as wide as the index finds every row.
    fn search(&self, rows: &FlatIndex, query: &[f32], ef: usize, s: &mut Scratch) {
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            self.search_layer(rows, query, &[ep], l, 1, s);
            ep = s.found[0].1;
        }
        self.search_layer(rows, query, &[ep, self.entry], 0, ef, s);
    }

    /// Beam search at layer `l` from `seeds`; leaves up to `ef` hits in
    /// `s.found`, ascending.
    fn search_layer(
        &self,
        rows: &FlatIndex,
        query: &[f32],
        seeds: &[u32],
        l: usize,
        ef: usize,
        s: &mut Scratch,
    ) {
        s.begin(rows.len());
        for &seed in seeds {
            if s.seen[seed as usize] != s.stamp {
                s.seen[seed as usize] = s.stamp;
                let d = l2_sq(rows.row(seed), query);
                s.frontier.push(Reverse(Scored(d, seed)));
                s.best.push(Scored(d, seed));
            }
        }
        while s.best.len() > ef {
            s.best.pop();
        }

        while let Some(Reverse(Scored(d, node))) = s.frontier.pop() {
            let worst = s.best.peek().map_or(f32::INFINITY, |w| w.0);
            if d > worst && s.best.len() >= ef {
                break;
            }
            s.ids.clear();
            for &n in self.links(node, l) {
                if s.seen[n as usize] != s.stamp {
                    s.seen[n as usize] = s.stamp;
                    s.ids.push(n);
                }
            }
            s.distances.resize(s.ids.len(), 0.0);
            rows.distances(query, &s.ids, &mut s.distances);
            for (&n, &dn) in s.ids.iter().zip(&s.distances) {
                let worst = s.best.peek().map_or(f32::INFINITY, |w| w.0);
                if s.best.len() < ef || dn < worst {
                    s.frontier.push(Reverse(Scored(dn, n)));
                    s.best.push(Scored(dn, n));
                    if s.best.len() > ef {
                        s.best.pop();
                    }
                }
            }
        }
        s.found.clear();
        s.found.extend(s.best.drain());
        s.found.sort_unstable();
    }

    /// Marks in `parent` each node a base-layer walk from `from` (already
    /// marked) reaches through unmarked nodes, under the node it was first
    /// reached from. The marked links form a tree rooted at the entry.
    fn reach(&self, from: u32, parent: &mut [u32], stack: &mut Vec<u32>) {
        stack.push(from);
        while let Some(node) = stack.pop() {
            for &n in self.links(node, 0) {
                if parent[n as usize] == UNREACHED {
                    parent[n as usize] = node;
                    stack.push(n);
                }
            }
        }
    }

    /// Each node's parent in a base-layer walk from the entry, or
    /// [`UNREACHED`].
    fn reached(&self) -> Vec<u32> {
        let mut parent = vec![UNREACHED; self.upper_at.len()];
        parent[self.entry as usize] = self.entry;
        self.reach(self.entry, &mut parent, &mut Vec::new());
        parent
    }

    /// Makes every node reachable on the base layer from the entry. Each
    /// unreached node, in id order, gets a link from the nearest reached
    /// node with a link to spare — a free slot, or a link outside the walk's
    /// tree, which it gives up — and then what its own links reach is
    /// marked. Giving up a non-tree link leaves every reached node reached,
    /// so each repair only grows the reached set. Some reached node always
    /// has one to spare: were all `R` records full of tree links, the tree
    /// would hold `2m · R > R - 1` links.
    fn connect(&mut self, rows: &FlatIndex, ef: usize, s: &mut Scratch) {
        let mut parent = self.reached();
        let mut stack = Vec::new();
        for node in 0..parent.len() as u32 {
            if parent[node as usize] != UNREACHED {
                continue;
            }
            let max_links = self.max_links(0);
            let spare = |host: u32| {
                let links = self.links(host, 0);
                parent[host as usize] != UNREACHED
                    && (links.len() < max_links
                        || links.iter().any(|&n| parent[n as usize] != host))
            };
            let query = rows.row(node);
            self.search(rows, query, ef, s);
            let host = match s.found.iter().find(|f| spare(f.1)) {
                Some(&Scored(_, host)) => host,
                // None the walk met has one: take the nearest of all rows that does.
                None => rows
                    .top_k(None, query, rows.len())
                    .into_iter()
                    .map(|(host, _)| host as u32)
                    .find(|&host| spare(host))
                    .expect("a reached node has a link to spare"),
            };
            let links = self.links(host, 0);
            let slot = if links.len() < max_links {
                links.len()
            } else {
                s.distances.resize(links.len(), 0.0);
                rows.distances(rows.row(host), links, &mut s.distances);
                let free = (0..links.len()).filter(|&i| parent[links[i] as usize] != host);
                let farthest = free.max_by(|&a, &b| s.distances[a].total_cmp(&s.distances[b]));
                farthest.expect("the host has a non-tree link")
            };
            let record = self.record_mut(host, 0);
            record[0] = record[0].max(slot as u32 + 1);
            record[1 + slot] = node;
            parent[node as usize] = host;
            self.reach(node, &mut parent, &mut stack);
        }
    }
}

/// What the threads of one build share. Between phases the caller's thread
/// alone holds `state` for writing and installs what the phase computed. In
/// a phase every thread holds it for reading, claims items from `next` and
/// writes its results to its own buffer. Each item's result depends on the
/// state alone, and each install writes records no other install of the
/// phase writes, so which thread takes which item never reaches the graph.
struct Build<'a> {
    rows: &'a FlatIndex,
    levels: &'a [usize],
    ef: usize,
    /// The next unclaimed item of the phase. It hands out indices and
    /// publishes no data (results travel back over channels), so
    /// `Relaxed` suffices.
    next: AtomicUsize,
    state: RwLock<State>,
}

struct State {
    graph: Graph,
    /// The nodes being inserted.
    batch: Range<u32>,
    /// The batch's back-links `(layer, target, new node)`, sorted, and the
    /// index where each `(layer, target)` run starts, then their end.
    edges: Vec<(u32, u32, u32)>,
    groups: Vec<usize>,
}

#[derive(Clone, Copy)]
enum Phase {
    /// Each new node's out-links, from the graph before the batch.
    Search,
    /// Each back-link target's record with its new links.
    Prune,
}

/// The caller's end of one helper thread: a phase and an empty buffer go
/// out, the buffer filled with the helper's results comes back.
struct Helper {
    jobs: Sender<(Phase, Vec<u32>)>,
    done: Receiver<Vec<u32>>,
}

impl Build<'_> {
    /// Inserts every row, batch by batch, with `helpers` working beside
    /// the caller's thread.
    fn run(&self, helpers: &[Helper], s: &mut Scratch) {
        let n = self.rows.len() as u32;
        let cap = (n as usize / BATCH_SHARE).max(1) as u32;
        let mut outs = vec![Vec::new(); helpers.len() + 1];
        let (mut start, mut size) = (0, 1);
        while start < n {
            let end = start.saturating_add(size).min(n);
            self.state.write().expect(POISONED).batch = start..end;
            self.phase(Phase::Search, helpers, &mut outs, s);
            self.install_links(&outs);
            self.phase(Phase::Prune, helpers, &mut outs, s);
            self.install_records(&outs);
            (start, size) = (end, (size * 2).min(cap));
        }
    }

    /// Runs `phase` on every thread; `outs[0]` gets the caller's results,
    /// `outs[i]` helper `i`'s.
    fn phase(&self, phase: Phase, helpers: &[Helper], outs: &mut [Vec<u32>], s: &mut Scratch) {
        self.next.store(0, Relaxed);
        let (mine, theirs) = outs.split_first_mut().expect("the caller's buffer");
        for (helper, out) in helpers.iter().zip(theirs.iter_mut()) {
            let sent = helper.jobs.send((phase, std::mem::take(out)));
            sent.expect("an HNSW build helper stopped");
        }
        self.work(phase, mine, s);
        for (helper, out) in helpers.iter().zip(theirs) {
            *out = helper.done.recv().expect("an HNSW build helper stopped");
        }
    }

    /// A helper thread: phases until the caller hangs up.
    fn help(&self, jobs: Receiver<(Phase, Vec<u32>)>, done: Sender<Vec<u32>>) {
        let mut s = Scratch::default();
        for (phase, mut out) in jobs {
            self.work(phase, &mut out, &mut s);
            if done.send(out).is_err() {
                return;
            }
        }
    }

    /// This thread's share of `phase`, into `out`.
    fn work(&self, phase: Phase, out: &mut Vec<u32>, s: &mut Scratch) {
        out.clear();
        let state = self.state.read().expect(POISONED);
        match phase {
            Phase::Search => {
                for i in self.claims(state.batch.len(), 1) {
                    self.search(&state, state.batch.start + i as u32, s, out);
                }
            }
            Phase::Prune => {
                for group in self.claims(state.groups.len() - 1, 16) {
                    self.prune(&state, group, s, out);
                }
            }
        }
    }

    /// The items of `0..len` this thread takes, `chunk` at a time.
    fn claims(&self, len: usize, chunk: usize) -> impl Iterator<Item = usize> + '_ {
        let claim = move || {
            let first = self.next.fetch_add(chunk, Relaxed);
            (first < len).then(|| first..len.min(first + chunk))
        };
        std::iter::from_fn(claim).flatten()
    }

    /// Phase A for node `id`: on each of its layers, top first, the links
    /// chosen from what the graph before the batch offers and from the
    /// batch-mates that reach the layer. Appends `id`, then per layer the
    /// link count and the links.
    fn search(&self, state: &State, id: u32, s: &mut Scratch, out: &mut Vec<u32>) {
        let (rows, graph, batch) = (self.rows, &state.graph, state.batch.clone());
        let level = self.levels[id as usize];
        let query = rows.row(id);
        // The first batch is node 0 alone, with no graph to search yet.
        let searched = batch.start > 0;
        let mut ep = graph.entry;
        if searched {
            for l in (level + 1..=graph.max_level).rev() {
                graph.search_layer(rows, query, &[ep], l, 1, s);
                ep = s.found[0].1;
            }
        }
        out.push(id);
        for l in (0..=level).rev() {
            s.found.clear();
            if searched && l <= graph.max_level {
                graph.search_layer(rows, query, &[ep], l, self.ef, s);
                ep = s.found[0].1;
            }
            let mates = batch
                .clone()
                .filter(|&j| j != id && self.levels[j as usize] >= l);
            s.ids.clear();
            s.ids.extend(mates);
            s.distances.resize(s.ids.len(), 0.0);
            rows.distances(query, &s.ids, &mut s.distances);
            let worst = s.found.get(self.ef - 1).copied();
            for (&d, &j) in s.distances.iter().zip(&s.ids) {
                if worst.is_none_or(|worst| Scored(d, j) < worst) {
                    s.found.push(Scored(d, j));
                }
            }
            s.found.sort_unstable();
            s.found.truncate(self.ef);
            s.select_neighbors(rows, graph.max_links(l));
            out.push(s.selected.len() as u32);
            out.extend_from_slice(&s.selected);
        }
    }

    /// Phase B: installs each new node's out-links, gathers the back-links
    /// they ask for, and moves the entry to the lowest id of the highest
    /// level. Every record written here belongs to one new node, so the
    /// order of the buffers does not matter.
    fn install_links(&self, outs: &[Vec<u32>]) {
        let mut state = self.state.write().expect(POISONED);
        let State {
            graph,
            batch,
            edges,
            groups,
        } = &mut *state;
        edges.clear();
        for out in outs {
            let mut at = 0;
            while at < out.len() {
                let id = out[at];
                at += 1;
                for l in (0..=self.levels[id as usize]).rev() {
                    let links = &out[at + 1..][..out[at] as usize];
                    at += 1 + links.len();
                    graph.set_links(id, l, links);
                    edges.extend(links.iter().map(|&target| (l as u32, target, id)));
                }
            }
        }
        edges.sort_unstable();
        groups.clear();
        let target = |i: usize| (edges[i].0, edges[i].1);
        groups.extend((0..edges.len()).filter(|&i| i == 0 || target(i - 1) != target(i)));
        groups.push(edges.len());
        for id in batch.clone() {
            let level = self.levels[id as usize];
            if level > graph.max_level {
                graph.max_level = level;
                graph.entry = id;
            }
        }
    }

    /// Phase C for one back-link target: its links plus the new ones if
    /// they fit, else a re-selection from them all by the diversity rule.
    /// Appends the group, the link count and the links.
    fn prune(&self, state: &State, group: usize, s: &mut Scratch, out: &mut Vec<u32>) {
        let run = &state.edges[state.groups[group]..state.groups[group + 1]];
        let (l, target) = (run[0].0 as usize, run[0].1);
        let rows = self.rows;
        s.ids.clear();
        s.ids.extend_from_slice(state.graph.links(target, l));
        let held = s.ids.len();
        for &(_, _, id) in run {
            // A batch-mate may already link the node that links it.
            if !s.ids[..held].contains(&id) {
                s.ids.push(id);
            }
        }
        let max_links = state.graph.max_links(l);
        let links = if s.ids.len() <= max_links {
            &s.ids
        } else {
            s.distances.resize(s.ids.len(), 0.0);
            rows.distances(rows.row(target), &s.ids, &mut s.distances);
            s.found.clear();
            let scored = s.distances.iter().zip(&s.ids);
            s.found.extend(scored.map(|(&d, &n)| Scored(d, n)));
            s.found.sort_unstable();
            s.select_neighbors(rows, max_links);
            &s.selected
        };
        out.push(group as u32);
        out.push(links.len() as u32);
        out.extend_from_slice(links);
    }

    /// Phase C's results into the graph; each names a target of its own.
    fn install_records(&self, outs: &[Vec<u32>]) {
        let mut state = self.state.write().expect(POISONED);
        let State {
            graph,
            edges,
            groups,
            ..
        } = &mut *state;
        for out in outs {
            let mut at = 0;
            while at < out.len() {
                let (l, target, _) = edges[groups[out[at] as usize]];
                let links = &out[at + 2..][..out[at + 1] as usize];
                at += 2 + links.len();
                graph.set_links(target, l as usize, links);
            }
        }
    }
}

impl HnswIndex {
    /// Builds the graph on `available_parallelism()` threads; the graph
    /// depends on `data` and `config` alone, not on that number.
    pub fn build(data: Vec<Vec<f32>>, config: HnswConfig) -> Result<Self> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::build_with(data, config, threads)
    }

    /// [`HnswIndex::build`] on `threads` threads, the caller's among them.
    /// The graph is the same for every count.
    fn build_with(data: Vec<Vec<f32>>, config: HnswConfig, threads: usize) -> Result<Self> {
        let rows = FlatIndex::build(data)?;
        if config.m < 2 || config.ef_construction == 0 || config.ef_search == 0 {
            return Err(FsError::Index(
                "HNSW params must be positive (m >= 2)".into(),
            ));
        }
        let mut rng = Xoshiro256::seeded(config.seed);
        let ml = 1.0 / (config.m as f64).ln();
        let levels: Vec<usize> = (0..rows.len())
            .map(|_| (-(rng.next_f64().max(1e-12)).ln() * ml) as usize)
            .collect();
        let build = Build {
            rows: &rows,
            levels: &levels,
            ef: config.ef_construction,
            next: AtomicUsize::new(0),
            state: RwLock::new(State {
                graph: Graph::new(config.m, &levels),
                batch: 0..0,
                edges: Vec::new(),
                groups: Vec::new(),
            }),
        };
        std::thread::scope(|scope| {
            let build = &build;
            // A helper the OS will not start is one fewer, not an error.
            let helpers: Vec<Helper> = (1..threads)
                .filter_map(|_| {
                    let (jobs, their_jobs) = channel();
                    let (their_done, done) = channel();
                    let helper = std::thread::Builder::new().name("hnsw-build".into());
                    let spawned =
                        helper.spawn_scoped(scope, move || build.help(their_jobs, their_done));
                    spawned.ok().map(|_| Helper { jobs, done })
                })
                .collect();
            SCRATCH.with_borrow_mut(|s| build.run(&helpers, s));
            // Dropping `helpers` hangs up on them, and the scope joins them.
        });
        let mut graph = build.state.into_inner().expect(POISONED).graph;
        SCRATCH.with_borrow_mut(|s| graph.connect(&rows, config.ef_construction, s));
        Ok(HnswIndex {
            config,
            rows,
            graph,
        })
    }

    /// Rows a base-layer walk from the entry point never reaches, so that
    /// no search returns them at any `ef`. None in an index `build`
    /// returned; kept as a check for tests and experiments.
    pub fn unreached(&self) -> Vec<usize> {
        let parent = self.graph.reached();
        (0..parent.len())
            .filter(|&n| parent[n] == UNREACHED)
            .collect()
    }

    fn search_beam(&self, query: &[f32], k: usize, ef: usize) -> Result<Vec<Hit>> {
        let k = check_query(self.dim(), self.len(), query, k)?;
        if ef == 0 {
            return Err(FsError::Index("ef must be positive".into()));
        }
        SCRATCH.with_borrow_mut(|s| {
            self.graph.search(&self.rows, query, ef.max(k), s);
            let nearest = s.found.iter().take(k);
            Ok(nearest.map(|&Scored(d, n)| (n as usize, d)).collect())
        })
    }
}

impl VectorIndex for HnswIndex {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn dim(&self) -> usize {
        self.rows.dim()
    }

    fn vector(&self, id: usize) -> Option<&[f32]> {
        self.rows.vector(id)
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<Vec<Hit>> {
        if params.exhaustive {
            return self.rows.search(query, k, params);
        }
        self.search_beam(query, k, params.ef.unwrap_or(self.config.ef_search))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(idx: &dyn VectorIndex, query: &[f32], k: usize) -> Result<Vec<Hit>> {
        idx.search(query, k, &SearchParams::default())
    }

    fn random_data(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
            .collect()
    }

    #[test]
    fn build_validation() {
        assert!(HnswIndex::build(vec![], HnswConfig::default()).is_err());
        let d = random_data(5, 4, 1);
        assert!(HnswIndex::build(
            d.clone(),
            HnswConfig {
                m: 1,
                ..HnswConfig::default()
            }
        )
        .is_err());
        assert!(HnswIndex::build(
            d,
            HnswConfig {
                ef_search: 0,
                ..HnswConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn exact_on_tiny_data() {
        let data: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let idx = HnswIndex::build(data, HnswConfig::default()).unwrap();
        let hits = search(&idx, &[7.2], 3).unwrap();
        assert_eq!(hits[0].0, 7);
        assert_eq!(hits[1].0, 8);
        assert_eq!(hits[2].0, 6);
    }

    #[test]
    fn high_recall_on_random_data() {
        let data = random_data(2_000, 16, 2);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let hnsw = HnswIndex::build(data, HnswConfig::default()).unwrap();
        let mut rng = Xoshiro256::seeded(3);
        let mut hit = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            let q: Vec<f32> = (0..16).map(|_| rng.normal() as f32).collect();
            let truth: Vec<usize> = search(&flat, &q, 10).unwrap().iter().map(|h| h.0).collect();
            let got: Vec<usize> = hnsw
                .search(&q, 10, &SearchParams::with_ef(64))
                .unwrap()
                .iter()
                .map(|h| h.0)
                .collect();
            hit += truth.iter().filter(|t| got.contains(t)).count();
            total += truth.len();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.9, "HNSW recall@10 {recall}");
    }

    #[test]
    fn recall_improves_with_ef() {
        let data = random_data(1_500, 12, 4);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let hnsw = HnswIndex::build(
            data,
            HnswConfig {
                m: 8,
                ..HnswConfig::default()
            },
        )
        .unwrap();
        let mut rng = Xoshiro256::seeded(5);
        let queries: Vec<Vec<f32>> = (0..25)
            .map(|_| (0..12).map(|_| rng.normal() as f32).collect())
            .collect();
        let recall = |ef: usize| {
            let mut hit = 0;
            let mut total = 0;
            for q in &queries {
                let truth: Vec<usize> = search(&flat, q, 10).unwrap().iter().map(|h| h.0).collect();
                let got: Vec<usize> = hnsw
                    .search(q, 10, &SearchParams::with_ef(ef))
                    .unwrap()
                    .iter()
                    .map(|h| h.0)
                    .collect();
                hit += truth.iter().filter(|t| got.contains(t)).count();
                total += truth.len();
            }
            hit as f64 / total as f64
        };
        let lo = recall(10);
        let hi = recall(200);
        assert!(hi > lo, "recall must improve with ef: {lo} vs {hi}");
        assert!(hi > 0.95, "high-ef recall {hi}");
    }

    /// The graph is a function of the rows and the config: builds on 1, 2
    /// and 3 threads agree on every byte.
    #[test]
    fn deterministic_build() {
        // Random rows, and rows from a small grid, full of exact ties.
        let random = random_data(3_000, 8, 8);
        let grid = (0..1_500u16)
            .map(|i| vec![f32::from(i % 7), f32::from(i % 5)])
            .collect();
        let config = HnswConfig {
            m: 8,
            ef_construction: 32,
            ..HnswConfig::default()
        };
        for data in [random, grid] {
            let builds: Vec<HnswIndex> = (1..=3)
                .map(|threads| HnswIndex::build_with(data.clone(), config, threads).unwrap())
                .collect();
            let one = &builds[0].graph;
            assert!(one.max_level > 0);
            for other in &builds[1..] {
                let other = &other.graph;
                assert_eq!((other.entry, other.max_level), (one.entry, one.max_level));
                assert!(other.base == one.base, "layer-0 records differ");
                assert!(other.upper_at == one.upper_at && other.upper == one.upper);
            }
        }
    }

    #[test]
    fn query_validation() {
        let idx = HnswIndex::build(random_data(50, 4, 7), HnswConfig::default()).unwrap();
        assert!(search(&idx, &[1.0], 3).is_err());
        assert!(search(&idx, &[0.0; 4], 0).is_err());
        assert!(idx.search(&[0.0; 4], 3, &SearchParams::with_ef(0)).is_err());
    }

    #[test]
    fn single_point_index() {
        let idx = HnswIndex::build(vec![vec![1.0, 2.0]], HnswConfig::default()).unwrap();
        let hits = search(&idx, &[1.0, 2.0], 5).unwrap();
        assert_eq!(hits, vec![(0, 0.0)]);
    }
}
