//! HNSW — hierarchical navigable small world graph (Malkov & Yashunin),
//! the graph-index family of the E9 sweep. One beam search serves every
//! layer: width 1 (a greedy descent) through the sparse upper layers, width
//! `ef` in the base layer.

use crate::flat::{FlatIndex, Scored};
use crate::kernel::l2_sq;
use crate::{check_query, Hit, SearchParams, VectorIndex};
use fstore_common::{FsError, Result, Rng, Xoshiro256};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    fn new(m: usize, nodes: usize) -> Self {
        Graph {
            m,
            base: vec![0; nodes * (2 * m + 1)],
            upper: Vec::new(),
            upper_at: vec![NO_UPPER; nodes],
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

    /// Add node `id` (a row the graph does not hold yet) with links on
    /// layers `0..=level`.
    fn insert(&mut self, rows: &FlatIndex, id: u32, level: usize, ef: usize, s: &mut Scratch) {
        if level > 0 {
            self.upper_at[id as usize] =
                u32::try_from(self.upper.len()).expect("upper layers outgrew 32-bit offsets");
            self.upper
                .resize(self.upper.len() + level * (self.m + 1), 0);
        }
        if id == 0 {
            self.max_level = level;
            return;
        }
        let query = rows.row(id);

        // phase 1: greedy (width-1) descent through layers above `level`
        let mut ep = self.entry;
        for l in ((level + 1)..=self.max_level).rev() {
            self.search_layer(rows, query, ep, l, 1, s);
            ep = s.found[0].1;
        }

        // phase 2: beam search + connect at each layer from min(level, max) down
        for l in (0..=level.min(self.max_level)).rev() {
            self.search_layer(rows, query, ep, l, ef, s);
            ep = s.found[0].1;
            s.select_neighbors(rows, self.max_links(l));
            self.set_links(id, l, &s.selected);
            // `link` reuses the scratch lists, so walk the stored record.
            for i in 0..self.links(id, l).len() {
                let neighbor = self.links(id, l)[i];
                self.link(rows, neighbor, l, id, s);
            }
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
    }

    /// Give `node` a layer-`l` link to the new node `id`. A full record is
    /// re-selected from its links plus `id` by the same diversity rule.
    fn link(&mut self, rows: &FlatIndex, node: u32, l: usize, id: u32, s: &mut Scratch) {
        let max_links = self.max_links(l);
        let record = self.record_mut(node, l);
        let count = record[0] as usize;
        if count < max_links {
            record[0] += 1;
            record[count + 1] = id;
            return;
        }
        s.ids.clear();
        s.ids.extend_from_slice(&record[1..]);
        s.ids.push(id);
        s.distances.resize(s.ids.len(), 0.0);
        rows.distances(rows.row(node), &s.ids, &mut s.distances);
        s.found.clear();
        let scored = s.distances.iter().zip(&s.ids);
        s.found.extend(scored.map(|(&d, &n)| Scored(d, n)));
        s.found.sort_unstable();
        s.select_neighbors(rows, max_links);
        self.set_links(node, l, &s.selected);
    }

    /// Beam search at layer `l`; leaves up to `ef` hits in `s.found`,
    /// ascending.
    fn search_layer(
        &self,
        rows: &FlatIndex,
        query: &[f32],
        entry: u32,
        l: usize,
        ef: usize,
        s: &mut Scratch,
    ) {
        s.begin(rows.len());
        let d0 = l2_sq(rows.row(entry), query);
        s.seen[entry as usize] = s.stamp;
        s.frontier.push(Reverse(Scored(d0, entry)));
        s.best.push(Scored(d0, entry));

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
}

impl HnswIndex {
    pub fn build(data: Vec<Vec<f32>>, config: HnswConfig) -> Result<Self> {
        let rows = FlatIndex::build(data)?;
        if config.m < 2 || config.ef_construction == 0 || config.ef_search == 0 {
            return Err(FsError::Index(
                "HNSW params must be positive (m >= 2)".into(),
            ));
        }
        let mut graph = Graph::new(config.m, rows.len());
        let mut rng = Xoshiro256::seeded(config.seed);
        let ml = 1.0 / (config.m as f64).ln();
        SCRATCH.with_borrow_mut(|s| {
            for id in 0..rows.len() as u32 {
                let level = (-(rng.next_f64().max(1e-12)).ln() * ml) as usize;
                graph.insert(&rows, id, level, config.ef_construction, s);
            }
        });
        Ok(HnswIndex {
            config,
            rows,
            graph,
        })
    }

    fn search_beam(&self, query: &[f32], k: usize, ef: usize) -> Result<Vec<Hit>> {
        let k = check_query(self.dim(), self.len(), query, k)?;
        if ef == 0 {
            return Err(FsError::Index("ef must be positive".into()));
        }
        let graph = &self.graph;
        SCRATCH.with_borrow_mut(|s| {
            let mut ep = graph.entry;
            for l in (1..=graph.max_level).rev() {
                graph.search_layer(&self.rows, query, ep, l, 1, s);
                ep = s.found[0].1;
            }
            graph.search_layer(&self.rows, query, ep, 0, ef.max(k), s);
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

    #[test]
    fn deterministic_build() {
        let data = random_data(300, 8, 6);
        let a = HnswIndex::build(data.clone(), HnswConfig::default()).unwrap();
        let b = HnswIndex::build(data, HnswConfig::default()).unwrap();
        let q = vec![0.5f32; 8];
        assert_eq!(search(&a, &q, 5).unwrap(), search(&b, &q, 5).unwrap());
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
