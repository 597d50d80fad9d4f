//! The reference loop: a fixed amount of work that belongs to the benchmark
//! and calls nothing of the program, timed in the same process between the
//! measured calls.
//!
//! The host is shared, and its speed drifts by tens of percent between sets
//! of runs started minutes apart.  The benchmark's phases are dependent
//! loads over working sets past the per-core cache (binary searches in
//! cluster slices) and breadth-first searches over small random graphs
//! (ground truth, the checker's per-destination pass), so the loop does
//! both, in equal shares: chase items follow a single random cycle of
//! [`WORDS`] words, twice a core's L2 on the reference host, and BFS items
//! search a random graph of [`BFS_NODES`] vertices and average degree 8.
//! Timed next to the check, serve and lab calls over 200 interleaved
//! samples, this mix followed their speed more closely than the chase alone,
//! the BFS alone, a 1 MiB chase or an arithmetic loop.  Its workers pull
//! items from a shared cursor, as the program's parallel calls pull their
//! chunks, and it is sampled with as many workers as the calls it stands
//! beside: one for the serial set-up, the run's thread count for the
//! measured phases.  A busier host slows the loop as it slows the program; a
//! change to the program does not move it.  The end-to-end timings are
//! scaled by the loop's slowdown against [`NOMINAL_S`], so they read as if
//! measured at the reference speed.

use crate::metrics::median;
use crate::pipeline::splitmix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Words of the chased cycle: 8 MiB of `u32`.
const WORDS: usize = 1 << 21;
/// Dependent loads of one chase item.
const CHASE_STEPS: usize = 1 << 14;
/// Vertices of the searched graph.
const BFS_NODES: usize = 8192;
/// Searches of one BFS item (about one chase item's time).
const BFS_PER_ITEM: usize = 4;
/// Chase items, and as many BFS items, of one sample per worker: a sample's
/// ideal time does not depend on the number of workers.
const ITEMS_PER_WORKER: usize = 8;
/// Median seconds of one sample on the reference host (2 vCPUs of an Intel
/// Xeon with 4 MiB L2 per core and a 105 MiB shared L3), 2 workers.
pub const NOMINAL_S: f64 = 0.025;

/// The chased cycle, the searched graph, and the sample times taken so far
/// with the number of workers of each.
pub struct Reference {
    next: Vec<u32>,
    /// CSR of the searched graph: `adj[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    adj: Vec<u32>,
    samples: Vec<(usize, f64)>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds one random cycle through every word (Sattolo's shuffle) and a
    /// connected random graph (a random tree plus three random edges per
    /// vertex), both from fixed seeds, so every run does the same work.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..WORDS as u32).collect();
        let mut state = 0x5EED_u64;
        for i in (1..WORDS).rev() {
            state = splitmix(state);
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }

        let mut edges = Vec::with_capacity(4 * BFS_NODES);
        for v in 1..BFS_NODES {
            state = splitmix(state);
            edges.push((v, (state % v as u64) as usize));
        }
        for _ in 0..3 * BFS_NODES {
            let a = splitmix(state);
            state = splitmix(a);
            let (a, b) = (a as usize % BFS_NODES, state as usize % BFS_NODES);
            if a != b {
                edges.push((a, b));
            }
        }
        let mut offsets = vec![0u32; BFS_NODES + 1];
        for &(a, b) in &edges {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for v in 0..BFS_NODES {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut adj = vec![0u32; 2 * edges.len()];
        for &(a, b) in &edges {
            for (from, to) in [(a, b), (b, a)] {
                adj[fill[from] as usize] = to as u32;
                fill[from] += 1;
            }
        }
        Reference {
            next,
            offsets,
            adj,
            samples: Vec::new(),
        }
    }

    /// Times one sample on `workers` workers and records it; returns its
    /// seconds.
    pub fn sample(&mut self, workers: usize) -> f64 {
        let workers = workers.max(1);
        let chase_items = workers * ITEMS_PER_WORKER;
        let items = 2 * chase_items;
        let cursor = AtomicUsize::new(0);
        let this = &*self;
        let t = Instant::now();
        let ends: Vec<u32> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let (mut dist, mut queue) = (Vec::new(), Vec::new());
                        let mut end = 0;
                        loop {
                            let item = cursor.fetch_add(1, Ordering::Relaxed);
                            if item >= items {
                                break end;
                            }
                            end ^= if item < chase_items {
                                this.chase(item)
                            } else {
                                this.bfs(item, &mut dist, &mut queue)
                            };
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference worker panicked"))
                .collect()
        });
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(ends);
        self.samples.push((workers, secs));
        secs
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median of the samples on `workers` workers over [`NOMINAL_S`]: above
    /// 1 when the host ran slower than the reference host (1 before any
    /// such sample).
    pub fn slowdown(&self, workers: usize) -> f64 {
        let secs: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.0 == workers.max(1))
            .map(|s| s.1)
            .collect();
        if secs.is_empty() {
            return 1.0;
        }
        median(&secs) / NOMINAL_S
    }

    /// [`CHASE_STEPS`] dependent steps from a position of `item`'s own;
    /// returns where the chase ended.
    fn chase(&self, item: usize) -> u32 {
        let mut at = (splitmix(item as u64) % WORDS as u64) as u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        at
    }

    /// [`BFS_PER_ITEM`] breadth-first searches from sources of `item`'s own;
    /// returns the XOR of their distance sums.
    fn bfs(&self, item: usize, dist: &mut Vec<u32>, queue: &mut Vec<u32>) -> u32 {
        let mut end = 0;
        for k in 0..BFS_PER_ITEM {
            let src = (splitmix((item * BFS_PER_ITEM + k) as u64) % BFS_NODES as u64) as usize;
            dist.clear();
            dist.resize(BFS_NODES, u32::MAX);
            queue.clear();
            dist[src] = 0;
            queue.push(src as u32);
            let mut head = 0;
            while let Some(&v) = queue.get(head) {
                head += 1;
                let (v, d) = (v as usize, dist[v as usize] + 1);
                for &w in &self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize] {
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = d;
                        queue.push(w);
                    }
                }
            }
            end ^= dist.iter().fold(0u32, |acc, &d| acc.wrapping_add(d));
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chased_permutation_is_one_cycle_and_the_graph_is_connected() {
        let r = Reference::new();
        let mut at = 0u32;
        let mut len = 0usize;
        loop {
            at = r.next[at as usize];
            len += 1;
            if at == 0 {
                break;
            }
            assert!(len < WORDS, "a cycle shorter than the table repeats");
        }
        assert_eq!(len, WORDS);

        let (mut dist, mut queue) = (Vec::new(), Vec::new());
        r.bfs(0, &mut dist, &mut queue);
        assert_eq!(
            queue.len(),
            BFS_NODES,
            "the last search reached every vertex"
        );
        let arcs = r.adj.len() as f64 / BFS_NODES as f64;
        assert!((7.0..=8.0).contains(&arcs), "average degree {arcs}");
    }

    #[test]
    fn slowdown_is_the_median_over_the_nominal_per_worker_count() {
        let mut r = Reference {
            next: Vec::new(),
            offsets: Vec::new(),
            adj: Vec::new(),
            samples: Vec::new(),
        };
        assert_eq!(r.slowdown(2), 1.0);
        r.samples = vec![
            (2, NOMINAL_S),
            (1, 9.0 * NOMINAL_S),
            (2, 3.0 * NOMINAL_S),
            (2, 2.0 * NOMINAL_S),
        ];
        assert!((r.slowdown(2) - 2.0).abs() < 1e-12);
        assert!((r.slowdown(1) - 9.0).abs() < 1e-12);
    }
}
