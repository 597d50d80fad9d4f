//! Random graph generators used as experiment workloads.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::par;
use crate::rng::Xoshiro256;
use crate::traversal::connected_components;

/// Erdős–Rényi `G(n, p)`: every pair becomes an edge independently with
/// probability `p`.  May be disconnected; see [`random_connected`] when a
/// connected instance is required.
///
/// The pairs `(u, v)`, `u < v`, are drawn in row-major order, one
/// [`Xoshiro256::next_u64`] of the seed's stream per pair.  Large `n` draws
/// on every core: the pair sequence is cut into fixed-size chunks, each chunk
/// starts at its own offset of the stream ([`Xoshiro256::advance`]), and the
/// chunks' edges are concatenated in order ([`crate::par`]) — so the edge
/// list, and with it the graph and its port labeling, is the serial draw
/// bit for bit at every thread count.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n >= 1);
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    Graph::from_edges(n, &gnp_edges(n, p, seed))
}

/// Pairs per chunk of the parallel draw: a few milliseconds of sampling,
/// so graphs below ~1450 vertices are drawn on the calling thread.
const GNP_CHUNK: usize = 1 << 20;

/// The edge list that [`gnp`] builds from, in generation order.
fn gnp_edges(n: usize, p: f64, seed: u64) -> Vec<(usize, usize)> {
    gnp_edges_with_threads(n, p, seed, par::available_threads(), GNP_CHUNK)
}

/// [`gnp_edges`] on an explicit worker count and chunk length; the result
/// depends on neither.
fn gnp_edges_with_threads(
    n: usize,
    p: f64,
    seed: u64,
    threads: usize,
    chunk: usize,
) -> Vec<(usize, usize)> {
    let rng = Xoshiro256::new(seed);
    let pairs = n * (n - 1) / 2;
    // `gen_bool(p)` is `(x >> 11) · 2^-53 < p` with both sides exact, i.e.
    // `(x >> 11) < ⌈p · 2^53⌉`: the same draw without the float conversion.
    let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
    let mut edges = Vec::new();
    par::ordered_fold(
        threads,
        pairs,
        chunk,
        || (),
        |_, range, buf: &mut Vec<(usize, usize)>| {
            buf.clear();
            let mut rng = rng.clone();
            rng.advance(range.start as u64);
            let (mut u, mut v) = pair_at(n, range.start);
            let mut left = range.len();
            while left > 0 {
                let end = n.min(v + left);
                for w in v..end {
                    if rng.next_u64() >> 11 < threshold {
                        buf.push((u, w));
                    }
                }
                left -= end - v;
                u += 1;
                v = u + 1;
            }
        },
        // One push at a time, so `edges` grows through the capacities of
        // the serial draw (see the cluster fold of the landmark build).
        |_, buf| {
            for &e in buf.iter() {
                edges.push(e);
            }
        },
    );
    edges
}

/// The pair at row-major index `i` of `{ (u, v) : u < v < n }`
/// (`i < n(n − 1)/2`).
fn pair_at(n: usize, i: usize) -> (usize, usize) {
    // Row u starts at index u(2n − u − 1)/2; find the last row starting at
    // or before i.
    let row_start = |u: usize| u * (2 * n - u - 1) / 2;
    let (mut lo, mut hi) = (0, n - 1);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if row_start(mid) <= i {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, lo + 1 + (i - row_start(lo)))
}

/// A connected Erdős–Rényi-style graph: draw `G(n, p)` and then add the
/// minimum number of extra edges required to join the connected components
/// (one random vertex from each component is linked to a random vertex of the
/// first component).  The result is always connected and has at least the
/// edges of the underlying `G(n, p)` sample.
pub fn random_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n >= 1);
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut edges = gnp_edges(n, p, seed);
    let g = Graph::from_edges(n, &edges);
    let mut rng = Xoshiro256::new(seed ^ 0x5DEE_CE66_D1CE_5EED);
    let (comp, count) = connected_components(&g);
    if count <= 1 {
        return g;
    }
    // pick a representative of each component
    let mut reps = vec![usize::MAX; count];
    for v in 0..n {
        if reps[comp[v]] == usize::MAX {
            reps[comp[v]] = v;
        }
    }
    // collect the members of component 0 so links land on random anchors;
    // an anchor and a representative lie in different components, so the
    // patch edges can never duplicate an existing edge.
    let members0: Vec<usize> = (0..n).filter(|&v| comp[v] == 0).collect();
    for &rep in &reps[1..] {
        let anchor = *rng.choose(&members0);
        edges.push((anchor, rep));
    }
    Graph::from_edges(n, &edges)
}

/// A near-`d`-regular random graph on `n` vertices, built by superposing `d`
/// random perfect matchings / permutations (configuration-model style with
/// collision dropping).  Degrees are `≤ d` and concentrate near `d`; the graph
/// is then patched to be connected like [`random_connected`].
///
/// This is *not* a uniform random regular graph; it is a workload generator
/// for bounded-degree experiments (the paper's discussion of the
/// Awerbuch–Bar-Noy–Linial–Peleg scheme is about bounded-degree networks).
pub fn random_regular_like(n: usize, d: usize, seed: u64) -> Graph {
    assert!(n >= 2);
    assert!(d >= 1 && d < n, "degree must satisfy 1 <= d < n");
    let mut rng = Xoshiro256::new(seed);
    let mut b = GraphBuilder::new(n);
    for _round in 0..d {
        let perm = rng.permutation(n);
        // pair consecutive entries of the permutation
        for pair in perm.chunks_exact(2) {
            b.edge(pair[0], pair[1]);
        }
    }
    // patch connectivity
    let g = b.build();
    let (comp, count) = connected_components(&g);
    if count <= 1 {
        return g;
    }
    let mut reps = vec![usize::MAX; count];
    for v in 0..n {
        if reps[comp[v]] == usize::MAX {
            reps[comp[v]] = v;
        }
    }
    for c in 1..count {
        b.edge(reps[0], reps[c]);
    }
    b.build()
}

/// A Barabási–Albert preferential-attachment graph: vertices arrive one at a
/// time, each linking to `m` **distinct** earlier vertices chosen with
/// probability proportional to their current degree (implemented by sampling
/// the running edge-endpoint list, where a vertex appears once per incident
/// edge).  The seed of the process is a clique on `m + 1` vertices, so every
/// arrival can always find `m` distinct targets and the graph is connected by
/// construction — no patching step.
///
/// Degrees follow the scale-free `deg^-3` tail the model is known for: the
/// hub-and-spoke workload that stresses landmark cluster sizes and congests
/// the high-degree core.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2);
    assert!(m >= 1 && m < n, "attachment count must satisfy 1 <= m < n");
    let mut rng = Xoshiro256::new(seed);
    let mut b = GraphBuilder::new(n);
    // One entry per edge endpoint: sampling it uniformly IS degree-biased.
    let mut endpoints: Vec<usize> = Vec::new();
    let seed_verts = m + 1;
    for u in 0..seed_verts {
        for v in (u + 1)..seed_verts {
            b.edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut targets: Vec<usize> = Vec::with_capacity(m);
    for v in seed_verts..n {
        targets.clear();
        // Rejection keeps the m targets distinct without reweighting: a
        // duplicate draw is simply redrawn from the same distribution.
        while targets.len() < m {
            let t = endpoints[rng.gen_range(endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// A power-law graph via the configuration model: vertex `v` (0-indexed by
/// rank) asks for `⌊(n / (v + 1))^{1 / (exponent - 1)}⌋` edge stubs — the
/// rank-based recipe whose degree distribution has a `deg^-exponent` tail —
/// capped at `⌈√n⌉` (so the pairing stays simple-graph friendly) and floored
/// at 1.  The stub list is shuffled and paired; self-loops and duplicate
/// pairs are dropped, and the result is patched to be connected like
/// [`random_connected`].
///
/// `exponent` must exceed `2` for the degree sum to stay near-linear;
/// `2 < exponent ≤ 3` is the heavy-tailed "internet-like" regime.
pub fn powerlaw_configuration(n: usize, exponent: f64, seed: u64) -> Graph {
    assert!(n >= 2);
    assert!(exponent > 2.0, "exponent must exceed 2");
    let mut rng = Xoshiro256::new(seed);
    let cap = ((n as f64).sqrt().ceil() as usize).max(1);
    let mut stubs: Vec<usize> = Vec::new();
    for v in 0..n {
        let want = (n as f64 / (v + 1) as f64).powf(1.0 / (exponent - 1.0));
        let d = (want.floor() as usize).clamp(1, cap);
        stubs.extend(std::iter::repeat_n(v, d));
    }
    rng.shuffle(&mut stubs);
    let mut b = GraphBuilder::new(n);
    for pair in stubs.chunks_exact(2) {
        b.edge(pair[0], pair[1]); // self-loops and repeats silently dropped
    }
    // Patch connectivity exactly like `random_connected`: link a
    // representative of every stranded component to a *random* anchor in the
    // first one, so the patch edges spread instead of minting an artificial
    // hub on top of the heavy tail.
    let g = b.build();
    let (comp, count) = connected_components(&g);
    if count <= 1 {
        return g;
    }
    let mut reps = vec![usize::MAX; count];
    for v in 0..n {
        if reps[comp[v]] == usize::MAX {
            reps[comp[v]] = v;
        }
    }
    let members0: Vec<usize> = (0..n).filter(|&v| comp[v] == 0).collect();
    for &rep in &reps[1..] {
        b.edge(*rng.choose(&members0), rep);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn gnp_extremes() {
        let g = gnp(20, 0.0, 1);
        assert_eq!(g.num_edges(), 0);
        let g = gnp(20, 1.0, 1);
        assert_eq!(g.num_edges(), 190);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 200;
        let p = 0.1;
        let g = gnp(n, p, 123);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.25 * expected,
            "edge count {actual} too far from expectation {expected}"
        );
    }

    #[test]
    fn gnp_deterministic_per_seed() {
        assert_eq!(gnp(50, 0.2, 5), gnp(50, 0.2, 5));
        assert_ne!(gnp(50, 0.2, 5), gnp(50, 0.2, 6));
    }

    /// The plain serial draw: one `gen_bool(p)` per pair, row-major.
    fn serial_gnp_edges(n: usize, p: f64, seed: u64) -> Vec<(usize, usize)> {
        let mut rng = Xoshiro256::new(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        edges
    }

    #[test]
    fn thread_counts_draw_identical_gnp_edges() {
        for n in [1usize, 2, 3, 257, 1000] {
            for p in [0.0, 0.01, 0.3, 1.0] {
                let serial = serial_gnp_edges(n, p, 42);
                // Chunks down to one pair on the smallest graphs, at most a
                // few hundred chunks (boundaries mid-row) on the larger ones.
                let pairs = n * (n - 1) / 2;
                for threads in [1, 2, 3, 7] {
                    for chunk in [1, 7, 64, 4099].map(|c: usize| c.max(pairs / 200)) {
                        assert_eq!(
                            gnp_edges_with_threads(n, p, 42, threads, chunk),
                            serial,
                            "n = {n}, p = {p}, threads = {threads}, chunk = {chunk}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thread_counts_build_identical_random_connected_graphs() {
        // The public generators run on every core once the pair count spans
        // several chunks; the serial draw is the reference.
        let n = 2000;
        let p = 4.0 / n as f64;
        let serial = Graph::from_edges(n, &serial_gnp_edges(n, p, 5));
        assert_eq!(gnp(n, p, 5), serial);
        let conn = random_connected(n, p, 5);
        for (u, v) in serial.edges() {
            assert!(conn.has_edge(u, v));
        }
    }

    #[test]
    fn pair_index_round_trips() {
        for n in [2usize, 3, 10, 257] {
            let mut i = 0;
            for u in 0..n {
                for v in (u + 1)..n {
                    assert_eq!(pair_at(n, i), (u, v), "n = {n}, i = {i}");
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn random_connected_is_connected_even_when_sparse() {
        for seed in 0..5u64 {
            let g = random_connected(100, 0.005, seed);
            assert!(
                is_connected(&g),
                "seed {seed} produced a disconnected graph"
            );
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn random_connected_keeps_gnp_edges() {
        let base = gnp(80, 0.05, 9);
        let conn = random_connected(80, 0.05, 9);
        assert!(conn.num_edges() >= base.num_edges());
        for (u, v) in base.edges() {
            assert!(conn.has_edge(u, v));
        }
    }

    #[test]
    fn random_regular_like_degree_bounds() {
        let d = 6;
        let g = random_regular_like(150, d, 77);
        assert!(is_connected(&g));
        // superposition of d matchings gives max degree <= d (+ tiny patching)
        assert!(g.max_degree() <= d + 2);
        let avg = g.degree_sum() as f64 / g.num_nodes() as f64;
        assert!(avg > d as f64 * 0.5, "average degree {avg} too small");
    }

    #[test]
    fn random_regular_like_small_cases() {
        let g = random_regular_like(2, 1, 3);
        assert!(is_connected(&g));
        let g = random_regular_like(5, 2, 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn barabasi_albert_is_connected_and_scale_free_ish() {
        let n = 400;
        let m = 3;
        let g = barabasi_albert(n, m, 9);
        assert!(is_connected(&g));
        assert!(g.validate().is_ok());
        // Every arrival adds exactly m edges on top of the seed clique.
        assert_eq!(g.num_edges(), m * (m + 1) / 2 + (n - m - 1) * m);
        // Preferential attachment grows hubs: the max degree must clearly
        // exceed what a degree-uniform process would concentrate at.
        assert!(g.max_degree() > 4 * m, "max degree {}", g.max_degree());
        // Late arrivals keep their attachment degree.
        assert!((0..n).all(|v| g.degree(v) >= m));
    }

    #[test]
    fn barabasi_albert_extremes_and_determinism() {
        // n == m + 1 is exactly the seed clique.
        let g = barabasi_albert(5, 4, 1);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(barabasi_albert(120, 2, 7), barabasi_albert(120, 2, 7));
        assert_ne!(barabasi_albert(120, 2, 7), barabasi_albert(120, 2, 8));
    }

    #[test]
    fn powerlaw_configuration_is_connected_and_heavy_tailed() {
        let n = 600;
        let g = powerlaw_configuration(n, 2.5, 3);
        assert!(is_connected(&g));
        assert!(g.validate().is_ok());
        // The rank-1 vertex asks for ~n^{1/(γ-1)} stubs, capped at √n —
        // either way far above the median vertex's single stub.
        assert!(g.max_degree() >= 8, "max degree {}", g.max_degree());
        // Most of the tail sits at tiny degree: the median must stay small.
        let mut degs: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        assert!(degs[n / 2] <= 3, "median degree {}", degs[n / 2]);
        // Stub cap keeps the pairing simple-graph friendly; connectivity
        // patching may add a few spread-out edges on top.
        assert!(g.max_degree() <= (n as f64).sqrt().ceil() as usize + 8);
    }

    #[test]
    fn powerlaw_configuration_determinism_and_small_cases() {
        assert_eq!(
            powerlaw_configuration(200, 2.2, 5),
            powerlaw_configuration(200, 2.2, 5)
        );
        assert_ne!(
            powerlaw_configuration(200, 2.2, 5),
            powerlaw_configuration(200, 2.2, 6)
        );
        for seed in 0..4u64 {
            let g = powerlaw_configuration(16, 3.0, seed);
            assert!(is_connected(&g), "seed {seed}");
        }
    }
}
