//! The benchmark pipeline every workload runs at its own size.
//!
//! One run is: set-up (graph generation, landmark build, plan compile)
//! repeated [`SETUP_REPS`] times, then one pass over the last set-up
//! instance.  The pass measures three phases:
//!
//! * **lab** — `trafficlab::run_workload` with exact stretch and congestion;
//! * **check** — `routecheck`'s `Checker::check_dest` for every destination
//!   or a strided sample of them;
//! * **serve** — `routeserve::serve` of the uniform query stream, batched.
//!
//! A churn workload first runs nested failure rounds, each followed by an
//! in-place `SchemeInstance::repair`, then the audit and the
//! repair-vs-rebuild pin, and measures the three phases on the repaired
//! instance and the final view; the others measure the pristine graph.  The
//! work of each phase is cut into [`SEGMENTS`] segments (source ranges of
//! the plans, ranges of the destination list), one call each, and the
//! phases take turns in blocks of consecutive segments.  A rate is the
//! median over a phase's segments: the host's speed wanders by ±15 % from
//! one second to the next, and a median over calls spread across the whole
//! pass is far steadier than one long call.  Before every set-up (on one
//! worker) and between the blocks (on the run's workers) the [`Reference`]
//! loop is timed, and the end-to-end timings are scaled by its slowdown,
//! which takes out the host's drift between runs.
//!
//! Untraced runs measure the end-to-end metrics.  A traced run makes one
//! set-up and the same pass, and adds, from outside the program, spans
//! around each call into a layer, replays of the engine's BFS blocks and of
//! the serve chunks through the batch kernel, and a counting routing
//! decorator.

use crate::counting::{Counting, PortCounts, Vacant};
use crate::metrics::{median, quantile, Metrics};
use crate::reference::Reference;
use crate::sys::{self, Span};
use graphkit::{BfsScratch, DistanceBlock, FailureSet, Graph, GraphView, NodeId, INFINITY};
use routecheck::{Checker, ClassCounts};
use routemodel::{default_hop_limit, route_batch_into, BatchScratch, RoutingFunction};
use routeschemes::landmark::LandmarkRouting;
use routeschemes::{GraphHints, LandmarkConfig, SchemeInstance, SchemeSpec};
use routeserve::{serve, ServeConfig};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use trafficlab::{
    run_workload, EngineConfig, OutcomeCounts, SourceDests, WorkloadPlan, WorkloadSpec,
};

/// Worker threads of every parallel call (the reference host has 2 cores).
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.  Only two when the first two
/// took [`SETUP_BUDGET_S`] or more (the n = 65536 build takes ~15 s).
pub const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 20.0;
/// Calls each of the lab, check and serve phases is cut into.
pub const SEGMENTS: usize = 16;
/// Interleaved blocks of consecutive segments per phase: a phase's first
/// segment in a block finds the caches holding the other phases' data, the
/// other three find them warm.
const BLOCKS: usize = 4;
/// Average degree of the `random?n=…&deg=8` graphs.
const AVG_DEG: f64 = 8.0;
/// Rows per engine distance block (the engine's default).
const BLOCK_ROWS: usize = 64;
/// Share of the edges each failure round kills.
const KILL_PER_ROUND: f64 = 0.0025;
/// Failure seeds tried before a workload gives up on a connected final view.
const FAILURE_SEED_TRIES: u64 = 64;
/// Reference samples before every set-up, and before and after every block
/// of a measured phase.
const REFERENCE_SAMPLES: usize = 3;

/// The traffic of the lab phase.
#[derive(Debug, Clone, Copy)]
pub enum LabTraffic {
    /// The serve phase's uniform stream: ground truth for every source.
    ServePlan,
    /// `sources` random sources with `dests` uniform destinations each.
    Sampled { sources: usize, dests: usize },
}

/// One workload: the size of every phase.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    /// Uniform queries of the serve phase.
    pub queries: u64,
    pub lab: LabTraffic,
    /// Every `check_stride`-th destination is checked (1: all of them).
    pub check_stride: usize,
    /// Nested failure rounds, each killing `KILL_PER_ROUND` more of the
    /// edges, before the measured phases; the phases then run on the
    /// repaired instance and the final view, and the repaired instance is
    /// pinned to a fresh build on that view.  `None`: no churn, the phases
    /// run on the pristine graph.
    pub churn_rounds: Option<u32>,
}

/// The benchmark's workloads.
pub fn workloads() -> [Workload; 3] {
    [
        Workload {
            name: "serve-64k",
            n: 65536,
            queries: 2_000_000,
            lab: LabTraffic::Sampled {
                sources: 64,
                dests: 2000,
            },
            check_stride: 1024,
            churn_rounds: None,
        },
        Workload {
            name: "lab-16k",
            n: 16384,
            queries: 2_000_000,
            lab: LabTraffic::ServePlan,
            check_stride: 128,
            churn_rounds: None,
        },
        Workload {
            name: "churn-8k",
            n: 8192,
            queries: 1_000_000,
            lab: LabTraffic::Sampled {
                sources: 256,
                dests: 1000,
            },
            check_stride: 1,
            churn_rounds: Some(4),
        },
    ]
}

/// The workload named `name`.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Per-layer counts that must repeat exactly across runs and thread counts.
pub const COUNTERS: [&str; 17] = [
    "graphkit.arcs_scanned",
    "graphkit.blocks",
    "graphkit.narrow_blocks",
    "routeschemes.cluster_entries",
    "routeschemes.landmarks",
    "routeschemes.vertices_touched",
    "routeschemes.landmarks_rebuilt",
    "routeschemes.full_rebuilds",
    "routeschemes.port_calls",
    "routeschemes.cluster_hits",
    "routeschemes.landmark_fallbacks",
    "routemodel.hops",
    "routemodel.batches",
    "routeserve.chunks",
    "routecheck.proven",
    "routecheck.broken",
    "routecheck.port_calls",
];

/// Input seeds, all derived from the benchmark's `--seed`.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    graph: u64,
    queries: u64,
    lab: u64,
    failures: u64,
}

pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Seeds {
    fn from(seed: u64) -> Self {
        let s = |stream: u64| splitmix(seed ^ splitmix(stream));
        Seeds {
            graph: s(1),
            queries: s(2),
            lab: s(3),
            failures: s(4),
        }
    }
}

/// Operations attempted and failed, and every failed output check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn error(&mut self, count: u64, what: String) {
        self.attempted += count;
        self.failed += count;
        self.problems.push(what);
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub n: usize,
    pub m: usize,
    pub traced: bool,
    pub threads: usize,
    pub setups: usize,
    /// Timed samples of the reference loop.
    pub reference_samples: usize,
    /// The host's slowdown against the reference speed on one worker (the
    /// set-up's) and on `threads` workers (see [`Reference`]).
    pub serial_slowdown: f64,
    pub slowdown: f64,
    pub tally: Tally,
    /// End-to-end metrics, timings scaled to the reference speed.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs only; empty otherwise).
    pub layers: Metrics,
    /// Latency samples behind the serve percentiles.
    pub serve_chunks: u64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.problems.is_empty()
    }
}

/// A set-up instance: the graph, the landmark instance and the compiled
/// traffic, cut into segments.
struct Built {
    g: Graph,
    inst: SchemeInstance,
    config: LandmarkConfig,
    serve: Vec<WorkloadPlan>,
    /// `None`: the lab phase runs the serve segments.
    lab: Option<Vec<WorkloadPlan>>,
}

impl Built {
    fn lab(&self) -> &[WorkloadPlan] {
        self.lab.as_deref().unwrap_or(&self.serve)
    }
}

/// The pristine graph, or its view with `failures` dead.
fn view_of<'a>(g: &'a Graph, failures: Option<&'a FailureSet>) -> GraphView<'a> {
    match failures {
        Some(f) => GraphView::masked(g, f),
        None => GraphView::full(g),
    }
}

fn landmark_of(inst: &SchemeInstance) -> Option<&LandmarkRouting> {
    let any: &dyn Any = &*inst.routing;
    any.downcast_ref::<LandmarkRouting>()
}

/// The destinations of `s`.  Every plan of the benchmark (uniform, sampled
/// sources, and their segments) lists them explicitly.
fn dests_of(plan: &WorkloadPlan, s: usize) -> &[u32] {
    match plan.dests(s) {
        SourceDests::List(list) => list,
        SourceDests::AllOthers => unreachable!("benchmark plans list their destinations"),
    }
}

/// Sources with at least one message, ascending.
fn active_sources(plan: &WorkloadPlan) -> Vec<usize> {
    (0..plan.num_nodes())
        .filter(|&s| !dests_of(plan, s).is_empty())
        .collect()
}

/// Cuts `plan` into [`SEGMENTS`] plans over consecutive source ranges; each
/// source keeps its destinations in order.
fn split(plan: &WorkloadPlan) -> Vec<WorkloadPlan> {
    let n = plan.num_nodes();
    (0..SEGMENTS)
        .map(|i| {
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for s in i * n / SEGMENTS..(i + 1) * n / SEGMENTS {
                pairs.extend(dests_of(plan, s).iter().map(|&t| (s, t as usize)));
            }
            WorkloadPlan::from_pairs(n, pairs)
        })
        .collect()
}

/// Graph generation, scheme build and plan compile; returns the instance and
/// the set-up seconds.  Records the build-side layer metrics into `layers`.
fn setup(w: &Workload, seeds: Seeds, layers: &mut Metrics) -> Result<(Built, f64), String> {
    let t0 = Instant::now();
    let span = Span::start();
    let g = graphkit::generators::random_connected(w.n, AVG_DEG / w.n as f64, seeds.graph);
    let generated = span.stop();

    let spec = SchemeSpec::parse("landmark").map_err(|e| format!("scheme spec: {e}"))?;
    let SchemeSpec::Landmark(config) = &spec else {
        return Err("scheme spec 'landmark' did not parse to the landmark scheme".to_string());
    };
    let config = config.clone();
    let rss0 = sys::rss_bytes();
    let span = Span::start();
    let inst = spec
        .build(&g, &GraphHints::none())
        .map_err(|e| format!("landmark build: {e}"))?;
    let built = span.stop();
    let build_rss = sys::rss_bytes().saturating_sub(rss0);

    let span = Span::start();
    let serve = split(
        &WorkloadSpec::Uniform {
            messages: w.queries,
            seed: seeds.queries,
        }
        .compile(w.n),
    );
    let lab = match w.lab {
        LabTraffic::ServePlan => None,
        LabTraffic::Sampled { sources, dests } => Some(split(
            &WorkloadSpec::SampledSources {
                sources,
                dests_per_source: dests,
                seed: seeds.lab,
            }
            .compile(w.n),
        )),
    };
    let compiled = span.stop();
    let total = t0.elapsed().as_secs_f64();

    let lm = landmark_of(&inst).ok_or("the landmark spec built another scheme")?;
    let cluster_entries: usize = (0..w.n).map(|v| lm.cluster_size(v)).sum();
    layers.set("graphkit.generate_s", generated.wall_s, "s");
    layers.set("routeschemes.build_s", built.wall_s, "s");
    layers.set("routeschemes.build_cpu_s", built.cpu_s, "s");
    layers.set("routeschemes.build_rss_mb", build_rss as f64 / 1e6, "MB");
    layers.set(
        "routeschemes.cluster_entries",
        cluster_entries as f64,
        "count",
    );
    layers.set(
        "routeschemes.landmarks",
        lm.landmarks().len() as f64,
        "count",
    );
    layers.set(
        "routeschemes.resident_bytes_per_router",
        build_rss as f64 / w.n as f64,
        "B",
    );
    layers.set(
        "routeschemes.accounted_bits_per_router",
        inst.memory.average(),
        "bits",
    );
    layers.set(
        "routeschemes.local_bits",
        inst.memory.local() as f64,
        "bits",
    );
    layers.set("trafficlab.compile_s", compiled.wall_s, "s");
    Ok((
        Built {
            g,
            inst,
            config,
            serve,
            lab,
        },
        total,
    ))
}

/// Hands `items` to `threads` scoped workers through a shared cursor, the
/// way `routeserve::serve` hands out its chunks; each worker folds its items
/// into a state of its own, and the states come back in worker order.
fn shard<T: Sync, S: Send>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &T) + Sync,
) -> Vec<S> {
    let cursor = AtomicUsize::new(0);
    let workers = threads.clamp(1, items.len().max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    while let Some(item) = items.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        work(&mut state, item);
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    })
}

/// `Checker::check_dest` over `dests`, sharded into contiguous chunks over
/// `threads` workers (as `routecheck::check_routing` shards); returns the
/// merged counts and every destination's check time in µs.
fn check_dests<R: RoutingFunction + Sync + ?Sized>(
    view: GraphView<'_>,
    r: &R,
    dests: &[usize],
    threads: usize,
) -> (ClassCounts, Vec<f64>) {
    let per = dests.len().div_ceil(threads.max(1)).max(1);
    let mut counts = ClassCounts::default();
    let mut times = Vec::with_capacity(dests.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = dests
            .chunks(per)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut checker = Checker::new();
                    let mut counts = ClassCounts::default();
                    let mut times = Vec::with_capacity(chunk.len());
                    for &d in chunk {
                        let t = Instant::now();
                        let rep = checker.check_dest(view, r, d);
                        times.push(t.elapsed().as_secs_f64() * 1e6);
                        counts.merge(&rep.counts);
                    }
                    (counts, times)
                })
            })
            .collect();
        for h in handles {
            let (c, mut ts) = h.join().expect("check worker panicked");
            counts.merge(&c);
            times.append(&mut ts);
        }
    });
    (counts, times)
}

/// Moves the instance's routing function into a [`Counting`] decorator for
/// the duration of `f`, then puts it back.
fn counted<T>(inst: &mut SchemeInstance, f: impl FnOnce(&Counting) -> T) -> (T, PortCounts) {
    let inner = std::mem::replace(&mut inst.routing, Box::new(Vacant));
    let counting = Counting::new(inner);
    let out = f(&counting);
    let counts = counting.counts();
    inst.routing = counting.into_inner();
    (out, counts)
}

/// One serve-replay worker's kernel time and counts.
#[derive(Default)]
struct Tick {
    secs: f64,
    hops: u64,
    msgs: u64,
    batches: u64,
    errors: u64,
}

/// The lab phase's samples over its segments.
#[derive(Default)]
struct LabSamples {
    rates: Vec<f64>,
    run_s: f64,
    cpu_s: f64,
    pairs: u64,
    stretch_sum: f64,
    max_stretch: f64,
    blocks: u64,
    narrow: u64,
    peak: u64,
}

/// The check phase's samples over its segments.
#[derive(Default)]
struct CheckSamples {
    rates: Vec<f64>,
    /// Per-destination `check_dest` times, µs.
    times: Vec<f64>,
    check_s: f64,
    cpu_s: f64,
    counts: ClassCounts,
}

/// The serve phase's samples over its segments.
#[derive(Default)]
struct ServeSamples {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    serve_s: f64,
    cpu_s: f64,
    outcomes: Vec<OutcomeCounts>,
    batch: usize,
    hop_limit: usize,
}

/// One pass over the phases: where its measurements go.
struct Pass<'a> {
    threads: usize,
    traced: bool,
    /// End-to-end values, as measured (not yet scaled by the reference).
    e2e: Metrics,
    layers: &'a mut Metrics,
    tally: &'a mut Tally,
    reference: &'a mut Reference,
}

impl Pass<'_> {
    /// Runs `rounds` failure rounds, each followed by an in-place repair of
    /// the instance, then the audit and the repair-vs-rebuild pin; returns
    /// the final failure set.
    fn churn(&mut self, rounds: u32, b: &mut Built, seeds: Seeds) -> Option<FailureSet> {
        // The nested samples of one seed grow with the rate, so the final
        // view is the sparsest: keep the first seed whose final view stays
        // connected (a random graph of average degree 8 has pendant
        // vertices).
        let total_rate = KILL_PER_ROUND * f64::from(rounds);
        let fseed = (0..FAILURE_SEED_TRIES)
            .map(|i| seeds.failures.wrapping_add(i))
            .find(|&s| {
                let fs = FailureSet::sample(&b.g, total_rate, s);
                graphkit::traversal::is_connected(GraphView::masked(&b.g, &fs))
            });
        let Some(fseed) = fseed else {
            self.tally.error(
                u64::from(rounds),
                format!("churn: no failure seed of {FAILURE_SEED_TRIES} keeps the view connected"),
            );
            return None;
        };
        let mut sets: Vec<FailureSet> = (1..=rounds)
            .map(|r| FailureSet::sample(&b.g, KILL_PER_ROUND * f64::from(r), fseed))
            .collect();

        let mut repair_s = 0.0;
        let (mut touched, mut rebuilt, mut full) = (0u64, 0u64, 0u64);
        for (round, fs) in sets.iter().enumerate() {
            self.tally.attempted += 1;
            let span = Span::start();
            let result = b.inst.repair(&b.g, fs);
            let spent = span.stop();
            match result {
                Ok(st) => {
                    repair_s += spent.wall_s;
                    touched += st.vertices_touched as u64;
                    rebuilt += st.landmarks_rebuilt as u64;
                    full += u64::from(st.full_rebuild);
                }
                Err(e) => {
                    self.tally.failed += 1;
                    self.tally
                        .problems
                        .push(format!("churn round {}: repair failed: {e}", round + 1));
                }
            }
        }
        let last = sets.pop()?;
        let findings = b.inst.audit(&b.g);
        self.tally.check(findings.is_empty(), || {
            format!("churn: audit after repair: {}", findings.join("; "))
        });
        let fresh = LandmarkRouting::build_on_view(GraphView::masked(&b.g, &last), &b.config);
        self.tally.check(landmark_of(&b.inst) == Some(&fresh), || {
            "churn: repaired instance differs from a fresh build on the final view".to_string()
        });
        let layers = &mut *self.layers;
        layers.set("routeschemes.repair_s", repair_s, "s");
        layers.set("routeschemes.vertices_touched", touched as f64, "count");
        layers.set("routeschemes.landmarks_rebuilt", rebuilt as f64, "count");
        layers.set("routeschemes.full_rebuilds", full as f64, "count");
        Some(last)
    }

    /// The lab, check and serve phases on the pristine graph or the view
    /// left by `failures`, taking turns in blocks of segments so that each
    /// phase samples the whole pass; returns the number of serve latency
    /// samples.
    fn measure(&mut self, w: &Workload, b: &mut Built, failures: Option<&FailureSet>) -> u64 {
        let n = b.g.num_nodes();
        let view = view_of(&b.g, failures);
        let dests: Vec<usize> = (0..n).step_by(w.check_stride.max(1)).collect();
        let per = dests.len().div_ceil(SEGMENTS).max(1);
        let (mut lab, mut check, mut srv) = (
            LabSamples::default(),
            CheckSamples::default(),
            ServeSamples::default(),
        );
        let r: &(dyn RoutingFunction + Send + Sync) = &*b.inst.routing;
        let check_segs: Vec<&[usize]> = dests.chunks(per).collect();
        for block in (0..SEGMENTS).collect::<Vec<_>>().chunks(SEGMENTS / BLOCKS) {
            self.time_reference();
            for &i in block {
                self.lab_segment(&mut lab, view, r, &b.lab()[i]);
            }
            self.time_reference();
            for seg in block.iter().filter_map(|&i| check_segs.get(i)) {
                self.check_segment(&mut check, view, r, seg);
            }
            self.time_reference();
            for &i in block {
                self.serve_segment(&mut srv, view, r, &b.serve[i]);
            }
        }
        self.time_reference();
        self.finish_lab(lab, b, view);
        self.finish_check(check, b, failures, &dests);
        self.finish_serve(srv, b, failures)
    }

    /// Times the reference loop on the run's workers between two blocks.
    fn time_reference(&mut self) {
        for _ in 0..REFERENCE_SAMPLES {
            self.reference.sample(self.threads);
        }
    }

    fn lab_segment(
        &mut self,
        acc: &mut LabSamples,
        view: GraphView<'_>,
        r: &(dyn RoutingFunction + Send + Sync),
        plan: &WorkloadPlan,
    ) {
        let cfg = EngineConfig {
            threads: self.threads,
            block_rows: BLOCK_ROWS,
            track_congestion: true,
        };
        let want = plan.messages();
        let span = Span::start();
        let result = run_workload(view, r, plan, &cfg);
        let spent = span.stop();
        let rep = match result {
            Ok(rep) => rep,
            Err(e) => return self.tally.error(want, format!("lab: routing error: {e}")),
        };
        self.tally.attempted += want;
        self.tally.failed += want.saturating_sub(rep.outcomes.delivered);
        self.tally.check(
            rep.routed_messages == want && rep.outcomes.attempted() == want,
            || {
                format!(
                    "lab: routed {} of {want} planned messages ({:?})",
                    rep.routed_messages, rep.outcomes
                )
            },
        );
        self.tally.check(rep.skipped_unreachable == 0, || {
            format!(
                "lab: {} messages skipped as unreachable",
                rep.skipped_unreachable
            )
        });
        acc.rates.push(rep.messages_per_sec());
        acc.run_s += spent.wall_s;
        acc.cpu_s += spent.cpu_s;
        acc.pairs += rep.stretch.pairs as u64;
        acc.stretch_sum += rep.stretch.avg_stretch * rep.stretch.pairs as f64;
        acc.max_stretch = acc.max_stretch.max(rep.stretch.max_stretch);
        acc.blocks += rep.blocks as u64;
        acc.narrow += rep.narrow_blocks as u64;
        acc.peak = acc.peak.max(rep.peak_tracked_bytes);
    }

    fn finish_lab(&mut self, acc: LabSamples, b: &Built, view: GraphView<'_>) {
        self.tally.check(acc.max_stretch <= 3.0, || {
            format!("lab: landmark max stretch {} > 3", acc.max_stretch)
        });
        self.e2e.set("lab_msgs_per_s", median(&acc.rates), "1/s");
        self.e2e.set(
            "avg_stretch",
            acc.stretch_sum / acc.pairs.max(1) as f64,
            "ratio",
        );
        if !self.traced {
            return;
        }
        let layers = &mut *self.layers;
        layers.set("trafficlab.run_s", acc.run_s, "s");
        layers.set("trafficlab.cpu_s", acc.cpu_s, "s");
        layers.set("trafficlab.peak_tracked_bytes", acc.peak as f64, "B");
        layers.set("graphkit.blocks", acc.blocks as f64, "count");
        layers.set("graphkit.narrow_blocks", acc.narrow as f64, "count");

        // Replay the engine's distance blocks (runs of consecutive active
        // sources, at most BLOCK_ROWS each) and its batch-kernel calls.
        let mut block_list: Vec<(usize, usize)> = Vec::new();
        let mut sources: Vec<(usize, usize)> = Vec::new();
        for (i, plan) in b.lab().iter().enumerate() {
            let first = block_list.len();
            for s in active_sources(plan) {
                sources.push((i, s));
                let extends = block_list.len() > first;
                match block_list.last_mut() {
                    Some((lo, rows)) if extends && *lo + *rows == s && *rows < BLOCK_ROWS => {
                        *rows += 1;
                    }
                    _ => block_list.push((s, 1)),
                }
            }
        }
        let n = b.g.num_nodes();
        let bfs = shard(
            &block_list,
            self.threads,
            || {
                (
                    BfsScratch::with_capacity(n),
                    DistanceBlock::new(),
                    0.0f64,
                    0u64,
                )
            },
            |(scratch, block, secs, arcs), &(lo, rows)| {
                let t = Instant::now();
                block.recompute(view, lo, rows, scratch);
                *secs += t.elapsed().as_secs_f64();
                for s in lo..lo + rows {
                    let row = block.row(s);
                    *arcs += (0..n)
                        .filter(|&v| row.dist(v) != INFINITY)
                        .map(|v| view.degree(v) as u64)
                        .sum::<u64>();
                }
            },
        );
        let bfs_s: f64 = bfs.iter().map(|w| w.2).sum();
        let arcs: u64 = bfs.iter().map(|w| w.3).sum();
        layers.set("graphkit.bfs_s", bfs_s, "s");
        layers.set("graphkit.arcs_scanned", arcs as f64, "count");
        layers.set(
            "graphkit.ns_per_arc",
            bfs_s * 1e9 / arcs.max(1) as f64,
            "ns",
        );

        let r: &(dyn RoutingFunction + Send + Sync) = &*b.inst.routing;
        let hop_limit = default_hop_limit(n);
        let plans = b.lab();
        let kernel = shard(
            &sources,
            self.threads,
            || (BatchScratch::new(), 0.0f64, true),
            |(batch, secs, ok), &(i, s)| {
                let dests = dests_of(&plans[i], s);
                let t = Instant::now();
                let routed = route_batch_into(
                    view,
                    r,
                    s,
                    dests,
                    hop_limit,
                    batch,
                    true,
                    |_, _, _| {},
                    |_, _| {},
                );
                *secs += t.elapsed().as_secs_f64();
                *ok &= routed.is_ok();
            },
        );
        let kernel_s: f64 = kernel.iter().map(|w| w.1).sum();
        self.tally.check(kernel.iter().all(|w| w.2), || {
            "lab replay: routing error".to_string()
        });
        layers.set("routemodel.lab_kernel_s", kernel_s, "s");
        layers.set(
            "trafficlab.self_s",
            acc.run_s - (bfs_s + kernel_s) / self.threads as f64,
            "s",
        );
    }

    fn check_segment(
        &mut self,
        acc: &mut CheckSamples,
        view: GraphView<'_>,
        r: &(dyn RoutingFunction + Send + Sync),
        dests: &[usize],
    ) {
        let span = Span::start();
        let (c, mut times) = check_dests(view, r, dests, self.threads);
        let spent = span.stop();
        acc.rates.push(c.total() as f64 / spent.wall_s);
        acc.check_s += spent.wall_s;
        acc.cpu_s += spent.cpu_s;
        acc.counts.merge(&c);
        acc.times.append(&mut times);
    }

    fn finish_check(
        &mut self,
        acc: CheckSamples,
        b: &mut Built,
        failures: Option<&FailureSet>,
        dests: &[usize],
    ) {
        let n = b.g.num_nodes();
        let view = view_of(&b.g, failures);
        let counts = acc.counts;
        let pairs = (dests.len() * (n - 1)) as u64;
        self.tally.attempted += pairs;
        self.tally.failed += pairs.saturating_sub(counts.proven);
        self.tally
            .check(counts.proven == pairs && counts.total() == pairs, || {
                format!(
                    "check: {} of {pairs} pairs proven ({counts:?})",
                    counts.proven
                )
            });
        self.e2e.set("check_pairs_per_s", median(&acc.rates), "1/s");
        if !self.traced {
            return;
        }
        let threads = self.threads;
        let ((recount, _), ports) = counted(&mut b.inst, |c| check_dests(view, c, dests, threads));
        self.tally.check(recount == counts, || {
            "check: the counted sweep classified pairs differently".to_string()
        });
        let layers = &mut *self.layers;
        layers.set("routecheck.check_s", acc.check_s, "s");
        layers.set("routecheck.cpu_s", acc.cpu_s, "s");
        layers.set("routecheck.proven", counts.proven as f64, "count");
        layers.set("routecheck.broken", counts.broken() as f64, "count");
        layers.set("routecheck.dest_p50_us", median(&acc.times), "us");
        layers.set("routecheck.dest_max_us", quantile(&acc.times, 1.0), "us");
        layers.set("routecheck.port_calls", ports.port_calls as f64, "count");
        layers.set("routecheck.cluster_hit_ratio", ports.hit_ratio(), "ratio");
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            threads: self.threads,
            ..ServeConfig::batched()
        }
    }

    fn serve_segment(
        &mut self,
        acc: &mut ServeSamples,
        view: GraphView<'_>,
        r: &(dyn RoutingFunction + Send + Sync),
        plan: &WorkloadPlan,
    ) {
        let want = plan.messages();
        let span = Span::start();
        let result = serve(view, r, plan, &self.serve_config());
        let spent = span.stop();
        let st = match result {
            Ok(st) => st,
            Err(e) => return self.tally.error(want, format!("serve: routing error: {e}")),
        };
        self.tally.attempted += want;
        self.tally.failed += want.saturating_sub(st.outcomes.delivered);
        self.tally.check(
            st.outcomes.attempted() == want && st.outcomes.delivered == want,
            || format!("serve: {want} queries planned, outcomes {:?}", st.outcomes),
        );
        acc.rates.push(st.messages_per_sec());
        acc.p50.push(st.p50_us);
        acc.p90.push(st.p90_us);
        acc.serve_s += spent.wall_s;
        acc.cpu_s += spent.cpu_s;
        acc.batch = st.batch;
        acc.hop_limit = st.hop_limit;
        acc.outcomes.push(st.outcomes);
    }

    /// Returns the number of serve latency samples.
    fn finish_serve(
        &mut self,
        acc: ServeSamples,
        b: &mut Built,
        failures: Option<&FailureSet>,
    ) -> u64 {
        self.e2e.set("serve_msgs_per_s", median(&acc.rates), "1/s");
        self.e2e.set("serve_p50_us", median(&acc.p50), "us");
        self.e2e.set("serve_p90_us", median(&acc.p90), "us");

        // Serve's chunks: same-source runs of at most `batch` queries.
        let n = b.g.num_nodes();
        let view = view_of(&b.g, failures);
        let batch = acc.batch.max(1);
        let mut work: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (i, plan) in b.serve.iter().enumerate() {
            for s in 0..n {
                let len = dests_of(plan, s).len();
                work.extend(
                    (0..len)
                        .step_by(batch)
                        .map(|lo| (i, s, lo, batch.min(len - lo))),
                );
            }
        }
        let chunks = work.len() as u64;
        if !self.traced {
            return chunks;
        }

        // Replay the serve chunks through the batch kernel, on as many
        // workers.
        let r: &(dyn RoutingFunction + Send + Sync) = &*b.inst.routing;
        let plans = &b.serve;
        let replay = shard(
            &work,
            self.threads,
            || (BatchScratch::new(), Tick::default()),
            |(scratch, tick), &(i, s, lo, count)| {
                let dests = &dests_of(&plans[i], s)[lo..lo + count];
                let t = Instant::now();
                let routed = route_batch_into(
                    view,
                    r,
                    s,
                    dests,
                    acc.hop_limit,
                    scratch,
                    false,
                    |_, h, _| {
                        tick.hops += u64::from(h);
                        tick.msgs += 1;
                    },
                    |_, _| {},
                );
                tick.secs += t.elapsed().as_secs_f64();
                tick.batches += 1;
                tick.errors += u64::from(routed.is_err());
            },
        );
        let kernel_s: f64 = replay.iter().map(|w| w.1.secs).sum();
        let sum = |f: fn(&Tick) -> u64| replay.iter().map(|w| f(&w.1)).sum::<u64>();
        let (hops, msgs, batches) = (sum(|t| t.hops), sum(|t| t.msgs), sum(|t| t.batches));
        self.tally.check(sum(|t| t.errors) == 0, || {
            "serve replay: routing error".to_string()
        });

        // The same segments through the counting decorator.
        let cfg = self.serve_config();
        let span = Span::start();
        let (recounted, ports) = counted(&mut b.inst, |c| {
            plans
                .iter()
                .map(|plan| serve(view, c, plan, &cfg).map(|st| st.outcomes))
                .collect::<Result<Vec<_>, _>>()
        });
        let counted_s = span.stop().wall_s;
        self.tally
            .check(recounted.is_ok_and(|o| o == acc.outcomes), || {
                "serve: the counted run saw other outcomes".to_string()
            });

        let layers = &mut *self.layers;
        layers.set("routeserve.serve_s", acc.serve_s, "s");
        layers.set("routeserve.cpu_s", acc.cpu_s, "s");
        layers.set("routeserve.chunks", chunks as f64, "count");
        layers.set(
            "routeserve.self_s",
            acc.serve_s - kernel_s / self.threads as f64,
            "s",
        );
        layers.set("routemodel.kernel_s", kernel_s, "s");
        layers.set("routemodel.hops", hops as f64, "count");
        layers.set(
            "routemodel.hops_per_msg",
            hops as f64 / msgs.max(1) as f64,
            "hops",
        );
        layers.set(
            "routemodel.ns_per_hop",
            kernel_s * 1e9 / hops.max(1) as f64,
            "ns",
        );
        layers.set("routemodel.batches", batches as f64, "count");
        layers.set(
            "routemodel.msgs_per_batch",
            msgs as f64 / batches.max(1) as f64,
            "msgs",
        );
        layers.set("routeschemes.port_calls", ports.port_calls as f64, "count");
        layers.set(
            "routeschemes.cluster_hits",
            ports.cluster_hits as f64,
            "count",
        );
        layers.set(
            "routeschemes.landmark_fallbacks",
            ports.fallbacks as f64,
            "count",
        );
        layers.set("routeschemes.cluster_hit_ratio", ports.hit_ratio(), "ratio");
        layers.set("trace.overhead_ratio", counted_s / acc.serve_s, "ratio");
        chunks
    }
}

/// Scales a measured end-to-end timing to the reference speed: rates
/// (`1/s`) are multiplied by the host's `slowdown`, durations (`s`, `us`)
/// divided by it; other units are not timings and stay as they are.
fn at_reference_speed(value: f64, unit: &str, slowdown: f64) -> f64 {
    match unit {
        "1/s" => value * slowdown,
        "s" | "us" => value / slowdown,
        _ => value,
    }
}

/// Fails the run on any value that is not a finite number: it would print
/// as 0, a huge change for the gate in either direction.
fn check_finite(tally: &mut Tally, metrics: &Metrics) {
    for m in metrics.iter() {
        tally.check(m.value.is_finite(), || {
            format!("metric {} is not a finite number ({})", m.name, m.value)
        });
    }
}

/// Runs one workload on `threads` workers: untraced (end-to-end metrics
/// from [`SETUP_REPS`] set-ups and one pass) or traced (per-layer metrics
/// from one set-up and one pass).
pub fn run(w: &Workload, seed: u64, traced: bool, threads: usize) -> RunResult {
    let seeds = Seeds::from(seed);
    let mut tally = Tally::default();
    let mut layers = Metrics::default();
    let mut reference = Reference::new();
    let mut setup_s = Vec::new();
    let mut serve_chunks = 0;
    let mut m = 0;

    let setup_reps = if traced { 1 } else { SETUP_REPS };
    let mut built = None;
    for k in 0..setup_reps {
        if k >= 2 && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
        drop(built.take());
        for _ in 0..REFERENCE_SAMPLES {
            reference.sample(1);
        }
        match setup(w, seeds, &mut layers) {
            Ok((b, secs)) => {
                setup_s.push(secs);
                built = Some(b);
            }
            Err(e) => {
                tally.error(1, e);
                break;
            }
        }
    }

    let mut measured = Metrics::default();
    measured.set("setup_s", median(&setup_s), "s");
    if let Some(mut b) = built {
        m = b.g.num_edges();
        let mut pass = Pass {
            threads,
            traced,
            e2e: Metrics::default(),
            layers: &mut layers,
            tally: &mut tally,
            reference: &mut reference,
        };
        let failures = match w.churn_rounds {
            Some(rounds) => pass.churn(rounds, &mut b, seeds).map(Some),
            None => Some(None),
        };
        if let Some(failures) = failures {
            serve_chunks = pass.measure(w, &mut b, failures.as_ref());
        }
        for metric in pass.e2e.iter() {
            measured.set(metric.name, metric.value, metric.unit);
        }
    }
    if w.churn_rounds.is_none() {
        layers.set("routeschemes.repair_s", 0.0, "s");
        for name in [
            "routeschemes.vertices_touched",
            "routeschemes.landmarks_rebuilt",
            "routeschemes.full_rebuilds",
        ] {
            layers.set(name, 0.0, "count");
        }
    }

    // The set-up is serial; the measured phases run on `threads` workers.
    let (serial, slowdown) = (reference.slowdown(1), reference.slowdown(threads));
    let mut end_to_end = Metrics::default();
    for metric in measured.iter() {
        let host = if metric.name == "setup_s" {
            serial
        } else {
            slowdown
        };
        let value = at_reference_speed(metric.value, metric.unit, host);
        end_to_end.set(metric.name, value, metric.unit);
    }
    end_to_end.set("peak_rss_mb", sys::peak_rss_bytes() as f64 / 1e6, "MB");
    let success = if tally.attempted == 0 {
        0.0
    } else {
        1.0 - tally.failed as f64 / tally.attempted as f64
    };
    end_to_end.set("success_frac", success, "frac");
    if let Some(bits) = layers.get("routeschemes.accounted_bits_per_router") {
        end_to_end.set("mean_bits", bits, "bits");
    }
    layers.set("reference.slowdown", slowdown, "ratio");
    layers.set("reference.serial_slowdown", serial, "ratio");
    if !traced {
        layers = Metrics::default();
    }
    check_finite(&mut tally, &end_to_end);
    check_finite(&mut tally, &layers);
    RunResult {
        workload: w.name,
        n: w.n,
        m,
        traced,
        threads,
        setups: setup_s.len(),
        reference_samples: reference.samples(),
        serial_slowdown: serial,
        slowdown,
        tally,
        end_to_end,
        layers,
        serve_chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_scale_to_the_reference_speed() {
        assert_eq!(at_reference_speed(100.0, "1/s", 2.0), 200.0);
        assert_eq!(at_reference_speed(3.0, "s", 2.0), 1.5);
        assert_eq!(at_reference_speed(8.0, "us", 2.0), 4.0);
        assert_eq!(at_reference_speed(512.0, "MB", 2.0), 512.0);
        assert_eq!(at_reference_speed(1.3, "ratio", 2.0), 1.3);
    }

    #[test]
    fn a_value_that_is_not_finite_fails_the_run() {
        let mut metrics = Metrics::default();
        metrics.set("check_pairs_per_s", 1.0e6, "1/s");
        let mut tally = Tally::default();
        check_finite(&mut tally, &metrics);
        assert!(tally.problems.is_empty());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            metrics.set("trace.overhead_ratio", bad, "ratio");
            let mut tally = Tally::default();
            check_finite(&mut tally, &metrics);
            assert_eq!(tally.problems.len(), 1, "{bad} passed");
            assert!(tally.problems[0].contains("trace.overhead_ratio"));
        }
    }
}
