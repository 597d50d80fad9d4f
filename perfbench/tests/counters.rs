//! The benchmark's own pins: at 1/32 of the benchmark sizes, every traced
//! counter repeats exactly across runs and across 1 and 2 threads, and
//! equals the value recorded here.  A change that moves a counter fails this test; update the
//! pinned value in the same change and say why.

use perfbench::pipeline::{self, LabTraffic, RunResult, Workload, COUNTERS};

const SEED: u64 = 7;

/// Each benchmark workload, shrunk 32-fold in n with the same shape.
fn small(name: &str) -> Workload {
    let mut w = pipeline::workload(name).expect("benchmark workload");
    w.n /= 32;
    w.queries = 10 * w.n as u64;
    if let LabTraffic::Sampled { .. } = w.lab {
        w.lab = LabTraffic::Sampled {
            sources: 16,
            dests: 50,
        };
    }
    w.check_stride = w.check_stride.min(16);
    w
}

fn counters(r: &RunResult) -> Vec<(&'static str, u64)> {
    COUNTERS
        .iter()
        .map(|&name| {
            let v = r
                .layers
                .get(name)
                .unwrap_or_else(|| panic!("{}: counter {name} missing", r.workload));
            (name, v as u64)
        })
        .collect()
}

fn traced(w: &Workload, threads: usize) -> RunResult {
    let r = pipeline::run(w, SEED, true, threads);
    assert!(r.correct(), "{}: {:?}", w.name, r.tally.problems);
    assert_eq!(r.tally.failed, 0);
    r
}

fn pinned(name: &str) -> [u64; 17] {
    match name {
        "serve-64k" => [
            258944, 16, 16, 262163, 46, 0, 0, 0, 126344, 40832, 65032, 105864, 2048, 2048, 262016,
            0, 262144,
        ],
        "lab-16k" => [
            2034688, 16, 16, 27677, 23, 0, 0, 0, 26226, 8492, 12614, 21106, 512, 512, 16352, 0,
            16384,
        ],
        "churn-8k" => [
            30720, 15, 15, 10692, 16, 151, 27, 0, 11975, 4045, 5370, 9415, 256, 256, 65280, 0,
            65536,
        ],
        other => panic!("no pins for {other}"),
    }
}

#[test]
fn counters_repeat_across_runs_and_threads_and_match_the_pins() {
    for w in pipeline::workloads() {
        let w = small(w.name);
        let first = counters(&traced(&w, 1));
        for threads in [1, 2, 2] {
            assert_eq!(
                counters(&traced(&w, threads)),
                first,
                "{}: counters moved at {threads} threads",
                w.name
            );
        }
        let expected: Vec<(&str, u64)> = COUNTERS.iter().copied().zip(pinned(w.name)).collect();
        assert_eq!(first, expected, "{}: counters differ from the pins", w.name);
    }
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let names = [
        "setup_s",
        "serve_msgs_per_s",
        "serve_p50_us",
        "serve_p90_us",
        "lab_msgs_per_s",
        "check_pairs_per_s",
        "peak_rss_mb",
        "success_frac",
        "avg_stretch",
        "mean_bits",
    ];
    let r = pipeline::run(&small("churn-8k"), SEED, false, 2);
    assert!(r.correct(), "{:?}", r.tally.problems);
    assert_eq!(r.setups, pipeline::SETUP_REPS);
    let emitted: Vec<&str> = r.end_to_end.iter().map(|m| m.name).collect();
    let mut sorted = emitted.clone();
    sorted.sort_unstable();
    let mut want = names.to_vec();
    want.sort_unstable();
    assert_eq!(sorted, want);
    for m in r.end_to_end.iter() {
        assert!(
            m.value > 0.0 && m.value.is_finite(),
            "{} = {}",
            m.name,
            m.value
        );
    }
    assert_eq!(r.end_to_end.get("success_frac"), Some(1.0));
    assert!(
        r.layers.iter().next().is_none(),
        "untraced runs report no layers"
    );
}

/// The metric names of `BENCHMARK.json` are the ones the program emits.
#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let w = small("churn-8k");
    let untraced = pipeline::run(&w, SEED, false, 1);
    let traced = traced(&w, 1);
    let listed = |name: &str| spec.contains(&format!("{{\"name\": \"{name}\""));
    let mut emitted = 0;
    for m in untraced.end_to_end.iter().chain(traced.layers.iter()) {
        assert!(listed(m.name), "{} is not listed in BENCHMARK.json", m.name);
        emitted += 1;
    }
    assert_eq!(
        spec.matches("{\"name\": \"").count(),
        emitted + pipeline::workloads().len()
    );
}
