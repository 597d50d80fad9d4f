//! What a run prints: its environment, every metric with its unit, the
//! per-layer table of a traced run, and the one-line JSON result.

use crate::metrics::{json_number, json_string, Metrics};
use crate::pipeline::RunResult;
use crate::sys;

/// The environment line: cores, threads, commit, compiler, seed and size.
pub fn env_json(r: &RunResult, seed: u64) -> String {
    format!(
        "{{\"nproc\": {}, \"threads\": {}, \"commit\": {}, \"rustc\": {}, \"seed\": {seed}, \"workload\": {}, \"n\": {}, \"m\": {}, \"traced\": {}, \"setups\": {}, \"reference_samples\": {}, \"serial_slowdown\": {}, \"slowdown\": {}, \"serve_chunks\": {}}}",
        sys::nproc(),
        r.threads,
        json_string(&sys::command_line("git", &["rev-parse", "HEAD"])),
        json_string(&sys::command_line("rustc", &["-V"])),
        json_string(r.workload),
        r.n,
        r.m,
        r.traced,
        r.setups,
        r.reference_samples,
        json_number(r.serial_slowdown),
        json_number(r.slowdown),
        r.serve_chunks,
    )
}

/// One `name value unit` line per metric.
pub fn metric_lines(prefix: &str, metrics: &Metrics) -> String {
    let mut out = String::new();
    for m in metrics.iter() {
        out.push_str(&format!(
            "{prefix}{:<40} {:>16.6} {}\n",
            m.name, m.value, m.unit
        ));
    }
    out
}

/// The per-layer report: one row per workload with size, success, hops per
/// message, stretch, time per message, and resident bytes next to the
/// accounted bits per router.
pub fn layer_table(runs: &[RunResult]) -> String {
    let mut out = String::from(
        "| workload | n | m | success % | hops/msg | stretch | kernel ns/msg | serve p50 us | resident B/router | accounted bits/router (avg / max) |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in runs {
        let l = |name: &str| r.layers.get(name).unwrap_or(0.0);
        let e = |name: &str| r.end_to_end.get(name).unwrap_or(0.0);
        let msgs = l("routemodel.hops") / l("routemodel.hops_per_msg").max(f64::MIN_POSITIVE);
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.3} | {:.4} | {:.1} | {:.1} | {:.1} | {:.1} / {:.0} |\n",
            r.workload,
            r.n,
            r.m,
            100.0 * e("success_frac"),
            l("routemodel.hops_per_msg"),
            e("avg_stretch"),
            l("routemodel.kernel_s") * 1e9 / msgs.max(1.0),
            e("serve_p50_us"),
            l("routeschemes.resident_bytes_per_router"),
            l("routeschemes.accounted_bits_per_router"),
            l("routeschemes.local_bits"),
        ));
    }
    out
}

/// The last line of the output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
