//! Per-layer metrics of a traced run.
//!
//! Times come from spans: the benchmark's own spans around each public
//! layer call (`flow`, `verify`, `attack` name them) and the program's
//! existing spans below them (`attack.encode`, `sat.solve`, the grid
//! workers). Counts come from the program's counters and the checked
//! per-instance counts. Every value is per timed op unless its unit says
//! otherwise; a layer a workload never calls reads 0. `wall.op_p50_ms`
//! is the untraced ops' median wall time: the end-to-end metrics are CPU
//! times, and this is where a change to the grid's or the portfolio's
//! parallelism shows.

use crate::attack::{CLAUSES, DIPS, ROUNDS, VARS};
use crate::flow::{
    COMPILE, EMIT, KEY_BITS, LOCK, PARSE_ELAB, PREPARE, SCHEDULE_BIND, SIGNOFF, SPEC_COMPILE,
    TAPE_COMPILE, VERILOG_BYTES,
};
use crate::run::{median, Phase, OP_SPAN};
use crate::verify::{
    GOLDEN, KERNEL_SPANS, RTL_CYCLES, RTL_REPLAY, TIMEOUTS, VLOG_CYCLES, VLOG_REPLAY,
};
use obs::analyze::{attribution, worker_stats, SpanNode, Trace};
use obs::Obs;
use std::collections::BTreeMap;

/// The layer spans whose time the per-layer metrics read: the
/// benchmark's own spans around the flow's public calls, and the
/// program's grid-worker, attack and solver spans.
const LAYER_SPANS: [&str; 15] = [
    COMPILE,
    PREPARE,
    SCHEDULE_BIND,
    LOCK,
    EMIT,
    PARSE_ELAB,
    TAPE_COMPILE,
    SPEC_COMPILE,
    SIGNOFF,
    "grid.worker",
    "sat.solve",
    "attack.encode",
    "attack.constrain",
    "attack.grow",
    "attack.model",
];

/// `[start, end)` of every outermost span named in `names` under `nodes`.
fn intervals(nodes: &[SpanNode], names: &[&str], out: &mut Vec<(u64, u64)>) {
    for n in nodes {
        if names.contains(&n.name.as_str()) {
            out.push((n.start_ns, n.end_ns()));
        } else {
            intervals(&n.children, names, out);
        }
    }
}

/// Share of the time inside `OP_SPAN` spans that the layer spans cover,
/// on any thread; overlapping layer spans (parallel grid workers or
/// racers) count once.
fn span_coverage(trace: &Trace) -> f64 {
    let (mut ops, mut layers) = (Vec::new(), Vec::new());
    intervals(&trace.roots, &[OP_SPAN], &mut ops);
    intervals(&trace.roots, &LAYER_SPANS, &mut layers);
    layers.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in layers {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let covered: u64 = ops
        .iter()
        .map(|&(os, oe)| {
            let from = merged.partition_point(|&(_, e)| e <= os);
            merged[from..]
                .iter()
                .take_while(|&&(s, _)| s < oe)
                .map(|&(s, e)| e.min(oe) - s.max(os))
                .sum::<u64>()
        })
        .sum();
    let total: u64 = ops.iter().map(|&(s, e)| e - s).sum();
    ratio(covered as f64, total as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics `(name, value, unit)` of the traced phase of a
/// run, in `BENCHMARK.json` order. `plain` is the untraced phase, paired
/// with `traced` op by op, and `rss_ops` how far the ops raised the peak
/// RSS above the set-up's, in bytes.
pub fn per_layer(
    trace: &Trace,
    obs: &Obs,
    plain: &Phase,
    traced: &Phase,
    rss_ops: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let spans: BTreeMap<String, (u64, u64)> =
        attribution(trace).into_iter().map(|s| (s.name, (s.count, s.total_ns))).collect();
    let span_ns = |name: &str| spans.get(name).map_or(0, |&(_, ns)| ns) as f64;
    let counter = |name: &str| obs.counter(name).get() as f64;
    let ops = traced.op_s.len() as f64;
    let per_op_ms = |name: &str| ratio(span_ns(name) / 1e6, ops);
    let per_op = |name: &str| ratio(traced.total(name) as f64, ops);
    let per_span_ms = |name: &str| {
        spans.get(name).map_or(0.0, |&(count, ns)| ratio(ns as f64 / 1e6, count as f64))
    };
    let workers = worker_stats(trace);
    let busy: u64 = workers.iter().map(|w| w.busy_ns).sum();
    let idle: u64 = workers.iter().map(|w| w.idle_ns).sum();
    let kernel_ms = |kernel: &str| {
        KERNEL_SPANS.iter().find(|(k, _)| *k == kernel).map_or(0.0, |(_, s)| per_span_ms(s))
    };
    let cps = |cycles: &str, span: &str| ratio(traced.total(cycles) as f64, span_ns(span) / 1e9);
    let paired: Vec<f64> =
        traced.op_s.iter().zip(&plain.op_s).map(|(&t, &p)| ratio(t, p)).collect();
    let max_vars = plain.maxima.get(VARS).copied().unwrap_or(0) as f64;

    vec![
        ("hls-frontend.compile_ms", per_op_ms(COMPILE), "ms"),
        ("hls-ir.prepare_ms", per_op_ms(PREPARE), "ms"),
        ("hls-core.schedule_bind_ms", per_op_ms(SCHEDULE_BIND), "ms"),
        ("tao.lock_ms", per_op_ms(LOCK), "ms"),
        ("hls-core.emit_ms", per_op_ms(EMIT), "ms"),
        ("vlog.parse_elab_ms", per_op_ms(PARSE_ELAB), "ms"),
        ("vlog.tape_compile_ms", per_op_ms(TAPE_COMPILE), "ms"),
        ("rtl.spec_compile_ms", per_op_ms(SPEC_COMPILE), "ms"),
        ("rtl.signoff_ms", per_op_ms(SIGNOFF), "ms"),
        ("hls-core.verilog_bytes", per_op(VERILOG_BYTES), "bytes"),
        ("tao.key_bits", per_op(KEY_BITS), "bits"),
        ("tao.verify_ms.gsm", kernel_ms("gsm"), "ms"),
        ("tao.verify_ms.adpcm", kernel_ms("adpcm"), "ms"),
        ("tao.verify_ms.sobel", kernel_ms("sobel"), "ms"),
        ("tao.verify_ms.backprop", kernel_ms("backprop"), "ms"),
        ("tao.verify_ms.viterbi", kernel_ms("viterbi"), "ms"),
        ("hls-ir.golden_ms", per_op_ms(GOLDEN), "ms"),
        ("rtl.tape_cps", cps(RTL_CYCLES, RTL_REPLAY), "cycles/s"),
        ("vlog.tape_cps", cps(VLOG_CYCLES, VLOG_REPLAY), "cycles/s"),
        ("verify.timeouts", per_op(TIMEOUTS), "count"),
        ("sim-core.grid_util", ratio(busy as f64, (busy + idle) as f64), "ratio"),
        ("sim-core.steals", ratio(counter("grid.steals"), ops), "count"),
        ("sat.solve_ms", per_op_ms("sat.solve"), "ms"),
        ("sat.solves", ratio(counter("sat.solves"), ops), "count"),
        ("sat.conflicts", ratio(counter("sat.conflicts"), ops), "count"),
        ("sat.propagations", ratio(counter("sat.propagations"), ops), "count"),
        ("sat.decisions", ratio(counter("sat.decisions"), ops), "count"),
        ("sat.props_per_s", ratio(counter("sat.propagations"), span_ns("sat.solve") / 1e9), "1/s"),
        ("attack-sat.dips", per_op(DIPS), "count"),
        ("attack-sat.encode_ms", per_op_ms("attack.encode"), "ms"),
        ("attack-sat.constrain_ms", per_op_ms("attack.constrain"), "ms"),
        ("attack-sat.grow_ms", per_op_ms("attack.grow"), "ms"),
        ("attack-sat.model_ms", per_op_ms("attack.model"), "ms"),
        ("attack-sat.vars", per_op(VARS), "count"),
        ("attack-sat.clauses", per_op(CLAUSES), "count"),
        ("attack-sat.rss_bytes_per_var", ratio(rss_ops as f64, max_vars), "bytes"),
        (
            "attack-sat.race_useful_frac",
            ratio(traced.total(ROUNDS) as f64, counter("sat.solves")),
            "ratio",
        ),
        ("obs.overhead", median(&paired), "ratio"),
        ("obs.span_coverage", span_coverage(trace), "ratio"),
        ("wall.op_p50_ms", median(&plain.op_wall_s) * 1e3, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_layer_time_inside_ops_once() {
        let event = |name: &str, tid: u64, ts: u64, dur: u64| {
            format!(
                r#"{{"name":"{name}","ph":"X","pid":1,"tid":{tid},"ts":{ts}.000,"dur":{dur}.000,"args":{{}}}}"#
            )
        };
        let events = [
            // One op of 10 us: a solve and an overlapping grid worker on
            // another thread cover 2..8, and the wrapper's other spans
            // nothing.
            event(OP_SPAN, 1, 0, 10),
            event("tao.sat_attack", 1, 1, 8),
            event("sat.solve", 1, 2, 4),
            event("grid.worker", 2, 4, 4),
            // Layer time outside every op (a replay) does not count.
            event("grid.worker", 2, 12, 8),
        ];
        let json = format!(r#"{{"traceEvents":[{}]}}"#, events.join(","));
        let trace = obs::analyze::parse_trace(&json).expect("trace parses");
        assert!((span_coverage(&trace) - 0.6).abs() < 1e-9, "{}", span_coverage(&trace));
    }
}
