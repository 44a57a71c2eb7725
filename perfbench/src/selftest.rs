//! Smoke-size self-test of the benchmark program: every metric named in
//! `BENCHMARK.json` prints with its unit, and a planted wrong key or a
//! drifting count is counted as a failed operation.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use crate::flow::LockFlow;
use crate::run::{self, measure, Counts, Kind, Size, Workload};
use crate::verify::Verify;
use bench::experiments::locking_key;
use obs::json::{self, Value};
use obs::Obs;
use std::cell::Cell;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Value::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs `kind` at smoke size and returns its parsed result line.
fn smoke(kind: Kind, trace: bool) -> Value {
    let report = run::run(kind, 3, 0.01, trace, Size::Smoke).expect("smoke run sets up");
    assert!(report.correct, "{kind:?} trace={trace}: {}", report.summary);
    let line = json::parse(&report.json()).expect("result line is JSON");
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Value::as_f64).expect("attempted") >= 1.0);
    line
}

#[test]
fn every_metric_prints_with_its_unit() {
    for kind in [Kind::LockFlow, Kind::Verify, Kind::SatRecover, Kind::SatBmc] {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = smoke(kind, trace);
            let Some(Value::Obj(metrics)) = line.get("metrics") else {
                panic!("{kind:?}: no metrics object");
            };
            let want = declared(list);
            let got: Vec<&String> = metrics.keys().collect();
            assert_eq!(got.len(), want.len(), "{kind:?} {list}: {got:?}");
            for (name, unit) in &want {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{kind:?}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
                let v = m.get("value").and_then(Value::as_f64).expect("numeric value");
                // End-to-end metrics are never 0: relative spreads divide by them.
                assert!(v.is_finite() && (trace || v > 0.0), "{kind:?} {name} = {v}");
            }
        }
    }
}

/// Runs every instance of `w` once and returns `(attempted, failed)`.
fn one_pass(w: &dyn Workload) -> (u64, u64) {
    let mut first = vec![None; w.len()];
    let mut log = String::new();
    let p = measure(w, &[&Obs::off()], 0.0, 1, 1, &mut first, &mut log).remove(0);
    (p.attempted, p.failed)
}

#[test]
fn planted_wrong_key_fails_lock_flow_signoff() {
    let mut w = LockFlow::setup(5, Size::Smoke).expect("set-up");
    assert_eq!(one_pass(&w), (2, 0));
    w.designs[1].unlock_key = locking_key(0xbad);
    assert_eq!(one_pass(&w), (2, 1));
}

#[test]
fn planted_wrong_key_fails_differential_verify() {
    let mut w = Verify::setup(5, Size::Smoke).expect("set-up");
    assert_eq!(one_pass(&w), (1, 0));
    let wrong = w.targets[0].trials[1].working_key.clone();
    w.targets[0].trials[0].working_key = wrong;
    assert_eq!(one_pass(&w), (1, 1));
}

/// A workload whose only count drifts on every run.
struct Drifting(Cell<u64>);

impl Workload for Drifting {
    fn len(&self) -> usize {
        1
    }

    fn run(&self, _: usize, _: &Obs) -> Result<Counts, String> {
        self.0.set(self.0.get() + 1);
        Ok(Counts { fixed: vec![("drift", self.0.get())], free: Vec::new() })
    }
}

#[test]
fn changed_count_on_repeat_is_a_failure() {
    let w = Drifting(Cell::new(0));
    let mut first = vec![None];
    let mut log = String::new();
    let p = measure(&w, &[&Obs::off()], 0.0, 3, 3, &mut first, &mut log).remove(0);
    assert_eq!((p.attempted, p.failed), (3, 2), "{log}");
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(run::percentile(&xs, 50.0), 100.0);
    assert_eq!(run::percentile(&xs, 99.0), 198.0);
    assert_eq!(run::percentile(&[3.0], 99.0), 3.0);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(run::tail_percentile(&xs), Some((95, 190.0, 10)));
    assert_eq!(run::tail_percentile(&xs[..30]), None);
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(run::median(&[4.0, 1.0]), 2.5);
    assert_eq!(run::median(&[5.0, 1.0, 3.0]), 3.0);
}
