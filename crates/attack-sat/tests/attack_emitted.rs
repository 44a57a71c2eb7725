//! The SAT attack against *emitted* Verilog of synthesized designs,
//! locked by hand exactly the way `tao`'s obfuscations lock them
//! (constant key-XOR storage, branch-polarity masks), with the FSMD tape
//! simulator as the golden oracle. Locking is applied manually here so
//! this crate's tests stay below `tao` in the dependency order; the
//! full-flow attacks live in `tao`'s own tests and `tests/prop_cnf.rs`.

use attack_sat::{
    sat_attack, AttackQuery, ExhaustCause, OracleResponse, SatAttackOptions, SatAttackStatus,
};
use hls_core::{verilog, Fsmd, KeyBits, KeyRange, NextState};
use rtl::{CompiledFsmd, SimOptions, TestCase};
use vlog::VlogSim;

fn synth(src: &str, top: &str) -> Fsmd {
    let m = hls_frontend::compile(src, "t").expect("kernel compiles");
    hls_core::synthesize(&m, top, &hls_core::HlsOptions::default()).expect("synthesizes")
}

/// Locks every constant behind a key XOR and every branch behind a
/// polarity bit, mirroring `tao::obfuscate_constants` / `_branches`.
fn lock_by_hand(fsmd: &mut Fsmd, key: &KeyBits) {
    let mut next = 0u32;
    for c in &mut fsmd.consts {
        let w = c.storage_width as u32;
        let range = KeyRange { lo: next, width: w };
        next += w;
        let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
        c.bits = (c.bits ^ key.range(range)) & mask;
        c.key_xor = Some(range);
    }
    for st in &mut fsmd.states {
        if let NextState::Branch { test, key_bit: None, then_s, else_s } = st.next {
            let bit = next;
            next += 1;
            let (then_s, else_s) = if key.bit(bit) { (else_s, then_s) } else { (then_s, else_s) };
            st.next = NextState::Branch { test, key_bit: Some(bit), then_s, else_s };
        }
    }
    assert!(next <= key.width(), "key too narrow: need {next}");
    fsmd.key_width = key.width();
}

fn xorshift_key(width: u32, seed: u64) -> KeyBits {
    let mut s = seed | 1;
    KeyBits::from_fn(width, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    })
}

/// Builds the oracle closure: the FSMD tape bound to the correct key,
/// observed through the same k-cycle bounded window the CNF encodes.
fn run_attack(fsmd: &Fsmd, key: &KeyBits, k: u32) -> attack_sat::SatAttackOutcome {
    let text = verilog::emit(fsmd);
    let sim = VlogSim::new(&text).expect("emitted text parses");
    let compiled = CompiledFsmd::compile(fsmd);
    let mut runner = compiled.runner();
    let opts = SimOptions { max_cycles: k as u64, snapshot_on_timeout: false };
    let mut oracle = |q: &AttackQuery| {
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, key, &opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(rtl::SimError::CycleLimit) => {
                OracleResponse { done: false, ret: None, mems: Vec::new() }
            }
            Err(e) => panic!("oracle failed: {e}"),
        }
    };
    sat_attack(&sim, &SatAttackOptions { unroll_cycles: k, ..Default::default() }, &mut oracle)
}

#[test]
fn recovers_constant_key_on_straightline_kernel() {
    // XOR-masked constants on separate operand paths: every key bit is
    // individually observable, so recovery must be bit-exact. (A kernel
    // like `(a + c1) * c2 - c3` would *not* have that property — only
    // `c2` and `c1*c2 - c3` are observable, and the SAT attack correctly
    // collapses to that equivalence class instead of a point.)
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xA11CE);
    lock_by_hand(&mut fsmd, &key);
    let out = run_attack(&fsmd, &key, 16);
    assert_eq!(out.status, SatAttackStatus::Recovered, "dips={}", out.dips);
    assert_eq!(out.key.as_ref().expect("key recovered"), &key, "exact working key");
    assert!(out.dips >= 1, "a wrong constant must be distinguishable");
}

#[test]
fn recovers_branch_and_constant_key_on_branching_kernel() {
    let src = r#"
        int f(int a, int b) {
            int r = a ^ 21;
            if (a > b) r = r + b;
            else r = r - b;
            if (r > 50) r = r ^ 9;
            return r;
        }
    "#;
    let mut fsmd = synth(src, "f");
    let n_branches =
        fsmd.states.iter().filter(|s| matches!(s.next, NextState::Branch { .. })).count() as u32;
    assert!(n_branches >= 2, "kernel must keep its conditionals");
    let key_bits: u32 =
        fsmd.consts.iter().map(|c| c.storage_width as u32).sum::<u32>() + n_branches;
    let key = xorshift_key(key_bits, 0xB0B);
    lock_by_hand(&mut fsmd, &key);
    let out = run_attack(&fsmd, &key, 24);
    assert_eq!(out.status, SatAttackStatus::Recovered, "dips={}", out.dips);
    assert_eq!(out.key.as_ref().expect("key recovered"), &key);
}

#[test]
fn recovered_key_is_functionally_correct_even_with_loops() {
    // A loop whose bound mixes a locked constant: wrong keys change the
    // latency, so the done-within-k observable itself distinguishes.
    let src = r#"
        int f(int a) {
            int s = 0;
            for (int i = 0; i < 3; i++) s += a + i;
            return s;
        }
    "#;
    let mut fsmd = synth(src, "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum::<u32>()
        + fsmd.states.iter().filter(|s| matches!(s.next, NextState::Branch { .. })).count() as u32;
    let key = xorshift_key(key_bits, 0x5EED);
    lock_by_hand(&mut fsmd, &key);

    // Bound the window just above the correct latency (the observable is
    // the bounded run, so a slim margin keeps the CNF small).
    let latency = CompiledFsmd::compile(&fsmd)
        .runner()
        .run_case(&TestCase::args(&[7]), &key, &SimOptions::default())
        .expect("correct key runs")
        .cycles;
    let k = latency as u32 + 6;
    let out = run_attack(&fsmd, &key, k);
    assert_eq!(out.status, SatAttackStatus::Recovered, "dips={}", out.dips);
    let got = out.key.expect("key recovered");

    // The recovered key must drive the design to golden behaviour on
    // fresh stimuli (bit-exactness additionally holds when every key bit
    // is observable; loops can leave dead constant high bits, so the
    // functional check is the contract here).
    let compiled = CompiledFsmd::compile(&fsmd);
    let mut runner = compiled.runner();
    for a in [0u64, 1, 9, 1 << 16] {
        let case = TestCase::args(&[a]);
        let want = runner.run_case(&case, &key, &SimOptions::default()).expect("golden");
        let have = runner.run_case(&case, &got, &SimOptions::default()).expect("recovered");
        assert_eq!(want.ret, have.ret, "a={a}");
        assert_eq!(want.cycles, have.cycles, "a={a}");
    }
}

#[test]
fn telemetry_never_changes_the_attack() {
    // The zero-cost contract, checked end to end: the identical attack
    // with telemetry disabled, recording into a no-op sink, and
    // recording into a real Chrome-trace sink must produce bit-identical
    // outcomes — same key, same DIPs, same solver effort counters.
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xA11CE);
    lock_by_hand(&mut fsmd, &key);
    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("emitted text parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let sink = std::sync::Arc::new(obs::ChromeTraceSink::new());

    let mut outcomes = Vec::new();
    for o in [obs::Obs::off(), obs::Obs::noop(), obs::Obs::new(std::sync::Arc::clone(&sink))] {
        let mut runner = compiled.runner();
        let opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };
        let mut oracle = |q: &AttackQuery| {
            let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
            match runner.run_case(&case, &key, &opts) {
                Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
                Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
            }
        };
        let out = sat_attack(
            &sim,
            &SatAttackOptions { unroll_cycles: 16, obs: o, ..Default::default() },
            &mut oracle,
        );
        outcomes.push((out.status, out.key, out.dips, out.conflicts, out.propagations, out.vars));
    }
    assert_eq!(outcomes[0], outcomes[1], "no-op sink changed the attack");
    assert_eq!(outcomes[0], outcomes[2], "recording sink changed the attack");
    assert_eq!(outcomes[0].0, SatAttackStatus::Recovered);
    // And the recording run actually recorded the attack spans.
    let trace = sink.to_json();
    for span in ["attack.sat", "attack.dip", "sat.solve"] {
        assert!(trace.contains(span), "trace missing `{span}`");
    }
}

#[test]
fn dip_budget_stops_early_with_partial_key() {
    let mut fsmd = synth("int f(int a, int b) { return a * 77 + b * 13; }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xCAFE);
    lock_by_hand(&mut fsmd, &key);

    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let mut runner = compiled.runner();
    let opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };
    let mut oracle = |q: &AttackQuery| {
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, &key, &opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
        }
    };
    let out = sat_attack(
        &sim,
        &SatAttackOptions { unroll_cycles: 16, max_dips: Some(0), ..Default::default() },
        &mut oracle,
    );
    assert_eq!(out.status, SatAttackStatus::Exhausted(ExhaustCause::DipBudget));
    assert_eq!(out.dips, 0);
    assert!(out.constraints.is_empty(), "no DIPs were queried");
    assert!(out.key.is_some(), "an unconstrained key model still exists");
}

#[test]
fn cancelling_the_attack_returns_partial_but_consistent_results() {
    use sim_core::Budget;
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xD00D);
    lock_by_hand(&mut fsmd, &key);

    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let mut runner = compiled.runner();
    let sim_opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };

    // The oracle itself pulls the plug after the first labelled DIP —
    // the caller-visible shape of a user hitting ^C mid-attack.
    let budget = Budget::unlimited();
    let cancel = budget.token().clone();
    let mut oracle = |q: &AttackQuery| {
        cancel.cancel();
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, &key, &sim_opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
        }
    };
    let out = sat_attack(
        &sim,
        &SatAttackOptions { unroll_cycles: 16, budget, ..Default::default() },
        &mut oracle,
    );
    assert_eq!(out.status, SatAttackStatus::Exhausted(ExhaustCause::Cancelled));
    assert_eq!(out.dips, 1, "exactly the in-flight DIP completed");
    assert_eq!(out.constraints.len(), 1, "the labelled DIP is handed back");
    assert_eq!(out.queries, out.constraints.len() as u64);
    // The partial key still satisfies every constraint collected so far.
    let partial = out.key.expect("a model over the partial constraints exists");
    for c in &out.constraints {
        let case = TestCase { args: c.query.args.clone(), mem_inputs: Vec::new() };
        let mut check = compiled.runner();
        let got = match check.run_case(&case, &partial, &sim_opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
        };
        assert_eq!(got, c.response, "partial key violates a returned constraint");
    }
}

#[test]
fn lazy_unrolling_collapses_below_the_full_bound() {
    // A short-latency kernel under a deliberately generous cycle bound:
    // the lazy loop must finish at its small starting depth (growing at
    // most once), with the boundary probe certifying the shallow proof —
    // and still recover the exact key the eager full-k encoding would.
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xA11CE);
    lock_by_hand(&mut fsmd, &key);
    let out = run_attack(&fsmd, &key, 64);
    assert_eq!(out.status, SatAttackStatus::Recovered, "dips={}", out.dips);
    assert_eq!(out.key.as_ref().expect("key recovered"), &key, "exact working key");
    assert!(out.unroll_final < 64, "lazy growth paid the full bound: k = {}", out.unroll_final);
    assert!(out.coi.live_sigs <= out.coi.total_sigs);
}

#[test]
fn eager_depth_matches_lazy_verdict() {
    // Forcing initial_unroll = unroll_cycles recovers the old eager
    // behavior; both modes must agree on status and recovered key.
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0x1DEA);
    lock_by_hand(&mut fsmd, &key);
    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let sim_opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };
    let run_with = |initial: u32| {
        let mut runner = compiled.runner();
        let mut oracle = |q: &AttackQuery| {
            let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
            match runner.run_case(&case, &key, &sim_opts) {
                Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
                Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
            }
        };
        sat_attack(
            &sim,
            &SatAttackOptions { unroll_cycles: 16, initial_unroll: initial, ..Default::default() },
            &mut oracle,
        )
    };
    let lazy = run_with(2);
    let eager = run_with(16);
    assert_eq!(lazy.status, SatAttackStatus::Recovered);
    assert_eq!(eager.status, SatAttackStatus::Recovered);
    assert_eq!(lazy.key, eager.key, "lazy and eager disagree on the key");
    assert_eq!(eager.unroll_final, 16, "eager mode must sit at the full bound");
    assert_eq!(eager.growths, 0, "eager mode must never grow");
}

#[test]
fn measure_full_cnf_reports_the_coi_win() {
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xFACE);
    lock_by_hand(&mut fsmd, &key);
    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let mut runner = compiled.runner();
    let sim_opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };
    let mut oracle = |q: &AttackQuery| {
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, &key, &sim_opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
        }
    };
    let out = sat_attack(
        &sim,
        &SatAttackOptions { unroll_cycles: 16, measure_full_cnf: true, ..Default::default() },
        &mut oracle,
    );
    assert_eq!(out.status, SatAttackStatus::Recovered);
    let cnf = out.miter_cnf.expect("measure_full_cnf fills miter_cnf");
    assert!(cnf.coi_vars <= cnf.full_vars, "COI must not add variables");
    assert!(cnf.coi_clauses <= cnf.full_clauses, "COI must not add clauses");
}

#[test]
fn portfolio_recovers_the_exact_key_with_a_deterministic_report() {
    use attack_sat::{sat_attack_portfolio, PortfolioOptions};
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, 0xBEEF);
    lock_by_hand(&mut fsmd, &key);
    let text = verilog::emit(&fsmd);
    let sim = VlogSim::new(&text).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let mut runner = compiled.runner();
    let sim_opts = SimOptions { max_cycles: 16, snapshot_on_timeout: false };
    let mut oracle = |q: &AttackQuery| {
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, &key, &sim_opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
        }
    };
    let popts = PortfolioOptions { racers: 3, threads: None };
    let out = sat_attack_portfolio(
        &sim,
        &SatAttackOptions { unroll_cycles: 16, ..Default::default() },
        &popts,
        &mut oracle,
    );
    assert_eq!(out.outcome.status, SatAttackStatus::Recovered);
    assert_eq!(out.outcome.key.as_ref().expect("key recovered"), &key, "exact working key");
    assert_eq!(out.racers.len(), 3, "one report per racer");
    assert!(out.winner < 3);
    assert_eq!(
        out.racers.iter().map(|r| r.wins).sum::<u64>(),
        out.rounds,
        "every round has exactly one winner"
    );
    // The diversification axes actually differ between racers.
    assert!(out.racers.windows(2).any(|w| w[0].config != w[1].config));
}

/// A locked `(a ^ 21) + (b ^ 300)` design plus its true key.
fn locked_adder(seed: u64) -> (Fsmd, KeyBits) {
    let mut fsmd = synth("int f(int a, int b) { return (a ^ 21) + (b ^ 300); }", "f");
    let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum();
    let key = xorshift_key(key_bits, seed);
    lock_by_hand(&mut fsmd, &key);
    (fsmd, key)
}

/// The oracle: the FSMD tape bound to the true key, observed through a
/// `k`-cycle window.
fn tape_oracle<'c>(
    compiled: &'c CompiledFsmd,
    key: &'c KeyBits,
    k: u32,
) -> impl FnMut(&AttackQuery) -> OracleResponse + 'c {
    let mut runner = compiled.runner();
    let opts = SimOptions { max_cycles: k as u64, snapshot_on_timeout: false };
    move |q: &AttackQuery| {
        let case = TestCase { args: q.args.clone(), mem_inputs: Vec::new() };
        match runner.run_case(&case, key, &opts) {
            Ok(stats) => OracleResponse { done: true, ret: stats.ret, mems: Vec::new() },
            Err(_) => OracleResponse { done: false, ret: None, mems: Vec::new() },
        }
    }
}

/// A recording telemetry handle and the sink it records into.
fn traced() -> (obs::Obs, std::sync::Arc<obs::ChromeTraceSink>) {
    let sink = std::sync::Arc::new(obs::ChromeTraceSink::new());
    (obs::Obs::new(std::sync::Arc::clone(&sink)), sink)
}

/// Every span named `name` in the trace, each with whether it ran inside
/// a grid worker.
fn spans_named(sink: &obs::ChromeTraceSink, name: &str) -> Vec<(obs::analyze::SpanNode, bool)> {
    fn walk(
        n: &obs::analyze::SpanNode,
        name: &str,
        in_worker: bool,
        out: &mut Vec<(obs::analyze::SpanNode, bool)>,
    ) {
        if n.name == name {
            out.push((n.clone(), in_worker));
        }
        let in_worker = in_worker || n.name == "grid.worker";
        n.children.iter().for_each(|c| walk(c, name, in_worker, out));
    }
    let trace = obs::analyze::parse_trace(&sink.to_json()).expect("trace parses");
    let mut out = Vec::new();
    trace.roots.iter().for_each(|r| walk(r, name, false, &mut out));
    out
}

const ENCODE_SPANS: [&str; 3] = ["attack.encode", "attack.constrain", "attack.grow"];

#[test]
fn one_racer_portfolio_is_the_plain_attack() {
    // A one-racer portfolio streams the same clauses into a solver with
    // the same (default) configuration, so it must retrace the plain
    // attack exactly — through lazy growth (start at depth 2) and DIPs —
    // and encode on the coordinator, never inside a grid worker.
    use attack_sat::{sat_attack_portfolio, PortfolioOptions};
    let (fsmd, key) = locked_adder(0x0AC3);
    let sim = VlogSim::new(&verilog::emit(&fsmd)).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let opts = SatAttackOptions { unroll_cycles: 16, initial_unroll: 2, ..Default::default() };
    let (o, solo_sink) = traced();
    let solo = sat_attack(
        &sim,
        &SatAttackOptions { obs: o, ..opts.clone() },
        &mut tape_oracle(&compiled, &key, 16),
    );
    let (o, raced_sink) = traced();
    let popts = PortfolioOptions { racers: 1, threads: None };
    let raced = sat_attack_portfolio(
        &sim,
        &SatAttackOptions { obs: o, ..opts },
        &popts,
        &mut tape_oracle(&compiled, &key, 16),
    )
    .outcome;
    assert_eq!(solo.status, SatAttackStatus::Recovered);
    assert!(solo.growths > 0 && solo.dips > 0, "the run must exercise growth and DIPs");
    assert_eq!(raced.constraints, solo.constraints, "same DIPs in the same order");
    assert_eq!((raced.vars, raced.clauses), (solo.vars, solo.clauses), "same CNF");
    assert_eq!((raced.conflicts, raced.propagations), (solo.conflicts, solo.propagations));
    assert_eq!(raced.key, solo.key);
    for name in ENCODE_SPANS {
        let (solo_spans, raced_spans) =
            (spans_named(&solo_sink, name), spans_named(&raced_sink, name));
        assert_eq!(raced_spans.len(), solo_spans.len(), "`{name}` count");
        assert!(raced_spans.iter().all(|(_, in_worker)| !in_worker), "`{name}` ran on the grid");
        assert!(raced_spans.iter().all(|(s, _)| s.args.get("racers") == Some(&1)), "`{name}`");
    }
}

#[test]
fn portfolio_encodes_the_miter_once() {
    // Three racers, one encoding: the traced attack holds exactly one
    // `attack.encode` span, and it reports the racer count and how long
    // the solvers spent ingesting.
    use attack_sat::{sat_attack_portfolio, PortfolioOptions};
    let (fsmd, key) = locked_adder(0xBEEF);
    let sim = VlogSim::new(&verilog::emit(&fsmd)).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let (o, sink) = traced();
    let opts = SatAttackOptions { unroll_cycles: 16, obs: o, ..Default::default() };
    let popts = PortfolioOptions { racers: 3, threads: None };
    let out = sat_attack_portfolio(&sim, &opts, &popts, &mut tape_oracle(&compiled, &key, 16));
    assert_eq!(out.outcome.status, SatAttackStatus::Recovered);
    let encodes = spans_named(&sink, "attack.encode");
    assert_eq!(encodes.len(), 1, "one miter encoding for the whole fleet");
    let args = &encodes[0].0.args;
    assert_eq!(args.get("racers"), Some(&3));
    assert!(args.get("ingest_ns").is_some_and(|&ns| ns > 0 && ns < encodes[0].0.dur_ns));
    let constrains = spans_named(&sink, "attack.constrain");
    assert_eq!(constrains.len() as u64, out.outcome.dips, "one constraint encoding per DIP");
}

/// How many spans named `name` the trace holds, and how many of them run
/// inside a span named `outer`.
fn count_inside(sink: &obs::ChromeTraceSink, name: &str, outer: &str) -> (usize, usize) {
    fn walk(n: &obs::analyze::SpanNode, name: &str, outer: &str, inside: bool) -> (usize, usize) {
        let here = usize::from(n.name == name);
        let inside_child = inside || n.name == outer;
        n.children.iter().fold((here, here * usize::from(inside)), |(all, within), c| {
            let (a, w) = walk(c, name, outer, inside_child);
            (all + a, within + w)
        })
    }
    let trace = obs::analyze::parse_trace(&sink.to_json()).expect("trace parses");
    trace.roots.iter().fold((0, 0), |(all, within), r| {
        let (a, w) = walk(r, name, outer, false);
        (all + a, within + w)
    })
}

/// The `reused` arg of the attack's one `attack.model` span.
fn model_reused(sink: &obs::ChromeTraceSink) -> u64 {
    let models = spans_named(sink, "attack.model");
    assert_eq!(models.len(), 1, "one attack.model span per attack");
    *models[0].0.args.get("reused").expect("attack.model records `reused`")
}

/// The attack's encode steps in time order: `D` per DIP constraint, `G`
/// per growth.
fn encode_steps(sink: &obs::ChromeTraceSink) -> String {
    let mut steps: Vec<(u64, char)> = [("attack.constrain", 'D'), ("attack.grow", 'G')]
        .iter()
        .flat_map(|&(name, c)| {
            spans_named(sink, name).into_iter().map(move |(s, _)| (s.start_ns, c))
        })
        .collect();
    steps.sort_unstable();
    steps.into_iter().map(|(_, c)| c).collect()
}

/// Asserts `key` reproduces every returned I/O constraint on the tape.
fn assert_key_meets_constraints(
    compiled: &CompiledFsmd,
    key: &KeyBits,
    k: u32,
    out: &attack_sat::SatAttackOutcome,
) {
    let mut replay = tape_oracle(compiled, key, k);
    for c in &out.constraints {
        assert_eq!(replay(&c.query), c.response, "returned key violates {:?}", c.query);
    }
}

#[test]
fn collapse_after_a_dip_takes_the_key_from_the_last_model() {
    // At the full bound from the start there is no growth, so the
    // collapse follows a DIP: the key comes from that DIP's model, and no
    // solve runs after the last round (every `sat.solve` sits inside an
    // `attack.dip`).
    let (fsmd, key) = locked_adder(0xA11CE);
    let sim = VlogSim::new(&verilog::emit(&fsmd)).expect("parses");
    let compiled = CompiledFsmd::compile(&fsmd);
    let (o, sink) = traced();
    let opts =
        SatAttackOptions { unroll_cycles: 16, initial_unroll: 16, obs: o, ..Default::default() };
    let out = sat_attack(&sim, &opts, &mut tape_oracle(&compiled, &key, 16));
    assert_eq!(out.status, SatAttackStatus::Recovered);
    assert!(out.dips >= 1 && out.growths == 0, "dips {} growths {}", out.dips, out.growths);
    assert_eq!(model_reused(&sink), 1, "the last DIP's model holds the key");
    let (solves, in_rounds) = count_inside(&sink, "sat.solve", "attack.dip");
    assert!(solves > 0);
    assert_eq!(in_rounds, solves, "a solve ran after the last round");
    let got = out.key.as_ref().expect("key recovered");
    assert_eq!(got, &key, "exact working key");
    assert_key_meets_constraints(&compiled, got, 16, &out);
}

#[test]
fn a_label_neither_copy_produces_falls_back_to_a_search() {
    // A chip that never finishes: the adder always does, so neither miter
    // copy meets the label and no candidate exists. The fallback search
    // finds the constraints unsatisfiable and returns no key — never an
    // unchecked model key.
    let (fsmd, _) = locked_adder(0xA11CE);
    let sim = VlogSim::new(&verilog::emit(&fsmd)).expect("parses");
    let (o, sink) = traced();
    let opts =
        SatAttackOptions { unroll_cycles: 16, initial_unroll: 16, obs: o, ..Default::default() };
    let mut hung = |_: &AttackQuery| OracleResponse { done: false, ret: None, mems: Vec::new() };
    let out = sat_attack(&sim, &opts, &mut hung);
    assert_eq!(out.dips, 1);
    assert_eq!(model_reused(&sink), 0, "no copy met the label");
    assert_eq!(out.key, None, "no key produces the label");
}

#[test]
fn growth_after_the_last_dip_clears_the_candidate() {
    // Loop kernels under a shallow start grow and find DIPs in a
    // solver-chosen order. Whenever the last encode step is a growth that
    // followed a DIP, the DIP's candidate was checked at the old depth
    // and must not be returned: the search runs (`reused` = 0), and its
    // key still meets every returned constraint.
    let src = "int f(int a) { int s = 0; for (int i = 0; i < 3; i++) s += a + i; return s; }";
    let mut grew_last = 0;
    for seed in [2u64, 0x5EED] {
        let mut fsmd = synth(src, "f");
        let key_bits: u32 = fsmd.consts.iter().map(|c| c.storage_width as u32).sum::<u32>()
            + fsmd.states.iter().filter(|s| matches!(s.next, NextState::Branch { .. })).count()
                as u32;
        let key = xorshift_key(key_bits, seed);
        lock_by_hand(&mut fsmd, &key);
        let sim = VlogSim::new(&verilog::emit(&fsmd)).expect("parses");
        let compiled = CompiledFsmd::compile(&fsmd);
        for (k, k0) in [(24u32, 2u32), (24, 4)] {
            let (o, sink) = traced();
            let opts = SatAttackOptions {
                unroll_cycles: k,
                initial_unroll: k0,
                obs: o,
                ..Default::default()
            };
            let out = sat_attack(&sim, &opts, &mut tape_oracle(&compiled, &key, k));
            assert_eq!(out.status, SatAttackStatus::Recovered, "seed {seed:#x} k0 {k0}");
            let steps = encode_steps(&sink);
            if steps.ends_with('G') && steps.contains('D') {
                grew_last += 1;
                assert_eq!(model_reused(&sink), 0, "seed {seed:#x} k0 {k0}: {steps}");
            }
            assert_key_meets_constraints(&compiled, out.key.as_ref().expect("key"), k, &out);
        }
    }
    assert!(grew_last > 0, "no run grew after its last DIP");
}
