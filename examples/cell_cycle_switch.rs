//! The biological motivation from the paper's introduction: the cell-cycle
//! switch computes approximate majority [CCN12], and the three-state
//! protocol models epigenetic cell memory [DMST07]. A *switch* must flip
//! decisively for clear inputs yet is allowed to dither near the balance
//! point — exactly the three-state protocol's error profile.
//!
//! This example sweeps the signal strength (margin) and shows the switch's
//! decision quality and speed, contrasting it with AVC which never
//! mis-switches.
//!
//! Run with: `cargo run --release --example cell_cycle_switch`

use avc::analysis::harness::{EngineKind, ScenarioPlan};
use avc::analysis::table::{fmt_num, Table};
use avc::population::{ConvergenceRule, MajorityInstance, ProtocolSpec, Scenario};
use avc::protocols::Avc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A population of molecules deciding between two fates.
    let n = 2_001;
    let runs = 120;
    let mut table = Table::new(
        format!("cell-cycle switch (three-state) vs AVC, n = {n} molecules, {runs} runs"),
        [
            "signal (eps)",
            "switch errors",
            "switch time",
            "avc errors",
            "avc time",
        ],
    );

    let avc = Avc::with_states(64)?;
    let avc_spec = ProtocolSpec::Avc {
        m: avc.m(),
        d: avc.d(),
    };
    for (i, eps) in [0.002, 0.01, 0.05, 0.2].into_iter().enumerate() {
        let instance = MajorityInstance::with_margin(n, eps);
        let run =
            |scenario: Scenario| ScenarioPlan::new(scenario.runs(runs).seed(100 + i as u64)).run();
        let s = run(Scenario::new(ProtocolSpec::ThreeState, instance)
            .engine(EngineKind::Jump)
            .rule(ConvergenceRule::StateConsensus));
        let a = run(Scenario::new(avc_spec, instance));
        table.push_row([
            fmt_num(instance.margin()),
            fmt_num(s.error_fraction()),
            fmt_num(s.mean_parallel_time()),
            fmt_num(a.error_fraction()),
            fmt_num(a.mean_parallel_time()),
        ]);
    }

    println!("{}", table.to_markdown());
    println!(
        "The biological switch dithers on weak signals (errors near 1/2) but is fast;\n\
         AVC pays a modest state budget (s = {}) to never mis-decide.",
        avc.s()
    );
    Ok(())
}
