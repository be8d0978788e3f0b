//! The precision/speed trade-off the paper resolves, in one table:
//! voter (2 states), three-state, four-state, and AVC on the same instance.
//!
//! Run with: `cargo run --release --example exact_vs_approximate`

use avc::analysis::harness::{EngineKind, ScenarioPlan};
use avc::analysis::table::{fmt_num, Table};
use avc::population::{ConvergenceRule, MajorityInstance, ProtocolSpec, Scenario};
use avc::protocols::Avc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1_001;
    let run = |protocol, engine, rule| {
        let scenario = Scenario::new(protocol, MajorityInstance::one_extra(n))
            .engine(engine)
            .rule(rule)
            .runs(51)
            .seed(7);
        ScenarioPlan::new(scenario).run()
    };

    let mut table = Table::new(
        format!("majority protocols at n = {n}, eps = 1/n, 51 runs"),
        [
            "protocol",
            "states",
            "mean_parallel_time",
            "error_fraction",
            "exact?",
        ],
    );

    let voter = run(
        ProtocolSpec::Voter,
        EngineKind::Count,
        ConvergenceRule::OutputConsensus,
    );
    table.push_row([
        "voter [HP99]".to_string(),
        "2".to_string(),
        fmt_num(voter.mean_parallel_time()),
        fmt_num(voter.error_fraction()),
        "no".to_string(),
    ]);

    let three = run(
        ProtocolSpec::ThreeState,
        EngineKind::Jump,
        ConvergenceRule::StateConsensus,
    );
    table.push_row([
        "three-state [AAE08,PVV09]".to_string(),
        "3".to_string(),
        fmt_num(three.mean_parallel_time()),
        fmt_num(three.error_fraction()),
        "no".to_string(),
    ]);

    let four = run(
        ProtocolSpec::FourState,
        EngineKind::Jump,
        ConvergenceRule::OutputConsensus,
    );
    table.push_row([
        "four-state [DV12,MNRS14]".to_string(),
        "4".to_string(),
        fmt_num(four.mean_parallel_time()),
        fmt_num(four.error_fraction()),
        "yes".to_string(),
    ]);

    let avc = Avc::with_states(n)?;
    let states = avc.s();
    let avc_res = run(
        ProtocolSpec::Avc {
            m: avc.m(),
            d: avc.d(),
        },
        EngineKind::Auto,
        ConvergenceRule::OutputConsensus,
    );
    table.push_row([
        "AVC (this paper)".to_string(),
        states.to_string(),
        fmt_num(avc_res.mean_parallel_time()),
        fmt_num(avc_res.error_fraction()),
        "yes".to_string(),
    ]);

    println!("{}", table.to_markdown());
    println!(
        "AVC is {:.0}x faster than the exact four-state protocol here, with zero errors.",
        four.mean_parallel_time() / avc_res.mean_parallel_time()
    );
    Ok(())
}
