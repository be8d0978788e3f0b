//! Criterion kernels of the figure experiments at reduced scale: one cell
//! of Figure 3 and one point of Figure 4 per protocol, so regressions in
//! the experiment pipeline show up in CI without multi-minute sweeps.

use avc_analysis::harness::{EngineKind, ScenarioPlan};
use avc_population::{ConvergenceRule, MajorityInstance, ProtocolSpec, Scenario};
use avc_protocols::Avc;
use criterion::{criterion_group, criterion_main, Criterion};

/// The AVC spec with (at most) `states` states.
fn avc_spec(states: u64) -> ProtocolSpec {
    let avc = Avc::with_states(states).expect("valid budget");
    ProtocolSpec::Avc {
        m: avc.m(),
        d: avc.d(),
    }
}

fn bench_fig3_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_cell_n1001_5runs");
    group.sample_size(10);
    let plan = |protocol, engine, rule| {
        let scenario = Scenario::new(protocol, MajorityInstance::one_extra(1_001))
            .engine(engine)
            .rule(rule)
            .runs(5)
            .seed(1);
        ScenarioPlan::new(scenario)
    };

    let three = plan(
        ProtocolSpec::ThreeState,
        EngineKind::Jump,
        ConvergenceRule::StateConsensus,
    );
    group.bench_function("three_state", |b| {
        b.iter(|| three.run().convergence_fraction())
    });
    let four = plan(
        ProtocolSpec::FourState,
        EngineKind::Jump,
        ConvergenceRule::OutputConsensus,
    );
    group.bench_function("four_state", |b| b.iter(|| four.run().error_fraction()));
    let avc = plan(
        avc_spec(1_001),
        EngineKind::Auto,
        ConvergenceRule::OutputConsensus,
    );
    group.bench_function("avc_n_state", |b| b.iter(|| avc.run().error_fraction()));
    group.finish();
}

fn bench_fig4_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_point_n10001_s66_eps1e-3");
    group.sample_size(10);
    let scenario = Scenario::new(avc_spec(66), MajorityInstance::with_margin(10_001, 1e-3))
        .runs(3)
        .seed(2);
    let plan = ScenarioPlan::new(scenario);
    group.bench_function("avc", |b| b.iter(|| plan.run().mean_parallel_time()));
    group.finish();
}

criterion_group!(benches, bench_fig3_cell, bench_fig4_point);
criterion_main!(benches);
