//! §4 structure: one traced AVC trajectory, the empirical counterpart of
//! the analysis.
//!
//! The proof of Theorem 4.1 tracks two quantities along the execution:
//!
//! * the extremal weights per sign, which halve every `O(log n)` parallel
//!   time (Claim A.2) until only `±1` values remain;
//! * the population split among strong / intermediate / weak states, which
//!   shifts mass toward many low-weight majority nodes (the "augmentation"
//!   that beats the four-state protocol).
//!
//! This sweep's one cell records those statistics along a single seeded
//! run as a time series, plus the constant value-sum column that witnesses
//! Invariant 4.3 live. Sampling rides the chunked run driver: [`record`]
//! plugs a recording observer into `avc_population::driver`, whose chunk
//! targets honour the cadence without perturbing the RNG stream.

use super::{with_margin, FlagError, Sweep, SweepCell};
use crate::record::{f64_to_hex, CellResult};
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::table::{fmt_num, Table};
use avc_population::cached::Cached;
use avc_population::engine::{CountSim, Simulator};
use avc_population::trace::{record, Trace};
use avc_population::{Config, ConvergenceRule, MajorityInstance, StateId};
use avc_protocols::{Avc, AvcParameterError, AvcState, Sign};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The statistics recorded along the run, in column order.
const STATISTICS: [&str; 8] = [
    "max_pos_weight",
    "max_neg_weight",
    "strong_pos",
    "strong_neg",
    "intermediate_pos",
    "intermediate_neg",
    "weak",
    "total_value",
];

/// Flags: `--n`, `--m`, `--d`, `--eps`, `--cadence` (steps between
/// samples), `--seed`. The run draws from `SmallRng::seed_from_u64(seed)`.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let n = args.get_u64("n", if quick { 1_001 } else { 100_001 })?;
    let m = args.get_u64("m", if quick { 63 } else { 1_023 })?;
    let d = args.get_u64("d", 1)?;
    let epsilon = args.get_f64("eps", if quick { 0.01 } else { 1e-3 })?;
    let cadence = args.get_u64("cadence", if quick { 2_000 } else { 50_000 })?;
    let seed = args.get_u64("seed", 2)?;
    if !(epsilon > 0.0 && epsilon <= 1.0) {
        return Err(FlagError::new(
            "eps",
            format!("{epsilon}: a margin lies in (0, 1]"),
        ));
    }
    let instance = with_margin("n", n, epsilon)?;
    let levels = u32::try_from(d).map_err(|_| FlagError::new("d", format!("{d} exceeds 2^32")))?;
    let avc = Avc::new(m, levels).map_err(|e| match e {
        AvcParameterError::InvalidD(_) => FlagError::new("d", e),
        _ => FlagError::new("m", e),
    })?;
    if cadence == 0 {
        return Err(FlagError::new("cadence", "0 steps between samples"));
    }
    let label = format!("n={n}/m={m}/d={d}/eps={epsilon:e}");
    let params = vec![
        ("protocol", "avc".to_string()),
        ("engine", "count".to_string()),
        ("rule", "output_consensus".to_string()),
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("d", d.to_string()),
        ("eps", f64_to_hex(epsilon)),
        ("eps_text", format!("{epsilon:e}")),
        ("cadence", cadence.to_string()),
        ("seed", seed.to_string()),
    ];
    let cell = SweepCell::computed(label, params, move |_| {
        let trace = trajectory(&avc, instance, cadence, seed);
        let rows = trace
            .samples
            .iter()
            .map(|sample| {
                let mut row = vec![fmt_num(sample.parallel_time)];
                row.extend(sample.values.iter().map(|&v| fmt_num(v)));
                row
            })
            .collect();
        CellResult {
            tables: BTreeMap::from([("dynamics".to_string(), rows)]),
            values: BTreeMap::from([("parallel_time".to_string(), trace.outcome.parallel_time)]),
            notes: vec![format!("{:?}", trace.outcome.verdict)],
            ..CellResult::default()
        }
    });

    Ok(Sweep {
        name: "dynamics".to_string(),
        banner: format!("one AVC run: n = {n}, m = {m}, d = {d}, eps = {epsilon}"),
        cells: vec![cell],
        export: Box::new(move |results| {
            let r = results[0];
            let verdict = r.notes.first().cloned().unwrap_or_default();
            Export {
                tables: vec![(
                    "dynamics".to_string(),
                    Table::new(
                        format!(
                            "AVC dynamics: one run at n = {n}, m = {m}, d = {d}, eps = {epsilon}"
                        ),
                        std::iter::once("parallel_time").chain(STATISTICS),
                    ),
                )],
                trailer: vec![format!(
                    "run converged: {verdict} at parallel time {:.1}",
                    r.value("parallel_time").unwrap_or(f64::NAN)
                )],
            }
        }),
    })
}

/// Records one seeded AVC run from `instance`, sampling the
/// [`STATISTICS`] every `cadence` steps.
fn trajectory(avc: &Avc, instance: MajorityInstance, cadence: u64, seed: u64) -> Trace {
    let initial = Config::from_input(avc, instance.a(), instance.b());
    let mut rng = SmallRng::seed_from_u64(seed);
    let columns: Vec<String> = STATISTICS.iter().map(|s| s.to_string()).collect();
    // Small-m instances run on the dense transition table; the wrap changes
    // no RNG draws, so the trace is identical either way.
    let mut sim: Box<dyn Simulator> = match Cached::try_new(avc.clone()) {
        Ok(cached) => Box::new(CountSim::new(cached, initial)),
        Err(plain) => Box::new(CountSim::new(plain, initial)),
    };
    let rule = ConvergenceRule::OutputConsensus;
    let probe = |counts: &[u64]| statistics(avc, counts);
    record(
        sim.as_mut(),
        &mut rng,
        cadence,
        u64::MAX,
        rule,
        columns,
        probe,
    )
}

/// The [`STATISTICS`] of a configuration, from its AVC state counts.
fn statistics(avc: &Avc, counts: &[u64]) -> Vec<f64> {
    // Per sign, plus then minus: the largest weight present and the
    // strong and intermediate counts.
    let mut max_weight = [0i64; 2];
    let mut strong = [0u64; 2];
    let mut intermediate = [0u64; 2];
    let mut weak = 0u64;
    for (id, &c) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
        let state = avc.decode(id as StateId);
        let side = usize::from(state.sign() == Sign::Minus);
        max_weight[side] = max_weight[side].max(state.weight());
        match state {
            AvcState::Strong(_) => strong[side] += c,
            AvcState::Intermediate(..) => intermediate[side] += c,
            AvcState::Weak(_) => weak += c,
        }
    }
    let [max_pos, max_neg] = max_weight.map(|w| w as f64);
    let [strong_pos, strong_neg] = strong.map(|c| c as f64);
    let [inter_pos, inter_neg] = intermediate.map(|c| c as f64);
    let total = avc.total_value(counts) as f64;
    vec![
        max_pos,
        max_neg,
        strong_pos,
        strong_neg,
        inter_pos,
        inter_neg,
        weak as f64,
        total,
    ]
}

#[cfg(test)]
mod tests {
    use super::super::tests::run_sweep;
    use super::*;

    /// The trajectory of the `--quick` profile.
    fn quick_trajectory() -> Trace {
        let avc = Avc::new(63, 1).unwrap();
        trajectory(&avc, MajorityInstance::with_margin(1_001, 0.01), 2_000, 2)
    }

    #[test]
    fn trajectory_witnesses_the_analysis_structure() {
        let trace = quick_trajectory();
        assert!(trace.outcome.verdict.is_consensus());

        let names: Vec<&str> = trace.names.iter().map(String::as_str).collect();
        assert_eq!(names, STATISTICS);

        // Invariant 4.3: the value-sum column is constant.
        let sums = trace.series(7);
        let first = sums[0].1;
        assert!(sums.iter().all(|&(_, v)| v == first), "sum drifted");

        // Claim A.2 shape: the max positive weight starts at m and is
        // non-increasing along the samples.
        let max_pos = trace.series(0);
        assert_eq!(max_pos[0].1, 63.0);
        for pair in max_pos.windows(2) {
            assert!(pair[1].1 <= pair[0].1, "max weight increased");
        }

        // Terminal sample: no negative-sign strong or intermediate nodes.
        let last = trace.samples.last().unwrap();
        assert_eq!(last.values[3], 0.0, "strong_neg at convergence");
        assert_eq!(last.values[5], 0.0, "intermediate_neg at convergence");
    }

    #[test]
    fn table_has_one_row_per_sample() {
        let (_, _, export) = run_sweep("dynamics", &["--quick"]);
        let t = &export.tables[0].1;
        assert_eq!(t.num_rows(), quick_trajectory().samples.len());
        assert_eq!(t.columns().len(), 9);
    }
}
