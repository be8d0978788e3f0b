//! The four benchmark workloads: each is one `avc sweep` plan, built the
//! way the CLI builds it, from the workload seed alone.
//!
//! Sizes are chosen so one sweep takes 1–6 s on two workers, leaving room
//! for several sweeps (and a median) in one measured run, while keeping
//! what makes each workload stress its layer: per-trial fixed costs,
//! large-`s` kernels on both sides of the `Cached` table bound, many small
//! tabled cells, and the per-agent engine under adversarial schedulers.

use avc_analysis::cli::Args;
use avc_store::scenario_grid::{self, ScenarioGrid};
use avc_store::specs;
use avc_store::sweep::Plan;

/// Worker threads every sweep runs with (`avc sweep … --threads 2`).
pub const THREADS: &str = "2";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many trials of a few microseconds: per-trial telemetry, its merge and
    /// the store's whole-file rewrites outweigh the kernel.
    Fig3ManyTrials,
    /// Few long AVC trials at fig4's large state counts.
    Fig4LargeS,
    /// The rival protocols' grid on tabled count-space engines.
    RivalsGrid,
    /// Rivals on the per-agent engine under adversarial schedulers.
    AgentAdversarial,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig3ManyTrials,
        Workload::Fig4LargeS,
        Workload::RivalsGrid,
        Workload::AgentAdversarial,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3ManyTrials => "fig3_many_trials",
            Workload::Fig4LargeS => "fig4_large_s",
            Workload::RivalsGrid => "rivals_grid",
            Workload::AgentAdversarial => "agent_adversarial",
        }
    }

    /// Why the benchmark runs this workload (one line).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig3ManyTrials => {
                "81k trials of a few us at n = 11..27: per-trial telemetry blocks, their serial \
                 merge after each batch and 27 whole-file store rewrites (22 MB) outweigh the kernel"
            }
            Workload::Fig4LargeS => {
                "AVC at s = 2050/4098/16340, n = 20001: kernel-bound, a 33.6 MB table below \
                 the Cached bound and the arithmetic path above it, 3 trials on 2 workers"
            }
            Workload::RivalsGrid => {
                "36 small tabled cells of BEF, DEGSSU, AVC and four_state: per-cell manifest, \
                 table build and append costs on count-space engines"
            }
            Workload::AgentAdversarial => {
                "the only per-agent-engine workload, under biased, starved, epoch and star \
                 schedulers; count-space changes should not move it"
            }
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the sweep plan for workload seed `seed`, which is added to
    /// every base seed the plan derives cell seeds from.
    ///
    /// # Errors
    ///
    /// A generated grid that fails validation (a bug in this file).
    pub fn plan(self, seed: u64) -> Result<Plan, String> {
        let build = |name: &str, flags: &[&str], base: u64| {
            let seed = base.wrapping_add(seed).to_string();
            let tokens = flags
                .iter()
                .copied()
                .chain(["--threads", THREADS, "--seed", &seed])
                .map(str::to_string);
            specs::build(name, &Args::parse(tokens)).ok_or_else(|| format!("no sweep `{name}`"))
        };
        match self {
            Workload::Fig3ManyTrials => build(
                "fig3",
                &["--ns", "11,13,15,17,19,21,23,25,27", "--runs", "3001"],
                2015,
            ),
            Workload::Fig4LargeS => build(
                "fig4",
                &["--n", "20001", "--states", "2050,4098,16340", "--runs", "3"],
                4,
            ),
            Workload::RivalsGrid => grid_plan(&rivals_grid(seed)),
            Workload::AgentAdversarial => grid_plan(&adversarial_grid(seed)),
        }
    }
}

fn grid_plan(text: &str) -> Result<Plan, String> {
    let grid = ScenarioGrid::parse(text)?;
    let args = Args::parse(["--threads".to_string(), THREADS.to_string()]);
    Ok(scenario_grid::plan_of(&grid, &args))
}

/// One grid cell's JSON.
fn cell(label: &str, protocol: &str, a: u64, b: u64, extra: &str) -> String {
    format!(
        "{{\"label\":\"{label}\",\"scenario\":{{\"schema\":1,\"protocol\":\"{protocol}\",\
         \"instance\":{{\"a\":{a},\"b\":{b}}},\"rule\":\"output_consensus\",{extra}}}}}"
    )
}

fn grid(name: &str, banner: &str, cells: &[String]) -> String {
    format!(
        "{{\"schema\":1,\"name\":\"{name}\",\"banner\":\"{banner}\",\"cells\":[{}]}}",
        cells.join(",")
    )
}

/// The bench's copy of `examples/scenarios/rivals_time_vs_n.grid.json`
/// with 21 runs per cell and cell seeds shifted by `seed`.
fn rivals_grid(seed: u64) -> String {
    /// (n, BEF/DEGSSU levels, state-matched AVC m, (a, b) at margins 1,
    /// √n and 5%).
    type Size = (u64, u32, u64, [(u64, u64); 3]);
    const SIZES: [Size; 3] = [
        (257, 9, 19, [(129, 128), (137, 120), (135, 122)]),
        (1025, 11, 23, [(513, 512), (529, 496), (538, 487)]),
        (4097, 13, 27, [(2049, 2048), (2081, 2016), (2151, 1946)]),
    ];
    const GAPS: [&str; 3] = ["1", "sqrt", "5pct"];
    let mut cells = Vec::new();
    for (n, levels, m, splits) in SIZES {
        for (gap, (a, b)) in GAPS.iter().zip(splits) {
            let protocols = [
                ("bef", format!("bef(l={levels})")),
                ("degssu", format!("degssu(l={levels},t=4)")),
                ("avc", format!("avc(m={m},d=1)")),
                ("four_state", "four_state".to_string()),
            ];
            for (key, protocol) in protocols {
                let cell_seed = 20_151u64
                    .wrapping_add(cells.len() as u64)
                    .wrapping_add(seed);
                cells.push(cell(
                    &format!("{key}/n={n}/gap={gap}"),
                    &protocol,
                    a,
                    b,
                    &format!(
                        "\"engine\":\"auto\",\"max_steps\":2000000000,\"runs\":21,\
                         \"seed\":{cell_seed}"
                    ),
                ));
            }
        }
    }
    grid(
        "rivals_time_vs_n",
        "exact-majority rivals: convergence time vs n at margins 1, sqrt(n), 5% n",
        &cells,
    )
}

/// The adversarial-scheduler cells of
/// `examples/scenarios/rivals_margin1.grid.json` with 101 runs per cell
/// and cell seeds shifted by `seed`.
fn adversarial_grid(seed: u64) -> String {
    const PROTOCOLS: [(&str, &str, u64); 2] = [
        ("bef", "bef(l=8)", 32_001),
        ("degssu", "degssu(l=8,t=4)", 32_006),
    ];
    const SCHEDULERS: [(&str, &str); 4] = [
        ("biased", "biased(hot=32,bias=0.9)"),
        ("starved", "starved(laggards=10,period=64)"),
        ("epoch", "epoch"),
        ("star", "restricted(star)"),
    ];
    let mut cells = Vec::new();
    for (key, protocol, base) in PROTOCOLS {
        for (offset, (sched, scheduler)) in (0u64..).zip(SCHEDULERS) {
            let cell_seed = base.wrapping_add(offset).wrapping_add(seed);
            cells.push(cell(
                &format!("{key}/{sched}/n=201"),
                protocol,
                101,
                100,
                &format!(
                    "\"engine\":\"agent\",\"max_steps\":400000000,\"runs\":101,\
                     \"seed\":{cell_seed},\"scheduler\":\"{scheduler}\""
                ),
            ));
        }
    }
    grid(
        "rivals_margin1",
        "margin-1 exactness stress: rivals under adversarial fair schedulers",
        &cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_its_plan_and_seed_moves_every_cell() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            let a = w.plan(0).unwrap();
            let b = w.plan(1).unwrap();
            assert_eq!(a.cells.len(), b.cells.len());
            for (x, y) in a.cells.iter().zip(&b.cells) {
                assert_eq!(x.label, y.label);
                assert_ne!(x.manifest.hash(), y.manifest.hash(), "{}", x.label);
            }
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn grids_copy_the_committed_example_cells() {
        let rivals = Workload::RivalsGrid.plan(0).unwrap();
        assert_eq!(rivals.cells.len(), 36);
        assert_eq!(rivals.cells[0].label, "bef/n=257/gap=1");
        assert_eq!(rivals.cells[35].label, "four_state/n=4097/gap=5pct");
        assert_eq!(rivals.cells[35].manifest.get("seed"), Some("20186"));
        let adversarial = Workload::AgentAdversarial.plan(0).unwrap();
        let labels: Vec<&str> = adversarial.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), 8);
        assert_eq!(labels[4], "degssu/biased/n=201");
        assert_eq!(adversarial.cells[4].manifest.get("seed"), Some("32006"));
        assert_eq!(
            adversarial.cells[7].manifest.get("scheduler"),
            Some("restricted(star)")
        );
    }
}
