//! Pins every sweep's cell identities: the ordered `(label, manifest hash)`
//! list of all registered sweeps and of both committed `*.grid.json` files,
//! at default flags and under `--quick`, must equal
//! `tests/golden/manifests.tsv`.
//!
//! A manifest hash is a stored cell's identity, so a changed hash orphans
//! every store written before it, and a changed order moves the cells that
//! exports index by position (fig4's table reuse, robustness's slowdown
//! trailer). A change that means to alter a manifest regenerates the file
//! from the `actual` dump this test writes on failure.

use avc_analysis::cli::Args;
use avc_store::scenario_grid;
use avc_store::specs;
use avc_store::sweep::Plan;
use std::path::Path;

/// The committed grid files, relative to the workspace root.
const GRIDS: [&str; 2] = [
    "examples/scenarios/rivals_margin1.grid.json",
    "examples/scenarios/rivals_time_vs_n.grid.json",
];

/// One `sweep \t profile \t label \t hash` line per cell, in plan order.
fn render() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = String::new();
    for (profile, tokens) in [("default", &[][..]), ("quick", &["--quick"][..])] {
        let args = Args::parse(tokens.iter().map(|s| s.to_string()));
        let mut plans: Vec<(String, Plan)> = specs::SWEEPS
            .iter()
            .map(|spec| {
                (
                    spec.name.to_string(),
                    specs::build(spec.name, &args).expect(spec.name),
                )
            })
            .collect();
        for grid in GRIDS {
            let path = root.join(grid);
            let plan = scenario_grid::load_plan(path.to_str().expect("utf-8 path"), &args)
                .unwrap_or_else(|e| panic!("{grid}: {e}"));
            plans.push((grid.to_string(), plan));
        }
        for (sweep, plan) in plans {
            for cell in &plan.cells {
                out.push_str(&format!(
                    "{sweep}\t{profile}\t{}\t{}\n",
                    cell.label,
                    cell.manifest.hash()
                ));
            }
        }
    }
    out
}

#[test]
fn every_sweep_keeps_its_cells_and_manifests() {
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manifests.tsv");
    let want = std::fs::read_to_string(&pinned).expect("committed manifest pin");
    let got = render();
    if got != want {
        let dump = std::env::temp_dir().join(format!("avc-manifests-{}.tsv", std::process::id()));
        std::fs::write(&dump, &got).expect("write the actual pin");
        let first = got.lines().zip(want.lines()).find(|(g, w)| g != w).map_or(
            "(one list is a prefix of the other)".to_string(),
            |(g, w)| format!("got  {g}\nwant {w}"),
        );
        panic!(
            "cell identities moved ({} vs {} lines); first difference:\n{first}\nactual list: {}",
            got.lines().count(),
            want.lines().count(),
            dump.display()
        );
    }
}
