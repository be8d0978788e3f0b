//! The two paper experiments that are not batches of seeded scenarios.
//!
//! Each module exposes a `Config` (with paper defaults and a `quick()`
//! downscaled variant for CI), its runner and its [`Table`] builder; the
//! `avc` CLI drives both as the `dynamics` and `graph_gap` sweeps. The
//! scenario studies — Figures 3 and 4, the four-state scaling, the
//! three-state error law, the `d` ablation and the robustness grid — are
//! declared once each in `avc_store::specs` and built by the scenario-grid
//! plan builder, like the `*.grid.json` files.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`dynamics`] | §4 analysis structure: weight halving + population split along a run |
//! | [`graph_gap`] | \[DV12]: four-state time vs interaction-graph spectral gap |
//!
//! [`Table`]: crate::table::Table

pub mod dynamics;
pub mod graph_gap;

/// Writes a table as CSV under `results/` and prints its markdown rendering.
///
/// `avc export` reports every table through this helper so outputs land
/// consistently in one place.
///
/// # Panics
///
/// Panics if the CSV cannot be written (an export has no meaningful
/// recovery).
pub fn report(table: &crate::table::Table, out_dir: &str, file_stem: &str) {
    let path = std::path::Path::new(out_dir).join(format!("{file_stem}.csv"));
    table
        .write_csv(&path)
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
    println!("{}", table.to_markdown());
    println!("[written to {}]\n", path.display());
}
