//! The committed `results/` reproduce: fig3's cells for `n` up to 1001, at
//! the default runs and seed, rebuild the first nine data rows of
//! `results/fig3_time.csv` and `results/fig3_error.csv` byte for byte.
//!
//! Cell seeds depend on each value's index in `--ns`, so only a prefix of
//! the default list reproduces committed rows. The CI release job checks
//! longer prefixes (fig3 to n = 10001, err_three_state at n = 1001) and
//! the whole ablation_d sweep the same way, through the `avc` binary.

use avc::analysis::cli::Args;
use avc::analysis::harness::StatsCollector;
use avc::store::specs;
use std::path::Path;

#[test]
fn fig3_prefix_reproduces_the_committed_rows() {
    let args = Args::parse(["--ns", "11,101,1001"].map(str::to_string));
    let plan = specs::build("fig3", &args).expect("fig3 is registered");
    let stats = StatsCollector::new();
    let results: Vec<_> = plan.cells.iter().map(|cell| (cell.run)(&stats)).collect();
    let export = (plan.export)(&results.iter().collect::<Vec<_>>());
    for (stem, table) in &export.tables {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{stem}.csv"));
        let committed = std::fs::read_to_string(&path).expect("committed CSV");
        let rebuilt = table.to_csv();
        assert_eq!(rebuilt.lines().count(), 10, "{stem}: header plus nine rows");
        let prefix: Vec<&str> = committed.lines().take(10).collect();
        assert_eq!(
            rebuilt.lines().collect::<Vec<_>>(),
            prefix,
            "{stem}.csv rows differ from the committed file"
        );
    }
}
