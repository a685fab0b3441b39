//! Golden-snapshot harness: the paper-protocol reproduce CSVs are committed
//! under `tests/golden/` (repo root) and every run must regenerate them
//! **byte for byte**. Scheduler/cache/engine refactors — prefix sharing,
//! chunked prefill, whatever comes next — are free to reshape the hot
//! subsystems, but if an un-shared, un-chunked paper number moves by one
//! bit, this test names the experiment that drifted.
//!
//! To re-baseline after an *intentional* accounting change, regenerate with
//! `cargo run --release -p qserve-bench --bin reproduce -- <ids>` and copy
//! the CSVs from `results/` over `tests/golden/` in the same commit that
//! explains why.

use qserve_bench::run_experiment;

/// The pinned experiments and their committed CSVs (indexed like the
/// `reproduce` binary writes them: first table = `<id>.csv`, later tables =
/// `<id>_<i>.csv`).
const GOLDEN: &[(&str, &[&str])] = &[
    ("table1", &[include_str!("../../../tests/golden/table1.csv")]),
    (
        "table4",
        &[
            include_str!("../../../tests/golden/table4.csv"),
            include_str!("../../../tests/golden/table4_1.csv"),
        ],
    ),
    ("table6", &[include_str!("../../../tests/golden/table6.csv")]),
    ("fig1", &[include_str!("../../../tests/golden/fig1.csv")]),
    (
        "fig17",
        &[
            include_str!("../../../tests/golden/fig17.csv"),
            include_str!("../../../tests/golden/fig17_1.csv"),
        ],
    ),
    // Beyond the paper protocol: the scheduler and prefix-sharing grids are
    // pinned too, so a cluster/TP refactor cannot silently move the
    // single-engine serving numbers it builds on.
    ("sched_sweep", &[include_str!("../../../tests/golden/sched_sweep.csv")]),
    ("prefix_sweep", &[include_str!("../../../tests/golden/prefix_sweep.csv")]),
    // The homogeneous-fleet, admit-all cluster grid: pinning it is what
    // makes "heterogeneous fleets + admission control changed nothing for
    // the homogeneous admit-all path" an enforced invariant, not a hope.
    ("cluster_sweep", &[include_str!("../../../tests/golden/cluster_sweep.csv")]),
    // The fault-injection reproduce: crash / drain / rolling-upgrade ×
    // recompute / swap on the 4×A100 fleet. Pinning it freezes the
    // conservation numbers (requeues, lost prefill, zero lost requests)
    // and the swap-beats-recompute goodput margin alike.
    ("failure_sweep", &[include_str!("../../../tests/golden/failure_sweep.csv")]),
    // The control-plane reproduce: deadline routing vs least-outstanding,
    // prefix migration vs shed/re-prefill, and the elastic autoscaler vs
    // both static fleets. Pinning it freezes the attainment gap, the
    // migrated-byte count and the GPU-seconds bill.
    ("elastic_sweep", &[include_str!("../../../tests/golden/elastic_sweep.csv")]),
    // The heterogeneous-fleet × routing × admission grid and the CI-sized
    // event-core trace: both run the scheduler tick and page ledger
    // (`make_room`, `decode_step`, `PageBudget::grow`) under sustained
    // overload, so a rewrite of that hot path must reproduce them exactly.
    ("hetero_sweep", &[include_str!("../../../tests/golden/hetero_sweep.csv")]),
    ("mega_sweep_smoke", &[include_str!("../../../tests/golden/mega_sweep_smoke.csv")]),
];

#[test]
fn paper_protocol_csvs_are_byte_identical_to_golden() {
    for (id, golden_tables) in GOLDEN {
        let tables = run_experiment(id).unwrap_or_else(|| panic!("unknown experiment '{}'", id));
        assert_eq!(
            tables.len(),
            golden_tables.len(),
            "experiment '{}' changed its table count",
            id
        );
        for (i, (table, golden)) in tables.iter().zip(*golden_tables).enumerate() {
            let fresh = table.to_csv();
            assert!(
                fresh == *golden,
                "experiment '{}' table {} drifted from tests/golden/ — a refactor \
                 changed paper-protocol numbers.\n--- golden ---\n{}\n--- regenerated ---\n{}",
                id,
                i,
                golden,
                fresh
            );
        }
    }
}

#[test]
fn golden_files_are_sane() {
    // Guard the harness itself: every pinned CSV has a header and data.
    for (id, tables) in GOLDEN {
        for csv in *tables {
            assert!(csv.lines().count() >= 2, "golden CSV for '{}' is empty", id);
        }
    }
}
