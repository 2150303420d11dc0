//! YCSB mix matrix driver: named A–F / delete-heavy / zipfian mixes
//! across schemes and index kinds, with per-class simulated-latency
//! percentiles.
//!
//! Two consumers share this module: `slpmt ycsb` (perf matrix +
//! `--json`, pinned by the CLI goldens), and the crash/fault gates in
//! `tests/`, which turn
//! the same cells into [`SweepCase`]s and drive the sampled
//! streaming-oracle crash and media-fault sweeps of [`crate::sweep`].
//! Everything reported is simulated cycles, so
//! output is bit-identical across reruns and worker counts.

use slpmt_core::{MachineConfig, SchemeKind};
use slpmt_workloads::crashsweep::SweepCase;
use slpmt_workloads::runner::{
    par_map_with, run, threads, IndexKind, MixLatencies, RunResult, RunSpec, ShardRun,
};
use slpmt_workloads::ycsb::{ycsb_mix, MixSpec};

/// One cell of the YCSB matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YcsbCell {
    /// The operation mix.
    pub mix: MixSpec,
    /// Design to simulate (hardware scheme or software PTM flavour).
    pub scheme: SchemeKind,
    /// Index workload to drive.
    pub kind: IndexKind,
}

/// Trace parameters shared by every cell of one matrix run.
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    /// Keys inserted by the untimed load phase.
    pub load: usize,
    /// Measured mixed operations.
    pub ops: usize,
    /// Value payload size in bytes (whole words, ≥ 16 for mixes with
    /// update or read-modify-write shares).
    pub value_size: usize,
    /// Trace seed.
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            load: 500,
            ops: 1000,
            value_size: 32,
            seed: 42,
        }
    }
}

/// One finished cell: the measured run plus its latency breakdown.
#[derive(Debug, Clone)]
pub struct YcsbRow {
    /// The cell that ran.
    pub cell: YcsbCell,
    /// Measured-phase cycles, traffic and machine counters.
    pub result: RunResult,
    /// Per-class p50/p99 simulated-cycle latencies.
    pub lat: MixLatencies,
}

/// The mix × scheme × kind cross product, mix-major so one mix's
/// schemes print together. Accepts plain [`slpmt_core::Scheme`]s or
/// [`SchemeKind`]s.
pub fn ycsb_cells<S: Into<SchemeKind> + Copy>(
    mixes: &[MixSpec],
    schemes: &[S],
    kinds: &[IndexKind],
) -> Vec<YcsbCell> {
    let mut cells = Vec::with_capacity(mixes.len() * schemes.len() * kinds.len());
    for &mix in mixes {
        for &kind in kinds {
            for &scheme in schemes {
                cells.push(YcsbCell {
                    mix,
                    scheme: scheme.into(),
                    kind,
                });
            }
        }
    }
    cells
}

/// Runs every cell in parallel (each generates its own trace from the
/// shared config) and returns rows in cell order. `verify` turns on
/// post-run invariant checks; per-op assertions (live keys readable,
/// scans returning exactly the expected key set on ordered indexes)
/// are always on.
pub fn run_ycsb_matrix(cells: &[YcsbCell], cfg: &YcsbConfig, verify: bool) -> Vec<YcsbRow> {
    par_map_with(cells, threads(), |cell| {
        let (load, ops) = ycsb_mix(cfg.load, cfg.ops, cfg.value_size, cfg.seed, &cell.mix);
        let machine = MachineConfig::for_kind(cell.scheme);
        let spec = RunSpec {
            verify,
            ..RunSpec::mixed(machine, cell.kind, &load, &ops, cfg.value_size)
        };
        let ShardRun { result, lat, .. } = run(&spec).single();
        YcsbRow {
            cell: *cell,
            result,
            lat,
        }
    })
}

/// The crash-sweep case of one cell under a config — feed these to
/// [`crate::sweep::run_sweep`] with the engine target.
pub fn sweep_case_of(cell: &YcsbCell, cfg: &YcsbConfig) -> SweepCase {
    let mut case = SweepCase::with_mix(
        cell.scheme,
        cell.kind,
        cfg.seed,
        cfg.load,
        cfg.ops,
        cell.mix,
    );
    case.value_size = cfg.value_size;
    case
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::Scheme;

    #[test]
    fn matrix_runs_and_reports_latencies() {
        let cells = ycsb_cells(
            &[MixSpec::YCSB_A, MixSpec::DELETE_HEAVY],
            &[Scheme::Slpmt],
            &[IndexKind::Hashtable],
        );
        let cfg = YcsbConfig {
            load: 50,
            ops: 200,
            value_size: 16,
            seed: 7,
        };
        let rows = run_ycsb_matrix(&cells, &cfg, true);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.result.cycles > 0);
            let classes: Vec<&str> = row.lat.present().map(|(n, _)| n).collect();
            assert!(classes.contains(&"read"), "{classes:?}");
            for (_, s) in row.lat.present() {
                assert!(s.p50 > 0 && s.p99 >= s.p50 && s.max >= s.p99);
            }
        }
        // Delete-heavy must actually exercise removes.
        assert!(rows[1].lat.present().any(|(n, _)| n == "remove"));
    }

    #[test]
    fn matrix_is_deterministic_for_a_seed() {
        let cells = ycsb_cells(&[MixSpec::YCSB_F], &[Scheme::Fg], &[IndexKind::Rbtree]);
        let cfg = YcsbConfig {
            load: 40,
            ops: 100,
            value_size: 16,
            seed: 3,
        };
        let a = run_ycsb_matrix(&cells, &cfg, false);
        let b = run_ycsb_matrix(&cells, &cfg, false);
        assert_eq!(a[0].result.cycles, b[0].result.cycles);
        assert_eq!(a[0].lat.classes, b[0].lat.classes);
    }

    #[test]
    fn scan_mix_runs_on_ordered_and_hash_indexes() {
        // E-mix scans go through scan_range on ordered indexes and
        // degrade to gets on the hashtable; both must complete with
        // the per-op assertions on.
        let cells = ycsb_cells(
            &[MixSpec::YCSB_E],
            &[Scheme::Slpmt],
            &[IndexKind::Hashtable, IndexKind::KvBtree],
        );
        let cfg = YcsbConfig {
            load: 60,
            ops: 150,
            value_size: 16,
            seed: 9,
        };
        let rows = run_ycsb_matrix(&cells, &cfg, true);
        assert!(rows
            .iter()
            .all(|r| r.lat.present().any(|(n, _)| n == "scan")));
    }
}
