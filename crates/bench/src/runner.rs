//! Scheme × index matrices.
//!
//! `slpmt matrix`, the claim table and the PTM tests evaluate matrices
//! of independent simulation cells — (scheme, index) pairs that share
//! nothing but a read-only operation stream. Each cell is one [`run`]
//! of its [`Cell::spec`]; callers fan the cells across host threads
//! with [`par_map_with`], which merges results back **in cell order**,
//! so a parallel matrix prints byte-identically to a serial one.
//!
//! [`run`]: slpmt_workloads::runner::run
//! [`par_map_with`]: slpmt_workloads::runner::par_map_with

use slpmt_core::{MachineConfig, SchemeKind};
use slpmt_workloads::runner::{IndexKind, RunSpec};
use slpmt_workloads::YcsbOp;

/// One independent simulation cell of a scheme × index matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Design to simulate (hardware scheme or software PTM flavour).
    pub scheme: SchemeKind,
    /// Index workload to drive.
    pub kind: IndexKind,
}

impl Cell {
    /// The cell's insert run of `ops` under default Table III timing.
    pub fn spec<'a>(&self, ops: &'a [YcsbOp], value_size: usize) -> RunSpec<'a> {
        RunSpec::inserts(
            MachineConfig::for_kind(self.scheme),
            self.kind,
            ops,
            value_size,
        )
    }
}

/// Cartesian product of `schemes` × `kinds` in row-major (kind-major)
/// order — the iteration order every matrix uses. Accepts
/// plain [`Scheme`](slpmt_core::Scheme)s or [`SchemeKind`]s.
pub fn matrix<S: Into<SchemeKind> + Copy>(schemes: &[S], kinds: &[IndexKind]) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(schemes.len() * kinds.len());
    for &kind in kinds {
        for &scheme in schemes {
            cells.push(Cell {
                scheme: scheme.into(),
                kind,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::Scheme;

    #[test]
    fn matrix_is_kind_major() {
        let cells = matrix(
            &[Scheme::Fg, Scheme::Slpmt],
            &[IndexKind::Hashtable, IndexKind::Rbtree],
        );
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells[0],
            Cell {
                scheme: Scheme::Fg.into(),
                kind: IndexKind::Hashtable
            }
        );
        assert_eq!(
            cells[1],
            Cell {
                scheme: Scheme::Slpmt.into(),
                kind: IndexKind::Hashtable
            }
        );
        assert_eq!(
            cells[2],
            Cell {
                scheme: Scheme::Fg.into(),
                kind: IndexKind::Rbtree
            }
        );
    }
}
