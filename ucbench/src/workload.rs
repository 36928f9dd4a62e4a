//! Operation streams, drawn by the repository's own keyed generator
//! (`uc_sim::generate_keyed`). The element mix inside an object is the
//! one every keyed bench in `crates/bench/benches` uses: 64 elements,
//! element zipf 0.8, 70% of updates insert.

use crate::oracle::VALUES;
use uc_sim::{generate_keyed, KeyedOp, KeyedWorkloadSpec, SetOpKind};
use uc_spec::SetUpdate;

/// Zipf exponent of the element choice inside an object.
const ELEMENT_ALPHA: f64 = 0.8;
/// Share of updates that insert (the rest delete).
const INSERT_RATIO: f64 = 0.7;
/// Mean spacing, in simulated time units, between two operations of
/// one process.
const MEAN_GAP: u64 = 1;

/// Key popularity: how many keys, and the zipf exponent over them.
#[derive(Clone, Copy)]
pub struct Keys {
    pub count: usize,
    pub alpha: f64,
}

/// `ops_per_process` operations of each of `processes` processes, a
/// share `update_ratio` of them updates, sorted by `(time, pid)`.
pub fn keyed(
    keys: Keys,
    processes: usize,
    ops_per_process: usize,
    update_ratio: f64,
    seed: u64,
) -> Vec<KeyedOp> {
    generate_keyed(&KeyedWorkloadSpec {
        processes,
        ops_per_process,
        keys: keys.count,
        key_alpha: keys.alpha,
        universe: VALUES as usize,
        zipf_alpha: ELEMENT_ALPHA,
        update_ratio,
        insert_ratio: INSERT_RATIO,
        mean_gap: MEAN_GAP,
        ooo_rate: 0.0,
        snapshot_rate: 0.0,
        seed,
    })
}

/// The set update an operation carries; `None` for a read.
pub fn set_update(kind: SetOpKind) -> Option<SetUpdate<u32>> {
    match kind {
        SetOpKind::Insert(e) => Some(SetUpdate::Insert(e as u32)),
        SetOpKind::Delete(e) => Some(SetUpdate::Delete(e as u32)),
        SetOpKind::Read | SetOpKind::SnapshotRead => None,
    }
}
