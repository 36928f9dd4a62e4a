//! The independent oracle every workload checks the replicas against.
//!
//! It is computed apart from the program: per key, every issued update
//! is folded in `(clock, pid)` order through the sequential set ADT of
//! `uc_spec` — no engine, log, or repair code is involved. Alongside
//! the fold it checks the properties a reader can observe:
//!
//! * a read returns only elements some earlier update inserted into
//!   that key;
//! * the pool's published snapshot epochs never decrease per key;
//! * a cut equals the fold of the updates stamped at or below it.

use std::collections::{BTreeSet, HashSet};
use uc_spec::{SetAdt, SetUpdate, UqAdt};

pub type Adt = SetAdt<u32>;
pub type State = BTreeSet<u32>;

/// Set elements are drawn from `0..VALUES`, so "ever inserted" fits in
/// one 64-bit mask per key.
pub const VALUES: u32 = 64;

struct KeyHistory {
    /// Fold of every sealed update (all stamped at or below the
    /// oracle's sealed bound).
    base: State,
    /// Updates recorded since the last seal, unordered.
    pending: Vec<(u64, u32, SetUpdate<u32>)>,
    /// Bit `v` set once some recorded update inserted `v`.
    inserted: u64,
}

/// Per-key reference fold of the issued updates.
pub struct Oracle {
    adt: Adt,
    keys: Vec<KeyHistory>,
    /// Every stamp recorded since the last seal (a stamp may carry
    /// only one update).
    stamps: HashSet<(u64, u32)>,
    /// Highest clock folded into the bases; later updates must be
    /// stamped above it.
    sealed: u64,
    recorded: u64,
}

impl Oracle {
    pub fn new(keys: usize) -> Self {
        Oracle {
            adt: SetAdt::new(),
            keys: (0..keys)
                .map(|_| KeyHistory {
                    base: State::new(),
                    pending: Vec::new(),
                    inserted: 0,
                })
                .collect(),
            stamps: HashSet::new(),
            sealed: 0,
            recorded: 0,
        }
    }

    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Updates recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Record one issued update with the stamp the program assigned.
    pub fn record(
        &mut self,
        key: u64,
        clock: u64,
        pid: u32,
        update: SetUpdate<u32>,
    ) -> Result<(), String> {
        if clock <= self.sealed {
            return Err(format!(
                "key {key}: update stamped ({clock},{pid}) at or below the settled bound {}",
                self.sealed
            ));
        }
        if !self.stamps.insert((clock, pid)) {
            return Err(format!("stamp ({clock},{pid}) issued twice"));
        }
        let h = self
            .keys
            .get_mut(key as usize)
            .ok_or_else(|| format!("key {key} outside the workload's key space"))?;
        let (SetUpdate::Insert(v) | SetUpdate::Delete(v)) = update;
        if v >= VALUES {
            return Err(format!("key {key}: element {v} outside 0..{VALUES}"));
        }
        if let SetUpdate::Insert(v) = update {
            h.inserted |= 1u64 << v;
        }
        h.pending.push((clock, pid, update));
        self.recorded += 1;
        Ok(())
    }

    /// A read of `key` may only return elements some recorded update
    /// inserted into it.
    pub fn check_read(&self, key: u64, read: &State) -> Result<(), String> {
        let inserted = self.keys[key as usize].inserted;
        match read
            .iter()
            .find(|v| **v >= VALUES || inserted & (1u64 << **v) == 0)
        {
            None => Ok(()),
            Some(v) => Err(format!(
                "key {key}: read returned {v}, which no earlier update inserted"
            )),
        }
    }

    /// The state of `key` after every recorded update.
    pub fn fold(&self, key: u64) -> State {
        self.fold_at(key, u64::MAX)
    }

    /// The state of `key` after the recorded updates stamped at or
    /// below `cut`, folded in `(clock, pid)` order.
    pub fn fold_at(&self, key: u64, cut: u64) -> State {
        assert!(cut >= self.sealed, "cut {cut} below the sealed bound");
        let h = &self.keys[key as usize];
        let mut run: Vec<&(u64, u32, SetUpdate<u32>)> =
            h.pending.iter().filter(|(c, _, _)| *c <= cut).collect();
        run.sort_unstable_by_key(|(c, p, _)| (*c, *p));
        let mut state = h.base.clone();
        for (_, _, u) in run {
            self.adt.apply(&mut state, u);
        }
        state
    }

    /// Compare one replica's state of `key` with the fold.
    pub fn check_state(&self, who: &str, key: u64, got: &State) -> Result<(), String> {
        let want = self.fold(key);
        if &want == got {
            Ok(())
        } else {
            Err(format!(
                "{who}: key {key} holds {got:?}, the fold is {want:?}"
            ))
        }
    }

    /// Fold every recorded update into the bases. Call only once every
    /// replica holds every recorded update: each replica's clock is
    /// then at least every recorded stamp, so later updates are stamped
    /// above them (which [`Oracle::record`] checks).
    pub fn seal(&mut self) {
        let mut sealed = self.sealed;
        for h in &mut self.keys {
            h.pending.sort_unstable_by_key(|(c, p, _)| (*c, *p));
            for (c, _, u) in h.pending.drain(..) {
                sealed = sealed.max(c);
                self.adt.apply(&mut h.base, &u);
            }
        }
        self.sealed = sealed;
        self.stamps.clear();
    }
}

/// Hash a sequence of per-key states (std's SipHash with fixed keys,
/// so equal sequences digest equally across processes).
pub fn digest_states(states: impl IntoIterator<Item = State>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for s in states {
        s.hash(&mut h);
    }
    h.finish()
}

/// Published-snapshot epochs must never decrease per key.
pub struct EpochCheck {
    last: Vec<u64>,
}

impl EpochCheck {
    pub fn new(keys: usize) -> Self {
        EpochCheck {
            last: vec![0; keys],
        }
    }

    pub fn observe(&mut self, key: u64, epoch: u64) -> Result<(), String> {
        let last = &mut self.last[key as usize];
        if epoch < *last {
            return Err(format!(
                "key {key}: snapshot epoch fell from {last} to {epoch}"
            ));
        }
        *last = epoch;
        Ok(())
    }
}

/// Collects the first few check failures of a run.
#[derive(Default)]
pub struct Verdict {
    pub failures: u64,
    pub first: Vec<String>,
}

impl Verdict {
    pub fn note(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.failures += 1;
            if self.first.len() < 5 {
                self.first.push(e);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failures == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SetUpdate::{Delete, Insert};

    fn set(xs: &[u32]) -> State {
        xs.iter().copied().collect()
    }

    #[test]
    fn fold_follows_clock_then_pid_not_arrival() {
        let mut o = Oracle::new(2);
        // Recorded out of order: the fold must sort by (clock, pid).
        o.record(0, 2, 1, Insert(1)).unwrap();
        o.record(0, 2, 0, Delete(1)).unwrap();
        o.record(0, 1, 2, Insert(7)).unwrap();
        // (1,2) I7 · (2,0) D1 · (2,1) I1
        assert_eq!(o.fold(0), set(&[1, 7]));
        o.record(1, 1, 0, Insert(3)).unwrap();
        o.record(1, 3, 2, Delete(3)).unwrap();
        assert_eq!(o.fold(1), set(&[]));
    }

    #[test]
    fn cut_folds_only_the_prefix() {
        let mut o = Oracle::new(1);
        o.record(0, 1, 0, Insert(1)).unwrap();
        o.record(0, 4, 1, Insert(2)).unwrap();
        o.record(0, 5, 0, Delete(1)).unwrap();
        assert_eq!(o.fold_at(0, 0), set(&[]));
        assert_eq!(o.fold_at(0, 4), set(&[1, 2]));
        assert_eq!(o.fold_at(0, 5), set(&[2]));
    }

    #[test]
    fn reads_may_only_return_inserted_elements() {
        let mut o = Oracle::new(2);
        o.record(0, 1, 0, Insert(5)).unwrap();
        o.record(0, 2, 0, Delete(5)).unwrap();
        o.record(1, 3, 0, Delete(9)).unwrap();
        assert!(
            o.check_read(0, &set(&[5])).is_ok(),
            "a stale read is allowed"
        );
        assert!(o.check_read(0, &set(&[])).is_ok());
        assert!(o.check_read(0, &set(&[6])).is_err(), "6 was never inserted");
        assert!(
            o.check_read(1, &set(&[9])).is_err(),
            "a delete inserts nothing"
        );
        assert!(o.check_read(1, &set(&[VALUES])).is_err());
    }

    #[test]
    fn seal_keeps_the_fold_and_rejects_stamps_below_it() {
        let mut o = Oracle::new(1);
        o.record(0, 2, 1, Insert(1)).unwrap();
        o.record(0, 1, 0, Insert(2)).unwrap();
        o.seal();
        assert_eq!(o.fold(0), set(&[1, 2]));
        assert!(o.record(0, 2, 2, Delete(1)).is_err(), "at the sealed bound");
        o.record(0, 3, 0, Delete(1)).unwrap();
        assert_eq!(o.fold(0), set(&[2]));
        assert!(o.check_state("r0", 0, &set(&[2])).is_ok());
        assert!(o.check_state("r0", 0, &set(&[1, 2])).is_err());
    }

    #[test]
    fn a_stamp_carries_one_update() {
        let mut o = Oracle::new(2);
        o.record(0, 1, 0, Insert(1)).unwrap();
        assert!(o.record(1, 1, 0, Insert(2)).is_err());
        assert!(o.record(5, 2, 0, Insert(2)).is_err(), "unknown key");
        assert!(
            o.record(0, 3, 0, Insert(VALUES)).is_err(),
            "element out of range"
        );
    }

    #[test]
    fn epochs_never_decrease() {
        let mut e = EpochCheck::new(2);
        e.observe(0, 0).unwrap();
        e.observe(0, 3).unwrap();
        e.observe(0, 3).unwrap();
        e.observe(1, 1).unwrap();
        assert!(e.observe(0, 2).is_err());
    }

    #[test]
    fn digests_are_order_sensitive() {
        let a = digest_states([set(&[1]), set(&[])]);
        assert_eq!(a, digest_states([set(&[1]), set(&[])]));
        assert_ne!(a, digest_states([set(&[]), set(&[1])]));
    }

    #[test]
    fn verdict_counts_failures() {
        let mut v = Verdict::default();
        v.note(Ok(()));
        assert!(v.correct());
        v.note(Err("bad".into()));
        assert!(!v.correct());
        assert_eq!(v.first, vec!["bad".to_string()]);
    }
}
