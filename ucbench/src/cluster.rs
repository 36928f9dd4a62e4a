//! The replica stacks the two simulated workloads drive, in a plain
//! and a traced build of each.
//!
//! A plain node is exactly what a user composes; a traced node wraps
//! each layer of the same stack in a [`Span`] timer (and the storage
//! factory in a [`TracedFactory`]). Wrapping changes no behaviour, so
//! a traced and a plain pass on one seed end in identical states and
//! message counts — the run checks it.

use crate::oracle::Adt;
use crate::trace::{Span, TracedFactory};
use std::path::Path;
use uc_core::UcStore;
use uc_core::{BackendFactory, CheckpointFactory, MemFactory, StoreInput, StoreMsg, StoreOutput};
use uc_sim::{HeartbeatDetector, LinkMsg, LinkStats, Pid, Protocol, ReliableLink, RetryConfig};
use uc_spec::SetUpdate;
use uc_storage::SegmentFactory;

pub type Store<P> = UcStore<Adt, CheckpointFactory, P>;
pub type Wire = LinkMsg<StoreMsg<SetUpdate<u32>>>;

/// Shards per replica.
pub const SHARDS: usize = 4;
/// Checkpoint spacing of every key's engine.
pub const CHECKPOINT_EVERY: usize = 16;

/// Retry backoff of the lossy-partition tests
/// (`crates/core/tests/partition_heal.rs`), with a queue that holds a
/// round's traffic: a link that sheds fails the run's checks.
const RETRY: RetryConfig = RetryConfig {
    base: 40,
    max_backoff: 400,
    jitter: 9,
    queue_cap: 8192,
};
/// Missed ticks before the failure detector suspects a peer, as in the
/// same tests.
const MISS_THRESHOLD: u64 = 6;

/// One replica process of a simulated workload.
pub trait Node:
    Protocol<Msg = Wire, Input = StoreInput<Adt>, Output = StoreOutput<Adt>> + Sized
{
    type Persist: BackendFactory<Adt>;
    /// Whether the layers are wrapped in span timers.
    const TRACED: bool;

    /// The storage factory for a replica whose files live in `dir`
    /// (ignored by in-memory stacks).
    fn persist(dir: &Path) -> Self::Persist;
    fn wrap(store: Store<Self::Persist>, seed: u64) -> Self;
    fn store(&self) -> &Store<Self::Persist>;
    fn store_mut(&mut self) -> &mut Store<Self::Persist>;
    fn link_stats(&self) -> LinkStats;
    fn link_pending(&self, peer: Pid) -> usize;
    fn link_ahead(&self, peer: Pid) -> usize;
    fn down_verdicts(&self) -> u64 {
        0
    }
}

pub fn new_store<P: BackendFactory<Adt>>(pid: u32, persist: P) -> Store<P> {
    UcStore::with_persistence(
        Adt::new(),
        pid,
        SHARDS,
        CheckpointFactory {
            every: CHECKPOINT_EVERY,
        },
        persist,
    )
}

pub fn reopen_store<P: BackendFactory<Adt>>(pid: u32, persist: P) -> Store<P> {
    UcStore::reopen(
        Adt::new(),
        pid,
        SHARDS,
        CheckpointFactory {
            every: CHECKPOINT_EVERY,
        },
        persist,
    )
}

fn segments(dir: &Path) -> SegmentFactory {
    SegmentFactory::at(dir).expect("the benchmark's data directory is writable")
}

/// `ReliableLink<UcStore>` on in-memory backends.
pub type LossyPlain = ReliableLink<Store<MemFactory>>;
/// [`LossyPlain`] with the link and the store wrapped in timers.
pub type LossyTraced = Span<ReliableLink<Span<Store<MemFactory>>>>;
/// `ReliableLink<HeartbeatDetector<UcStore>>` on segment files.
pub type DurablePlain = ReliableLink<HeartbeatDetector<Store<SegmentFactory>>>;
/// [`DurablePlain`] with the link, detector, store, and storage
/// factory wrapped in timers.
pub type DurableTraced =
    Span<ReliableLink<Span<HeartbeatDetector<Span<Store<TracedFactory<SegmentFactory>>>>>>>;

impl Node for LossyPlain {
    type Persist = MemFactory;
    const TRACED: bool = false;

    fn persist(_: &Path) -> MemFactory {
        MemFactory
    }
    fn wrap(store: Store<MemFactory>, seed: u64) -> Self {
        ReliableLink::new(store, RETRY, seed)
    }
    fn store(&self) -> &Store<MemFactory> {
        self.inner()
    }
    fn store_mut(&mut self) -> &mut Store<MemFactory> {
        self.inner_mut()
    }
    fn link_stats(&self) -> LinkStats {
        self.stats()
    }
    fn link_pending(&self, peer: Pid) -> usize {
        self.pending_to(peer)
    }
    fn link_ahead(&self, peer: Pid) -> usize {
        self.ahead_len(peer)
    }
}

impl Node for LossyTraced {
    type Persist = MemFactory;
    const TRACED: bool = true;

    fn persist(_: &Path) -> MemFactory {
        MemFactory
    }
    fn wrap(store: Store<MemFactory>, seed: u64) -> Self {
        Span::new(ReliableLink::new(Span::new(store), RETRY, seed))
    }
    fn store(&self) -> &Store<MemFactory> {
        self.inner().inner().inner()
    }
    fn store_mut(&mut self) -> &mut Store<MemFactory> {
        self.inner_mut().inner_mut().inner_mut()
    }
    fn link_stats(&self) -> LinkStats {
        self.inner().stats()
    }
    fn link_pending(&self, peer: Pid) -> usize {
        self.inner().pending_to(peer)
    }
    fn link_ahead(&self, peer: Pid) -> usize {
        self.inner().ahead_len(peer)
    }
}

impl Node for DurablePlain {
    type Persist = SegmentFactory;
    const TRACED: bool = false;

    fn persist(dir: &Path) -> SegmentFactory {
        segments(dir)
    }
    fn wrap(store: Store<SegmentFactory>, seed: u64) -> Self {
        ReliableLink::new(HeartbeatDetector::new(store, MISS_THRESHOLD), RETRY, seed)
    }
    fn store(&self) -> &Store<SegmentFactory> {
        self.inner().inner()
    }
    fn store_mut(&mut self) -> &mut Store<SegmentFactory> {
        self.inner_mut().inner_mut()
    }
    fn link_stats(&self) -> LinkStats {
        self.stats()
    }
    fn link_pending(&self, peer: Pid) -> usize {
        self.pending_to(peer)
    }
    fn link_ahead(&self, peer: Pid) -> usize {
        self.ahead_len(peer)
    }
    fn down_verdicts(&self) -> u64 {
        self.inner().down_verdicts()
    }
}

impl Node for DurableTraced {
    type Persist = TracedFactory<SegmentFactory>;
    const TRACED: bool = true;

    fn persist(dir: &Path) -> Self::Persist {
        TracedFactory(segments(dir))
    }
    fn wrap(store: Store<Self::Persist>, seed: u64) -> Self {
        Span::new(ReliableLink::new(
            Span::new(HeartbeatDetector::new(Span::new(store), MISS_THRESHOLD)),
            RETRY,
            seed,
        ))
    }
    fn store(&self) -> &Store<Self::Persist> {
        self.inner().inner().inner().inner().inner()
    }
    fn store_mut(&mut self) -> &mut Store<Self::Persist> {
        self.inner_mut()
            .inner_mut()
            .inner_mut()
            .inner_mut()
            .inner_mut()
    }
    fn link_stats(&self) -> LinkStats {
        self.inner().stats()
    }
    fn link_pending(&self, peer: Pid) -> usize {
        self.inner().pending_to(peer)
    }
    fn link_ahead(&self, peer: Pid) -> usize {
        self.inner().ahead_len(peer)
    }
    fn down_verdicts(&self) -> u64 {
        self.inner().inner().inner().down_verdicts()
    }
}

/// Estimated wire bytes of one link message: the byte accounting the
/// simulator's `wire_bytes` figures rest on (fixed-width fields, no
/// compression).
pub fn wire_bytes(m: &Wire) -> u64 {
    const UPDATE: u64 = 8 + 8 + 4 + 5;
    match m {
        LinkMsg::Ack { .. } => 9,
        LinkMsg::Data { payload, .. } => {
            17 + match payload {
                StoreMsg::Update { .. } => UPDATE,
                StoreMsg::Heartbeat { .. } => 13,
                StoreMsg::Repair { updates } => 8 + updates.len() as u64 * UPDATE,
                StoreMsg::RepairChunk { updates, .. } => 25 + updates.len() as u64 * UPDATE,
                StoreMsg::DigestRequest { digests, .. } => 32 + digests.len() as u64 * 16,
                StoreMsg::DigestResponse { mismatched, .. } => 24 + mismatched.len() as u64 * 4,
                StoreMsg::RepairAck { .. } => 16,
            }
        }
    }
}
