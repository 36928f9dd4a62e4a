//! The traced run's span recorder and the delegating wrappers that
//! feed it.
//!
//! Spans are recorded from the benchmark's own files only: a
//! [`Span`] protocol wrapper goes around each protocol layer (outside
//! the reliable link, around the failure detector, around the store),
//! [`TracedFactory`]/[`TracedBackend`] go around the storage backend,
//! and the workloads wrap their calls into the simulator and the pool
//! with [`span`]. Every span has a kind (and through it a layer), a
//! start, an end, and a parent. A layer's self time is its spans'
//! durations minus the parts their child spans cover; it is folded as
//! each span closes, and the first [`MAX_KEPT`] spans are kept in
//! memory and written out when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;
use uc_core::{BackendFactory, Key, LogBackend, StoreInput, StoreMsg, Timestamp, UcStore};
use uc_sim::{Ctx, HeartbeatDetector, MembershipInput, Pid, Protocol, ReliableLink};
use uc_spec::UqAdt;

/// Spans kept for the trace file.
pub const MAX_KEPT: usize = 200_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Sim,
    Link,
    Detector,
    Store,
    Storage,
    Pool,
}

#[cfg(test)]
const LAYERS: [Layer; 7] = [
    Layer::Bench,
    Layer::Sim,
    Layer::Link,
    Layer::Detector,
    Layer::Store,
    Layer::Storage,
    Layer::Pool,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Sim => "sim",
            Layer::Link => "link",
            Layer::Detector => "detector",
            Layer::Store => "store",
            Layer::Storage => "storage",
            Layer::Pool => "pool",
        }
    }
}

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One measured round (the root of its spans).
    Round,
    /// One set-up.
    Setup,
    /// A call from the benchmark into the simulator.
    Sim,
    Link,
    Detector,
    StoreUpdate,
    StoreQuery,
    /// Peer traffic carrying updates or heartbeats.
    StoreIngest,
    /// Membership verdicts and heal frames (digests, chunks, acks).
    StoreHeal,
    StoreTick,
    /// `UcStore::reopen` from files.
    StoreReopen,
    StorageAppend,
    StorageFlush,
    StorageCompact,
    /// Opening, recovering, and streaming backends.
    StorageRead,
    PoolUpdate,
    PoolSubmit,
    PoolRead,
    PoolFlush,
    PoolCut,
    /// Spawning, finishing, and the other pool calls.
    PoolOther,
}

pub const KINDS: usize = 21;

impl Kind {
    pub fn layer(self) -> Layer {
        use Kind::*;
        match self {
            Round | Setup => Layer::Bench,
            Sim => Layer::Sim,
            Link => Layer::Link,
            Detector => Layer::Detector,
            StoreUpdate | StoreQuery | StoreIngest | StoreHeal | StoreTick | StoreReopen => {
                Layer::Store
            }
            StorageAppend | StorageFlush | StorageCompact | StorageRead => Layer::Storage,
            PoolUpdate | PoolSubmit | PoolRead | PoolFlush | PoolCut | PoolOther => Layer::Pool,
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

struct Open {
    kind: Kind,
    id: u32,
    parent: u32,
    start: u64,
    child_ns: u64,
}

/// Per-kind totals plus the bounded span sample of one traced run.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u32,
    /// Inclusive time per kind.
    pub incl_ns: [u64; KINDS],
    /// Self time per kind (children subtracted).
    pub self_ns: [u64; KINDS],
    pub calls: [u64; KINDS],
    /// Time covered by root spans (the traced wall time: every span's
    /// self time falls inside exactly one root span).
    pub root_ns: u64,
    /// Messages handed to the store per ingest call, summed.
    pub store_msgs: u64,
    /// Backend flushes, and those that had appends pending.
    pub flushes: u64,
    pub flushes_with_appends: u64,
    /// Digest requests the stores received (one per heal session,
    /// plus re-sends of stalled ones).
    pub digest_requests: u64,
    /// `(id, parent, kind, start_ns, end_ns)`.
    kept: Vec<(u32, u32, Kind, u64, u64)>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::new(),
            next_id: 1,
            incl_ns: [0; KINDS],
            self_ns: [0; KINDS],
            calls: [0; KINDS],
            root_ns: 0,
            store_msgs: 0,
            flushes: 0,
            flushes_with_appends: 0,
            digest_requests: 0,
            kept: Vec::new(),
        }
    }

    fn enter(&mut self, kind: Kind) {
        let parent = self.stack.last().map_or(0, |o| o.id);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(Open {
            kind,
            id,
            parent,
            start,
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end - open.start;
        let k = open.kind.idx();
        self.incl_ns[k] += dur;
        self.self_ns[k] += dur.saturating_sub(open.child_ns);
        self.calls[k] += 1;
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.root_ns += dur,
        }
        if self.kept.len() < MAX_KEPT {
            self.kept
                .push((open.id, open.parent, open.kind, open.start, end));
        }
    }

    /// Self time per layer, in nanoseconds.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        ALL_KINDS
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|k| self.self_ns[k.idx()])
            .sum()
    }

    pub fn incl(&self, kind: Kind) -> u64 {
        self.incl_ns[kind.idx()]
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.calls[kind.idx()]
    }

    /// The kept spans as tab-separated lines.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tlayer\tkind\tstart_ns\tend_ns\n");
        for (id, parent, kind, start, end) in &self.kept {
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{kind:?}\t{start}\t{end}",
                kind.layer().name()
            );
        }
        out
    }
}

const ALL_KINDS: [Kind; KINDS] = {
    use Kind::*;
    [
        Round,
        Setup,
        Sim,
        Link,
        Detector,
        StoreUpdate,
        StoreQuery,
        StoreIngest,
        StoreHeal,
        StoreTick,
        StoreReopen,
        StorageAppend,
        StorageFlush,
        StorageCompact,
        StorageRead,
        PoolUpdate,
        PoolSubmit,
        PoolRead,
        PoolFlush,
        PoolCut,
        PoolOther,
    ]
};

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (replacing any earlier recorder).
pub fn install() {
    REC.with(|r| *r.borrow_mut() = Some(Recorder::new()));
}

/// Stop recording on this thread and return what was recorded.
pub fn take() -> Option<Recorder> {
    REC.with(|r| r.borrow_mut().take())
}

/// Run `f` inside a span of `kind` when a recorder is installed on
/// this thread; otherwise just run it.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    begin(kind);
    let out = f();
    end();
    out
}

/// Open a span of `kind` (closed by [`end`]) when a recorder is
/// installed on this thread.
pub fn begin(kind: Kind) {
    with(|r| r.enter(kind));
}

/// Close the span [`begin`] opened.
pub fn end() {
    with(|r| r.exit());
}

/// Run `f` with the installed recorder, if any.
pub fn with(f: impl FnOnce(&mut Recorder)) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// How a wrapped protocol layer's calls map to span kinds.
pub trait Layered: Protocol {
    fn invoke_kind(input: &Self::Input) -> Kind;
    fn message_kind(msg: &Self::Msg) -> Kind;
    fn tick_kind() -> Kind;
    /// Messages a store-level ingest call carries (0 above the store).
    fn store_msgs(_n: usize) -> u64 {
        0
    }
    /// Whether `msg` opens (or re-opens) a heal session at its
    /// receiver.
    fn is_digest_request(_msg: &Self::Msg) -> bool {
        false
    }
}

impl<P: Protocol> Layered for ReliableLink<P> {
    fn invoke_kind(_: &Self::Input) -> Kind {
        Kind::Link
    }
    fn message_kind(_: &Self::Msg) -> Kind {
        Kind::Link
    }
    fn tick_kind() -> Kind {
        Kind::Link
    }
}

impl<P> Layered for HeartbeatDetector<P>
where
    P: Protocol,
    P::Input: MembershipInput,
{
    fn invoke_kind(_: &Self::Input) -> Kind {
        Kind::Detector
    }
    fn message_kind(_: &Self::Msg) -> Kind {
        Kind::Detector
    }
    fn tick_kind() -> Kind {
        Kind::Detector
    }
}

impl<A, F, P> Layered for UcStore<A, F, P>
where
    A: UqAdt + Clone,
    F: uc_core::StrategyFactory<A>,
    P: BackendFactory<A>,
{
    fn invoke_kind(input: &StoreInput<A>) -> Kind {
        match input {
            StoreInput::Update(..) => Kind::StoreUpdate,
            StoreInput::Query(..) | StoreInput::Snapshot(..) => Kind::StoreQuery,
            StoreInput::PeerDown(..) | StoreInput::PeerUp(..) => Kind::StoreHeal,
        }
    }
    fn message_kind(msg: &StoreMsg<A::Update>) -> Kind {
        match msg {
            StoreMsg::Update { .. } | StoreMsg::Heartbeat { .. } => Kind::StoreIngest,
            _ => Kind::StoreHeal,
        }
    }
    fn tick_kind() -> Kind {
        Kind::StoreTick
    }
    fn store_msgs(n: usize) -> u64 {
        n as u64
    }
    fn is_digest_request(msg: &StoreMsg<A::Update>) -> bool {
        matches!(msg, StoreMsg::DigestRequest { .. })
    }
}

/// A delegating timer around one protocol layer: every [`Protocol`]
/// method, including the ones with default bodies, forwards to the
/// wrapped layer inside a span.
pub struct Span<P> {
    inner: P,
}

impl<P> Span<P> {
    pub fn new(inner: P) -> Self {
        Span { inner }
    }
    pub fn inner(&self) -> &P {
        &self.inner
    }
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: Layered> Protocol for Span<P> {
    type Msg = P::Msg;
    type Input = P::Input;
    type Output = P::Output;

    fn on_invoke(&mut self, input: Self::Input, ctx: &mut Ctx<'_, Self::Msg>) -> Self::Output {
        span(P::invoke_kind(&input), || self.inner.on_invoke(input, ctx))
    }

    fn on_message(&mut self, from: Pid, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        let kind = P::message_kind(&msg);
        if kind == Kind::StoreIngest {
            with(|r| r.store_msgs += P::store_msgs(1));
        } else if P::is_digest_request(&msg) {
            with(|r| r.digest_requests += 1);
        }
        span(kind, || self.inner.on_message(from, msg, ctx))
    }

    fn on_batch(&mut self, msgs: Vec<(Pid, Self::Msg)>, ctx: &mut Ctx<'_, Self::Msg>) {
        let kind = msgs
            .iter()
            .map(|(_, m)| P::message_kind(m))
            .find(|k| *k != Kind::StoreHeal)
            .or_else(|| msgs.first().map(|(_, m)| P::message_kind(m)))
            .unwrap_or(Kind::StoreIngest);
        if kind == Kind::StoreIngest {
            with(|r| r.store_msgs += P::store_msgs(msgs.len()));
        }
        let requests = msgs.iter().filter(|(_, m)| P::is_digest_request(m)).count();
        if requests > 0 {
            with(|r| r.digest_requests += requests as u64);
        }
        span(kind, || self.inner.on_batch(msgs, ctx))
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        span(P::tick_kind(), || self.inner.on_tick(ctx))
    }
}

/// A delegating timer around a [`BackendFactory`]: forwards every
/// method, including the defaulted ones (`list_keys`, `open_all`,
/// `bind_replica`, `load_store_clock`, `persist_store_clock`), and
/// wraps each backend it opens.
#[derive(Clone, Debug)]
pub struct TracedFactory<F>(pub F);

impl<A: UqAdt, F: BackendFactory<A>> BackendFactory<A> for TracedFactory<F> {
    type Backend = TracedBackend<F::Backend>;

    fn open(&self, shard: usize, key: Key) -> Self::Backend {
        span(Kind::StorageRead, || {
            TracedBackend::new(self.0.open(shard, key))
        })
    }

    fn list_keys(&self, shard: usize) -> Vec<Key> {
        span(Kind::StorageRead, || self.0.list_keys(shard))
    }

    fn open_all(&self, shard: usize) -> Vec<(Key, Self::Backend)> {
        span(Kind::StorageRead, || {
            self.0
                .open_all(shard)
                .into_iter()
                .map(|(k, b)| (k, TracedBackend::new(b)))
                .collect()
        })
    }

    fn bind_replica(&self, pid: u32, shards: usize, fresh: bool) {
        span(Kind::StorageRead, || {
            self.0.bind_replica(pid, shards, fresh)
        })
    }

    fn load_store_clock(&self) -> u64 {
        span(Kind::StorageRead, || self.0.load_store_clock())
    }

    fn persist_store_clock(&self, clock: u64) {
        span(Kind::StorageFlush, || self.0.persist_store_clock(clock))
    }
}

/// A delegating timer around one key's [`LogBackend`]; it also tracks
/// whether a flush had appends pending (the useful-flush ratio).
#[derive(Debug)]
pub struct TracedBackend<B> {
    inner: B,
    dirty: bool,
}

impl<B> TracedBackend<B> {
    fn new(inner: B) -> Self {
        TracedBackend {
            inner,
            dirty: false,
        }
    }
}

impl<A: UqAdt, B: LogBackend<A>> LogBackend<A> for TracedBackend<B> {
    fn append(&mut self, ts: Timestamp, u: &A::Update) {
        self.dirty = true;
        span(Kind::StorageAppend, || self.inner.append(ts, u))
    }

    fn append_batch(&mut self, entries: &[(Timestamp, A::Update)]) {
        self.dirty |= !entries.is_empty();
        span(Kind::StorageAppend, || self.inner.append_batch(entries))
    }

    fn truncate_to_base(&mut self, bound: u64, state: &A::State, tail: &[(Timestamp, A::Update)]) {
        self.dirty = false;
        span(Kind::StorageCompact, || {
            self.inner.truncate_to_base(bound, state, tail)
        })
    }

    fn flush(&mut self, clock: u64) {
        let useful = std::mem::take(&mut self.dirty);
        with(|r| {
            r.flushes += 1;
            r.flushes_with_appends += u64::from(useful);
        });
        span(Kind::StorageFlush, || self.inner.flush(clock))
    }

    fn load_base(&mut self) -> Option<(u64, A::State)> {
        span(Kind::StorageRead, || self.inner.load_base())
    }

    fn scan_suffix(&mut self) -> Vec<(Timestamp, A::Update)> {
        span(Kind::StorageRead, || self.inner.scan_suffix())
    }

    fn clock_watermark(&self) -> u64 {
        self.inner.clock_watermark()
    }

    fn stream_suffix(&mut self, since: u64) -> Option<Vec<(Timestamp, A::Update)>> {
        self.dirty = false;
        span(Kind::StorageRead, || self.inner.stream_suffix(since))
    }

    fn stream_suffix_window(
        &mut self,
        since: u64,
        after: Option<Timestamp>,
        limit: usize,
    ) -> Option<(Vec<(Timestamp, A::Update)>, bool)> {
        self.dirty = false;
        span(Kind::StorageRead, || {
            self.inner.stream_suffix_window(since, after, limit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        install();
        span(Kind::Round, || {
            span(Kind::Sim, || {
                span(Kind::Link, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let rec = take().expect("installed");
        let round = rec.incl(Kind::Round);
        let link = rec.incl(Kind::Link);
        assert!(link >= 2_000_000);
        assert!(round >= rec.incl(Kind::Sim) && rec.incl(Kind::Sim) >= link);
        // Self times of the three nested spans add up to the root.
        let total: u64 = LAYERS.iter().map(|l| rec.layer_self_ns(*l)).sum();
        assert_eq!(total, round);
        assert_eq!(rec.root_ns, round);
        assert_eq!(rec.count(Kind::Sim), 1);
        assert!(rec.spans_tsv().lines().count() == 4);
    }

    #[test]
    fn spans_without_a_recorder_just_run() {
        assert!(take().is_none());
        assert_eq!(span(Kind::Round, || 7), 7);
    }
}
