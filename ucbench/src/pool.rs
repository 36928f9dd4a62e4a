//! The `pool_read_heavy` workload: one `IngestPool` with one worker
//! thread, fed by the benchmark thread — two threads in all, pinned to
//! one vCPU by the caller (see `run_pool` in `main.rs`).
//!
//! Each round the benchmark thread issues a pre-generated mix: about
//! 80% wait-free `query_snapshot` reads, 10% local `PoolHandle::update`s,
//! and 10% peer updates submitted in bursts. The peer stream is
//! displaced by `uc_sim::perturb_order`, as the pool bench does, so the
//! worker ingests out of order and repairs. The round ends with
//! a `flush`. After the flush, untimed: a cut at the clock the round
//! had reached half-way must equal the fold of the updates stamped at
//! or below it, and a cut at the current clock the fold of them all. A
//! pass ends by `finish`ing the pool and checking the returned store.
//!
//! Round and set-up times are the CPU time of both threads (see
//! `clock`); per-operation latencies are wall-clock. The settle is the
//! worker's CPU time over the round — what the flush drain costs when
//! the worker only starts at the flush. How much of that work runs
//! before the flush depends on when the scheduler lets the worker in;
//! the total does not.

use crate::clock::{Meter, Stopwatch};
use crate::cluster::new_store;
use crate::oracle::{digest_states, Adt, EpochCheck, Oracle, State};
use crate::report::Outcome;
use crate::simrun::PassDigest;
use crate::trace::{self, span, Kind};
use crate::workload::{keyed, set_update, Keys};
use std::time::Instant;
use uc_core::CheckpointFactory;
use uc_core::{
    Backpressure, IngestPool, MemFactory, PoolConfig, PoolHandle, StoreMsg, Timestamp, UpdateMsg,
};
use uc_sim::{perturb_order, SplitMix64};
use uc_spec::{SetQuery, SetUpdate};

/// Peers whose bursts the pool ingests (the pool itself is pid 0).
const PEERS: [u32; 2] = [1, 2];

/// Key popularity, as in the pool bench (`crates/bench/benches/pool.rs`).
const KEYS: Keys = Keys {
    count: 512,
    alpha: 1.1,
};
/// A round: 80% reads, 10% local updates, 10% peer updates.
const OPS_PER_ROUND: usize = 8_000;
const PEER_OPS_PER_ROUND: usize = OPS_PER_ROUND / 10;
/// Share of the local process's operations that are updates.
const LOCAL_UPDATE_RATIO: f64 = 1.0 / 9.0;
const BURST_LEN: usize = 32;
/// Share of the peer stream `perturb_order` displaces, as in the pool
/// bench.
const OOO_RATE: f64 = 0.15;
/// Peer updates submitted (and flushed) during set-up.
const PRELOAD: usize = 50_000;
const ROUNDS_PER_PASS: usize = 16;
const QUEUE_DEPTH: usize = 4_096;

type Pool = IngestPool<Adt, CheckpointFactory, MemFactory>;
type Handle = PoolHandle<Adt, MemFactory>;
/// A peer update: `(key, clock, pid, update)`.
type Stamped = (u64, u64, u32, SetUpdate<u32>);

enum Op {
    Read(u64),
    Local(u64, SetUpdate<u32>),
    Burst(Vec<Stamped>),
}

enum Done {
    Read(u64, u64, State),
    Local(u64, SetUpdate<u32>, Option<Timestamp>),
    Burst(Vec<Stamped>, bool),
}

#[inline]
fn pool_call<const TRACED: bool, R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if TRACED {
        span(kind, f)
    } else {
        f()
    }
}

/// `n` peer updates (`n / PEERS.len()` from each peer), stamped
/// strictly above `floor`: a peer's stamps are `floor + 1` plus the
/// times the generator scheduled its updates at, so they rise by 1–2
/// per update. The stream is displaced by `perturb_order`, then cut
/// into bursts of `BURST_LEN`.
fn peer_bursts(n: usize, floor: u64, rng: &mut SplitMix64) -> Vec<Vec<Stamped>> {
    let mut stream: Vec<Stamped> = keyed(KEYS, PEERS.len(), n / PEERS.len(), 1.0, rng.next_u64())
        .into_iter()
        .map(|op| {
            let u = set_update(op.kind).expect("peer streams hold only updates");
            (op.key, floor + 1 + op.time, PEERS[op.pid as usize], u)
        })
        .collect();
    perturb_order(&mut stream, OOO_RATE, rng.next_u64());
    stream.chunks(BURST_LEN).map(<[Stamped]>::to_vec).collect()
}

fn to_msgs(burst: &[Stamped]) -> Vec<StoreMsg<SetUpdate<u32>>> {
    burst
        .iter()
        .map(|&(key, clock, pid, update)| StoreMsg::Update {
            key,
            msg: UpdateMsg {
                ts: Timestamp::new(clock, pid),
                update,
            },
        })
        .collect()
}

pub fn run_pass<const TRACED: bool>(seed: u64, out: &mut Outcome) -> PassDigest {
    let mut rng = SplitMix64::new(seed);
    let keys = KEYS.count;
    let mut oracle = Oracle::new(keys);
    let mut epochs = EpochCheck::new(keys);
    let preload = peer_bursts(PRELOAD, 0, &mut rng);
    let msgs: Vec<_> = preload.iter().map(|b| to_msgs(b)).collect();

    let sw = Stopwatch::start(Meter::Process);
    if TRACED {
        trace::begin(Kind::Setup);
    }
    let mut pool: Pool = pool_call::<TRACED, _>(Kind::PoolOther, || {
        new_store(0, MemFactory).into_pool(PoolConfig {
            workers: 1,
            queue_depth: QUEUE_DEPTH,
            backpressure: Backpressure::Park,
        })
    });
    let handle = pool.handle();
    let mut ok = true;
    for m in msgs {
        ok &= pool_call::<TRACED, _>(Kind::PoolSubmit, || handle.submit_batch(m)).is_ok();
    }
    ok &= pool_call::<TRACED, _>(Kind::PoolFlush, || pool.flush()).is_ok();
    if TRACED {
        trace::end();
    }
    out.figures.setup_s.push(sw.ns() as f64 / 1e9);
    for burst in preload {
        for (key, clock, pid, u) in burst {
            out.attempt("peer_update", ok);
            out.verdict.note(oracle.record(key, clock, pid, u));
        }
    }
    check_cut::<TRACED>(&handle, None, &oracle, out);
    oracle.seal();

    for _ in 0..ROUNDS_PER_PASS {
        round::<TRACED>(&mut pool, &handle, &mut rng, &mut oracle, &mut epochs, out);
    }

    let stats = pool.stats();
    out.add("pool.batches", stats.total_batches() as f64);
    out.max("pool.queue_high_water", stats.max_queue_high_water() as f64);
    out.add(
        "pool.snapshots_published",
        stats.total_snapshots_published() as f64,
    );
    let messages = stats.total_messages();
    let finished = pool_call::<TRACED, _>(Kind::PoolOther, || pool.finish());
    out.passes += 1;
    match finished {
        Ok(mut store) => {
            let who = "pool store after finish";
            for key in 0..keys as u64 {
                out.verdict
                    .note(oracle.check_state(who, key, &store.materialize_key(key)));
            }
            out.add("engine.log_entries", store.total_log_len() as f64);
            out.add("engine.repair_events", store.total_repair_events() as f64);
            out.add("engine.repair_steps", store.total_repair_steps() as f64);
            PassDigest {
                states: digest_states((0..keys as u64).map(|k| store.materialize_key(k))),
                messages,
            }
        }
        Err(e) => {
            out.verdict.note(Err(format!("pool finish failed: {e}")));
            PassDigest {
                states: 0,
                messages,
            }
        }
    }
}

/// Take a cut at `cut` (default: the current clock) and compare every
/// key with the fold of the updates stamped at or below it.
fn check_cut<const TRACED: bool>(
    handle: &Handle,
    cut: Option<u64>,
    oracle: &Oracle,
    out: &mut Outcome,
) {
    let at = cut.unwrap_or_else(|| handle.clock());
    match pool_call::<TRACED, _>(Kind::PoolCut, || handle.snapshot_at(at)) {
        Ok(snap) => {
            let empty = State::new();
            for key in 0..oracle.key_count() as u64 {
                let got = snap.state(key).unwrap_or(&empty);
                let want = oracle.fold_at(key, at);
                if got != &want {
                    out.verdict.note(Err(format!(
                        "cut at {at}: key {key} holds {got:?}, the fold is {want:?}"
                    )));
                }
            }
        }
        Err(e) => out.verdict.note(Err(format!("cut at {at} failed: {e}"))),
    }
}

#[allow(clippy::too_many_arguments)]
fn round<const TRACED: bool>(
    pool: &mut Pool,
    handle: &Handle,
    rng: &mut SplitMix64,
    oracle: &mut Oracle,
    epochs: &mut EpochCheck,
    out: &mut Outcome,
) {
    // The local process's reads and updates, with the peer bursts
    // spread evenly between them.
    let bursts = peer_bursts(PEER_OPS_PER_ROUND, handle.clock(), rng);
    let local = keyed(
        KEYS,
        1,
        OPS_PER_ROUND - PEER_OPS_PER_ROUND,
        LOCAL_UPDATE_RATIO,
        rng.next_u64(),
    );
    let every = (local.len() / bursts.len().max(1)).max(1);
    let mut bursts = bursts.into_iter();
    let mut ops = Vec::with_capacity(OPS_PER_ROUND);
    for (i, op) in local.iter().enumerate() {
        ops.push(match set_update(op.kind) {
            Some(u) => Op::Local(op.key, u),
            None => Op::Read(op.key),
        });
        if (i + 1) % every == 0 {
            ops.extend(bursts.next().map(Op::Burst));
        }
    }
    ops.extend(bursts.map(Op::Burst));
    let half = ops.len() / 2;
    let mut cut = 0;
    let mut done = Vec::with_capacity(ops.len());
    let (mut updates, mut reads) = (Vec::new(), Vec::new());

    let sw = Stopwatch::start(Meter::Process);
    let main = Stopwatch::start(Meter::Thread);
    if TRACED {
        trace::begin(Kind::Round);
    }
    for (i, op) in ops.into_iter().enumerate() {
        if i == half {
            cut = handle.clock();
        }
        match op {
            Op::Read(key) => {
                let t0 = Instant::now();
                let (epoch, set) = pool_call::<TRACED, _>(Kind::PoolRead, || {
                    handle.query_snapshot_versioned(key, &SetQuery::Read)
                });
                reads.push(t0.elapsed().as_nanos() as u64);
                done.push(Done::Read(key, epoch, set));
            }
            Op::Local(key, u) => {
                let t0 = Instant::now();
                let r = pool_call::<TRACED, _>(Kind::PoolUpdate, || handle.update(key, u));
                updates.push(t0.elapsed().as_nanos() as u64);
                let ts = match r {
                    Ok(StoreMsg::Update { msg, .. }) => Some(msg.ts),
                    _ => None,
                };
                done.push(Done::Local(key, u, ts));
            }
            Op::Burst(burst) => {
                let msgs = to_msgs(&burst);
                let ok =
                    pool_call::<TRACED, _>(Kind::PoolSubmit, || handle.submit_batch(msgs)).is_ok();
                done.push(Done::Burst(burst, ok));
            }
        }
    }
    let flushed = pool_call::<TRACED, _>(Kind::PoolFlush, || pool.flush()).is_ok();
    if TRACED {
        trace::end();
    }
    let round_ns = sw.ns();
    let worker_ns = round_ns.saturating_sub(main.ns());
    out.rounds += 1;
    out.attempt("flush", flushed);
    out.figures
        .round(OPS_PER_ROUND, round_ns, worker_ns, &updates, &reads);

    for d in done {
        match d {
            Done::Read(key, epoch, set) => {
                out.attempt("read", true);
                out.verdict.note(epochs.observe(key, epoch));
                out.verdict.note(oracle.check_read(key, &set));
            }
            Done::Local(key, u, ts) => {
                out.attempt("update", ts.is_some());
                out.add("updates", 1.0);
                if let Some(ts) = ts {
                    out.verdict.note(oracle.record(key, ts.clock, ts.pid, u));
                }
            }
            Done::Burst(burst, ok) => {
                out.add("pool.submitted", burst.len() as f64);
                for (key, clock, pid, u) in burst {
                    out.attempt("peer_update", ok);
                    if ok {
                        out.verdict.note(oracle.record(key, clock, pid, u));
                    }
                }
            }
        }
    }
    check_cut::<TRACED>(handle, Some(cut), oracle, out);
    check_cut::<TRACED>(handle, None, oracle, out);
    oracle.seal();
}
