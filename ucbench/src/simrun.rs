//! The two workloads on the deterministic simulator: `lossy_mixed`
//! and `partition_durable`.
//!
//! A run is a sequence of passes. A pass sets up three replicas
//! (timed), then drives a fixed number of rounds. A round rebuilds the
//! `Simulation` around the same nodes (fresh link topology and
//! partition schedule, empty invocation record), issues its operations
//! at the times `uc_sim::generate_keyed` scheduled them, and settles:
//! it keeps ticking until every link is drained, no heal session is
//! open, and no peer is suspected — the point where every replica
//! holds every update. Every time is the CPU time of the one thread
//! running the simulation; per-operation latencies are wall-clock
//! reads around each `invoke_now`. After a round (untimed), every
//! output is checked against the [`Oracle`] and every replica's state
//! of every key against its fold.

use crate::clock::{Meter, Stopwatch};
use crate::cluster::{new_store, reopen_store, wire_bytes, Node, Store};
use crate::oracle::{digest_states, Oracle, State};
use crate::report::Outcome;
use crate::trace::{self, span, Kind};
use crate::workload::{keyed, set_update, Keys};
use std::path::Path;
use std::time::Instant;
use uc_core::{StoreInput, StoreMsg, StoreOutput};
use uc_criteria::online::MonitorConfig;
use uc_sim::{DeliveryMode, LinkModel, Pid, SimConfig, Simulation, SplitMix64, Topology};
use uc_spec::{SetQuery, SetUpdate};

/// Replicas per cluster.
pub const REPLICAS: usize = 3;
/// The simulator coalesces deliveries onto this time grid.
const BATCH_WINDOW: u64 = 2;
/// Settle ticks after which a round is declared stuck (a failed check).
const SETTLE_LIMIT: usize = 20_000;
/// Operations each replica issues per round.
const ROUND_OPS_PER_REPLICA: usize = 1_400;
/// Simulated time between two ticks of every replica, as in the
/// lossy-partition tests (`crates/core/tests/partition_heal.rs`).
const TICK: u64 = 50;
/// Preloaded updates are delivered to the other replicas in bursts of
/// this many per origin.
const PRELOAD_BURST: usize = 256;

/// The make-up of one simulated workload.
pub struct Spec {
    pub keys: Keys,
    /// Share of operations that are updates (the rest are reads).
    pub update_share: f64,
    /// Updates issued by each replica, and applied to every replica,
    /// during set-up.
    pub preload_per_replica: usize,
    pub rounds_per_pass: usize,
    pub link: LinkModel,
    /// Per round, one replica is cut off from the others over this
    /// share of the round's operation window.
    pub outage: Option<(f64, f64)>,
    /// Share of keys the attached `OnlineMonitor` shadows.
    pub monitor_rate: Option<f64>,
    /// Segment files: the timed set-up is a restart (every replica
    /// dropped and reopened from its files), and every pass ends by
    /// reopening one of them.
    pub durable: bool,
}

/// A call into the simulator, inside a span on traced stacks.
#[inline]
fn sim_call<N: Node, R>(f: impl FnOnce() -> R) -> R {
    if N::TRACED {
        span(Kind::Sim, f)
    } else {
        f()
    }
}

/// What a pass leaves for the traced-versus-plain comparison.
#[derive(Debug, PartialEq, Eq)]
pub struct PassDigest {
    /// Digest of replica 0's state of every key.
    pub states: u64,
    /// Messages the simulator carried over the pass's rounds.
    pub messages: u64,
}

/// A durable cluster carried from one pass to the next: its replicas
/// (every store flushed) and the oracle of its whole history.
pub struct Carry<N> {
    nodes: Vec<N>,
    oracle: Oracle,
}

/// Run one pass on `seed`, its files (if any) under `dir`.
///
/// A durable pass hands its cluster on: the next pass restarts it from
/// its files instead of building and preloading a new one. On durable
/// stacks the timed set-up is that restart alone — for a fresh cluster
/// the restart right after its untimed build and preload — so file
/// creation and the preload never enter `setup_s` there.
pub fn run_pass<N: Node>(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    carry: Option<Carry<N>>,
    out: &mut Outcome,
) -> (PassDigest, Option<Carry<N>>) {
    let mut rng = SplitMix64::new(seed);

    if N::TRACED {
        trace::begin(Kind::Setup);
    }
    let mut sw = Stopwatch::start(Meter::Thread);
    let (mut nodes, mut oracle, preload) = match carry {
        Some(c) => (c.nodes, c.oracle, Vec::new()),
        None => {
            let (nodes, preload) = setup::<N>(spec, seed, dir, &mut rng);
            (nodes, Oracle::new(spec.keys.count), preload)
        }
    };
    if spec.durable {
        sw = Stopwatch::start(Meter::Thread);
        nodes = restart::<N>(nodes, seed, dir);
    }
    let setup_ns = sw.ns();
    if N::TRACED {
        trace::end();
    }
    out.figures.setup_s.push(setup_ns as f64 / 1e9);
    for (key, clock, pid, u) in preload {
        out.verdict.note(oracle.record(key, clock, pid, u));
    }
    for (pid, node) in nodes.iter_mut().enumerate() {
        check_replica(node.store_mut(), pid, &oracle, out);
    }
    oracle.seal();

    let mut messages = 0;
    for r in 0..spec.rounds_per_pass {
        let (next, sent) = round(spec, nodes, r, &mut rng, &mut oracle, out);
        nodes = next;
        messages += sent;
    }
    out.passes += 1;
    let keys = spec.keys.count as u64;
    let states = digest_states((0..keys).map(|k| nodes[0].store_mut().materialize_key(k)));
    let nodes = finish_pass(spec, nodes, seed, dir, &oracle, out);
    let carry = spec.durable.then_some(Carry { nodes, oracle });
    (PassDigest { states, messages }, carry)
}

/// Stop every replica (each flushed) and reopen all three from their
/// files.
fn restart<N: Node>(nodes: Vec<N>, seed: u64, dir: &Path) -> Vec<N> {
    drop(nodes);
    (0..REPLICAS)
        .map(|pid| {
            let store = reopen::<N>(pid, &dir.join(format!("p{pid}")));
            N::wrap(store, seed ^ (pid as u64 + 1))
        })
        .collect()
}

/// Updates issued during set-up: `(key, clock, pid, update)`.
type Preload = Vec<(u64, u64, u32, SetUpdate<u32>)>;

/// Build the replicas and apply the preload to all of them; durable
/// stacks then flush every replica.
fn setup<N: Node>(spec: &Spec, seed: u64, dir: &Path, rng: &mut SplitMix64) -> (Vec<N>, Preload) {
    let replica_dir = |pid: usize| dir.join(format!("p{pid}"));
    let mut stores: Vec<Store<N::Persist>> = (0..REPLICAS)
        .map(|pid| new_store(pid as u32, N::persist(&replica_dir(pid))))
        .collect();
    if let Some(rate) = spec.monitor_rate {
        for s in &mut stores {
            s.attach_monitor(
                MonitorConfig::sampled(rate)
                    .with_peers(0..REPLICAS as u32)
                    .with_seed(seed),
            );
        }
    }
    let ops = keyed(
        spec.keys,
        REPLICAS,
        spec.preload_per_replica,
        1.0,
        rng.next_u64(),
    );
    let mut issued = Vec::with_capacity(ops.len());
    let mut outbox: Vec<Vec<StoreMsg<SetUpdate<u32>>>> = vec![Vec::new(); REPLICAS];
    for (i, op) in ops.iter().enumerate() {
        let pid = op.pid as usize;
        let u = set_update(op.kind).expect("the preload holds only updates");
        let m = stores[pid].update(op.key, u);
        if let StoreMsg::Update { msg, .. } = &m {
            issued.push((op.key, msg.ts.clock, msg.ts.pid, u));
        }
        outbox[pid].push(m);
        if (i + 1) % PRELOAD_BURST == 0 || i + 1 == ops.len() {
            for (origin, pending) in outbox.iter_mut().enumerate() {
                let burst = std::mem::take(pending);
                for (dest, store) in stores.iter_mut().enumerate() {
                    if dest != origin {
                        store.apply_batch(&burst);
                    }
                }
            }
        }
    }
    if spec.durable {
        for s in &mut stores {
            s.flush_backends();
        }
    }
    let nodes = stores
        .into_iter()
        .enumerate()
        .map(|(pid, s)| N::wrap(s, seed ^ (pid as u64 + 1)))
        .collect();
    (nodes, issued)
}

fn reopen<N: Node>(pid: usize, dir: &Path) -> Store<N::Persist> {
    let open = || reopen_store(pid as u32, N::persist(dir));
    if N::TRACED {
        span(Kind::StoreReopen, open)
    } else {
        open()
    }
}

/// Compare one replica's state of every key with the oracle's fold.
fn check_replica<P: uc_core::BackendFactory<crate::oracle::Adt>>(
    store: &mut Store<P>,
    pid: usize,
    oracle: &Oracle,
    out: &mut Outcome,
) {
    let who = format!("replica {pid}");
    for key in 0..oracle.key_count() as u64 {
        let got: State = store.materialize_key(key);
        out.verdict.note(oracle.check_state(&who, key, &got));
    }
}

/// Every link drained, no heal session open, no peer suspected.
fn settled<N: Node>(sim: &Simulation<N>) -> bool {
    (0..REPLICAS as Pid).all(|p| {
        let node = sim.process(p);
        let store = node.store();
        (0..REPLICAS as Pid).all(|q| node.link_pending(q) == 0 && node.link_ahead(q) == 0)
            && store.heal_sessions().next().is_none()
            && store.partition().down_count() == 0
    })
}

/// One round; returns the nodes and the messages the simulator sent.
fn round<N: Node>(
    spec: &Spec,
    nodes: Vec<N>,
    r: usize,
    rng: &mut SplitMix64,
    oracle: &mut Oracle,
    out: &mut Outcome,
) -> (Vec<N>, u64) {
    let ops = keyed(
        spec.keys,
        REPLICAS,
        ROUND_OPS_PER_REPLICA,
        spec.update_share,
        rng.next_u64(),
    );
    let horizon = ops.last().map_or(0, |op| op.time) + 1;
    let mut it = nodes.into_iter();
    let cfg = SimConfig {
        n: REPLICAS,
        seed: rng.next_u64(),
        latency: spec.link.latency.clone(),
        fifo_links: false,
    };
    let mut sim = Simulation::new(cfg, |_| it.next().expect("one node per pid"));
    let mut topo = Topology::uniform(REPLICAS, spec.link.clone());
    if let Some((from, to)) = spec.outage {
        let isolated = (r % REPLICAS) as Pid;
        let rest = (0..REPLICAS as Pid).filter(|p| *p != isolated).collect();
        let at = |share: f64| (share * horizon as f64) as u64;
        topo.partition(vec![vec![isolated], rest], at(from), at(to));
    }
    sim.set_topology(topo);
    sim.set_delivery_mode(DeliveryMode::Batched {
        window: BATCH_WINDOW,
    });
    sim.set_msg_size(wire_bytes);
    sim.schedule_ticks(TICK, horizon);
    let mut outs = Vec::with_capacity(ops.len());
    let (mut updates, mut reads) = (Vec::new(), Vec::new());
    let mut ahead_max = 0;

    let sw = Stopwatch::start(Meter::Thread);
    if N::TRACED {
        trace::begin(Kind::Round);
    }
    for op in &ops {
        sim_call::<N, _>(|| sim.run_until(op.time));
        let update = set_update(op.kind);
        let input = match update {
            Some(u) => StoreInput::Update(op.key, u),
            None => StoreInput::Query(op.key, SetQuery::Read),
        };
        let t0 = Instant::now();
        let o = sim_call::<N, _>(|| sim.invoke_now(op.pid, input));
        let ns = t0.elapsed().as_nanos() as u64;
        if update.is_some() {
            updates.push(ns);
        } else {
            reads.push(ns);
        }
        outs.push(o);
        if N::TRACED {
            let node = sim.process(op.pid);
            for q in 0..REPLICAS as Pid {
                ahead_max = ahead_max.max(node.link_ahead(q));
            }
        }
    }
    let settle_from = sw.ns();
    let mut stuck = true;
    for _ in 0..SETTLE_LIMIT {
        sim_call::<N, _>(|| sim.run_to_quiescence());
        if settled(&sim) {
            stuck = false;
            break;
        }
        let t = sim.now() + TICK;
        for p in 0..REPLICAS as Pid {
            sim.schedule_tick(t, p);
        }
    }
    if N::TRACED {
        trace::end();
    }
    let round_ns = sw.ns();
    out.rounds += 1;
    out.figures.round(
        ops.len(),
        round_ns,
        round_ns - settle_from,
        &updates,
        &reads,
    );
    if stuck {
        out.verdict.note(Err(format!(
            "round {r} did not settle within {SETTLE_LIMIT} ticks"
        )));
    }

    for (op, o) in ops.iter().zip(outs) {
        match (set_update(op.kind), o) {
            (Some(u), Some(StoreOutput::Ack { key, ts })) if key == op.key && ts.pid == op.pid => {
                out.attempt("update", true);
                out.add("updates", 1.0);
                out.verdict.note(oracle.record(key, ts.clock, ts.pid, u));
            }
            (None, Some(StoreOutput::Value { key, out: read })) if key == op.key => {
                out.attempt("read", true);
                out.verdict.note(oracle.check_read(key, &read));
            }
            (u, _) => out.attempt(if u.is_some() { "update" } else { "read" }, false),
        }
    }
    for pid in 0..REPLICAS {
        check_replica(sim.process_mut(pid as Pid).store_mut(), pid, oracle, out);
    }
    oracle.seal();

    let m = &sim.metrics;
    let sent = m.messages_sent;
    out.add("sim.messages", sent as f64);
    out.add("sim.bytes", m.bytes_sent as f64);
    out.add(
        "sim.activations",
        (m.delivery_activations + m.invocations) as f64,
    );
    out.max("link.ahead_max", ahead_max as f64);
    (sim.into_processes(), sent)
}

/// Tally the layers' own counters and check the monitor. On durable
/// stacks, flush every replica (a clean stop), then stop one of them,
/// reopen it from its files, and check it.
fn finish_pass<N: Node>(
    spec: &Spec,
    mut nodes: Vec<N>,
    seed: u64,
    dir: &Path,
    oracle: &Oracle,
    out: &mut Outcome,
) -> Vec<N> {
    for (pid, node) in nodes.iter().enumerate() {
        let st = node.link_stats();
        out.add("link.retransmits", st.retransmits as f64);
        out.add(
            "link.duplicates_suppressed",
            st.duplicates_suppressed as f64,
        );
        out.add("link.gaps_skipped", st.gaps_skipped as f64);
        out.add("detector.down_verdicts", node.down_verdicts() as f64);
        let store = node.store();
        out.add("heal.chunks", store.heal_chunks() as f64);
        out.add("heal.digest_skips", store.heal_digest_skips() as f64);
        out.add("heal.replay_bytes", store.heal_replay_bytes() as f64);
        out.add("engine.log_entries", store.total_log_len() as f64);
        out.add("engine.repair_events", store.total_repair_events() as f64);
        out.add("engine.repair_steps", store.total_repair_steps() as f64);
        if let Some(stats) = store.monitor_stats() {
            out.add("monitor.sampled_updates", stats.sampled_updates as f64);
            if !stats.clean() {
                out.verdict.note(Err(format!(
                    "replica {pid}: the online monitor reported {} violations",
                    stats.total_violations()
                )));
            }
        }
        if st.shed > 0 {
            out.verdict.note(Err(format!(
                "replica {pid}: the reliable link shed {} messages",
                st.shed
            )));
        }
    }
    if spec.durable {
        for node in &mut nodes {
            node.store_mut().flush_backends();
        }
        let pid = (seed % REPLICAS as u64) as usize;
        drop(nodes.remove(pid));
        let sw = Stopwatch::start(Meter::Thread);
        let mut store = reopen::<N>(pid, &dir.join(format!("p{pid}")));
        out.add("storage.reopen_ns", sw.ns() as f64);
        out.add("storage.reopens", 1.0);
        check_replica(&mut store, pid, oracle, out);
        nodes.insert(pid, N::wrap(store, seed ^ (pid as u64 + 1)));
        out.add("storage.disk_bytes", dir_bytes(dir) as f64);
        out.add("storage.updates", oracle.recorded() as f64);
    }
    nodes
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
