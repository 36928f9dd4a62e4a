//! `ucbench` — the end-to-end and per-layer benchmark of the replica
//! stack. See README.md in this directory for the workloads, metrics,
//! and how to read the figures.
//!
//! ```text
//! cargo run --release --manifest-path ucbench/Cargo.toml -- \
//!     --workload lossy_mixed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is the result
//! with the end-to-end metrics; with `--trace 1` it carries the
//! per-layer ledger instead.

mod clock;
mod cluster;
mod oracle;
mod pool;
mod report;
mod simrun;
mod stats;
mod trace;
mod workload;

use cluster::{DurablePlain, DurableTraced, LossyPlain, LossyTraced, Node};
use report::{result_json, Metric, Outcome};
use simrun::{Carry, PassDigest, Spec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Kind, Layer, Recorder};
use uc_sim::{LatencyModel, LinkModel, SplitMix64};
use workload::Keys;

const WORKLOADS: [&str; 3] = ["lossy_mixed", "partition_durable", "pool_read_heavy"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err("--seconds must be within 1..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

// Key counts and skews come from the repository's keyed specs:
// `KeyedWorkloadSpec::default()` (64 keys, key zipf 1.0) for
// `lossy_mixed`, the persistence/partition benches (256 keys, 1.1) for
// `partition_durable`. The links are those of the lossy-partition tests
// in `crates/core/tests/partition_heal.rs`: 10% loss without a detector,
// 8% with one. README.md gives the reasons for the rest.

fn lossy_spec() -> Spec {
    Spec {
        keys: Keys {
            count: 64,
            alpha: 1.0,
        },
        update_share: 0.5,
        preload_per_replica: 6_000,
        rounds_per_pass: 12,
        link: LinkModel::lossy(LatencyModel::Uniform(2, 9), 0.10),
        outage: None,
        monitor_rate: Some(0.05),
        durable: false,
    }
}

fn durable_spec() -> Spec {
    Spec {
        keys: Keys {
            count: 256,
            alpha: 1.1,
        },
        update_share: 0.9,
        preload_per_replica: 20_000,
        rounds_per_pass: 6,
        link: LinkModel::lossy(LatencyModel::Uniform(2, 9), 0.08),
        outage: Some((0.5, 1.0)),
        monitor_rate: None,
        durable: true,
    }
}

/// The seed of pass `i` of a run on `seed`.
fn pass_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Where passes keep their files: inside the working directory (the
/// checkout), one directory per process, removed when the run ends.
fn data_root() -> PathBuf {
    Path::new(".bench_data").join(format!("ucbench-{}", std::process::id()))
}

/// Passes until `seconds` have elapsed (at least one).
fn passes(seconds: u64, seed: u64, mut pass: impl FnMut(u64) -> PassDigest) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0;
    loop {
        pass(pass_seed(seed, i));
        i += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// What a traced run adds to its outcome.
struct Traced {
    rec: Recorder,
    /// The median ops/s of the untraced twin passes.
    plain_ops_per_s: f64,
}

/// Passes a durable cluster is carried through before the next pass
/// starts a fresh one. Carrying spares most passes the untimed build
/// and preload; the cap keeps the carried history, hence memory,
/// bounded whatever the run length.
const CHAIN: usize = 3;

/// The passes of one stack, its files under `dir`.
struct Chain<N> {
    dir: PathBuf,
    carry: Option<Carry<N>>,
    chained: usize,
}

impl<N: Node> Chain<N> {
    fn new(dir: PathBuf) -> Self {
        Chain {
            dir,
            carry: None,
            chained: 0,
        }
    }

    fn pass(&mut self, spec: &Spec, seed: u64, out: &mut Outcome) -> PassDigest {
        if self.chained == CHAIN {
            self.carry = None;
            self.chained = 0;
            let _ = std::fs::remove_dir_all(&self.dir);
        }
        let (digest, next) = simrun::run_pass::<N>(spec, seed, &self.dir, self.carry.take(), out);
        self.carry = next;
        self.chained += 1;
        digest
    }
}

/// One run of passes. With tracing, every traced pass is followed by
/// the same pass untraced: both must end with identical state digests
/// and message counts, and the two sets of rounds, interleaved in
/// time, give the tracing overhead.
fn run(
    args: &Args,
    out: &mut Outcome,
    mut plain: impl FnMut(u64, &mut Outcome) -> PassDigest,
    mut traced: impl FnMut(u64, &mut Outcome) -> PassDigest,
) -> Option<Traced> {
    if !args.trace {
        passes(args.seconds, args.seed, |s| plain(s, out));
        return None;
    }
    trace::install();
    let mut untraced = Outcome::default();
    passes(args.seconds, args.seed, |s| {
        let got = traced(s, out);
        let want = plain(s, &mut untraced);
        out.verdict.note(compare(&want, &got));
        got
    });
    let rec = trace::take().expect("installed above");
    let share = attributed_share(&rec);
    if share < ATTRIBUTED_MIN {
        out.verdict.note(Err(format!(
            "the layers' self times account for {share:.3} of the traced wall time, \
             below the stated tolerance of {ATTRIBUTED_MIN}"
        )));
    }
    out.verdict
        .note(untraced.verdict.first.first().cloned().map_or(Ok(()), Err));
    Some(Traced {
        rec,
        plain_ops_per_s: stats::median(&mut untraced.figures.ops_per_s),
    })
}

/// The least share of the traced wall time the layers' self times must
/// account for; the rest is the benchmark's own loop.
const ATTRIBUTED_MIN: f64 = 0.8;

fn attributed_share(rec: &Recorder) -> f64 {
    let wall = rec.root_ns as f64;
    if wall > 0.0 {
        1.0 - rec.layer_self_ns(Layer::Bench) as f64 / wall
    } else {
        0.0
    }
}

fn run_sim<P: Node, T: Node>(spec: &Spec, args: &Args, out: &mut Outcome) -> Option<Traced> {
    let root = data_root();
    let mut plain = Chain::<P>::new(root.join("plain"));
    let mut traced = Chain::<T>::new(root.join("traced"));
    let result = run(
        args,
        out,
        |s, out| plain.pass(spec, s, out),
        |s, out| traced.pass(spec, s, out),
    );
    drop((plain, traced));
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_data");
    result
}

fn run_pool(args: &Args, out: &mut Outcome) -> Option<Traced> {
    // Both threads share one vCPU. Whether the hypervisor runs this
    // VM's two vCPUs at once changed from minute to minute on the host
    // the benchmark was built on, and with it every pool figure (by
    // 25-100% between two sets of runs). Pinned, the worker and the
    // benchmark thread still hand work over through the inbox, wake-ups
    // and barriers, but never run simultaneously.
    match clock::pin_to_one_cpu() {
        Some(cpu) => println!("# pool threads pinned to cpu {cpu}"),
        None => println!("# pool threads not pinned: affinity calls failed"),
    }
    run(args, out, pool::run_pass::<false>, pool::run_pass::<true>)
}

fn compare(plain: &PassDigest, traced: &PassDigest) -> Result<(), String> {
    if plain == traced {
        Ok(())
    } else {
        Err(format!(
            "the traced pass diverged from the untraced one: {traced:?} vs {plain:?}"
        ))
    }
}

/// The per-layer ledger of a traced run. Times are per measured round
/// (`ms/round`) unless the unit says otherwise; counts likewise.
fn per_layer(out: &mut Outcome, t: &Traced) -> Vec<Metric> {
    let rec = &t.rec;
    let traced_ops = stats::median(&mut out.figures.ops_per_s);
    let rounds = out.rounds.max(1) as f64;
    let passes = out.passes.max(1) as f64;
    let ms = |ns: f64| ns / 1e6 / rounds;
    let per_call_us = |k: Kind| {
        let c = rec.count(k);
        if c == 0 {
            0.0
        } else {
            rec.incl(k) as f64 / c as f64 / 1e3
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let g = |k: &str| out.get(k);
    let updates = g("updates");
    let self_ms = |l: Layer| ms(rec.layer_self_ns(l) as f64);
    let wall = rec.root_ns as f64;
    let sessions = rec.digest_requests as f64;
    let slots =
        sessions * (cluster::SHARDS as f64) * f64::from(uc_core::HealConfig::default().ranges);
    vec![
        Metric::new("sim.self_ms", self_ms(Layer::Sim), "ms/round"),
        Metric::new(
            "sim.activations",
            g("sim.activations") / rounds,
            "count/round",
        ),
        Metric::new(
            "sim.wire_msgs_per_update",
            ratio(g("sim.messages"), updates),
            "msgs/update",
        ),
        Metric::new(
            "sim.wire_bytes_per_update",
            ratio(g("sim.bytes"), updates),
            "B/update",
        ),
        Metric::new("link.self_ms", self_ms(Layer::Link), "ms/round"),
        Metric::new(
            "link.retransmits",
            g("link.retransmits") / rounds,
            "count/round",
        ),
        Metric::new(
            "link.duplicates_suppressed",
            g("link.duplicates_suppressed") / rounds,
            "count/round",
        ),
        Metric::new(
            "link.gaps_skipped",
            g("link.gaps_skipped") / rounds,
            "count/round",
        ),
        Metric::new("link.ahead_max", g("link.ahead_max"), "count"),
        Metric::new("detector.self_ms", self_ms(Layer::Detector), "ms/round"),
        Metric::new(
            "detector.down_verdicts",
            g("detector.down_verdicts") / rounds,
            "count/round",
        ),
        Metric::new("store.self_ms", self_ms(Layer::Store), "ms/round"),
        Metric::new("store.update_us", per_call_us(Kind::StoreUpdate), "us"),
        Metric::new("store.query_us", per_call_us(Kind::StoreQuery), "us"),
        Metric::new(
            "store.ingest_ms",
            ms(rec.incl(Kind::StoreIngest) as f64),
            "ms/round",
        ),
        Metric::new(
            "store.msgs_per_batch",
            ratio(rec.store_msgs as f64, rec.count(Kind::StoreIngest) as f64),
            "msgs/call",
        ),
        Metric::new(
            "store.tick_ms",
            ms(rec.incl(Kind::StoreTick) as f64),
            "ms/round",
        ),
        Metric::new(
            "engine.repair_events",
            g("engine.repair_events") / rounds,
            "count/round",
        ),
        Metric::new(
            "engine.repair_steps_per_update",
            ratio(g("engine.repair_steps"), updates),
            "steps/update",
        ),
        Metric::new(
            "engine.log_entries",
            g("engine.log_entries") / passes,
            "count",
        ),
        Metric::new("heal.sessions", sessions / rounds, "count/round"),
        Metric::new("heal.chunks", g("heal.chunks") / rounds, "count/round"),
        Metric::new(
            "heal.digest_skip_ratio",
            ratio(g("heal.digest_skips"), slots),
            "ratio",
        ),
        Metric::new(
            "heal.replay_bytes",
            g("heal.replay_bytes") / rounds,
            "B/round",
        ),
        Metric::new(
            "heal.busy_ms",
            ms(rec.incl(Kind::StoreHeal) as f64),
            "ms/round",
        ),
        Metric::new("storage.self_ms", self_ms(Layer::Storage), "ms/round"),
        Metric::new(
            "storage.append_ms",
            ms(rec.incl(Kind::StorageAppend) as f64),
            "ms/round",
        ),
        Metric::new(
            "storage.flush_ms",
            ms(rec.incl(Kind::StorageFlush) as f64),
            "ms/round",
        ),
        Metric::new(
            "storage.flush_calls",
            rec.flushes as f64 / rounds,
            "count/round",
        ),
        Metric::new(
            "storage.useful_flush_ratio",
            ratio(rec.flushes_with_appends as f64, rec.flushes as f64),
            "ratio",
        ),
        Metric::new(
            "storage.compactions",
            rec.count(Kind::StorageCompact) as f64 / rounds,
            "count/round",
        ),
        Metric::new(
            "storage.reopen_ms",
            ratio(g("storage.reopen_ns"), g("storage.reopens")) / 1e6,
            "ms",
        ),
        Metric::new(
            "storage.disk_bytes_per_update",
            ratio(g("storage.disk_bytes"), g("storage.updates")),
            "B/update",
        ),
        Metric::new("pool.self_ms", self_ms(Layer::Pool), "ms/round"),
        Metric::new("pool.update_us", per_call_us(Kind::PoolUpdate), "us"),
        Metric::new(
            "pool.submit_us_per_msg",
            ratio(rec.incl(Kind::PoolSubmit) as f64 / 1e3, g("pool.submitted")),
            "us/msg",
        ),
        Metric::new("pool.flush_ms", per_call_us(Kind::PoolFlush) / 1e3, "ms"),
        Metric::new("pool.cut_ms", per_call_us(Kind::PoolCut) / 1e3, "ms"),
        Metric::new("pool.batches", g("pool.batches") / rounds, "count/round"),
        Metric::new("pool.queue_high_water", g("pool.queue_high_water"), "count"),
        Metric::new(
            "pool.snapshots_published",
            g("pool.snapshots_published") / rounds,
            "count/round",
        ),
        Metric::new(
            "monitor.sampled_updates",
            g("monitor.sampled_updates") / rounds,
            "count/round",
        ),
        Metric::new("trace.wall_ms", ms(wall), "ms/round"),
        Metric::new("trace.attributed_share", attributed_share(rec), "ratio"),
        Metric::new(
            "trace.overhead_pct",
            (ratio(t.plain_ops_per_s, traced_ops) - 1.0) * 100.0,
            "%",
        ),
    ]
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ucbench: {e}");
            eprintln!(
                "usage: ucbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# ucbench workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev()
    );
    let mut out = Outcome::default();
    let traced = match args.workload.as_str() {
        "lossy_mixed" => run_sim::<LossyPlain, LossyTraced>(&lossy_spec(), &args, &mut out),
        "partition_durable" => {
            run_sim::<DurablePlain, DurableTraced>(&durable_spec(), &args, &mut out)
        }
        _ => run_pool(&args, &mut out),
    };
    let peak = clock::peak_rss_mb();
    for (kind, [attempted, failed]) in &out.kinds {
        println!("# ops {kind}: attempted={attempted} failed={failed}");
    }
    println!(
        "# passes={} rounds={} latency_samples update={} read={} check_failures={}",
        out.passes,
        out.rounds,
        out.figures.updates.samples,
        out.figures.reads.samples,
        out.verdict.failures
    );
    for f in &out.verdict.first {
        eprintln!("ucbench: check failed: {f}");
    }
    let metrics = match &traced {
        Some(t) => {
            let spans = Path::new(".bench_out");
            if std::fs::create_dir_all(spans).is_ok() {
                let file = spans.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
                let _ = std::fs::write(&file, t.rec.spans_tsv());
            }
            per_layer(&mut out, t)
        }
        None => out.end_to_end(peak),
    };
    println!(
        "{}",
        result_json(
            out.verdict.correct(),
            out.attempted(),
            out.failed(),
            &metrics
        )
    );
}
