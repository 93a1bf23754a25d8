//! The three workloads, one per driver of the repository, all against
//! `Protocol::SafeGuess` (SWARM-KV). One call runs one *round*: build,
//! preload and plan (set-up), run every op with the history recorded, and
//! read the deterministic simulated results and counters.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use swarm_core::KvHistory;
use swarm_fabric::{Fabric, TrafficStats};
use swarm_kv::{
    plan_workload, run_scenario, run_sharded_plan, run_workload, value_tag, CacheCapacity,
    HistoryRecorder, KvStore, Protocol, RunConfig, ScenarioRunConfig, ShardMode, ShardRunOptions,
    ShardSpec, StoreBuilder, StoreClient,
};
use swarm_sim::{Histogram, Sim, SimCounters, SimRng};
use swarm_workload::{
    scenario_value, OpType, ScenarioMix, ScenarioOpClass, ScenarioSpec, ValueSizeDist, Workload,
    WorkloadSpec, Zipfian,
};

use crate::trace::{ratio, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    YcsbBWarm,
    YcsbAContended,
    ShardedCold,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::YcsbBWarm, Kind::YcsbAContended, Kind::ShardedCold];

    pub fn name(self) -> &'static str {
        match self {
            Kind::YcsbBWarm => "ycsb_b_warm",
            Kind::YcsbAContended => "ycsb_a_contended",
            Kind::ShardedCold => "sharded_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Per-layer metrics this workload's driver keeps out of reach of an
    /// outside observer (they read 0): the planned driver builds its `Sim`s
    /// and clients internally.
    pub fn unreadable(self, metric: &str) -> bool {
        match self {
            Kind::ShardedCold => matches!(
                metric,
                "sim.events_per_op"
                    | "sim.polls_per_op"
                    | "sim.boxed_events_per_op"
                    | "sim.host_ns_per_event"
                    | "fabric.rtts_per_op"
                    | "fabric.series_per_op"
                    | "fabric.client_cpu_util"
                    | "core.get_1rtt_frac"
                    | "core.update_1rtt_frac"
                    | "kv.get_host_ns"
                    | "kv.update_host_ns"
                    | "kv.cache_hit_ratio"
            ),
            _ => metric == "workload.plan_s",
        }
    }

    /// Seeds each run pools, derived from its `--seed`: the common-case
    /// tail depends on per-seed draws (clock offsets, jitter), so pooling
    /// seeds narrows the run-to-run spread of the simulated metrics.
    pub fn sub_seeds(self) -> usize {
        match self {
            Kind::YcsbBWarm | Kind::YcsbAContended => 6,
            Kind::ShardedCold => 3,
        }
    }

    /// Loaded keys (for `kv.load_ns_per_key`).
    pub fn keys(self) -> u64 {
        match self {
            Kind::YcsbBWarm => B_KEYS,
            Kind::YcsbAContended => A_KEYS,
            Kind::ShardedCold => S_KEYS,
        }
    }

    /// Every parameter of the workload, for the run manifest.
    pub fn describe(self) -> String {
        match self {
            Kind::YcsbBWarm => format!(
                "driver=run_workload protocol=SafeGuess mix=YCSB-B(95/5) zipf=0.99 keys={B_KEYS} \
                 value_bytes=64 clients={B_CLIENTS} meta_bufs={B_CLIENTS} cache=unbounded \
                 warmup_ops={B_WARMUP} measure_ops={B_MEASURE} threads=1"
            ),
            Kind::YcsbAContended => format!(
                "driver=run_scenario protocol=SafeGuess mix=YCSB-A(50/50) zipf=0.99 keys={A_KEYS} \
                 value_bytes={A_VALUE} clients={A_CLIENTS} meta_bufs={A_CLIENTS} cache=unbounded \
                 ops={A_OPS} threads=1"
            ),
            Kind::ShardedCold => format!(
                "driver=plan_workload+run_sharded_plan protocol=SafeGuess mix=YCSB-B(95/5) \
                 keys={S_KEYS}(uniform) value_bytes=64 shards={S_SHARDS} routers={S_ROUTERS} \
                 meta_bufs={S_ROUTERS} cache_entries_per_client={S_CACHE} warmup_ops={S_WARMUP} \
                 measure_ops={S_MEASURE} mode=Threads({S_THREADS})"
            ),
        }
    }
}

const B_KEYS: u64 = 100_000;
const B_CLIENTS: usize = 4;
const B_WARMUP: u64 = 100_000;
const B_MEASURE: u64 = 100_000;

const A_KEYS: u64 = 1_024;
const A_VALUE: usize = 1_024;
const A_CLIENTS: usize = 16;
const A_OPS: usize = 50_000;

const S_KEYS: u64 = 1 << 18;
const S_SHARDS: usize = 4;
const S_ROUTERS: usize = 8;
/// About 5% of the keyspace per client.
const S_CACHE: usize = (S_KEYS / 20) as usize;
const S_WARMUP: u64 = 20_000;
const S_MEASURE: u64 = 400_000;
pub const S_THREADS: usize = 2;

/// Version of the bulk-loaded scenario values: the stream's own versions
/// count up from 0, so the initial tags never collide with a write's.
const A_INITIAL_VERSION: u64 = u64::MAX;

/// The measured latencies of one op class, in simulated ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_ns: f64,
    pub p999_ns: f64,
    pub samples: usize,
    /// Samples strictly above the p99.9 sample.
    pub beyond: usize,
}

impl Latency {
    pub fn of(h: &Histogram) -> Latency {
        let mut h = h.clone();
        if h.is_empty() {
            return Latency {
                p50_ns: 0.0,
                p999_ns: 0.0,
                samples: 0,
                beyond: 0,
            };
        }
        let n = h.len();
        let count_at_most = |h: &mut Histogram, v: u64| (h.fraction_at_most(v) * n as f64).round();
        // Latencies are whole ns, and thousands of samples share each ns
        // near the median, so the sample quantile barely moves between
        // seeds. The grouped-data quantile (each ns a bin of width 1,
        // interpolated within the bin) keeps the sub-ns information.
        let mut quantile = |q: f64| {
            let v = h.percentile(q * 100.0);
            let below = if v == 0 {
                0.0
            } else {
                count_at_most(&mut h, v - 1)
            };
            let at = count_at_most(&mut h, v) - below;
            v as f64 - 0.5 + ((q * n as f64 - below) / at).clamp(0.0, 1.0)
        };
        let (p50_ns, p999_ns) = (quantile(0.5), quantile(0.999));
        let p999 = h.p999();
        Latency {
            p50_ns,
            p999_ns,
            samples: n,
            beyond: n - count_at_most(&mut h, p999) as usize,
        }
    }
}

/// A round's simulated results: the measured ops' latencies and the
/// simulated window they ran in. Deterministic in the round's seed.
#[derive(Debug, Clone, Default)]
pub struct SimResults {
    pub get: Histogram,
    pub update: Histogram,
    pub measured_ops: u64,
    pub window_ns: u64,
}

impl SimResults {
    fn of(
        get: Histogram,
        update: Histogram,
        measured_ops: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        SimResults {
            get,
            update,
            measured_ops,
            window_ns: end_ns.saturating_sub(start_ns),
        }
    }

    /// Pools another round's results into these.
    pub fn add(&mut self, other: &SimResults) {
        self.get.merge(&other.get);
        self.update.merge(&other.update);
        self.measured_ops += other.measured_ops;
        self.window_ns += other.window_ns;
    }

    /// Measured ops per simulated ms, i.e. kops per simulated second.
    pub fn sim_kops(&self) -> f64 {
        ratio(self.measured_ops as f64 * 1e6, self.window_ns as f64)
    }

    /// What two rounds of one seed must agree on bit for bit.
    pub fn summary(&self) -> (Latency, Latency, u64, u64) {
        (
            Latency::of(&self.get),
            Latency::of(&self.update),
            self.measured_ops,
            self.window_ns,
        )
    }
}

/// Raw per-layer counts of a round's run phase: deterministic in the seed.
/// A count a workload's driver keeps out of reach stays 0 (see
/// `Kind::unreadable`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Counters {
    pub ops: u64,
    pub events: u64,
    pub polls: u64,
    pub boxed_events: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub rtts: u64,
    pub series: u64,
    /// Sum over clients of each client CPU's simulated utilization.
    pub cpu_util_sum: f64,
    pub clients: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shard_ops: Vec<u64>,
    pub shard_msgs: Vec<u64>,
}

impl Counters {
    /// Pools another round's counts into these.
    pub fn add(&mut self, o: &Counters) {
        self.ops += o.ops;
        self.events += o.events;
        self.polls += o.polls;
        self.boxed_events += o.boxed_events;
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.rtts += o.rtts;
        self.series += o.series;
        self.cpu_util_sum += o.cpu_util_sum;
        self.clients += o.clients;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.shard_ops
            .resize(o.shard_ops.len().max(self.shard_ops.len()), 0);
        for (a, b) in self.shard_ops.iter_mut().zip(&o.shard_ops) {
            *a += b;
        }
        self.shard_msgs
            .resize(o.shard_msgs.len().max(self.shard_msgs.len()), 0);
        for (a, b) in self.shard_msgs.iter_mut().zip(&o.shard_msgs) {
            *a += b;
        }
    }

    /// `n` per op.
    pub fn per_op(&self, n: u64) -> f64 {
        ratio(n as f64, self.ops as f64)
    }
}

/// `max / mean` of per-shard loads.
pub fn imbalance(loads: &[u64]) -> f64 {
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    ratio(loads.iter().copied().max().unwrap_or(0) as f64, mean)
}

/// Host-time spans of one round's set-up, split by layer (traced rounds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSpans {
    pub build_s: f64,
    pub load_s: f64,
    pub plan_s: f64,
    pub gen_s: f64,
}

/// One round of a workload.
pub struct Round {
    /// Host seconds before the first op: build, preload, planning.
    pub setup_s: f64,
    /// Host seconds of the run phase (warm-up plus measured ops).
    pub run_s: f64,
    /// Set-up time the run-phase call repeats and `run_s` subtracts:
    /// `sharded_cold`'s driver preloads inside the same call.
    pub overlap_s: f64,
    pub sim: SimResults,
    pub counters: Counters,
    pub histories: Vec<KvHistory>,
    pub spans: SetupSpans,
}

impl Round {
    /// Ops the run phase attempted (warm-up plus measured).
    pub fn ops(&self) -> u64 {
        self.counters.ops
    }
}

/// Runs `f`, inside a span named `name` when traced, and returns its host
/// seconds.
fn phase<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    };
    (out, t.elapsed().as_secs_f64())
}

/// The tag each key of `kind` was bulk-loaded with.
pub fn initial_tags(kind: Kind) -> impl Fn(u64) -> u64 {
    let wl = (kind != Kind::YcsbAContended).then(|| b_workload(kind));
    move |key| match &wl {
        Some(wl) => value_tag(&wl.value_for(key, 0)),
        None => value_tag(&scenario_value(key, A_INITIAL_VERSION, 8)),
    }
}

fn b_workload(kind: Kind) -> Workload {
    match kind {
        Kind::ShardedCold => Workload {
            spec: WorkloadSpec::B,
            keys: Zipfian::uniform(S_KEYS),
            value_size: 64,
        },
        _ => Workload::ycsb(WorkloadSpec::B, B_KEYS, 64),
    }
}

/// Runs one round of `kind`. `tr` traces it; `mode` applies to
/// `sharded_cold` only.
pub fn round(kind: Kind, seed: u64, tr: Option<&Tracer>, mode: ShardMode) -> Round {
    match tr {
        Some(t) => t.span("round", || run_round(kind, seed, tr, mode)),
        None => run_round(kind, seed, tr, mode),
    }
}

fn run_round(kind: Kind, seed: u64, tr: Option<&Tracer>, mode: ShardMode) -> Round {
    match kind {
        Kind::YcsbBWarm => ycsb_b_warm(seed, tr),
        Kind::YcsbAContended => ycsb_a_contended(seed, tr),
        Kind::ShardedCold => sharded_cold(seed, tr, mode),
    }
}

/// Host seconds to generate `ops` `(op, key)` draws with the workload
/// layer alone (what the drivers call per op).
fn gen_ops(tr: Option<&Tracer>, wl: &Workload, seed: u64, ops: u64) -> f64 {
    if tr.is_none() {
        return 0.0;
    }
    let rng = SimRng::from_seed(seed, 0);
    phase(tr, "workload.gen", || {
        for _ in 0..ops {
            black_box(wl.next_op(rng.rand_u64(), rng.rand_f64()));
        }
    })
    .1
}

/// Counter readings around a run phase on one `Sim`.
struct Before {
    sim: SimCounters,
    traffic: TrafficStats,
}

impl Before {
    fn take(sim: &Sim, fabric: &Fabric) -> Before {
        Before {
            sim: sim.counters(),
            traffic: fabric.stats(),
        }
    }

    fn counters(
        &self,
        sim: &Sim,
        fabric: &Fabric,
        clients: &[Rc<StoreClient>],
        ops: u64,
    ) -> Counters {
        let c = sim.counters();
        let t = fabric.stats();
        let (cache_hits, cache_misses) = clients.iter().fold((0, 0), |(h, m), cl| {
            let (ch, cm) = cl.cache_stats();
            (h + ch, m + cm)
        });
        let msgs = t.messages - self.traffic.messages;
        Counters {
            ops,
            events: c.events_scheduled - self.sim.events_scheduled,
            polls: c.tasks_polled - self.sim.tasks_polled,
            boxed_events: c.boxed_events - self.sim.boxed_events,
            msgs,
            bytes: t.bytes - self.traffic.bytes,
            rtts: clients.iter().map(|cl| cl.rounds()).sum(),
            series: clients.iter().map(|cl| cl.endpoint().stats().series).sum(),
            cpu_util_sum: clients
                .iter()
                .map(|cl| cl.endpoint().cpu().utilization())
                .sum(),
            clients: clients.len() as u64,
            cache_hits,
            cache_misses,
            shard_ops: vec![ops],
            shard_msgs: vec![msgs],
        }
    }
}

/// The recording (and, when traced, timing) store handles over `clients`.
macro_rules! drive {
    ($tr:expr, $rec:expr, $clients:expr, |$stores:ident| $run:expr) => {
        match $tr {
            None => {
                let $stores: Vec<_> = $clients.iter().map(|c| $rec.wrap(Rc::clone(c))).collect();
                $run
            }
            Some(t) => {
                let $stores: Vec<_> = $clients
                    .iter()
                    .map(|c| $rec.wrap(t.wrap(Rc::clone(c))))
                    .collect();
                $run
            }
        }
    };
}

fn ycsb_b_warm(seed: u64, tr: Option<&Tracer>) -> Round {
    let wl = b_workload(Kind::YcsbBWarm);
    let gen_s = gen_ops(tr, &wl, seed, B_WARMUP + B_MEASURE);
    let t = Instant::now();
    let sim = Sim::new(seed);
    let (cluster, build_s) = phase(tr, "kv.build_cluster", || {
        StoreBuilder::new(Protocol::SafeGuess)
            .value_size(64)
            .max_clients(B_CLIENTS)
            .meta_bufs(B_CLIENTS)
            .cache(CacheCapacity::Unbounded)
            .build_cluster(&sim)
    });
    let ((), load_s) = phase(tr, "kv.load_keys", || {
        cluster.load_keys(B_KEYS, |k| wl.value_for(k, 0))
    });
    let clients = cluster.clients(B_CLIENTS);
    let rec = HistoryRecorder::new(&sim);
    let setup_s = t.elapsed().as_secs_f64();

    let cfg = RunConfig {
        warmup_ops: B_WARMUP,
        measure_ops: B_MEASURE,
        ..Default::default()
    };
    let before = Before::take(&sim, cluster.fabric());
    let (stats, run_s) = phase(tr, "run_workload", || {
        drive!(tr, rec, clients, |stores| run_workload(
            &sim, &stores, &wl, &cfg
        ))
    });
    Round {
        setup_s,
        run_s,
        overlap_s: 0.0,
        sim: SimResults::of(
            stats.lat(OpType::Get),
            stats.lat(OpType::Update),
            stats.measured_ops,
            stats.start_ns,
            stats.end_ns,
        ),
        counters: before.counters(&sim, cluster.fabric(), &clients, rec.len() as u64),
        histories: vec![rec.take_history()],
        spans: SetupSpans {
            build_s,
            load_s,
            plan_s: 0.0,
            gen_s,
        },
    }
}

fn ycsb_a_contended(seed: u64, tr: Option<&Tracer>) -> Round {
    let spec = ScenarioSpec::ycsb("ycsb_a_contended", ScenarioMix::A, A_KEYS, A_OPS)
        .values(ValueSizeDist::Fixed(A_VALUE));
    let gen_s = if tr.is_some() {
        phase(tr, "workload.scenario_ops", || {
            black_box(spec.ops(seed)).len()
        })
        .1
    } else {
        0.0
    };
    let t = Instant::now();
    let sim = Sim::new(seed);
    let (cluster, build_s) = phase(tr, "kv.build_cluster", || {
        StoreBuilder::new(Protocol::SafeGuess)
            .value_size(A_VALUE)
            .max_clients(A_CLIENTS)
            .meta_bufs(A_CLIENTS)
            .cache(CacheCapacity::Unbounded)
            .build_cluster(&sim)
    });
    let ((), load_s) = phase(tr, "kv.load_keys", || {
        cluster.load_keys(A_KEYS, |k| scenario_value(k, A_INITIAL_VERSION, A_VALUE))
    });
    let clients = cluster.clients(A_CLIENTS);
    let rec = HistoryRecorder::new(&sim);
    let setup_s = t.elapsed().as_secs_f64();

    let cfg = ScenarioRunConfig {
        seed,
        value_cap: A_VALUE,
        ..Default::default()
    };
    let before = Before::take(&sim, cluster.fabric());
    let (stats, run_s) = phase(tr, "run_scenario", || {
        drive!(tr, rec, clients, |stores| run_scenario(
            &sim, &stores, &spec, &cfg
        ))
    });
    Round {
        setup_s,
        run_s,
        overlap_s: 0.0,
        sim: SimResults::of(
            stats.lat(ScenarioOpClass::Get),
            stats.lat(ScenarioOpClass::Update),
            stats.measured_ops,
            stats.start_ns,
            stats.end_ns,
        ),
        counters: before.counters(&sim, cluster.fabric(), &clients, rec.len() as u64),
        histories: vec![rec.take_history()],
        spans: SetupSpans {
            build_s,
            load_s,
            plan_s: 0.0,
            gen_s,
        },
    }
}

fn sharded_cold(seed: u64, tr: Option<&Tracer>, mode: ShardMode) -> Round {
    let wl = b_workload(Kind::ShardedCold);
    let gen_s = gen_ops(tr, &wl, seed, S_WARMUP + S_MEASURE);
    let builder = StoreBuilder::new(Protocol::SafeGuess)
        .shards(S_SHARDS)
        .value_size(64)
        .max_clients(S_ROUTERS)
        .meta_bufs(S_ROUTERS)
        .cache(CacheCapacity::Entries(S_CACHE));
    let spec = ShardSpec::new(S_SHARDS);
    let plan_for = |warmup_ops, measure_ops| {
        let cfg = RunConfig {
            warmup_ops,
            measure_ops,
            ..Default::default()
        };
        plan_workload(seed, spec, &wl, &cfg, S_ROUTERS)
    };
    let opts = ShardRunOptions {
        preload_keys: Some(S_KEYS),
        record_history: true,
        ..Default::default()
    };
    // The driver builds, preloads and runs in one call, so set-up is timed
    // as a call of the same driver with no ops (and, traced, with no keys).
    let empty = plan_for(0, 0);
    let build_s = if tr.is_some() {
        let no_keys = ShardRunOptions::default();
        phase(tr, "kv.build_shards", || {
            run_sharded_plan(&builder, seed, &empty, &wl, &no_keys, mode)
        })
        .1
    } else {
        0.0
    };
    let (plan, plan_s) = phase(tr, "workload.plan_workload", || {
        plan_for(S_WARMUP, S_MEASURE)
    });
    let (preloaded, preload_s) = phase(tr, "kv.preload_shards", || {
        run_sharded_plan(&builder, seed, &empty, &wl, &opts, mode)
    });
    let (run, full_s) = phase(tr, "run_sharded_plan", || {
        run_sharded_plan(&builder, seed, &plan, &wl, &opts, mode)
    });

    let ops = plan.ops_total();
    let stats = run.merged_stats();
    let traffic = run.total_traffic();
    let preload_traffic = preloaded.total_traffic();
    let shard_msgs: Vec<u64> = run
        .per_shard_traffic()
        .iter()
        .zip(preloaded.per_shard_traffic())
        .map(|(t, p)| t.messages - p.messages)
        .collect();
    Round {
        setup_s: plan_s + preload_s,
        run_s: full_s - preload_s,
        overlap_s: preload_s,
        sim: SimResults::of(
            stats.lat(OpType::Get),
            stats.lat(OpType::Update),
            stats.measured_ops,
            stats.start_ns,
            stats.end_ns,
        ),
        counters: Counters {
            ops,
            msgs: traffic.messages - preload_traffic.messages,
            bytes: traffic.bytes - preload_traffic.bytes,
            shard_ops: plan.per_shard_op_counts(),
            shard_msgs,
            ..Default::default()
        },
        histories: run.histories().into_iter().cloned().collect(),
        spans: SetupSpans {
            build_s,
            load_s: preload_s - build_s,
            plan_s,
            gen_s,
        },
    }
}
