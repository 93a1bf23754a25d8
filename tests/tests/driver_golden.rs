//! Golden fingerprints of the three workload drivers' simulated output.
//!
//! `run_workload`, `run_scenario` and `run_sharded_plan` are deterministic
//! in their seed, so everything they report can be pinned exactly: per-class
//! latency samples (count, mean, percentiles), measured and failed op
//! counts, the measurement window, fabric traffic, simulator counters, and
//! every recorded history. The shard-parity tests only compare execution
//! modes with each other; this file pins the numbers themselves, so a
//! change to the shared op loop that shifts every mode the same way still
//! fails here.
//!
//! Each fingerprint is a text dump hashed with FNV-1a; on a mismatch the
//! assertion prints the full dump. Nothing in a dump depends on `HashMap`
//! iteration order: classes are listed sorted by name.
//!
//! The pins assume no `SWARM_*` variable is set (`SWARM_BENCH_OPS_SCALE`
//! rescales the runs). To re-pin after an intended change to simulated
//! behaviour, run `cargo test -p swarm-tests --test driver_golden --
//! --nocapture` and copy the printed hashes.

use std::collections::HashMap;
use std::fmt::{Debug, Write as _};
use std::rc::Rc;

use swarm_core::KvHistory;
use swarm_kv::{
    plan_workload, run_scenario, run_sharded_plan, run_workload, ttl_stamp_never, HistoryRecorder,
    Protocol, ReshardEvent, RunConfig, ScenarioRunConfig, ShardMode, ShardRunOptions, ShardSpec,
    StoreBuilder, TtlStore,
};
use swarm_sim::{Histogram, Sim, TimeSeries, NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_workload::{
    Phase, ScenarioMix, ScenarioSpec, TtlSpec, ValueSizeDist, Workload, WorkloadSpec,
};

const KEYS: u64 = 128;
const VALUE: usize = 64;

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares a dump's hash with the pinned one, printing both either way.
fn check(name: &str, dump: &str, pinned: u64) {
    let got = fnv1a(dump);
    println!("{name}: {got:#018x}");
    assert_eq!(
        got, pinned,
        "{name}: fingerprint {got:#018x} != pinned {pinned:#018x}; dump:\n{dump}"
    );
}

fn hist(out: &mut String, label: &str, h: &Histogram) {
    let mut h = h.clone();
    if h.is_empty() {
        writeln!(out, "  {label}: n=0").unwrap();
        return;
    }
    let pcts: Vec<u64> = [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0]
        .iter()
        .map(|&p| h.percentile(p))
        .collect();
    writeln!(
        out,
        "  {label}: n={} mean={:#x} pcts={pcts:?}",
        h.len(),
        h.mean().to_bits()
    )
    .unwrap();
}

/// Per-class latency, in sorted class order.
fn latency<C: Debug>(out: &mut String, latency: &HashMap<C, Histogram>) {
    let mut classes: Vec<(String, &Histogram)> =
        latency.iter().map(|(c, h)| (format!("{c:?}"), h)).collect();
    classes.sort_by(|a, b| a.0.cmp(&b.0));
    for (c, h) in classes {
        hist(out, &c, h);
    }
}

fn window(out: &mut String, measured: u64, failed: u64, start: u64, end: u64) {
    writeln!(
        out,
        "measured={measured} failed={failed} start={start} end={end}"
    )
    .unwrap();
}

fn rtts<C: Debug>(out: &mut String, rtts: &HashMap<C, HashMap<u64, u64>>) {
    let mut rows: Vec<String> = rtts
        .iter()
        .map(|(c, m)| {
            let mut m: Vec<(u64, u64)> = m.iter().map(|(&r, &n)| (r, n)).collect();
            m.sort_unstable();
            format!("  rtts {c:?}: {m:?}")
        })
        .collect();
    rows.sort();
    for r in rows {
        writeln!(out, "{r}").unwrap();
    }
}

fn series(out: &mut String, series: &Option<TimeSeries>) {
    if let Some(s) = series {
        let buckets: Vec<(u64, u64, u64)> =
            s.buckets().map(|(t, n, m)| (t, n, m.to_bits())).collect();
        writeln!(out, "series bucket={} {buckets:?}", s.bucket_ns()).unwrap();
    }
}

fn history(out: &mut String, h: &KvHistory) {
    writeln!(
        out,
        "history ops={} hash={:#x}",
        h.len(),
        fnv1a(&format!("{:?}", h.ops()))
    )
    .unwrap();
}

/// A YCSB mix with every op kind, so each executor path runs.
fn mixed() -> Workload {
    Workload::ycsb(
        WorkloadSpec {
            get_pct: 55,
            update_pct: 20,
            insert_pct: 15,
            delete_pct: 10,
        },
        KEYS,
        VALUE,
    )
}

fn ycsb_dump(seed: u64, cfg: RunConfig) -> String {
    let sim = Sim::new(seed);
    let wl = mixed();
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE)
        .max_clients(2)
        .build_cluster(&sim);
    cluster.load_keys(KEYS, |k| wl.value_for(k, 0));
    let rec = HistoryRecorder::new(&sim);
    for k in 0..KEYS {
        rec.set_initial(k, &wl.value_for(k, 0));
    }
    let stores: Vec<_> = cluster
        .clients(2)
        .into_iter()
        .map(|c| rec.wrap(c))
        .collect();
    let stats = run_workload(&sim, &stores, &wl, &cfg);
    let mut out = String::new();
    window(
        &mut out,
        stats.measured_ops,
        stats.failed_ops,
        stats.start_ns,
        stats.end_ns,
    );
    latency(&mut out, &stats.latency);
    rtts(&mut out, &stats.rtts);
    series(&mut out, &stats.series);
    writeln!(out, "traffic {:?}", cluster.fabric().stats()).unwrap();
    writeln!(out, "sim {:?} now={}", sim.counters(), sim.now()).unwrap();
    history(&mut out, &rec.take_history());
    out
}

#[test]
fn run_workload_batch1_rtts_and_series() {
    let dump = ycsb_dump(
        0x601D_0001,
        RunConfig {
            warmup_ops: 50,
            measure_ops: 300,
            record_rtts: true,
            bucket_ns: Some(20 * NANOS_PER_MICRO),
            ..Default::default()
        },
    );
    check("run_workload batch 1", &dump, 0x5e80_2659_d440_fb89);
}

#[test]
fn run_workload_batch4_paced() {
    let dump = ycsb_dump(
        0x601D_0002,
        RunConfig {
            warmup_ops: 40,
            measure_ops: 300,
            batch: 4,
            pace_ns: Some(5 * NANOS_PER_MICRO),
            ..Default::default()
        },
    );
    check("run_workload batch 4 paced", &dump, 0xbaed_c90b_0ae4_23bf);
}

#[test]
fn run_workload_concurrency2() {
    let dump = ycsb_dump(
        0x601D_0003,
        RunConfig {
            warmup_ops: 40,
            measure_ops: 300,
            concurrency: 2,
            prewarm_keys: Some(32),
            ..Default::default()
        },
    );
    check("run_workload concurrency 2", &dump, 0x2870_9056_007e_b08d);
}

#[test]
fn run_scenario_all_classes_through_ttl() {
    const SIZE: usize = 32;
    // The TTL wrapper appends an 8-byte expiry stamp.
    const SLOT: usize = SIZE + 8;
    let seed = 0x601D_0004;
    let sim = Sim::new(seed);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(SLOT)
        .max_clients(3)
        .build_cluster(&sim);
    let initial = |k: u64| swarm_workload::scenario_value(k, 0, SIZE);
    cluster.load_keys(KEYS, |k| ttl_stamp_never(&initial(k)));
    let rec = HistoryRecorder::new(&sim);
    for k in 0..KEYS {
        rec.set_initial(k, &initial(k));
    }
    let ttls: Vec<_> = cluster
        .clients(3)
        .into_iter()
        .map(|c| TtlStore::new(&sim, c))
        .collect();
    let stores: Vec<_> = ttls.iter().map(|t| rec.wrap(Rc::clone(t))).collect();
    let every_class = ScenarioMix {
        get_pct: 30,
        update_pct: 20,
        insert_pct: 15,
        delete_pct: 10,
        scan_pct: 10,
        rmw_pct: 15,
    };
    let spec = ScenarioSpec::new("golden", KEYS)
        .phase(Phase::new(200, every_class).theta(0.9))
        .phase(Phase::new(150, every_class).theta(0.99).rotate(40))
        .values(ValueSizeDist::Fixed(SIZE))
        .ttl(TtlSpec {
            insert_pct: 50,
            ttl_ns: 300 * NANOS_PER_MICRO,
            ttl_keys: 16,
        });
    let cfg = ScenarioRunConfig {
        seed,
        value_cap: SIZE,
        ..Default::default()
    };
    let stats = run_scenario(&sim, &stores, &spec, &cfg);
    for t in &ttls {
        for (key, at) in t.take_expired() {
            rec.note_expiry(key, at);
        }
    }

    let mut out = String::new();
    window(
        &mut out,
        stats.measured_ops,
        stats.failed_ops,
        stats.start_ns,
        stats.end_ns,
    );
    writeln!(out, "scanned={}", stats.scanned_items).unwrap();
    latency(&mut out, &stats.latency);
    writeln!(out, "traffic {:?}", cluster.fabric().stats()).unwrap();
    writeln!(out, "sim {:?} now={}", sim.counters(), sim.now()).unwrap();
    history(&mut out, &rec.take_history());
    check("run_scenario", &out, 0x70c1_5aea_6147_546f);
}

fn sharded_dump(seed: u64, batch: usize) -> String {
    const ROUTERS: usize = 2;
    const SHARDS: usize = 2;
    let wl = mixed();
    let builder = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE)
        // The elastic family reserves the top client id for its driver.
        .max_clients(ROUTERS + 1)
        .op_deadline_ns(2 * NANOS_PER_MILLI)
        .shards(SHARDS);
    let cfg = RunConfig {
        warmup_ops: 40,
        measure_ops: 300,
        batch,
        ..Default::default()
    };
    let plan = plan_workload(seed, ShardSpec::new(SHARDS), &wl, &cfg, ROUTERS);
    let opts = ShardRunOptions {
        preload_keys: Some(KEYS),
        record_history: true,
        collect_results: true,
        reshards: vec![ReshardEvent::split(1, 40 * NANOS_PER_MICRO, 500).pace_ns(500)],
        ..Default::default()
    };
    let run = run_sharded_plan(&builder, seed, &plan, &wl, &opts, ShardMode::Sequential);

    let mut out = String::new();
    let merged = run.merged_stats();
    window(
        &mut out,
        merged.measured_ops,
        merged.failed_ops,
        merged.start_ns,
        merged.end_ns,
    );
    latency(&mut out, &merged.latency);
    for o in run.per_shard() {
        writeln!(out, "shard {}", o.shard).unwrap();
        window(
            &mut out,
            o.stats.measured_ops,
            o.stats.failed_ops,
            o.stats.start_ns,
            o.stats.end_ns,
        );
        latency(&mut out, &o.stats.latency);
        writeln!(out, "traffic {:?}", o.traffic).unwrap();
        writeln!(out, "reshard {:?}", o.reshard).unwrap();
        history(&mut out, o.history.as_ref().expect("recorded"));
    }
    writeln!(
        out,
        "results hash={:#x}",
        fnv1a(&format!("{:?}", run.results()))
    )
    .unwrap();
    out
}

#[test]
fn run_sharded_plan_batch1_with_split() {
    let dump = sharded_dump(0x601D_0005, 1);
    check("run_sharded_plan batch 1", &dump, 0xf174_f22b_8b9d_87fd);
}

#[test]
fn run_sharded_plan_batch4_with_split() {
    let dump = sharded_dump(0x601D_0006, 4);
    check("run_sharded_plan batch 4", &dump, 0xec7a_323a_a7fa_a91d);
}
