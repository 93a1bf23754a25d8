//! The SWARM-KV benchmark: one workload per process.
//!
//! ```text
//! swarm-perfbench --workload <ycsb_b_warm|ycsb_a_contended|sharded_cold>
//!                 [--seed 42] [--seconds 30] [--trace 0|1]
//!                 [--source <id>] [--trace-out <file>]
//! ```
//!
//! A run repeats *rounds* of the workload (build, preload, plan; run; read
//! results) until `--seconds` have passed. Rounds cycle through a few seeds
//! derived from `--seed`, each at least once. The first round of each seed
//! is checked for correctness and pooled into the simulated metrics; every
//! later round of that seed must reproduce its history, simulated results
//! and counters bit for bit. Host-time metrics are medians over all rounds.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced rounds and prints the per-layer metrics. Either way
//! the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any correctness violation exits with code 1 and no JSON line.

mod check;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use swarm_core::KvHistory;
use swarm_kv::ShardMode;

use check::CheckReport;
use trace::{ratio, Tracer};
use workloads::{imbalance, Counters, Kind, Latency, Round, SimResults};

/// The seed of round `i` of a `kind` run with seed `seed`: rounds cycle
/// through `kind.sub_seeds()` seeds derived from it.
fn sub_seed(kind: Kind, seed: u64, i: usize) -> u64 {
    let k = kind.sub_seeds();
    seed.wrapping_mul(k as u64).wrapping_add((i % k) as u64)
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    source: String,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: Kind::YcsbBWarm,
        seed: 42,
        seconds: 30.0,
        trace: false,
        source: "unknown".into(),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or(bad("a workload name"))?),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--source" => args.source = value,
            "--trace-out" => args.trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    Ok(args)
}

/// `SWARM_*` variables silently change the library's behaviour (op-count
/// scaling, thread counts, repair and hedging defaults).
fn refuse_swarm_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SWARM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn print_manifest(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("manifest.seed = {}", args.seed);
    let seeds: Vec<String> = (0..args.kind.sub_seeds())
        .map(|i| sub_seed(args.kind, args.seed, i).to_string())
        .collect();
    println!("manifest.round_seeds = {}", seeds.join(","));
    println!("manifest.workload = {}", args.kind.name());
    for k in Kind::ALL {
        println!("manifest.params.{} = {}", k.name(), k.describe());
    }
    println!("manifest.source = {}", args.source);
    println!("manifest.nproc = {nproc}");
    println!(
        "manifest.profile = release lto=fat codegen-units=1 debug=true debug_assertions={}",
        cfg!(debug_assertions)
    );
    println!(
        "manifest.run = seconds={} min_rounds={} trace={}",
        args.seconds,
        args.kind.sub_seeds(),
        u8::from(args.trace)
    );
}

/// What a later round of the same seed must reproduce bit for bit.
struct Reference {
    sim: (Latency, Latency, u64, u64),
    counters: Counters,
    histories: Vec<KvHistory>,
}

/// The rounds of one run: the first round of each derived seed is checked
/// and pooled; every later round must reproduce it exactly.
struct Rounds {
    kind: Kind,
    seed: u64,
    refs: Vec<Reference>,
    sim: SimResults,
    counters: Counters,
    check: CheckReport,
    check_s: f64,
    attempted: u64,
}

impl Rounds {
    fn new(kind: Kind, seed: u64) -> Self {
        Rounds {
            kind,
            seed,
            refs: Vec::new(),
            sim: SimResults::default(),
            counters: Counters::default(),
            check: CheckReport::default(),
            check_s: 0.0,
            attempted: 0,
        }
    }

    /// Runs round `i` and checks it; the returned round's histories are
    /// released.
    fn run(
        &mut self,
        i: usize,
        tr: Option<&Tracer>,
        mode: ShardMode,
        what: &str,
    ) -> Result<Round, String> {
        let k = i % self.kind.sub_seeds();
        let mut round = workloads::round(self.kind, sub_seed(self.kind, self.seed, k), tr, mode);
        self.attempted += round.ops();
        let seen = Reference {
            sim: round.sim.summary(),
            counters: round.counters.clone(),
            histories: Vec::new(),
        };
        match self.refs.get(k) {
            Some(r) => {
                let what = format!("{what} (seed {})", sub_seed(self.kind, self.seed, k));
                if seen.sim != r.sim {
                    return Err(format!(
                        "{what}: simulated results differ: {:?} vs {:?}",
                        seen.sim, r.sim
                    ));
                }
                if seen.counters != r.counters {
                    return Err(format!(
                        "{what}: counters differ: {:?} vs {:?}",
                        seen.counters, r.counters
                    ));
                }
                if round.histories != r.histories {
                    return Err(format!(
                        "{what}: recorded history differs from the checked one"
                    ));
                }
                // Only the checked reference is kept, so memory does not
                // grow with the number of rounds.
                round.histories = Vec::new();
            }
            None => {
                let t = Instant::now();
                let hs: Vec<_> = round.histories.iter().collect();
                let report = check::check(&hs, workloads::initial_tags(self.kind))?;
                self.check_s += t.elapsed().as_secs_f64();
                if report.ops != round.ops() {
                    return Err(format!("recorded {} ops, ran {}", report.ops, round.ops()));
                }
                if report.failed_ops > 0 {
                    return Err(format!(
                        "{} of {} ops failed",
                        report.failed_ops, report.ops
                    ));
                }
                self.check.ops += report.ops;
                self.check.keys_over_cap += report.keys_over_cap;
                self.sim.add(&round.sim);
                self.counters.add(&round.counters);
                self.refs.push(Reference {
                    histories: std::mem::take(&mut round.histories),
                    ..seen
                });
            }
        }
        Ok(round)
    }

    /// The pooled latencies, once every derived seed ran; fails if fewer
    /// than 10 samples lie beyond a p99.9.
    fn latencies(&self) -> Result<(Latency, Latency), String> {
        let (get, update) = (Latency::of(&self.sim.get), Latency::of(&self.sim.update));
        for (class, lat) in [("get", get), ("update", update)] {
            if lat.beyond < 10 {
                return Err(format!(
                    "{class}: {} of {} samples beyond p99.9, need 10",
                    lat.beyond, lat.samples
                ));
            }
        }
        Ok((get, update))
    }

    /// Prints the simulated results and counters exactly: for a given seed
    /// these lines repeat bit for bit.
    fn print_witness(&self) {
        for (k, r) in self.refs.iter().enumerate() {
            let (get, update, ops, window) = r.sim;
            println!(
                "witness.seed{} = get={get:?} update={update:?} measured_ops={ops} window_ns={window}",
                sub_seed(self.kind, self.seed, k)
            );
        }
        println!("witness.counters = {:?}", self.counters);
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn kops(r: &Round) -> f64 {
    r.ops() as f64 / r.run_s / 1e3
}

/// Run-phase seconds of each round. Where the run-phase call repeats
/// set-up (`overlap_s`), each round subtracts the median set-up rather
/// than its own, which would add that measurement's noise twice.
fn run_times(rounds: &[Round]) -> Vec<f64> {
    let overlap = median(&rounds.iter().map(|r| r.overlap_s).collect::<Vec<_>>());
    rounds
        .iter()
        .map(|r| r.run_s + r.overlap_s - overlap)
        .collect()
}

/// Median over rounds of ops per host second, in kops.
fn host_kops(rounds: &[Round]) -> f64 {
    let kops: Vec<f64> = rounds
        .iter()
        .zip(run_times(rounds))
        .map(|(r, s)| r.ops() as f64 / s / 1e3)
        .collect();
    median(&kops)
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_json(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn untraced(args: &Args) -> Result<(u64, Metrics), String> {
    let start = Instant::now();
    let mut rounds = Rounds::new(args.kind, args.seed);
    let mut done = Vec::new();
    while done.len() < args.kind.sub_seeds() || start.elapsed().as_secs_f64() < args.seconds {
        let r = rounds.run(done.len(), None, mode(), "round")?;
        println!(
            "round {}: setup_s={:.4} run_s={:.4} ops={} host_kops={:.3}",
            done.len(),
            r.setup_s,
            r.run_s,
            r.ops(),
            kops(&r)
        );
        done.push(r);
    }
    let (get, update) = rounds.latencies()?;
    rounds.print_witness();
    let metrics: Metrics = vec![
        ("host_kops", host_kops(&done), "kops/s"),
        (
            "setup_s",
            median(&done.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            "s",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("get_p50_us", us(get.p50_ns), "us"),
        ("get_p999_us", us(get.p999_ns), "us"),
        ("update_p50_us", us(update.p50_ns), "us"),
        ("update_p999_us", us(update.p999_ns), "us"),
        ("sim_kops", rounds.sim.sim_kops(), "kops/sim_s"),
    ];
    for (name, value, unit) in &metrics {
        let samples = match *name {
            "get_p50_us" | "get_p999_us" => format!(" (samples={})", get.samples),
            "update_p50_us" | "update_p999_us" => format!(" (samples={})", update.samples),
            _ => String::new(),
        };
        println!("metric {name} = {value} {unit}{samples}");
    }
    // Always 0 when the run gets here (any failure exits nonzero), so it is
    // printed for the record but not reported as a gated metric.
    println!(
        "metric failed_frac = {} ratio",
        ratio(0.0, rounds.attempted as f64)
    );
    Ok((rounds.attempted, metrics))
}

/// The shard mode of every `sharded_cold` round except the traced run's
/// sequential rerun.
fn mode() -> ShardMode {
    ShardMode::Threads(workloads::S_THREADS)
}

fn traced(args: &Args) -> Result<(u64, Metrics), String> {
    let kind = args.kind;
    let tracer = Tracer::new();
    let start = Instant::now();
    let mut rounds = Rounds::new(kind, args.seed);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let mut pair = 0;
    while pair < kind.sub_seeds() || start.elapsed().as_secs_f64() < args.seconds {
        let r = rounds.run(pair, None, mode(), "untraced round")?;
        let t = rounds.run(pair, Some(&tracer), mode(), "traced round")?;
        println!(
            "pair {pair}: untraced run_s={:.4} traced run_s={:.4}",
            r.run_s, t.run_s
        );
        traced.push(t.run_s);
        spans.push(t.spans);
        plain.push(r);
        pair += 1;
    }
    rounds.latencies()?;
    rounds.print_witness();
    let run_times = run_times(&plain);
    let run_s = median(&run_times);
    let ns_per_event: Vec<f64> = plain
        .iter()
        .zip(&run_times)
        .map(|(r, s)| ratio(s * 1e9, r.counters.events as f64))
        .collect();

    let speedup = if kind == Kind::ShardedCold {
        let seq = tracer.span("round.sequential", || {
            rounds.run(0, None, ShardMode::Sequential, "Sequential vs Threads")
        })?;
        println!("sequential run_s={:.4}", seq.run_s);
        seq.run_s / run_s
    } else {
        1.0
    };

    let c = &rounds.counters;
    let [get, update] = tracer.take_tally();
    let span_median =
        |f: fn(&workloads::SetupSpans) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
    let load_s = span_median(|s| s.load_s);
    let metrics: Metrics = vec![
        ("sim.events_per_op", c.per_op(c.events), "events/op"),
        ("sim.polls_per_op", c.per_op(c.polls), "polls/op"),
        (
            "sim.boxed_events_per_op",
            c.per_op(c.boxed_events),
            "events/op",
        ),
        ("sim.host_ns_per_event", median(&ns_per_event), "ns"),
        ("fabric.msgs_per_op", c.per_op(c.msgs), "msgs/op"),
        ("fabric.bytes_per_op", c.per_op(c.bytes), "B/op"),
        ("fabric.rtts_per_op", c.per_op(c.rtts), "rtts/op"),
        ("fabric.series_per_op", c.per_op(c.series), "msgs/op"),
        (
            "fabric.client_cpu_util",
            ratio(c.cpu_util_sum, c.clients as f64),
            "ratio",
        ),
        ("core.get_1rtt_frac", get.one_rtt_frac(), "ratio"),
        ("core.update_1rtt_frac", update.one_rtt_frac(), "ratio"),
        ("kv.get_host_ns", get.host_ns_per_op(), "ns"),
        ("kv.update_host_ns", update.host_ns_per_op(), "ns"),
        (
            "kv.cache_hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        ),
        ("kv.build_s", span_median(|s| s.build_s), "s"),
        ("kv.load_s", load_s, "s"),
        (
            "kv.load_ns_per_key",
            load_s * 1e9 / kind.keys() as f64,
            "ns",
        ),
        ("workload.plan_s", span_median(|s| s.plan_s), "s"),
        ("workload.gen_s", span_median(|s| s.gen_s), "s"),
        ("parallel.op_imbalance", imbalance(&c.shard_ops), "ratio"),
        ("parallel.msg_imbalance", imbalance(&c.shard_msgs), "ratio"),
        ("parallel.speedup", speedup, "ratio"),
        ("check.s", rounds.check_s, "s"),
        ("check.ops", rounds.check.ops as f64, "count"),
        (
            "check.kops",
            rounds.check.ops as f64 / rounds.check_s / 1e3,
            "kops/s",
        ),
        (
            "check.keys_over_cap",
            rounds.check.keys_over_cap as f64,
            "count",
        ),
        (
            "trace.overhead_frac",
            1.0 - run_s / median(&traced),
            "ratio",
        ),
    ];
    for (name, value, unit) in &metrics {
        let note = if kind.unreadable(name) {
            " (n/a: not readable from outside this driver)"
        } else {
            ""
        };
        println!("layer {name} = {value} {unit}{note}");
    }
    if let Some(path) = &args.trace_out {
        let json = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"spans\":{}}}\n",
            kind.name(),
            args.seed,
            tracer.spans_json()
        );
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
    }
    Ok((rounds.attempted, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| refuse_swarm_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swarm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_manifest(&args);
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok((attempted, metrics)) => {
            println!("{}", result_json(attempted, 0, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "swarm-perfbench: {} seed {}: {e}",
                args.kind.name(),
                args.seed
            );
            ExitCode::FAILURE
        }
    }
}
