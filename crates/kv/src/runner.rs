//! YCSB workload runner: drives clients against a store and collects the
//! statistics the paper's figures report (latency histograms/CDFs,
//! throughput, per-op roundtrips, time series around failures).

use std::cell::Cell;
use std::rc::Rc;

use swarm_sim::{Nanos, Sim, TimeSeries};
use swarm_workload::{OpType, Workload};

use crate::driver::{Executor, Fleet, Op, OpStats};
use crate::envknob::env_knob;
use crate::store::KvStore;

/// The volume scale requested via `SWARM_BENCH_OPS_SCALE` (a positive float,
/// e.g. `0.01`), or `None` if the variable is unset or unparsable. An
/// unparsable value is ignored with a one-time warning on stderr (the
/// shared [`env_knob`] convention).
pub fn ops_scale() -> Option<f64> {
    env_knob(
        "SWARM_BENCH_OPS_SCALE",
        "a positive float like 0.01",
        |s: &f64| s.is_finite() && *s > 0.0,
    )
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Unmeasured warm-up operations (total across clients).
    pub warmup_ops: u64,
    /// Measured operations (total across clients).
    pub measure_ops: u64,
    /// Concurrent operations per client (§7.2: 1–8).
    pub concurrency: usize,
    /// Client-side CPU work per operation (workload generation, cache
    /// lookup, completion processing) in nanoseconds.
    pub op_overhead_ns: Nanos,
    /// Record a time series with this bucket width (Figure 11).
    pub bucket_ns: Option<Nanos>,
    /// Stop issuing operations after this virtual time (Figure 11 runs for
    /// a fixed duration instead of an op count).
    pub deadline_ns: Option<Nanos>,
    /// Record per-op roundtrip counts (only meaningful at concurrency 1 and
    /// batch 1: with several ops in flight per worker there is no per-op
    /// roundtrip delta to attribute, and the batched worker skips it).
    pub record_rtts: bool,
    /// Open-loop pacing: issue one op per worker every this many
    /// nanoseconds (Table 3 fixes clients at 200 kops each).
    pub pace_ns: Option<Nanos>,
    /// Touch every key in `0..n` once per client before the warm-up
    /// (steady-state location caches, as after the paper's 1M-op warm-up).
    pub prewarm_keys: Option<u64>,
    /// Operations per pipelined batch: each worker claims up to this many
    /// ops at once and issues them as [`crate::KvStoreExt`] multi-ops, so a
    /// batch of independent keys costs ~1 quorum roundtrip. `1` (the
    /// default) is the classic sequential per-op loop.
    pub batch: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_ops: 10_000,
            measure_ops: 50_000,
            concurrency: 1,
            op_overhead_ns: 1_000,
            bucket_ns: None,
            deadline_ns: None,
            record_rtts: false,
            pace_ns: None,
            prewarm_keys: None,
            batch: 1,
        }
    }
}

impl RunConfig {
    /// Applies `SWARM_BENCH_OPS_SCALE` (a float, e.g. `0.01`) to every
    /// volume knob: op counts, prewarm keys, and the virtual-time deadline.
    /// The bench smoke test sets it so every figure binary exercises its
    /// full pipeline in a fraction of the quick-mode volume.
    pub(crate) fn env_scaled(&self) -> RunConfig {
        self.scaled_by(ops_scale())
    }

    /// [`RunConfig::env_scaled`] with the scale passed explicitly
    /// (unit-testable without touching the process environment).
    fn scaled_by(&self, scale: Option<f64>) -> RunConfig {
        let Some(scale) = scale else {
            return self.clone();
        };
        let scaled = |n: u64| ((n as f64 * scale) as u64).max(1);
        RunConfig {
            warmup_ops: if self.warmup_ops > 0 {
                scaled(self.warmup_ops)
            } else {
                0
            },
            measure_ops: scaled(self.measure_ops),
            // Same floor as the bench harness's scaled keyspace (64 keys),
            // so prewarming still covers the keyspace it is meant to warm.
            prewarm_keys: self
                .prewarm_keys
                .map(|n| ((n as f64 * scale) as u64).clamp(64.min(n), n)),
            deadline_ns: self.deadline_ns.map(scaled),
            ..self.clone()
        }
    }
}

/// Collected YCSB results, per [`OpType`].
pub type RunStats = OpStats<OpType>;

/// What every worker of one run shares: the configuration, the workload,
/// the op budget they claim in turn, and the version counter that makes
/// each mutation payload unique.
struct Shared {
    cfg: RunConfig,
    workload: Workload,
    warmup_left: Cell<u64>,
    measure_left: Cell<u64>,
    version: Cell<u64>,
}

impl Shared {
    /// Claims up to `cfg.batch` op slots from the current phase:
    /// `(count, measured)`, or `None` once both phases are used up.
    fn claim(&self) -> Option<(u64, bool)> {
        for (left, measured) in [(&self.warmup_left, false), (&self.measure_left, true)] {
            if left.get() > 0 {
                let n = left.get().min(self.cfg.batch as u64);
                left.set(left.get() - n);
                return Some((n, measured));
            }
        }
        None
    }

    /// Draws the next op from the simulation's shared stream.
    fn draw(&self, sim: &Sim) -> (OpType, Op) {
        let (op, key) = self.workload.next_op(sim.rand_u64(), sim.rand_f64());
        self.version.set(self.version.get() + 1);
        (op, Op::ycsb(&self.workload, op, key, self.version.get()))
    }
}

/// Runs `workload` against the given store handles (one per client) and
/// returns the collected statistics. Drives the simulation internally.
pub fn run_workload<S: KvStore + 'static>(
    sim: &Sim,
    stores: &[Rc<S>],
    workload: &Workload,
    cfg: &RunConfig,
) -> RunStats {
    let cfg = cfg.env_scaled();
    let fleet = Fleet::new(RunStats {
        series: cfg.bucket_ns.map(TimeSeries::new),
        ..Default::default()
    });
    let shared = Rc::new(Shared {
        warmup_left: Cell::new(cfg.warmup_ops),
        measure_left: Cell::new(cfg.measure_ops),
        version: Cell::new(0),
        workload: workload.clone(),
        cfg,
    });
    for store in stores {
        for _ in 0..shared.cfg.concurrency {
            let cfg = &shared.cfg;
            let exec = fleet.executor(sim, Rc::clone(store), cfg.op_overhead_ns, cfg.record_rtts);
            fleet.spawn(sim, run_worker(exec, Rc::clone(&shared)));
        }
    }
    fleet.drive(sim)
}

/// One client's closed loop: prewarm, then claim op slots, keep the pace
/// and issue. At `batch > 1` each claim of up to `batch` slots is one
/// pipelined round.
async fn run_worker<S: KvStore>(exec: Executor<S, OpType>, shared: Rc<Shared>) {
    let (sim, cfg) = (&exec.sim, &shared.cfg);
    if let Some(n) = cfg.prewarm_keys {
        for key in 0..n {
            let _ = exec.store.get(key).await;
        }
    }
    let mut next_at = sim.now();
    loop {
        if cfg.pace_ns.is_some() {
            sim.sleep_until(next_at).await;
        }
        let Some((n, measured)) = shared.claim() else {
            return;
        };
        if let Some(pace) = cfg.pace_ns {
            // Open-loop pacing is per *op*: a batch of N ops advances the
            // schedule by N paces, keeping the configured average rate.
            next_at += pace * n;
        }
        if cfg
            .deadline_ns
            .is_some_and(|deadline| sim.now() >= deadline)
        {
            return;
        }
        if cfg.batch > 1 {
            let next = || (0..n).map(|_| shared.draw(sim)).collect();
            exec.batch(n, measured, next).await;
        } else {
            exec.one(measured, || shared.draw(sim)).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ops_scale(raw: Option<&str>) -> Option<f64> {
        crate::envknob::parse_knob(
            "SWARM_BENCH_OPS_SCALE",
            raw,
            "a positive float like 0.01",
            |s: &f64| s.is_finite() && *s > 0.0,
        )
    }
    use crate::{Cluster, ClusterConfig, KvClient, KvClientConfig, Proto};
    use swarm_workload::WorkloadSpec;

    #[test]
    fn unparsable_ops_scale_is_ignored_with_warning() {
        // The parse-failure path: the config must come back unchanged.
        assert_eq!(parse_ops_scale(Some("banana")), None);
        assert_eq!(parse_ops_scale(Some("")), None);
        assert_eq!(parse_ops_scale(Some("-0.5")), None, "negative scales");
        assert_eq!(parse_ops_scale(Some("inf")), None, "non-finite scales");
        let cfg = RunConfig {
            warmup_ops: 123,
            measure_ops: 456,
            ..Default::default()
        };
        let scaled = cfg.scaled_by(parse_ops_scale(Some("banana")));
        assert_eq!(scaled.warmup_ops, 123);
        assert_eq!(scaled.measure_ops, 456);
    }

    #[test]
    fn valid_ops_scale_shrinks_volume_knobs() {
        assert_eq!(parse_ops_scale(Some("0.5")), Some(0.5));
        assert_eq!(parse_ops_scale(None), None);
        let cfg = RunConfig {
            warmup_ops: 100,
            measure_ops: 1_000,
            ..Default::default()
        };
        let scaled = cfg.scaled_by(Some(0.1));
        assert_eq!(scaled.warmup_ops, 10);
        assert_eq!(scaled.measure_ops, 100);
    }

    #[test]
    fn batched_pacing_is_per_op_not_per_batch() {
        // Open-loop pacing must yield the same average op rate whatever the
        // batch size: a batch of N advances the schedule by N paces.
        let tput = |batch: usize| {
            let sim = Sim::new(22);
            let cluster = Cluster::new(&sim, ClusterConfig::default());
            cluster.load_keys(256, |k| vec![k as u8; 64]);
            let clients: Vec<_> = (0..2)
                .map(|i| KvClient::new(&cluster, Proto::SafeGuess, i, KvClientConfig::default()))
                .collect();
            run_workload(
                &sim,
                &clients,
                &Workload::ycsb(WorkloadSpec::B, 256, 64),
                &RunConfig {
                    warmup_ops: 0,
                    measure_ops: 2_000,
                    pace_ns: Some(20_000), // 50 kops per worker, far above op cost
                    batch,
                    ..Default::default()
                },
            )
            .throughput_ops()
        };
        let sequential = tput(1);
        let batched = tput(4);
        let ratio = batched / sequential;
        assert!(
            (0.8..1.25).contains(&ratio),
            "batch=4 must keep the paced rate: {batched} vs {sequential} ops/s"
        );
    }

    #[test]
    fn batched_mode_completes_the_requested_volume() {
        let run = |batch: usize| {
            let sim = Sim::new(21);
            let cluster = Cluster::new(&sim, ClusterConfig::default());
            cluster.load_keys(256, |k| vec![k as u8; 64]);
            let clients: Vec<_> = (0..2)
                .map(|i| KvClient::new(&cluster, Proto::SafeGuess, i, KvClientConfig::default()))
                .collect();
            run_workload(
                &sim,
                &clients,
                &Workload::ycsb(WorkloadSpec::B, 256, 64),
                &RunConfig {
                    warmup_ops: 100,
                    measure_ops: 2_000,
                    batch,
                    // Small per-op CPU cost so roundtrip latency (what
                    // batching pipelines away) dominates the comparison.
                    op_overhead_ns: 100,
                    ..Default::default()
                },
            )
        };
        let sequential = run(1);
        let batched = run(8);
        assert_eq!(batched.measured_ops, 2_000);
        assert_eq!(batched.failed_ops, 0);
        // Batching must raise throughput: 8 independent keys cost ~1 quorum
        // roundtrip instead of 8 sequential ones (work-request submission
        // still serializes on the client CPU, so the gain is below 8x).
        assert!(
            batched.throughput_ops() > 2.5 * sequential.throughput_ops(),
            "batch=8 should beat sequential: {} vs {}",
            batched.throughput_ops(),
            sequential.throughput_ops()
        );
    }
}
