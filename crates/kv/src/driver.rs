//! The closed-loop client under every workload driver: one op executor,
//! one statistics type, and one drive-until-idle loop.
//!
//! SWARM's evaluation (§7) drives the store with closed-loop clients: each
//! client pays its per-op CPU work, issues an op, times it, and records the
//! reply. That step lives here once, as [`Executor`], and records into
//! [`OpStats`].
//!
//! # Three client models
//!
//! Three public drivers sit on top. They share the step but not the way a
//! client decides *which* op to issue next, and that choice fixes every
//! simulated number they report:
//!
//! * [`run_workload`](crate::run_workload) draws each op lazily from the
//!   simulation's shared RNG stream at issue time. Which client gets which
//!   draw depends on scheduling, exactly as in a live YCSB client pool.
//!   Materializing the stream first would reorder those draws (and cost
//!   memory proportional to the run).
//! * [`run_scenario`](crate::run_scenario) deals a pre-drawn stream, pure in
//!   `(seed, spec)`, round-robin over the clients. Nothing draws from the
//!   simulator, so scenario reports are machine-diffable.
//! * [`run_sharded_plan`](crate::run_sharded_plan) runs op streams planned
//!   per router from forked RNG streams, so every shard can run on its own
//!   `Sim` and OS thread and still replay bit for bit. Cross-shard CPU
//!   sharing cannot exist across threads, so each `(router, shard)` pair is
//!   its own client (under `run_workload` a router's per-shard clients
//!   share one core) and a router's cross-shard batch runs as per-shard
//!   slices.
//!
//! Folding any two models into one would change its RNG order, and with it
//! every figure that driver feeds. So the models stay three entry points
//! over this one executor.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::future::Future;
use std::hash::Hash;
use std::rc::Rc;

use swarm_sim::{join2, Histogram, Nanos, Sim, TimeSeries, NANOS_PER_MILLI, NANOS_PER_SEC};
use swarm_workload::{OpType, Workload};

use crate::store::{KvError, KvResult, KvStore, KvStoreExt, ScanItems};

/// Measured-op statistics, per op class `C` (`OpType` for YCSB runs,
/// `ScenarioOpClass` for scenarios).
#[derive(Debug)]
pub struct OpStats<C> {
    /// Latency histogram per class.
    pub latency: HashMap<C, Histogram>,
    /// Roundtrip-count histogram per class (`rtts -> ops`); filled only by
    /// `run_workload` with `RunConfig::record_rtts` at batch 1.
    pub rtts: HashMap<C, HashMap<u64, u64>>,
    /// Per-bucket throughput/latency over time (`RunConfig::bucket_ns`).
    pub series: Option<TimeSeries>,
    /// Measured operations completed (one RMW counts once).
    pub measured_ops: u64,
    /// Operations that returned failure or absence (a get or RMW of an
    /// absent key counts here).
    pub failed_ops: u64,
    /// Total items returned across all scans.
    pub scanned_items: u64,
    /// First measured-op start time.
    pub start_ns: Nanos,
    /// Last measured-op completion time.
    pub end_ns: Nanos,
}

impl<C> Default for OpStats<C> {
    fn default() -> Self {
        OpStats {
            latency: HashMap::new(),
            rtts: HashMap::new(),
            series: None,
            measured_ops: 0,
            failed_ops: 0,
            scanned_items: 0,
            start_ns: 0,
            end_ns: 0,
        }
    }
}

impl<C: Copy + Eq + Hash> OpStats<C> {
    /// Overall measured throughput in operations per second.
    pub fn throughput_ops(&self) -> f64 {
        if self.end_ns <= self.start_ns {
            return 0.0;
        }
        self.measured_ops as f64 * NANOS_PER_SEC as f64 / (self.end_ns - self.start_ns) as f64
    }

    /// Latency histogram for one class (empty if none ran).
    pub fn lat(&self, class: C) -> Histogram {
        self.latency.get(&class).cloned().unwrap_or_default()
    }

    /// Fraction of `class` operations that used exactly `r` roundtrips.
    pub fn rtt_fraction(&self, class: C, r: u64) -> f64 {
        let Some(m) = self.rtts.get(&class) else {
            return 0.0;
        };
        let total: u64 = m.values().sum();
        if total == 0 {
            return 0.0;
        }
        *m.get(&r).unwrap_or(&0) as f64 / total as f64
    }

    /// The roundtrip count at percentile `p` for `class`.
    pub fn rtt_percentile(&self, class: C, p: f64) -> u64 {
        let Some(m) = self.rtts.get(&class) else {
            return 0;
        };
        let total: u64 = m.values().sum();
        if total == 0 {
            return 0;
        }
        let target = (p / 100.0 * total as f64).ceil() as u64;
        let mut counts: Vec<(u64, u64)> = m.iter().map(|(&r, &n)| (r, n)).collect();
        counts.sort_unstable();
        let mut acc = 0;
        counts
            .into_iter()
            .find(|&(_, n)| {
                acc += n;
                acc >= target
            })
            .map_or(0, |(r, _)| r)
    }

    /// Records one measured op of `class` that ran from `t0` to `t1` and
    /// returned `reply`, plus its roundtrip count when one was taken.
    pub(crate) fn record(
        &mut self,
        class: C,
        t0: Nanos,
        t1: Nanos,
        reply: &Reply,
        rtts: Option<u64>,
    ) {
        if self.measured_ops == 0 {
            self.start_ns = t0;
        }
        self.measured_ops += 1;
        self.end_ns = self.end_ns.max(t1);
        // Success: a get found a value, a mutation applied, a scan answered.
        let (ok, scanned) = match reply {
            Reply::Got(Ok(Some(_))) | Reply::Wrote(Ok(())) => (true, 0),
            Reply::Scanned(Ok(items)) => (true, items.len() as u64),
            _ => (false, 0),
        };
        self.failed_ops += u64::from(!ok);
        self.scanned_items += scanned;
        self.latency.entry(class).or_default().record(t1 - t0);
        if let Some(series) = &mut self.series {
            series.record(t1, t1 - t0);
        }
        if let Some(used) = rtts {
            *self.rtts.entry(class).or_default().entry(used).or_insert(0) += 1;
        }
    }

    /// Folds `other` in: histograms concatenate (so percentiles are over
    /// the union), counts sum, and the window spans the earliest measured
    /// start to the latest measured end. Time series are not merged.
    pub fn merge(&mut self, other: &OpStats<C>) {
        if other.measured_ops > 0 {
            self.start_ns = if self.measured_ops == 0 {
                other.start_ns
            } else {
                self.start_ns.min(other.start_ns)
            };
            self.end_ns = self.end_ns.max(other.end_ns);
        }
        self.measured_ops += other.measured_ops;
        self.failed_ops += other.failed_ops;
        self.scanned_items += other.scanned_items;
        for (&class, h) in &other.latency {
            self.latency.entry(class).or_default().merge(h);
        }
        for (&class, m) in &other.rtts {
            let mine = self.rtts.entry(class).or_default();
            for (&r, &n) in m {
                *mine.entry(r).or_insert(0) += n;
            }
        }
    }
}

/// One operation, payload built, ready to issue.
pub(crate) enum Op {
    Get(u64),
    Update(u64, Vec<u8>),
    /// An insert with an optional TTL lease (`None` is a plain insert for
    /// every store).
    Insert(u64, Vec<u8>, Option<Nanos>),
    Delete(u64),
    Scan(u64, usize),
    /// Read-modify-write: a get, then an update if the key was present.
    Rmw(u64, Vec<u8>),
}

impl Op {
    /// A YCSB op; mutation payloads are `workload.value_for(key, version)`.
    pub(crate) fn ycsb(workload: &Workload, op: OpType, key: u64, version: u64) -> Op {
        match op {
            OpType::Get => Op::Get(key),
            OpType::Update => Op::Update(key, workload.value_for(key, version)),
            OpType::Insert => Op::Insert(key, workload.value_for(key, version), None),
            OpType::Delete => Op::Delete(key),
        }
    }
}

/// What an issued op returned.
pub(crate) enum Reply {
    Got(KvResult<Option<Rc<Vec<u8>>>>),
    Wrote(KvResult<()>),
    Scanned(KvResult<ScanItems>),
}

async fn issue<S: KvStore>(store: &S, op: Op) -> Reply {
    match op {
        Op::Get(key) => Reply::Got(store.get(key).await),
        Op::Update(key, v) => Reply::Wrote(store.update(key, v).await),
        Op::Insert(key, v, ttl) => Reply::Wrote(store.insert_ttl(key, v, ttl).await),
        Op::Delete(key) => Reply::Wrote(store.delete(key).await),
        Op::Scan(start, limit) => Reply::Scanned(store.scan(start, limit).await),
        // The read's observation would feed the write in an application;
        // here only the latency of the two dependent legs matters.
        Op::Rmw(key, v) => Reply::Wrote(match store.get(key).await {
            Ok(Some(_)) => store.update(key, v).await,
            Ok(None) => Err(KvError::NotFound),
            Err(e) => Err(e),
        }),
    }
}

/// One client's op executor: pays the per-op client CPU work, issues, times
/// and records into its fleet's statistics. Built by [`Fleet::executor`].
pub(crate) struct Executor<S, C> {
    pub sim: Sim,
    pub store: Rc<S>,
    fleet: Rc<Fleet<C>>,
    /// Client-side CPU work per op (workload generation, cache lookup,
    /// completion processing), paid per element in batches too (§7.2).
    op_overhead_ns: Nanos,
    /// Record each direct op's roundtrip count.
    record_rtts: bool,
}

impl<S: KvStore, C: Copy + Eq + Hash> Executor<S, C> {
    /// Pays one op's CPU work, then takes the op from `next` (after the
    /// work, so its RNG draws keep their place in the shared stream),
    /// issues it directly, and records it when `measured`.
    pub async fn one(&self, measured: bool, next: impl FnOnce() -> (C, Op)) -> Reply {
        self.store.endpoint().work(self.op_overhead_ns).await;
        let (class, op) = next();
        let r0 = self.record_rtts.then(|| self.store.rounds());
        let t0 = self.sim.now();
        let reply = issue(&*self.store, op).await;
        let t1 = self.sim.now();
        if measured {
            let rtts = r0.map(|r0| self.store.rounds() - r0);
            self.fleet
                .stats
                .borrow_mut()
                .record(class, t0, t1, &reply, rtts);
        }
        reply
    }

    /// Pays `n` ops' CPU work, takes the `n` point ops from `next`, and
    /// issues them as one pipelined round through [`KvStoreExt`]: gets,
    /// updates and inserts fan out together, deletes (rare in the YCSB
    /// mixes) follow one by one. Every element is charged the whole
    /// round's latency — the price an op pays for riding in a batch.
    /// Returns `(index into the batch, reply)` grouped by kind in that
    /// order, which is also the order they are recorded in.
    pub async fn batch(
        &self,
        n: u64,
        measured: bool,
        next: impl FnOnce() -> Vec<(C, Op)>,
    ) -> Vec<(usize, Reply)> {
        self.store.endpoint().work(self.op_overhead_ns * n).await;
        let mut order: [Vec<(usize, C)>; 4] = Default::default();
        let (mut gets, mut updates, mut inserts, mut deletes) = (vec![], vec![], vec![], vec![]);
        for (i, (class, op)) in next().into_iter().enumerate() {
            let kind = match op {
                Op::Get(key) => {
                    gets.push(key);
                    0
                }
                Op::Update(key, v) => {
                    updates.push((key, v));
                    1
                }
                Op::Insert(key, v, None) => {
                    inserts.push((key, v));
                    2
                }
                Op::Delete(key) => {
                    deletes.push(key);
                    3
                }
                _ => unreachable!("a pipelined batch carries plain point ops only"),
            };
            order[kind].push((i, class));
        }

        let t0 = self.sim.now();
        let (got, (updated, inserted)) = join2(
            self.store.multi_get(&gets),
            join2(
                self.store.multi_update(&updates),
                self.store.multi_insert(&inserts),
            ),
        )
        .await;
        let mut deleted = Vec::with_capacity(deletes.len());
        for key in deletes {
            deleted.push(self.store.delete(key).await);
        }
        let t1 = self.sim.now();

        let replies = (got.into_iter().map(Reply::Got))
            .chain(updated.into_iter().map(Reply::Wrote))
            .chain(inserted.into_iter().map(Reply::Wrote))
            .chain(deleted.into_iter().map(Reply::Wrote));
        let mut stats = self.fleet.stats.borrow_mut();
        order
            .into_iter()
            .flatten()
            .zip(replies)
            .map(|((i, class), reply)| {
                if measured {
                    stats.record(class, t0, t1, &reply, None);
                }
                (i, reply)
            })
            .collect()
    }
}

/// The workers of one simulation: the statistics they record into and how
/// many of them are still running.
pub(crate) struct Fleet<C> {
    pub stats: RefCell<OpStats<C>>,
    active: Cell<usize>,
}

impl<C: 'static> Fleet<C> {
    pub fn new(stats: OpStats<C>) -> Rc<Self> {
        Rc::new(Fleet {
            stats: RefCell::new(stats),
            active: Cell::new(0),
        })
    }

    /// An executor for one client of this fleet on `store`.
    pub fn executor<S>(
        self: &Rc<Self>,
        sim: &Sim,
        store: Rc<S>,
        op_overhead_ns: Nanos,
        record_rtts: bool,
    ) -> Executor<S, C> {
        Executor {
            sim: sim.clone(),
            store,
            fleet: Rc::clone(self),
            op_overhead_ns,
            record_rtts,
        }
    }

    /// Spawns one worker task, counted as active until it returns.
    pub fn spawn(self: &Rc<Self>, sim: &Sim, worker: impl Future<Output = ()> + 'static) {
        self.active.set(self.active.get() + 1);
        let fleet = Rc::clone(self);
        sim.spawn(async move {
            worker.await;
            fleet.active.set(fleet.active.get() - 1);
        });
    }

    /// Whether every spawned worker has returned.
    pub fn idle(&self) -> bool {
        self.active.get() == 0
    }

    /// Drives `sim` in 50 ms horizons until every worker returned, then
    /// returns the statistics. Background tasks may still be live; the
    /// statistics are already final.
    pub fn drive(&self, sim: &Sim) -> OpStats<C> {
        loop {
            sim.run_until(sim.now() + 50 * NANOS_PER_MILLI);
            if self.idle() {
                return self.stats.take();
            }
            assert!(
                sim.live_tasks() > 0,
                "simulation drained with workers still pending"
            );
        }
    }
}
