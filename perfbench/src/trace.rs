//! Host-time tracing from outside the library: nested spans around calls
//! into each layer's public functions, and a timing [`KvStore`] wrapper that
//! charges each operation's host self time and roundtrips to its class.
//!
//! Spans stay in memory and are written out once, when the benchmark ends.
//! Untraced rounds use none of this: they time whole phases with
//! [`std::time::Instant`] only.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::future::Future;
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use swarm_fabric::Endpoint;
use swarm_kv::{KvResult, KvStore, StoreClient};

/// One host-time span: a call into a layer, nested under the span that was
/// open when it started.
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-class tallies of the operations that went through a [`TimedStore`].
#[derive(Default, Clone, Copy)]
pub struct OpTally {
    pub ops: u64,
    /// Host ns spent inside the store's own polls (self time).
    pub self_ns: u64,
    /// Foreground roundtrips, from `KvStore::rounds` deltas.
    pub rounds: u64,
    /// Operations that took exactly one roundtrip.
    pub one_rtt: u64,
}

impl OpTally {
    pub fn host_ns_per_op(&self) -> f64 {
        ratio(self.self_ns as f64, self.ops as f64)
    }

    pub fn one_rtt_frac(&self) -> f64 {
        ratio(self.one_rtt as f64, self.ops as f64)
    }
}

/// `a / b`, or 0 for an empty base.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Operation classes the timing wrapper tallies separately.
#[derive(Clone, Copy)]
pub enum OpClass {
    Get = 0,
    Update = 1,
}

/// The span recorder plus the op tallies of every [`TimedStore`] minted
/// from it.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    tally: Rc<RefCell<[OpTally; 2]>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            tally: Rc::new(RefCell::new([OpTally::default(); 2])),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                parent: self.open.borrow().last().copied(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Wraps a client so its operations are timed into this tracer.
    pub fn wrap(&self, inner: Rc<StoreClient>) -> Rc<TimedStore> {
        Rc::new(TimedStore {
            inner,
            tally: Rc::clone(&self.tally),
        })
    }

    /// Takes the op tallies accumulated so far, leaving them zeroed.
    pub fn take_tally(&self) -> [OpTally; 2] {
        std::mem::take(&mut *self.tally.borrow_mut())
    }

    /// The spans as a JSON array of `{name, parent, start_ns, end_ns}`.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Polls the wrapped future and adds the host time of each poll to a
/// counter: the future's self time, excluding whatever other tasks run
/// between its polls.
struct SelfTimed<'a, F> {
    fut: Pin<&'a mut F>,
    self_ns: &'a Cell<u64>,
}

impl<F: Future> Future for SelfTimed<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let t = Instant::now();
        let out = self.fut.as_mut().poll(cx);
        self.self_ns
            .set(self.self_ns.get() + t.elapsed().as_nanos() as u64);
        out
    }
}

/// A [`KvStore`] that forwards to a store client and tallies, per op class,
/// the host self time of the client's future and its roundtrips. Each
/// client runs one op at a time in every workload here, so the `rounds`
/// delta around an op belongs to that op alone.
pub struct TimedStore {
    inner: Rc<StoreClient>,
    tally: Rc<RefCell<[OpTally; 2]>>,
}

impl TimedStore {
    async fn timed<T>(&self, class: OpClass, fut: impl Future<Output = T>) -> T {
        let r0 = self.inner.rounds();
        let self_ns = Cell::new(0);
        let out = SelfTimed {
            fut: pin!(fut),
            self_ns: &self_ns,
        }
        .await;
        let rounds = self.inner.rounds() - r0;
        let t = &mut self.tally.borrow_mut()[class as usize];
        t.ops += 1;
        t.self_ns += self_ns.get();
        t.rounds += rounds;
        t.one_rtt += u64::from(rounds == 1);
        out
    }
}

impl KvStore for TimedStore {
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        self.timed(OpClass::Get, self.inner.get(key)).await
    }

    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.timed(OpClass::Update, self.inner.update(key, value))
            .await
    }

    // No workload inserts or deletes; these only forward.
    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.inner.insert(key, value).await
    }

    async fn delete(&self, key: u64) -> KvResult<()> {
        self.inner.delete(key).await
    }

    fn rounds(&self) -> u64 {
        self.inner.rounds()
    }

    fn endpoint(&self) -> Rc<Endpoint> {
        self.inner.endpoint()
    }

    fn client_id(&self) -> usize {
        self.inner.client_id()
    }
}
