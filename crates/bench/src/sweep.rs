//! Thread counts for sweeps over independent simulation cells.
//!
//! Every long experiment is a sweep over independent `(seed, config)` cells:
//! each cell builds its own single-threaded, seeded [`swarm_sim::Sim`] and is
//! bit-for-bit deterministic in isolation. Cells run on
//! [`swarm_kv::sweep_on`], the work-stealing pool that also runs
//! `ShardMode::Threads`, and results come back in *cell order* — so the
//! output of a parallel sweep is byte-identical to the sequential one,
//! whatever the thread count or scheduling.
//!
//! Thread count comes from `SWARM_BENCH_THREADS` (default: all cores). The
//! cell closure must return only `Send` data (row strings, summary numbers);
//! the `Sim` and everything built on it stay confined to the worker thread.

use std::sync::atomic::{AtomicBool, Ordering};

use swarm_kv::{available_cores, sweep_on};

/// The sweep thread count: `SWARM_BENCH_THREADS` if set (a positive
/// integer), otherwise the number of available cores. An unparsable value
/// is ignored with a one-time warning (the shared `swarm_kv::env_knob`
/// convention, same as `SWARM_BENCH_OPS_SCALE` and `SWARM_CHAOS_SEEDS`).
pub fn sweep_threads() -> usize {
    swarm_kv::env_knob("SWARM_BENCH_THREADS", "a positive integer like 8", |n| {
        *n >= 1
    })
    .unwrap_or_else(available_cores)
}

/// Whether the oversubscription warning already fired (once per process,
/// like the env-knob warnings).
static OVERSUBSCRIBE_WARNED: AtomicBool = AtomicBool::new(false);

/// Caps a two-level `(cell_threads, shard_threads)` request so the product
/// never oversubscribes `cores`. Shard threads win (they parallelize
/// *inside* a cell, so they help even when a sweep has few cells); cell
/// threads then take whatever cores remain. Both results stay >= 1.
pub fn cap_thread_product(cell: usize, shard: usize, cores: usize) -> (usize, usize) {
    let cores = cores.max(1);
    let shard_c = shard.clamp(1, cores);
    let cell_c = cell.clamp(1, (cores / shard_c).max(1));
    (cell_c, shard_c)
}

/// The two-level parallelism of a sweep whose cells run shard threads
/// (`ShardMode::Threads`): `SWARM_BENCH_THREADS` sweep cells ×
/// `SWARM_SHARD_THREADS` shard threads per cell, capped so the product
/// does not exceed the available cores (a 16-cell × 16-shard request on
/// an 8-core host would otherwise run 256 OS threads and lose to
/// scheduling thrash). Warns once when the cap bites. A sweep whose cells
/// run no shard threads sizes itself with [`sweep_threads`] alone.
pub fn composed_threads() -> (usize, usize) {
    let cell = sweep_threads();
    let shard = swarm_kv::shard_threads();
    let cores = available_cores();
    let (cell_c, shard_c) = cap_thread_product(cell, shard, cores);
    if (cell_c, shard_c) != (cell, shard) && !OVERSUBSCRIBE_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warn: capping sweep x shard threads {cell}x{shard} to {cell_c}x{shard_c} \
             ({cores} cores available)"
        );
    }
    (cell_c, shard_c)
}

/// Runs `run` over every cell on up to [`sweep_threads`] worker threads and
/// returns the results in cell order.
pub fn sweep<T, R, F>(cells: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    sweep_on(sweep_threads(), cells, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_product_cap_prefers_shard_threads() {
        // Within budget: untouched.
        assert_eq!(cap_thread_product(2, 4, 8), (2, 4));
        assert_eq!(cap_thread_product(1, 1, 1), (1, 1));
        // Over budget: shard threads keep up to all cores, cells get the
        // integer remainder of the budget.
        assert_eq!(cap_thread_product(16, 16, 8), (1, 8));
        assert_eq!(cap_thread_product(8, 3, 8), (2, 3));
        assert_eq!(cap_thread_product(4, 2, 4), (2, 2));
        // Degenerate inputs never produce a zero thread count.
        assert_eq!(cap_thread_product(0, 0, 8), (1, 1));
        assert_eq!(cap_thread_product(5, 9, 0), (1, 1));
        // The capped product never exceeds the core budget.
        for cell in 1..=20 {
            for shard in 1..=20 {
                for cores in 1..=12 {
                    let (c, s) = cap_thread_product(cell, shard, cores);
                    assert!(c >= 1 && s >= 1);
                    assert!(c * s <= cores, "{cell}x{shard}@{cores} -> {c}x{s}");
                }
            }
        }
    }

    #[test]
    fn composed_threads_is_within_budget() {
        // Whatever the environment says, the composition must come back
        // usable: both levels >= 1 and the product within the core budget
        // (unless a single level already uses every core).
        let (cell, shard) = composed_threads();
        let cores = available_cores();
        assert!(cell >= 1 && shard >= 1);
        assert!(cell * shard <= cores);
    }
}
