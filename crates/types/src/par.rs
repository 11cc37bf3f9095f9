//! The workspace's one fan-out primitive: a deterministic fork-join
//! worker pool, one width per process.
//!
//! Only work that is wide fans out on a [`WorkerPool`]: capacity pair
//! panels of at least 256 solves and storage's per-partition commits.
//! The rest of a round — the monitor's poll, the checker's groups, its
//! re-seed, incremental and per-candidate invariant checks, the
//! updater's diffs, in-flight checks and command rendering — runs on the
//! caller's thread.
//! The pool guarantees that `run(items, f)` returns exactly what
//! the serial `items.into_iter().enumerate().map(f)` would, in item
//! order, regardless of worker count: items are dealt to workers by
//! stride, each worker tags results with the item index, and the merge
//! reorders by index. No work-stealing, no shared mutable state, no
//! scheduling dependence. Effectful stages whose *order* matters
//! (command issue, RNG draws, sim clock stepping) stay on the caller's
//! thread.
//!
//! The width is [`default_worker_threads`]: `STATESMAN_WORKER_THREADS`,
//! else the host's available parallelism. It is read once per process:
//! the variable is a start-up setting, and the host's parallelism costs
//! cgroup file reads to ask. Every pool is `WorkerPool::default()`;
//! nothing sizes one per instance.

/// Fixed-size deterministic fork-join pool. Cheap to construct (holds
/// only the thread count); threads are scoped per `run` call so the
/// pool is trivially `Send + Sync` and never leaks OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

/// The default worker count: `STATESMAN_WORKER_THREADS` when set to a
/// positive integer, else the host's available parallelism, else 1.
/// Resolved on first use and fixed for the life of the process.
pub fn default_worker_threads() -> usize {
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *RESOLVED.get_or_init(|| {
        if let Ok(raw) = std::env::var("STATESMAN_WORKER_THREADS") {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new(default_worker_threads())
    }
}

impl WorkerPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, returning results in item order. Pass a
    /// slice to borrow each item, or a `Vec` to move each item into `f`.
    /// One item (or one worker) runs inline on the caller's thread with
    /// no spawn.
    ///
    /// `f`'s output must be a function of the index and item alone for
    /// the determinism guarantee to mean anything; the pool only
    /// guarantees *ordering*, independence is the caller's contract.
    pub fn run<I, R, F>(&self, items: I, f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Send,
        R: Send,
        F: Fn(usize, I::Item) -> R + Sync,
    {
        let items = items.into_iter();
        let len = items.len();
        let workers = self.threads.min(len);
        if workers <= 1 {
            return items.enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut hands: Vec<Vec<(usize, I::Item)>> = (0..workers)
            .map(|_| Vec::with_capacity(len / workers + 1))
            .collect();
        for (i, t) in items.enumerate() {
            hands[i % workers].push((i, t));
        }
        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(len);
        std::thread::scope(|scope| {
            let handles: Vec<_> = hands
                .into_iter()
                .map(|hand| {
                    let f = &f;
                    scope.spawn(move || {
                        hand.into_iter()
                            .map(|(i, t)| (i, f(i, t)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                tagged.extend(h.join().expect("worker panicked"));
            }
        });
        tagged.sort_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_item_order_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let reference: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            assert_eq!(
                pool.run(&items, |_, x| x * 3 + 1),
                reference,
                "threads={threads}"
            );
            // By value: each item is moved into `f`, same order.
            let owned: Vec<String> = items.iter().map(|x| x.to_string()).collect();
            let got = pool.run(owned, |i, s: String| (i as u64, s));
            assert!(
                got.iter()
                    .zip(&items)
                    .all(|((i, s), x)| i == x && *s == x.to_string()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkerPool::new(8);
        let empty: Vec<u8> = vec![];
        assert!(pool.run(&empty, |_, x| *x).is_empty());
        assert_eq!(pool.run(&[42u8], |_, x| *x), vec![42]);
    }
}
