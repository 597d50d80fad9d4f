//! Ordered parallel fold: the one way the crates fan work out to threads.
//!
//! [`try_ordered_fold`] cuts `0..items` into chunks of `chunk_len` items.
//! Worker threads pull chunk indices from an atomic cursor and fill one
//! buffer per chunk; the calling thread folds the buffers **strictly in
//! chunk order**.  The fold therefore sees exactly the sequence a serial loop
//! over the chunks would produce, so every result built on it is
//! bit-identical for every thread count — the property the
//! thread-invariance pins across the workspace rest on.
//!
//! Memory stays bounded: a worker may only start a chunk that lies within
//! `2 × workers` of the next chunk to fold, so at most that many buffers
//! (plus the one being folded) are alive at once, and every folded buffer
//! goes back to a free list the workers take from.  A caller that keeps its
//! buffers' capacity (`clear`, not a fresh `Vec`) reaches an
//! allocation-free steady state.
//!
//! With one thread, or fewer than two chunks, everything runs on the
//! calling thread with a single buffer — inputs too small to pay for thread
//! start-up never spawn any.

use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// The worker count parallel phases use: `std::thread::available_parallelism`,
/// or 1 when it is unknown.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// [`try_ordered_fold`] for a fold that cannot fail.
pub fn ordered_fold<S, B: Default + Send>(
    threads: usize,
    items: usize,
    chunk_len: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Range<usize>, &mut B) + Sync,
    mut fold: impl FnMut(Range<usize>, &mut B),
) {
    let Ok(()) = try_ordered_fold(threads, items, chunk_len, init, work, |r, b| {
        fold(r, b);
        Ok::<(), Infallible>(())
    });
}

/// Runs `work` over the chunks of `0..items` on up to `threads` workers and
/// `fold`s the chunk buffers on the calling thread in ascending chunk order.
///
/// * `init` makes one worker-private state (BFS scratch, a checker, …); it
///   runs once per worker, on that worker.
/// * `work(state, range, buf)` computes chunk `range` into `buf`.  `buf` is a
///   recycled buffer holding whatever the fold left in it, so `work` must
///   clear or overwrite it.
/// * `fold(range, buf)` consumes one chunk's buffer.  The first `Err` stops
///   the sweep: no later chunk is folded, workers stop pulling chunks, and
///   the error is returned.
///
/// A panic in `work` or `fold` stops every worker and propagates.
pub fn try_ordered_fold<S, B: Default + Send, E>(
    threads: usize,
    items: usize,
    chunk_len: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Range<usize>, &mut B) + Sync,
    mut fold: impl FnMut(Range<usize>, &mut B) -> Result<(), E>,
) -> Result<(), E> {
    let chunk_len = chunk_len.max(1);
    let chunks = items.div_ceil(chunk_len);
    let range = |c: usize| c * chunk_len..((c + 1) * chunk_len).min(items);
    let workers = threads.min(chunks);
    if workers <= 1 {
        let mut state = init();
        let mut buf = B::default();
        for c in 0..chunks {
            work(&mut state, range(c), &mut buf);
            fold(range(c), &mut buf)?;
        }
        return Ok(());
    }

    let window = 2 * workers;
    let shared = Shared {
        slots: Mutex::new(Slots {
            next_fold: 0,
            ready: (0..window).map(|_| None).collect(),
            free: Vec::new(),
            stopped: false,
        }),
        filled: Condvar::new(),
        advanced: Condvar::new(),
    };
    // The cursor only hands out indices; the buffers themselves travel
    // through the mutex, which orders every access to them.
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _stop_on_panic = StopOnPanic(&shared);
                let mut state = init();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        return;
                    }
                    let mut buf = {
                        let mut s = shared.lock();
                        while c >= s.next_fold + window && !s.stopped {
                            s = shared
                                .advanced
                                .wait(s)
                                .expect("ordered fold: a thread panicked holding the lock");
                        }
                        if s.stopped {
                            return;
                        }
                        s.free.pop().unwrap_or_default()
                    };
                    work(&mut state, range(c), &mut buf);
                    let mut s = shared.lock();
                    s.ready[c % window] = Some(buf);
                    if c == s.next_fold {
                        shared.filled.notify_one();
                    }
                }
            });
        }

        let _stop_on_panic = StopOnPanic(&shared);
        let mut spent: Option<B> = None;
        for c in 0..chunks {
            let mut buf = {
                let mut s = shared.lock();
                s.free.extend(spent.take());
                let buf = loop {
                    if let Some(buf) = s.ready[c % window].take() {
                        break buf;
                    }
                    if s.stopped {
                        // A worker panicked; the scope re-raises its panic.
                        return Ok(());
                    }
                    s = shared
                        .filled
                        .wait(s)
                        .expect("ordered fold: a thread panicked holding the lock");
                };
                s.next_fold = c + 1;
                shared.advanced.notify_all();
                buf
            };
            if let Err(e) = fold(range(c), &mut buf) {
                shared.lock().stopped = true;
                shared.advanced.notify_all();
                return Err(e);
            }
            spent = Some(buf);
        }
        Ok(())
    })
}

/// Coordination state of one [`try_ordered_fold`] sweep.
struct Shared<B> {
    slots: Mutex<Slots<B>>,
    /// Signalled when the chunk the fold waits for has been stored.
    filled: Condvar,
    /// Signalled when the fold window moves or the sweep stops.
    advanced: Condvar,
}

struct Slots<B> {
    /// The chunk the fold consumes next.
    next_fold: usize,
    /// Finished buffers, chunk `c` in slot `c % window`; chunks in flight
    /// never lie `window` or more past `next_fold`, so slots never collide.
    ready: Vec<Option<B>>,
    /// Folded buffers, handed back to the workers.
    free: Vec<B>,
    /// Set when the fold stops early or a thread panicked.
    stopped: bool,
}

impl<B> Shared<B> {
    fn lock(&self) -> MutexGuard<'_, Slots<B>> {
        self.slots
            .lock()
            .expect("ordered fold: a thread panicked holding the lock")
    }
}

/// Stops the sweep when the thread holding it unwinds, so no other thread
/// waits forever for a chunk or a window move that will never come.
struct StopOnPanic<'a, B>(&'a Shared<B>);

impl<B> Drop for StopOnPanic<'_, B> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut s = self
                .0
                .slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s.stopped = true;
            self.0.filled.notify_all();
            self.0.advanced.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Folds the chunk ranges of `0..items` and returns them in fold order.
    fn folded_ranges(threads: usize, items: usize, chunk_len: usize) -> Vec<Range<usize>> {
        let mut seen = Vec::new();
        ordered_fold(
            threads,
            items,
            chunk_len,
            || (),
            |_, r, buf: &mut Vec<usize>| {
                buf.clear();
                buf.extend(r);
            },
            |r, buf| {
                assert_eq!(buf.as_slice(), r.clone().collect::<Vec<_>>().as_slice());
                seen.push(r);
            },
        );
        seen
    }

    #[test]
    fn thread_counts_fold_the_same_chunks_in_order() {
        for threads in [1, 2, 3, 7] {
            assert_eq!(
                folded_ranges(threads, 10, 3),
                vec![0..3, 3..6, 6..9, 9..10],
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn thread_counts_with_no_items_fold_nothing() {
        for threads in [1, 2, 7] {
            assert!(folded_ranges(threads, 0, 4).is_empty());
        }
    }

    #[test]
    fn thread_counts_above_the_chunk_count_still_fold_every_chunk() {
        for threads in [2, 3, 7, 64] {
            assert_eq!(folded_ranges(threads, 2, 1), vec![0..1, 1..2]);
            assert_eq!(folded_ranges(threads, 5, 100), vec![0..5]);
        }
    }

    #[test]
    fn thread_fold_is_ordered_under_out_of_order_completion() {
        // Chunk 0 cannot finish before chunk 1 has: the fold must still see
        // chunk 0 first, and chunk 1 must have been held back for it.
        let (done_1, wait_1) = mpsc::channel::<()>();
        let wait_1 = Mutex::new(wait_1);
        let completed = Mutex::new(Vec::new());
        let mut folded = Vec::new();
        ordered_fold(
            2,
            6,
            1,
            || (),
            |_, r, buf: &mut usize| {
                if r.start == 0 {
                    wait_1
                        .lock()
                        .expect("test lock")
                        .recv()
                        .expect("chunk 1 signals");
                }
                *buf = r.start;
                completed.lock().expect("test lock").push(r.start);
                if r.start == 1 {
                    done_1.send(()).expect("chunk 0 listens");
                }
            },
            |r, buf| {
                assert_eq!(*buf, r.start);
                folded.push(r.start);
            },
        );
        let completed = completed.into_inner().expect("test lock");
        let pos = |c: usize| completed.iter().position(|&x| x == c);
        assert!(pos(1) < pos(0), "completion order {completed:?}");
        assert_eq!(folded, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn thread_window_bounds_buffers_in_flight() {
        // Each buffer counts how many chunks it has carried: with recycling,
        // no more than window + 1 distinct buffers may ever exist.
        let made = AtomicUsize::new(0);
        struct Counted(usize);
        impl Default for Counted {
            fn default() -> Self {
                Counted(usize::MAX)
            }
        }
        ordered_fold(
            3,
            500,
            1,
            || (),
            |_, _, buf: &mut Counted| {
                if buf.0 == usize::MAX {
                    buf.0 = made.fetch_add(1, Ordering::Relaxed);
                }
            },
            |_, _| {},
        );
        let made = made.into_inner();
        assert!(made <= 2 * 3 + 1, "{made} buffers for a window of 6");
    }

    #[test]
    fn thread_fold_error_stops_the_sweep() {
        for threads in [1, 2, 3] {
            let mut folded = 0;
            let res = try_ordered_fold(
                threads,
                100,
                1,
                || (),
                |_, r, buf: &mut usize| *buf = r.start,
                |_, buf| {
                    if *buf == 5 {
                        return Err(*buf);
                    }
                    folded += 1;
                    Ok(())
                },
            );
            assert_eq!(res, Err(5));
            assert_eq!(folded, 5);
        }
    }

    #[test]
    #[should_panic]
    fn thread_worker_panic_propagates() {
        ordered_fold(
            2,
            8,
            1,
            || (),
            |_, r, _: &mut ()| assert!(r.start != 3, "chunk 3 fails"),
            |_, _| {},
        );
    }
}
