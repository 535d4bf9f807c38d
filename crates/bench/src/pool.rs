//! A deterministic job pool for independent experiments.
//!
//! Every job runs on a **fresh** OS thread, never a recycled worker: the
//! observability layer (event ring, metrics registry) is thread-local, so
//! a fresh thread gives each experiment exactly the virgin obs state a
//! standalone binary would see. Concurrency is capped by a counting
//! semaphore whose slots are handed out in submission order; results come
//! back in **submission order** regardless of the interleaving, so
//! `--jobs 8` output is byte-identical to `--jobs 1`.
//!
//! That identity holds only while nothing in the job cone keeps
//! process-wide mutable state: simlint rule D08 enforces it statically by
//! flagging any non-`thread_local!` mutable static in `bench`'s
//! dependency cone (the `Gate` here is a struct field shared by design —
//! it carries no experiment state, only the concurrency cap).
//!
//! One thing *is* shared between jobs, on purpose, and it lives here too:
//! a [`OnceMap`]. The table-pipeline jobs of one invocation (`tables` and
//! `net` in `bench all`) read the same measured-and-solved pass instead of
//! each rebuilding the volume (see [`crate::runners::pipeline`]). It does
//! not weaken the identity above: the pass is built whole on one fresh job
//! thread, its obs snapshot is already inside the artifacts it assembled,
//! nothing mutates it once it is in the map, and the map is a struct field
//! handed to the jobs — like the `Gate`, not a `static`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Condvar;
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

/// One experiment to run: a display label plus the closure that produces
/// its stdout text (artifacts are written by the closure itself).
pub struct Job {
    /// Subcommand-style label ("tables", "chaos seed=7", ...).
    pub label: String,
    /// The experiment body; runs on its own thread.
    pub run: Box<dyn FnOnce() -> String + Send + 'static>,
}

/// One finished job, in submission order.
pub struct JobResult {
    /// The job's label, copied through.
    pub label: String,
    /// Everything the job would have printed to stdout.
    pub output: String,
    /// Wall-clock seconds the job took (measurement only — never part of
    /// the deterministic output).
    pub wall_secs: f64,
}

/// A keyed build-once map: the first caller to ask for a key builds its
/// value on its own thread; callers arriving meanwhile block until it is
/// there; everyone gets the same `Arc`. Values are immutable once in.
///
/// A builder that panics leaves its key empty, so the next caller (or one
/// already waiting) builds it afresh.
#[derive(Debug)]
pub struct OnceMap<K, V> {
    slots: Mutex<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> OnceMap<K, V> {
        OnceMap {
            slots: Mutex::new(BTreeMap::new()),
        }
    }
}

impl<K: Ord, V> OnceMap<K, V> {
    /// The value under `key`, running `build` for it if nobody has yet.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        // The map lock covers the lookup only: builders run outside it,
        // so distinct keys build concurrently and a panicking builder
        // cannot poison it.
        let slot = {
            let mut slots = self
                .slots
                .lock()
                .expect("no code panics holding the slot map");
            Arc::clone(slots.entry(key).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(build())))
    }
}

/// A counting semaphore (std has none): `acquire` blocks while the count
/// is zero.
struct Gate {
    slots: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    /// Takes a slot; dropping the returned [`Slot`] gives it back.
    fn acquire(self: &Arc<Gate>) -> Slot {
        let mut slots = self.slots.lock().expect("the count is a plain integer");
        while *slots == 0 {
            slots = self.cv.wait(slots).expect("the count is a plain integer");
        }
        *slots -= 1;
        Slot(Arc::clone(self))
    }
}

/// One job's place among the `njobs` in flight, given back on drop — so a
/// job that panics frees its place like one that returns.
struct Slot(Arc<Gate>);

impl Drop for Slot {
    fn drop(&mut self) {
        // The count is valid at every step, whoever panicked holding it.
        let mut slots = self.0.slots.lock().unwrap_or_else(|e| e.into_inner());
        *slots += 1;
        self.0.cv.notify_one();
    }
}

/// Runs `jobs` with at most `njobs` in flight, returning results in
/// submission order. Jobs also *start* in submission order — the slot is
/// taken here, before the job's thread exists — so with `njobs == 1` the
/// run is serial in the order given: of two jobs that share a pass (see
/// the module docs) it is the earlier that measures it. Panics in a job
/// propagate after all threads finish.
pub fn run_jobs(jobs: Vec<Job>, njobs: usize) -> Vec<JobResult> {
    let gate = Arc::new(Gate {
        slots: Mutex::new(njobs.max(1)),
        cv: Condvar::new(),
    });
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let slot = gate.acquire();
            let label = job.label;
            let run = job.run;
            let thread_label = label.clone();
            let handle = std::thread::Builder::new()
                .name(format!("bench-{thread_label}"))
                // Experiments recurse through real file-system code; give
                // them the main thread's headroom, not the 2 MiB default.
                .stack_size(8 << 20)
                .spawn(move || {
                    let _slot = slot;
                    let t0 = Instant::now();
                    let output = run();
                    (output, t0.elapsed().as_secs_f64())
                })
                .expect("spawn bench job");
            (label, handle)
        })
        .collect();
    handles
        .into_iter()
        .map(|(label, handle)| {
            let (output, wall_secs) = handle.join().expect("bench job panicked");
            JobResult {
                label,
                output,
                wall_secs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::panic::catch_unwind;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;

    use super::*;

    /// The pipeline's key shape: `(scale.to_bits(), seed, traced)`.
    type Key = (u64, u64, bool);

    #[test]
    fn eight_racing_threads_build_a_key_once() {
        const THREADS: usize = 8;
        let map: OnceMap<Key, usize> = OnceMap::default();
        let builds = AtomicUsize::new(0);
        // Every thread announces itself just before asking; the builder
        // holds the key open until all eight have, so the other seven are
        // at the map while the build is still in flight.
        let (arrived, arrivals) = mpsc::channel();
        let arrivals = Mutex::new(arrivals);
        let key = (0.5f64.to_bits(), 1999, true);
        let got: Vec<Arc<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let arrived = arrived.clone();
                    let (map, builds, arrivals) = (&map, &builds, &arrivals);
                    s.spawn(move || {
                        arrived.send(()).expect("receiver outlives the threads");
                        map.get_or_build(key, || {
                            let arrivals = arrivals.lock().expect("one builder at a time");
                            for _ in 0..THREADS {
                                arrivals.recv().expect("every thread announces itself");
                            }
                            builds.fetch_add(1, Ordering::SeqCst) + 42
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no thread panics"))
                .collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "built more than once");
        for value in &got {
            assert_eq!(**value, 42);
            assert!(Arc::ptr_eq(value, &got[0]), "everyone shares one value");
        }
    }

    #[test]
    fn distinct_keys_never_alias() {
        let map: OnceMap<Key, String> = OnceMap::default();
        let builds = AtomicUsize::new(0);
        // Differ in one component at a time, including scales whose bits
        // differ only in the last place.
        let scale = 1.0f64 / 64.0;
        let keys: [Key; 5] = [
            (scale.to_bits(), 1999, true),
            (scale.to_bits(), 1999, false),
            (scale.to_bits(), 7, true),
            ((scale / 2.0).to_bits(), 1999, true),
            (scale.to_bits() + 1, 1999, true),
        ];
        for round in 0..2 {
            for key in keys {
                let value = map.get_or_build(key, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    format!("{key:?}")
                });
                assert_eq!(*value, format!("{key:?}"), "round {round}");
            }
        }
        assert_eq!(builds.load(Ordering::SeqCst), keys.len());
    }

    #[test]
    fn a_panicking_builder_leaves_its_key_buildable() {
        let map: OnceMap<Key, u32> = OnceMap::default();
        let key = (0, 0, false);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            map.get_or_build(key, || panic!("builder gives up"))
        }));
        assert!(failed.is_err(), "the builder's panic reaches its caller");
        assert_eq!(*map.get_or_build(key, || 7), 7, "the next caller builds");
        assert_eq!(*map.get_or_build(key, || 8), 7, "and that value stays");
    }

    fn job(label: &str, run: impl FnOnce() -> String + Send + 'static) -> Job {
        Job {
            label: label.to_string(),
            run: Box::new(run),
        }
    }

    #[test]
    fn one_at_a_time_means_submission_order() {
        let started = Arc::new(Mutex::new(Vec::new()));
        let jobs = (0..16)
            .map(|i| {
                let started = Arc::clone(&started);
                job(&format!("j{i}"), move || {
                    started.lock().expect("no job panics").push(i);
                    format!("out{i}")
                })
            })
            .collect();
        let results = run_jobs(jobs, 1);
        let order = started.lock().expect("no job panics").clone();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
        assert_eq!(results[15].label, "j15");
        assert_eq!(results[15].output, "out15");
    }

    #[test]
    fn a_panicking_job_frees_its_slot_and_fails_the_run() {
        let ran_after = Arc::new(AtomicUsize::new(0));
        let after = Arc::clone(&ran_after);
        let jobs = vec![
            job("dies", || panic!("job gives up")),
            job("after", move || {
                after.fetch_add(1, Ordering::SeqCst);
                String::new()
            }),
        ];
        let run = catch_unwind(AssertUnwindSafe(|| run_jobs(jobs, 1)));
        assert!(run.is_err(), "the job's panic reaches the caller");
        assert_eq!(ran_after.load(Ordering::SeqCst), 1, "the queue moved on");
    }
}
