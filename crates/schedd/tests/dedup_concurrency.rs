//! Concurrency contract of the dedup/batch stage: N threads submitting
//! the same fingerprint observe exactly one compile, distinct
//! fingerprints never coalesce, and a failing compile propagates the
//! same typed error to every coalesced waiter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread;

use commrt::BackendKind;
use schedd::{
    SchemeChoice, ServiceConfig, ServiceError, ServiceState, SingleFlight, SubmitRequest,
    TopologySpec,
};

fn request(dims: u32, seed: u64) -> SubmitRequest {
    let n = 1usize << dims;
    SubmitRequest {
        request_id: seed,
        want_schedule: true,
        topology: TopologySpec::Hypercube { dims },
        scheduler: "RS_NL".into(),
        scheme: SchemeChoice::Default,
        backend: BackendKind::Analytic,
        seed,
        matrix: workloads::Generator::dregular(n, 4.min(n - 1), 1024).generate(seed),
        cost_model: schedd::LinkCostModel::Uniform,
    }
}

/// A gate that holds the flight leader inside its closure until every
/// expected waiter has piled onto the same key — makes "they ran
/// concurrently" a certainty instead of a sleep-length bet.
struct Gate {
    waiting: Mutex<usize>,
    cond: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            waiting: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    fn arrive(&self) {
        *self.waiting.lock().unwrap() += 1;
        self.cond.notify_all();
    }

    fn wait_for(&self, n: usize) {
        let mut waiting = self.waiting.lock().unwrap();
        while *waiting < n {
            waiting = self.cond.wait(waiting).unwrap();
        }
    }
}

#[test]
fn same_key_concurrent_callers_observe_one_execution() {
    const THREADS: usize = 8;
    let flight: Arc<SingleFlight<u64, u64, ServiceError>> = Arc::new(SingleFlight::new());
    let runs = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Gate::new());

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let flight = Arc::clone(&flight);
            let runs = Arc::clone(&runs);
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                flight.run(42, || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    // Leader: hold the flight open until every other
                    // thread has become a waiter on this key.
                    gate.wait_for(THREADS - 1);
                    Ok(7u64)
                })
            })
        })
        .collect();

    // Release the leader only once every other thread is observably
    // coalesced onto its flight.
    while flight.stats().coalesced < (THREADS - 1) as u64 {
        thread::yield_now();
    }
    for _ in 0..(THREADS - 1) {
        gate.arrive();
    }

    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one execution");
    assert!(results.iter().all(|(r, _)| *r == Ok(7)));
    assert_eq!(results.iter().filter(|(_, led)| *led).count(), 1);
    let stats = flight.stats();
    assert_eq!(stats.leads, 1);
    assert_eq!(stats.coalesced, (THREADS - 1) as u64);
    assert_eq!(flight.in_flight(), 0);
}

#[test]
fn same_fingerprint_submissions_compile_exactly_once() {
    const THREADS: usize = 6;
    let state = Arc::new(ServiceState::new(&ServiceConfig::default()));
    let req = request(4, 11);
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let state = Arc::clone(&state);
            let req = req.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                state.process(&req).expect("pipeline succeeds")
            })
        })
        .collect();
    let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Exactly one compile no matter how the threads interleaved: the
    // cache counts exactly one miss, the service exactly one compile,
    // and exactly one reply carries freshly_compiled.
    assert_eq!(state.cache_stats().misses, 1);
    assert_eq!(state.compiles(), 1);
    assert_eq!(
        replies.iter().filter(|r| r.freshly_compiled).count(),
        1,
        "exactly one reply observed the compile"
    );
    // Every reply is byte-identical: same fingerprint, same schedule,
    // same estimate.
    let first = &replies[0];
    for reply in &replies {
        assert_eq!(reply.fingerprint, first.fingerprint);
        assert_eq!(reply.schedule, first.schedule);
        assert_eq!(reply.estimate, first.estimate);
    }
}

#[test]
fn distinct_fingerprints_never_coalesce() {
    const THREADS: usize = 6;
    let state = Arc::new(ServiceState::new(&ServiceConfig::default()));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let state = Arc::clone(&state);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                // Distinct seeds → distinct fingerprints.
                state
                    .process(&request(4, i as u64))
                    .expect("pipeline succeeds")
            })
        })
        .collect();
    let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(state.cache_stats().misses, THREADS as u64);
    assert_eq!(state.compiles(), THREADS as u64);
    assert_eq!(state.flight_stats().coalesced, 0, "nothing coalesced");
    assert!(replies.iter().all(|r| r.freshly_compiled));
    let distinct: std::collections::HashSet<_> = replies.iter().map(|r| r.fingerprint).collect();
    assert_eq!(distinct.len(), THREADS);
}

#[test]
fn failing_compile_propagates_the_same_error_to_every_waiter() {
    const THREADS: usize = 6;
    let flight: Arc<SingleFlight<u64, u64, ServiceError>> = Arc::new(SingleFlight::new());
    let gate = Arc::new(Gate::new());
    let attempts = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let flight = Arc::clone(&flight);
            let gate = Arc::clone(&gate);
            let attempts = Arc::clone(&attempts);
            thread::spawn(move || {
                flight.run(9, || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    gate.wait_for(THREADS - 1);
                    Err(ServiceError::Sim("injected backend failure".into()))
                })
            })
        })
        .collect();

    while flight.stats().coalesced < (THREADS - 1) as u64 {
        thread::yield_now();
    }
    for _ in 0..(THREADS - 1) {
        gate.arrive();
    }

    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(attempts.load(Ordering::SeqCst), 1, "one failing compile");
    let expected = ServiceError::Sim("injected backend failure".into());
    for (result, _) in &results {
        assert_eq!(result.as_ref().unwrap_err(), &expected);
    }
    // The error is per-flight, not sticky: a later call retries fresh.
    let (retry, led) = flight.run(9, || Ok(1));
    assert_eq!((retry, led), (Ok(1), true));
}

#[test]
fn interleaved_duplicate_mix_compiles_each_unique_once() {
    // A duplicate-heavy mix from many threads: every unique fingerprint
    // compiles exactly once regardless of interleaving.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 40;
    const UNIQUE: u64 = 5;
    let state = Arc::new(ServiceState::new(&ServiceConfig::default()));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let state = Arc::clone(&state);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    let seed = ((t * PER_THREAD + i) as u64 * 7) % UNIQUE;
                    let reply = state.process(&request(3, seed)).expect("pipeline succeeds");
                    assert_eq!(reply.request_id, seed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(state.compiles(), UNIQUE);
    assert_eq!(state.cache_stats().misses, UNIQUE);
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(
        state.cache_stats().requests + state.flight_stats().coalesced,
        total
    );
}
