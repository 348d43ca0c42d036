//! Serve-storm integration tests: concurrent clients hammer one
//! in-process [`ServeCore`] with a mixed cold / cached / poisoned /
//! zero-deadline workload at worker-pool widths 1, 2 and 8.
//!
//! The counters are asserted **exactly** — the single-flight cache
//! guarantees one miss per cold key at any worker count, facial
//! validation rejects poisoned requests pre-admission, and a
//! `deadline_ms = 0` request is cancelled at submit — and the served
//! artifacts must be byte-identical across all three pool widths
//! (planning is deterministic; concurrency must not leak into plans).

use std::collections::BTreeMap;
use std::sync::Arc;

use paraconv::sched::AllocationPolicy;
use paraconv::serve::{
    PlanRequest, ServeConfig, ServeCore, ServeResponse, ServeStats, ServeStatus, Submission,
};

fn request(id: &str, tenant: &str, benchmark: &str, pes: usize, iterations: u64) -> PlanRequest {
    PlanRequest {
        id: id.into(),
        tenant: tenant.into(),
        benchmark: benchmark.into(),
        pes,
        iterations,
        policy: AllocationPolicy::DynamicProgram,
        deadline_ms: None,
    }
}

/// Roomy limits so the storm exercises planning and caching, not
/// admission control (which has its own deterministic test below).
fn storm_config(jobs: usize) -> ServeConfig {
    ServeConfig {
        jobs,
        queue_capacity: 256,
        registry_path: None,
        quota: 1024,
        breaker_threshold: 1024,
        breaker_cooldown: 8,
        fault: None,
    }
}

const CLIENTS: usize = 4;
/// Per client: 4 hot-key, 1 second-key, 1 poisoned, 1 zero-deadline.
const PER_CLIENT: usize = 7;

/// Runs the mixed storm at the given pool width and returns every
/// response plus the final counters and the served artifacts by key.
fn run_storm(jobs: usize) -> (Vec<ServeResponse>, ServeStats, BTreeMap<String, Vec<u8>>) {
    let core = Arc::new(ServeCore::new(storm_config(jobs)).expect("serve core"));
    core.start();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                let mut responses = Vec::with_capacity(PER_CLIENT);
                for r in 0..4 {
                    let hot = request(&format!("hot-{c}-{r}"), "tenant-a", "cat", 8, 4);
                    responses.push(core.submit(hot).wait());
                }
                let alt = request(&format!("alt-{c}"), "tenant-b", "car", 10, 5);
                responses.push(core.submit(alt).wait());
                let bad = request(&format!("bad-{c}"), "tenant-a", "no-such-benchmark", 8, 4);
                responses.push(core.submit(bad).wait());
                let mut dead = request(&format!("dead-{c}"), "tenant-b", "cat", 8, 4);
                dead.deadline_ms = Some(0);
                responses.push(core.submit(dead).wait());
                responses
            })
        })
        .collect();
    let responses: Vec<ServeResponse> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("storm client panicked"))
        .collect();
    let stats = core.drain();
    let mut artifacts = BTreeMap::new();
    for response in &responses {
        if response.status == ServeStatus::Ok {
            let key = response.key.clone().expect("ok response carries a key");
            let bytes = core
                .cache()
                .lookup(&key)
                .expect("served key must stay resident");
            artifacts.insert(key, bytes.to_vec());
        }
    }
    (responses, stats, artifacts)
}

fn assert_storm_exact(jobs: usize) {
    let (responses, stats, artifacts) = run_storm(jobs);

    // Every submitted request is answered exactly once.
    assert_eq!(responses.len(), CLIENTS * PER_CLIENT);
    let mut ids: Vec<&str> = responses.iter().map(|r| r.id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CLIENTS * PER_CLIENT, "duplicate response ids");

    // Exact terminal counters: 16 hot + 4 alt accepted and served or
    // deadline-answered, 4 poisoned rejected pre-admission, and the
    // single-flight cache computes each of the two cold keys once.
    assert_eq!(
        stats,
        ServeStats {
            accepted: 24,
            shed: 0,
            draining: 0,
            invalid: 4,
            quota: 0,
            circuit_open: 0,
            served: 20,
            hits: 18,
            misses: 2,
            deadline: 4,
            failed: 0,
            worker_kills: 0,
            slow_injected: 0,
        },
        "counters at jobs={jobs}"
    );

    // Status breakdown matches the counters from the response side.
    let count = |status: ServeStatus| responses.iter().filter(|r| r.status == status).count();
    assert_eq!(count(ServeStatus::Ok), 20);
    assert_eq!(count(ServeStatus::Invalid), 4);
    assert_eq!(count(ServeStatus::Deadline), 4);

    // Two distinct artifacts were served (hot + alt parameterization).
    assert_eq!(artifacts.len(), 2, "artifact keys at jobs={jobs}");
}

#[test]
fn storm_jobs_1_exact_counters() {
    assert_storm_exact(1);
}

#[test]
fn storm_jobs_2_exact_counters() {
    assert_storm_exact(2);
}

#[test]
fn storm_jobs_8_exact_counters() {
    assert_storm_exact(8);
}

#[test]
fn artifacts_byte_identical_across_worker_counts() {
    let (_, _, one) = run_storm(1);
    let (_, _, two) = run_storm(2);
    let (_, _, eight) = run_storm(8);
    assert_eq!(one.len(), 2);
    assert_eq!(one, two, "jobs=2 served different bytes than jobs=1");
    assert_eq!(one, eight, "jobs=8 served different bytes than jobs=1");
}

#[test]
fn backpressure_sheds_exactly_beyond_capacity() {
    // Workers are not started yet, so the queue fills deterministically:
    // capacity 2 admits the first two submissions and sheds the rest
    // with the typed overloaded response.
    let core = ServeCore::new(ServeConfig {
        jobs: 1,
        queue_capacity: 2,
        ..storm_config(1)
    })
    .expect("serve core");
    let submissions: Vec<Submission> = (0..5)
        .map(|i| core.submit(request(&format!("bp-{i}"), "tenant-a", "cat", 8, 4)))
        .collect();
    let stats = core.stats();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.shed, 3);

    core.start();
    let mut ok = 0;
    let mut overloaded = 0;
    for submission in submissions {
        match submission.wait().status {
            ServeStatus::Ok => ok += 1,
            ServeStatus::Overloaded => overloaded += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!((ok, overloaded), (2, 3));
    let stats = core.drain();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.shed, 3);
}

#[test]
fn drain_rejects_new_work_typed() {
    let core = ServeCore::new(storm_config(1)).expect("serve core");
    core.start();
    core.drain();
    let response = core.submit(request("late", "tenant-a", "cat", 8, 4)).wait();
    assert_eq!(response.status, ServeStatus::Draining);
    assert_eq!(core.stats().draining, 1);
}

#[test]
fn retained_spans_do_not_grow_with_requests_served() {
    // `paraconv serve` records with obs on, and nothing in serve
    // consumes spans: each worker drops its job's phase spans, so what
    // a worker still holds when it exits (and flushes) is the same
    // after 2 misses as after 12.
    paraconv::obs::enable();
    let retained_after = |misses: u64| {
        let core = ServeCore::new(storm_config(1)).expect("serve core");
        core.start();
        let _ = paraconv::obs::take_spans();
        for i in 0..misses {
            let fresh = request(&format!("miss-{i}"), "tenant-a", "cat", 8, 1 + i);
            assert_eq!(core.submit(fresh).wait().status, ServeStatus::Ok);
        }
        let stats = core.drain();
        assert_eq!(stats.misses, misses);
        paraconv::obs::take_spans().len()
    };
    let few = retained_after(2);
    let many = retained_after(12);
    assert_eq!(few, many, "retained spans grew with the requests served");
}

#[test]
fn oversized_request_line_is_invalid_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};

    let handle = paraconv::serve::daemon::serve("127.0.0.1:0", storm_config(1)).expect("binds");
    let addr = handle.addr();

    // A 1 MiB line with no newline: answered `invalid`, then closed.
    let timeout = Some(std::time::Duration::from_secs(30));
    let hog = std::net::TcpStream::connect(addr).expect("connects");
    hog.set_read_timeout(timeout).expect("read timeout");
    let mut hog_writer = hog.try_clone().expect("clones");
    let flood = std::thread::spawn(move || {
        // The daemon closes the connection mid-flood; the write error
        // that follows is expected.
        let _ = hog_writer.write_all(&vec![b'x'; 1 << 20]);
    });
    let mut hog_reader = BufReader::new(hog);
    let mut line = String::new();
    hog_reader.read_line(&mut line).expect("a response arrives");
    let response = ServeResponse::parse(line.trim()).expect("typed response");
    assert_eq!(response.status, ServeStatus::Invalid);
    let mut rest = String::new();
    assert!(
        matches!(hog_reader.read_line(&mut rest), Ok(0) | Err(_)),
        "the oversized connection is closed"
    );
    flood.join().expect("flood thread");

    // Another connection is still served.
    let client = std::net::TcpStream::connect(addr).expect("connects");
    client.set_read_timeout(timeout).expect("read timeout");
    let mut client_writer = client.try_clone().expect("clones");
    let plan = paraconv::serve::plan_line(&request("after", "tenant-a", "cat", 8, 4));
    client_writer
        .write_all(format!("{plan}\n").as_bytes())
        .expect("request sent");
    let mut reply = String::new();
    BufReader::new(client)
        .read_line(&mut reply)
        .expect("reply arrives");
    let reply = ServeResponse::parse(reply.trim()).expect("typed response");
    assert_eq!(reply.status, ServeStatus::Ok);
    // Hang up, so shutdown can join the connection thread.
    drop(client_writer);

    let stats = handle.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(
        stats.accepted,
        stats.served + stats.deadline + stats.failed,
        "conservation"
    );
}
