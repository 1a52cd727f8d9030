//! Service round-trip throughput: the full socket path against a live
//! in-process server.
//!
//! Each iteration is one complete client interaction over a persistent
//! connection — request frame out, the `accepted` and final report
//! frames back — so the measurement covers JSON framing, the
//! bounded queue, the dispatcher hand-off, and the shared engine/cache,
//! not just the solve.
//!
//! Three measurements:
//!
//! * `smoke_round_trip_warm` — submit the 8-point `smoke` suite on a warm
//!   shared cache: the per-submission service overhead once solving is
//!   (almost) free. This is the number the service layer itself owns.
//! * `stats_round_trip` — the cheapest possible request/reply pair: a
//!   protocol floor independent of any solving.
//! * `burst_4_clients` — four connections each submitting `smoke` once,
//!   concurrently: queue admission, fairness rotation and reply writes
//!   under real contention.

use bbs_engine::serve::{read_reply, send_request, Request, ServeConfig, Server};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::TcpStream;

/// Drives one `"run"` to completion, returning the report text length.
fn round_trip(stream: &mut TcpStream, request: &Request) -> usize {
    send_request(stream, request).unwrap();
    loop {
        let reply = read_reply(stream).unwrap().expect("server stays up");
        match reply.kind.as_str() {
            "accepted" => {}
            "report" => return reply.report.expect("report text").len(),
            other => panic!("unexpected reply kind `{other}`"),
        }
    }
}

fn bench_service_throughput(c: &mut Criterion) {
    let server = Server::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);

    let mut stream = TcpStream::connect(addr).unwrap();
    let request = Request::run_builtin("smoke", 2);
    // Warm the shared cache once so the steady-state measurement isolates
    // the service overhead from first-solve cost.
    round_trip(&mut stream, &request);

    group.bench_function("smoke_round_trip_warm", |b| {
        b.iter(|| black_box(round_trip(&mut stream, black_box(&request))));
    });

    group.bench_function("stats_round_trip", |b| {
        b.iter(|| {
            send_request(&mut stream, &Request::stats()).unwrap();
            let reply = read_reply(&mut stream).unwrap().expect("server stays up");
            assert_eq!(reply.kind, "stats");
            black_box(reply.stats)
        });
    });

    group.bench_function("burst_4_clients", |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(move || {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        round_trip(&mut stream, &Request::run_builtin("smoke", 2))
                    })
                })
                .collect();
            let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            black_box(total)
        });
    });

    group.finish();
    drop(stream);
    server.shutdown();
    server.wait();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
