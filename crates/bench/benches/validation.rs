//! Throughput of schedule validation and routing primitives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use commsched::{rs_nl, validate_schedule, PathsTable};
use hypercube::{Hypercube, NodeId, Topology};

fn bench_validation(c: &mut Criterion) {
    let cube = Hypercube::new(6);
    let mut group = c.benchmark_group("validate_n64");
    for d in [8usize, 32] {
        let com = workloads::random_dregular(64, d, 1024, 3);
        let schedule = rs_nl(&com, &cube, 3);
        group.bench_with_input(
            BenchmarkId::new("full_validate", d),
            &(&com, &schedule),
            |b, (com, s)| b.iter(|| black_box(validate_schedule(com, s).is_ok())),
        );
        group.bench_with_input(BenchmarkId::new("link_freedom", d), &schedule, |b, s| {
            b.iter(|| black_box(s.link_contention_free(&cube)))
        });
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let cube = Hypercube::new(10); // 1024 nodes
    c.bench_function("ecube_route_1024", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(977);
            black_box(cube.route(NodeId(i % 1024), NodeId((i * 7) % 1024)))
        })
    });
    let cube6 = Hypercube::new(6);
    c.bench_function("paths_table_claim_cycle", |b| {
        let mut table = PathsTable::new(&cube6);
        let mut ops = 0u64;
        // Routed once, like RS_NL does: the table only sees links.
        let circuits: Vec<_> = (0..32u32)
            .map(|i| cube6.route(NodeId(i), NodeId(63 - i)))
            .collect();
        b.iter(|| {
            table.clear();
            for circuit in &circuits {
                black_box(table.try_claim(circuit.links(), &mut ops));
            }
        })
    });
}

criterion_group!(benches, bench_validation, bench_routing);
criterion_main!(benches);
