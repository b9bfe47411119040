//! Microbenchmarks of the RNS encoding hot paths: route-ID computation
//! (controller side, per route), incremental extension (adding one
//! protection segment), and the per-packet residue (dataplane side).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kar::{EncodedRoute, EncodingCache, Protection, RouteSpec};
use kar_rns::{crt_decode, crt_encode, crt_extend, is_prime, residue, BigUint, RnsBasis};
use kar_topology::topo15;

fn basis_of(len: usize) -> (RnsBasis, Vec<u64>) {
    let moduli: Vec<u64> = (3u64..).filter(|&n| is_prime(n)).take(len).collect();
    let ports: Vec<u64> = moduli.iter().map(|&m| m - 1).collect();
    (RnsBasis::new(moduli).unwrap(), ports)
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("crt_encode");
    for len in [4usize, 8, 16, 32, 64] {
        let (basis, ports) = basis_of(len);
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| crt_encode(black_box(&basis), black_box(&ports)).unwrap())
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("crt_decode");
    for len in [4usize, 16, 64] {
        let (basis, ports) = basis_of(len);
        let r = crt_encode(&basis, &ports).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| crt_decode(black_box(&r), black_box(&basis)))
        });
    }
    group.finish();
}

fn bench_extend(c: &mut Criterion) {
    let mut group = c.benchmark_group("crt_extend");
    for len in [4usize, 16, 64] {
        let (basis, ports) = basis_of(len);
        let r = crt_encode(&basis, &ports).unwrap();
        let extra = (1000u64..).find(|&n| is_prime(n)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| crt_extend(black_box(&r), black_box(&basis), extra, 3).unwrap())
        });
    }
    group.finish();
}

fn bench_residue(c: &mut Criterion) {
    // The entire per-packet dataplane operation: one modulo of a large
    // route ID by a small switch ID.
    let mut group = c.benchmark_group("residue_per_packet");
    for len in [4usize, 16, 64] {
        let (basis, ports) = basis_of(len);
        let r = crt_encode(&basis, &ports).unwrap();
        group.bench_with_input(
            BenchmarkId::new("bits", basis.bit_length()),
            &len,
            |b, _| b.iter(|| residue(black_box(&r), black_box(101))),
        );
    }
    group.finish();
}

fn bench_route_encode_cached(c: &mut Criterion) {
    // The full controller path on topo15 with full protection (the
    // route every Fig. 5 full-protection run installs).
    let topo = topo15::build();
    let primary = topo15::primary_route(&topo);
    let segments = kar::protection::plan_full(&topo, &primary);
    let spec = RouteSpec::protected(primary.clone(), segments);
    let mut group = c.benchmark_group("route_encode_repeated");
    group.bench_function("uncached", |b| {
        b.iter(|| EncodedRoute::encode(black_box(&topo), black_box(&spec)).unwrap())
    });
    group.bench_function("cached", |b| {
        let cache = EncodingCache::new();
        b.iter(|| cache.encode(black_box(&topo), black_box(&spec)).unwrap())
    });
    group.bench_function("cached_auto_full", |b| {
        let cache = EncodingCache::new();
        b.iter(|| {
            cache
                .encode_with_protection(
                    black_box(&topo),
                    primary.clone(),
                    black_box(&Protection::AutoFull),
                )
                .unwrap()
        })
    });
    group.finish();
}

fn bench_biguint_ops(c: &mut Criterion) {
    let a: BigUint = "340282366920938463463374607431768211456123456789"
        .parse()
        .unwrap();
    let b_: BigUint = "987654321987654321987654321".parse().unwrap();
    c.bench_function("biguint_mul_160x90_bits", |b| {
        b.iter(|| black_box(&a).mul_big(black_box(&b_)))
    });
    c.bench_function("biguint_divmod_160_by_90_bits", |b| {
        b.iter(|| black_box(&a).divmod_big(black_box(&b_)))
    });
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_extend,
    bench_residue,
    bench_route_encode_cached,
    bench_biguint_ops
);
criterion_main!(benches);
