//! Criterion microbenches for the query hot path: sharded cache hits under
//! concurrent scanners, sized-path exchange repartitioning, and hash-join
//! build+probe. The `repro hotpath` binary runs the same code paths and
//! persists the numbers to `BENCH_hotpath.json`.

use asterix_adm::Value;
use asterix_hyracks::ops::drive;
use asterix_hyracks::{Frame, RuntimeCtx, Tuple};
use asterix_storage::cache::{BufferCache, CacheOptions};
use asterix_storage::io::{FileManager, PAGE_SIZE};
use asterix_storage::stats::IoStats;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("asterix-bench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn cache_hits(c: &mut Criterion) {
    let root = bench_dir("hotpath-cache");
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    let id = fm.create("hot.pf").unwrap();
    let pages = 64u64;
    for i in 0..pages {
        let mut p = vec![0u8; PAGE_SIZE];
        p[..8].copy_from_slice(&i.to_le_bytes());
        fm.append_page(id, &p).unwrap();
    }
    let sharded = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 128, shards: 8, readahead_pages: 0 },
    );
    for p in 0..pages {
        sharded.get(id, p).unwrap();
    }
    let mut g = c.benchmark_group("cache_hits");
    g.sample_size(10);
    g.bench_function("sharded_1_scanner", |b| {
        b.iter(|| {
            for p in 0..pages {
                black_box(sharded.get(id, p).unwrap());
            }
        })
    });
    g.bench_function("sharded_4_scanners", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for p in 0..pages {
                            black_box(sharded.get(id, p).unwrap());
                        }
                    });
                }
            })
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(root);
}

fn exchange_repartition(c: &mut Criterion) {
    let n = 10_000usize;
    let build = || -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut f = Frame::new();
        for i in 0..n {
            let t: Tuple = vec![
                Value::Int(i as i64),
                Value::from(format!("payload-{i:08}-{}", "x".repeat(24))),
            ];
            if f.push(t).unwrap_or(false) {
                frames.push(f.take());
            }
        }
        if !f.is_empty() {
            frames.push(f.take());
        }
        frames
    };
    let mut g = c.benchmark_group("exchange_repartition");
    g.sample_size(10);
    g.bench_function("sized_path", |b| {
        b.iter(|| {
            let mut dests: Vec<Frame> = (0..4).map(|_| Frame::new()).collect();
            for frame in build() {
                for (i, (t, size)) in frame.into_sized().enumerate() {
                    if dests[i % 4].push_sized(t, size as usize).unwrap_or(false) {
                        black_box(dests[i % 4].take());
                    }
                }
            }
        })
    });
    g.finish();
}

fn join_build_probe(c: &mut Criterion) {
    let build_rows = 5_000usize;
    let probe_rows = build_rows * 5;
    let join = asterix_hyracks::OpKind::HashJoin {
        left_keys: vec![0],
        right_keys: vec![0],
        kind: asterix_hyracks::job::JoinKind::Inner,
        right_arity: 2,
        memory: 256 << 20,
    };
    let ctx = RuntimeCtx::temp().unwrap();
    let mut g = c.benchmark_group("join_build_probe");
    g.sample_size(10);
    g.bench_function("inner_1_to_1", |b| {
        b.iter(|| {
            let build = (0..build_rows)
                .map(|i| Ok(vec![Value::Int(i as i64), Value::from(format!("b{i}"))]));
            let probe = (0..probe_rows)
                .map(|i| Ok(vec![Value::Int((i % build_rows) as i64), Value::from(format!("p{i}"))]));
            let out = drive(&join, vec![Box::new(probe), Box::new(build)], &ctx).unwrap();
            black_box(out.tuples.len());
        })
    });
    g.finish();
}

criterion_group!(benches, cache_hits, exchange_repartition, join_build_probe);
criterion_main!(benches);
