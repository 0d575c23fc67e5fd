//! Criterion bench for E5: external sort across memory budgets.
use asterix_adm::Value;
use asterix_hyracks::ctx::RuntimeCtx;
use asterix_hyracks::job::SortKey;
use asterix_hyracks::ops::drive;
use asterix_hyracks::OpKind;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5_memory");
    g.sample_size(10);
    for (label, budget) in [("in_memory", 256usize << 20), ("tiny_256k", 256 << 10)] {
        g.bench_function(format!("sort_20k_{label}"), |b| {
            b.iter(|| {
                let ctx = RuntimeCtx::temp().unwrap();
                let input = (0..20_000i64).map(|i| Ok(vec![Value::Int((i * 7919) % 20_000)]));
                let kind = OpKind::Sort { keys: vec![SortKey::asc(0)], memory: budget };
                drive(&kind, vec![Box::new(input)], &ctx).unwrap().tuples.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
