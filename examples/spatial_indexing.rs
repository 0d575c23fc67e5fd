//! The §V-B spatial study in miniature: who's right about spatial indexing?
//!
//! ```sh
//! cargo run --release --example spatial_indexing
//! ```
//!
//! Three "respected senior database researchers" each swore by a different
//! structure (paper §V-B): LSM R-trees, linearized (Hilbert/Z-order) LSM
//! B-trees, and grids. This example indexes the same points all four ways,
//! runs the same range queries, and prints index-only vs end-to-end times —
//! reproducing the study's punchline: end-to-end, the differences wash out,
//! so "the 'right' LSM-based spatial index to provide was simply the R-tree".

use asterix_rs::adm::binary::{decode, decode_key, encode, encode_key};
use asterix_rs::adm::{Point, Rectangle, Value};
use asterix_rs::core::datagen::DataGen;
use asterix_rs::storage::cache::BufferCache;
use asterix_rs::storage::io::FileManager;
use asterix_rs::storage::btree::LeafShape;
use asterix_rs::storage::lsm::{LsmConfig, LsmTree, MergePolicy};
use asterix_rs::storage::spatial;
use asterix_rs::storage::spatial_keys::{curve_ranges, hilbert_d, z_curve, GridScheme, World};
use asterix_rs::storage::stats::IoStats;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 40_000;
const EXTENT: f64 = 10_000.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("spatial-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let fm = FileManager::new(&dir, IoStats::new())?;
    let cache = BufferCache::new(fm, 512);
    let world = World::new(Rectangle::new(Point::new(0.0, 0.0), Point::new(EXTENT, EXTENT)));
    let grid_scheme = GridScheme::new(world, 64, 64);
    let cfg = |name: &str| LsmConfig {
        name: name.into(),
        mem_budget: 1 << 20,
        merge_policy: MergePolicy::Constant { max_components: 4 },
        bloom: true,
        leaves: LeafShape::Rows,
    };
    let mut primary = LsmTree::new(Arc::clone(&cache), cfg("primary"));
    let mut rtree = LsmTree::new(Arc::clone(&cache), spatial::config("rtree"));
    let mut hilbert = LsmTree::new(Arc::clone(&cache), cfg("hilbert"));
    let mut zorder = LsmTree::new(Arc::clone(&cache), cfg("zorder"));
    let mut grid = LsmTree::new(Arc::clone(&cache), cfg("grid"));

    println!("indexing {N} clustered points four ways...");
    let mut gen = DataGen::new(7);
    for i in 0..N {
        let p = gen.clustered_point(EXTENT, 6);
        let pk = encode_key(&[Value::Int(i as i64)]);
        let record = Value::object(vec![
            ("id".into(), Value::Int(i as i64)),
            ("loc".into(), Value::Point(p)),
            ("pad".into(), Value::from("x".repeat(120))),
        ]);
        primary.upsert(pk.clone(), encode(&record))?;
        rtree.upsert(spatial::key(&p.to_mbr(), &pk), spatial::value(&p.to_mbr()))?;
        let pv = encode(&Value::Point(p));
        hilbert.upsert(
            encode_key(&[Value::Int(world.hilbert_key(&p) as i64), Value::Int(i as i64)]),
            pv.clone(),
        )?;
        zorder.upsert(
            encode_key(&[Value::Int(world.z_key(&p) as i64), Value::Int(i as i64)]),
            pv.clone(),
        )?;
        grid.upsert(
            encode_key(&[Value::Int(grid_scheme.cell_of(&p) as i64), Value::Int(i as i64)]),
            pv,
        )?;
    }
    for t in [&mut primary, &mut rtree, &mut hilbert, &mut zorder, &mut grid] {
        t.flush()?;
    }

    // a 1%-selectivity query box
    let side = EXTENT * 0.1;
    let q = Rectangle::new(Point::new(3_000.0, 3_000.0), Point::new(3_000.0 + side, 3_000.0 + side));
    println!("query box: {q} (~1% of the space)\n");
    println!("{:<16} {:>8} {:>10} {:>10} {:>10}", "method", "results", "candidates", "index_ms", "e2e_ms");

    let linearized = |tree: &LsmTree, curve: fn(u32, u32, u32) -> u64| {
        let mut pks = Vec::new();
        let mut candidates = 0usize;
        for (lo, hi) in curve_ranges(&world, &q, 7, curve) {
            let lo_k = encode_key(&[Value::Int(lo as i64)]);
            let hi_k = encode_key(&[Value::Int(hi as i64)]);
            for (k, v) in tree
                .range(Bound::Included(lo_k.as_slice()), Bound::Excluded(hi_k.as_slice()))
                .unwrap()
            {
                candidates += 1;
                if let Ok(Value::Point(p)) = decode(&v) {
                    if q.contains_point(&p) {
                        let parts = decode_key(&k).unwrap();
                        pks.push(encode_key(&parts[1..]));
                    }
                }
            }
        }
        (pks, candidates)
    };
    let grid_probe = || {
        let mut pks = Vec::new();
        let mut candidates = 0usize;
        for cell in grid_scheme.cells_for(&q) {
            let lo = encode_key(&[Value::Int(cell as i64)]);
            let hi = encode_key(&[Value::Int(cell as i64 + 1)]);
            for (k, v) in grid
                .range(Bound::Included(lo.as_slice()), Bound::Excluded(hi.as_slice()))
                .unwrap()
            {
                candidates += 1;
                if let Ok(Value::Point(p)) = decode(&v) {
                    if q.contains_point(&p) {
                        let parts = decode_key(&k).unwrap();
                        pks.push(encode_key(&parts[1..]));
                    }
                }
            }
        }
        (pks, candidates)
    };

    type Probe<'a> = Box<dyn Fn() -> (Vec<Vec<u8>>, usize) + 'a>;
    let methods: Vec<(&str, Probe)> = vec![
        ("lsm-rtree", Box::new(|| {
            let hits = spatial::search(&rtree, &q).unwrap();
            let n = hits.len();
            (hits.into_iter().map(|e| e.pk).collect(), n)
        })),
        ("hilbert-btree", Box::new(|| linearized(&hilbert, hilbert_d))),
        ("zorder-btree", Box::new(|| linearized(&zorder, z_curve))),
        ("grid", Box::new(grid_probe)),
    ];
    for (name, probe) in methods {
        let t0 = Instant::now();
        let (mut pks, candidates) = probe();
        let t_index = t0.elapsed();
        // end-to-end: sorted-PK fetch of the actual records (§V-B's "usual trick")
        pks.sort_unstable();
        let mut fetched = 0usize;
        for pk in &pks {
            if primary.get(pk)?.is_some() {
                fetched += 1;
            }
        }
        let t_total = t0.elapsed();
        println!(
            "{:<16} {:>8} {:>10} {:>10.2} {:>10.2}",
            name,
            fetched,
            candidates,
            t_index.as_secs_f64() * 1e3,
            t_total.as_secs_f64() * 1e3
        );
    }
    println!(
        "\nthe paper's conclusion: index-time differences are real, but once the \
         \nrecords themselves are fetched the end-to-end spread lands around ±10% — \
         \nso ship the R-tree (it also handles non-point data) and move on."
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
