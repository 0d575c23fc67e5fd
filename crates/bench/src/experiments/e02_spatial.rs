//! E2 — the §V-B LSM spatial-index study (ref \[23\]).
//!
//! The paper's story: respected researchers each insisted a different spatial
//! index was "the best" (LSM R-trees / linearized B-trees / grids). The
//! study found index-only differences real but *end-to-end* differences
//! "watered down to the ±10% range due to the rest of the end-to-end query
//! costs (the eventual data access)".
//!
//! Reproduction: N clustered points stored in a primary LSM B+ tree (records
//! must be fetched to answer the query end-to-end) and indexed four ways —
//! LSM R-tree (a B+ tree on Hilbert keys that prunes its leaves by the MBRs
//! in its fences), LSM B-tree over Hilbert keys (which decomposes the query
//! into curve ranges), LSM B-tree over Z-order keys, and a static grid. Range queries of several selectivities measure (i)
//! index-only candidate time and (ii) end-to-end time including the sorted
//! PK fetch of the records.

use crate::{time_it, ExpReport};
use asterix_adm::binary::{decode_key, encode_key};
use asterix_adm::{Point, Rectangle, Value};
use asterix_core::datagen::DataGen;
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::btree::LeafShape;
use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
use asterix_storage::spatial;
use asterix_storage::spatial_keys::{curve_ranges, hilbert_d, z_curve, GridScheme, World};
use asterix_storage::stats::IoStats;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

const EXTENT: f64 = 10_000.0;

struct Setup {
    cache: Arc<BufferCache>,
    primary: LsmTree,
    rtree: LsmTree,
    hilbert: LsmTree,
    zorder: LsmTree,
    grid: LsmTree,
    world: World,
    grid_scheme: GridScheme,
    points: Vec<Point>,
    _root: std::path::PathBuf,
}

fn build(n: usize) -> Setup {
    let root = crate::experiments::exp_dir("e02");
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    // modest cache so fetches cost physical I/O (the paper's regime)
    let cache = BufferCache::new(fm, 512);
    let cfg = |name: &str| LsmConfig {
        name: name.into(),
        mem_budget: 1 << 20,
        merge_policy: MergePolicy::Constant { max_components: 4 },
        bloom: true,
        leaves: LeafShape::Rows,
    };
    let mut primary = LsmTree::new(Arc::clone(&cache), cfg("primary"));
    let mut rtree = LsmTree::new(
        Arc::clone(&cache),
        LsmConfig {
            mem_budget: 1 << 20,
            merge_policy: MergePolicy::Constant { max_components: 4 },
            ..spatial::config("rtree")
        },
    );
    let world = World::new(Rectangle::new(Point::new(0.0, 0.0), Point::new(EXTENT, EXTENT)));
    let grid_scheme = GridScheme::new(world, 64, 64);
    let mut hilbert = LsmTree::new(Arc::clone(&cache), cfg("hilbert"));
    let mut zorder = LsmTree::new(Arc::clone(&cache), cfg("zorder"));
    let mut grid = LsmTree::new(Arc::clone(&cache), cfg("grid"));
    let mut gen = DataGen::new(1001);
    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        let p = gen.clustered_point(EXTENT, 6);
        points.push(p);
        let pk = encode_key(&[Value::Int(i as i64)]);
        // a realistically sized record that must be fetched end-to-end
        let record = format!(
            "{{\"id\": {i}, \"loc\": [{}, {}], \"pad\": \"{}\"}}",
            p.x,
            p.y,
            "x".repeat(120)
        );
        primary.upsert(pk.clone(), record.into_bytes()).unwrap();
        rtree.upsert(spatial::key(&p.to_mbr(), &pk), spatial::value(&p.to_mbr())).unwrap();
        let pt_val = Value::Point(p);
        hilbert
            .upsert(
                encode_key(&[Value::Int(world.hilbert_key(&p) as i64), Value::Int(i as i64)]),
                asterix_adm::binary::encode(&pt_val),
            )
            .unwrap();
        zorder
            .upsert(
                encode_key(&[Value::Int(world.z_key(&p) as i64), Value::Int(i as i64)]),
                asterix_adm::binary::encode(&pt_val),
            )
            .unwrap();
        grid.upsert(
            encode_key(&[Value::Int(grid_scheme.cell_of(&p) as i64), Value::Int(i as i64)]),
            asterix_adm::binary::encode(&pt_val),
        )
        .unwrap();
    }
    primary.flush().unwrap();
    rtree.flush().unwrap();
    hilbert.flush().unwrap();
    zorder.flush().unwrap();
    grid.flush().unwrap();
    Setup { cache, primary, rtree, hilbert, zorder, grid, world, grid_scheme, points, _root: root }
}

/// Pages the buffer cache handed out so far: its hits and its misses.
fn pages_touched(cache: &BufferCache) -> u64 {
    let snap = cache.stats().registry().snapshot();
    ["storage.io.cache_hits", "storage.io.cache_misses"].iter().filter_map(|name| snap.counter(name)).sum()
}

/// An R-tree whose one memory component holds a full 1 MiB budget's worth of
/// `points` — under a budget no write reaches, so nothing seals it: what a
/// search costs before the first flush.
fn memory_resident(cache: &Arc<BufferCache>, points: &[Point]) -> LsmTree {
    let mut rtree = LsmTree::new(
        Arc::clone(cache),
        LsmConfig { mem_budget: usize::MAX, merge_policy: MergePolicy::NoMerge, ..spatial::config("rtree-mem") },
    );
    for (i, p) in points.iter().enumerate() {
        if rtree.mem_layers().map(|(mem, _)| mem.bytes()).sum::<usize>() > 1 << 20 {
            break;
        }
        rtree.upsert(spatial::key(&p.to_mbr(), &encode_key(&[Value::Int(i as i64)])), spatial::value(&p.to_mbr())).unwrap();
    }
    rtree
}

/// Candidate PKs from a linearized index: probe curve ranges, post-filter by
/// the point stored in the index entry (the linearized indexes' over-fetch).
fn linearized_probe(
    tree: &LsmTree,
    world: &World,
    q: &Rectangle,
    curve: fn(u32, u32, u32) -> u64,
) -> (Vec<Vec<u8>>, usize) {
    let mut candidates = 0usize;
    let mut out = Vec::new();
    for (lo, hi) in curve_ranges(world, q, 7, curve) {
        let lo_key = encode_key(&[Value::Int(lo as i64)]);
        let hi_key = encode_key(&[Value::Int(hi as i64)]);
        for (k, v) in tree
            .range(Bound::Included(lo_key.as_slice()), Bound::Excluded(hi_key.as_slice()))
            .unwrap()
        {
            candidates += 1;
            if let Ok(Value::Point(p)) = asterix_adm::binary::decode(&v) {
                if q.contains_point(&p) {
                    let parts = decode_key(&k).unwrap();
                    out.push(encode_key(&parts[1..]));
                }
            }
        }
    }
    (out, candidates)
}

fn grid_probe(tree: &LsmTree, scheme: &GridScheme, q: &Rectangle) -> (Vec<Vec<u8>>, usize) {
    let mut candidates = 0usize;
    let mut out = Vec::new();
    for cell in scheme.cells_for(q) {
        let lo = encode_key(&[Value::Int(cell as i64)]);
        let hi = encode_key(&[Value::Int(cell as i64 + 1)]);
        for (k, v) in tree
            .range(Bound::Included(lo.as_slice()), Bound::Excluded(hi.as_slice()))
            .unwrap()
        {
            candidates += 1;
            if let Ok(Value::Point(p)) = asterix_adm::binary::decode(&v) {
                if q.contains_point(&p) {
                    let parts = decode_key(&k).unwrap();
                    out.push(encode_key(&parts[1..]));
                }
            }
        }
    }
    (out, candidates)
}

fn fetch(primary: &LsmTree, mut pks: Vec<Vec<u8>>) -> usize {
    pks.sort_unstable();
    let mut n = 0;
    for pk in pks {
        if primary.get(&pk).unwrap().is_some() {
            n += 1;
        }
    }
    n
}

pub fn run(quick: bool) -> ExpReport {
    let n = if quick { 20_000 } else { 80_000 };
    let n_queries = if quick { 8 } else { 20 };
    let mut report = ExpReport::new(
        "E2",
        format!("LSM spatial index study, §V-B ref [23] ({n} clustered points)"),
        &["selectivity", "method", "results", "candidates", "index_ms", "pages_per_query", "e2e_ms"],
    );
    let s = build(n);
    let in_memory = memory_resident(&s.cache, &s.points);
    let mut gen = DataGen::new(2002);
    let mut summary: Vec<(String, f64, f64)> = Vec::new();
    for sel_pct in [0.05f64, 0.5, 2.0] {
        // query side length for the target area fraction
        let side = EXTENT * (sel_pct / 100.0_f64).sqrt();
        let queries: Vec<Rectangle> = (0..n_queries)
            .map(|_| {
                let x = gen.float(0.0, EXTENT - side);
                let y = gen.float(0.0, EXTENT - side);
                Rectangle::new(Point::new(x, y), Point::new(x + side, y + side))
            })
            .collect();
        type Probe<'a> = Box<dyn Fn(&Rectangle) -> (Vec<Vec<u8>>, usize) + 'a>;
        let methods: Vec<(&str, Probe)> = vec![
            (
                "lsm-rtree",
                Box::new(|q: &Rectangle| {
                    let hits = spatial::search(&s.rtree, q).unwrap();
                    let n = hits.len();
                    (hits.into_iter().map(|e| e.pk).collect(), n)
                }),
            ),
            (
                "hilbert-btree",
                Box::new(|q: &Rectangle| linearized_probe(&s.hilbert, &s.world, q, hilbert_d)),
            ),
            (
                "zorder-btree",
                Box::new(|q: &Rectangle| linearized_probe(&s.zorder, &s.world, q, z_curve)),
            ),
            (
                "grid-btree",
                Box::new(|q: &Rectangle| grid_probe(&s.grid, &s.grid_scheme, q)),
            ),
        ];
        for (name, probe) in &methods {
            // unmeasured warm-up pass so every method sees the same cache
            // state (otherwise the first method pays all the cold misses)
            for q in &queries {
                let (pks, _) = probe(q);
                let _ = fetch(&s.primary, pks);
            }
            let mut total_results = 0usize;
            let mut total_candidates = 0usize;
            let mut index_time = Duration::ZERO;
            let mut e2e_time = Duration::ZERO;
            let mut pages = 0;
            for q in &queries {
                let before = pages_touched(&s.cache);
                let ((pks, cands), t_idx) = time_it(|| probe(q));
                pages += pages_touched(&s.cache) - before;
                index_time += t_idx;
                total_candidates += cands;
                let (fetched, t_fetch) = time_it(|| fetch(&s.primary, pks));
                e2e_time += t_idx + t_fetch;
                total_results += fetched;
            }
            // ground truth check against brute force on the first query
            let brute = s.points.iter().filter(|p| queries[0].contains_point(p)).count();
            let (first_pks, _) = probe(&queries[0]);
            assert_eq!(first_pks.len(), brute, "{name}: exact results after post-filter");
            report.row(&[
                format!("{sel_pct}%"),
                name.to_string(),
                total_results.to_string(),
                total_candidates.to_string(),
                crate::ms(index_time),
                format!("{:.1}", pages as f64 / n_queries as f64),
                crate::ms(e2e_time),
            ]);
            summary.push((
                format!("{name}@{sel_pct}"),
                index_time.as_secs_f64(),
                e2e_time.as_secs_f64(),
            ));
        }
        let (found, t_mem) = time_it(|| queries.iter().map(|q| spatial::search(&in_memory, q).unwrap().len()).sum::<usize>());
        report.note(format!(
            "selectivity {sel_pct}%: a search of one full 1 MiB memory component ({found} hits over {n_queries} queries) takes {:.3} ms a query",
            t_mem.as_secs_f64() * 1e3 / n_queries as f64
        ));
        // the paper's point: compare end-to-end spread at this selectivity
        let last4: Vec<&(String, f64, f64)> = summary.iter().rev().take(4).collect();
        let e2e: Vec<f64> = last4.iter().map(|x| x.2).collect();
        let idx: Vec<f64> = last4.iter().map(|x| x.1).collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / ((max + min) / 2.0) * 100.0
        };
        report.note(format!(
            "selectivity {sel_pct}%: index-only spread {:.0}%, end-to-end spread {:.0}% \
             (paper: index differences 'watered down' by data access)",
            spread(&idx),
            spread(&e2e)
        ));
    }
    report.note(
        "shape: every method returns identical results; the R-tree needs no \
         post-filter over-fetch, matching the paper's 'just provide the R-tree' conclusion; \
         pages_per_query counts the buffer cache's hits and misses of the index probe alone",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e02_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 12, "4 methods x 3 selectivities");
    }
}
