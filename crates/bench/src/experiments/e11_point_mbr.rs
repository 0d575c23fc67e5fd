//! E11 — the point-MBR storage optimization (paper §V-B).
//!
//! "We added a small improvement for their storage efficiency in the case of
//! point data (not storing them as infinitely small bounding boxes in the
//! index leaves)". A spatial index entry's value is its MBR: 16 bytes for a
//! point, where the other arm writes every MBR as a 32-byte box; we compare
//! component size, build (flush) time, and query time with the optimization on and
//! off, and confirm identical results — including on non-point data where it
//! is a no-op.

use crate::{ms, time_it, ExpReport};
use asterix_adm::{Point, Rectangle};
use asterix_core::datagen::DataGen;
use asterix_storage::cache::BufferCache;
use asterix_storage::io::{FileManager, PAGE_SIZE};
use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
use asterix_storage::spatial;
use asterix_storage::stats::IoStats;
use std::sync::Arc;

const EXTENT: f64 = 10_000.0;

fn points(n: usize) -> Vec<(Rectangle, Vec<u8>)> {
    let mut gen = DataGen::new(1111);
    (0..n).map(|i| (gen.clustered_point(EXTENT, 5).to_mbr(), (i as u64).to_le_bytes().to_vec())).collect()
}

fn rects(n: usize) -> Vec<(Rectangle, Vec<u8>)> {
    let mut gen = DataGen::new(2222);
    (0..n)
        .map(|i| {
            let p = gen.uniform_point(EXTENT - 50.0);
            (Rectangle::new(p, Point::new(p.x + 25.0, p.y + 25.0)), (i as u64).to_le_bytes().to_vec())
        })
        .collect()
}

pub fn run(quick: bool) -> ExpReport {
    let n = if quick { 30_000 } else { 150_000 };
    let n_queries = 50;
    let mut report = ExpReport::new(
        "E11",
        format!("point-MBR leaf optimization, §V-B ({n} entries)"),
        &["data", "optimization", "tree_pages", "build_ms", "query_ms_avg", "results"],
    );
    let root = crate::experiments::exp_dir("e11");
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    let cache = BufferCache::new(fm, 1024);
    let mut gen = DataGen::new(3333);
    let queries: Vec<Rectangle> = (0..n_queries)
        .map(|_| {
            let p = gen.uniform_point(EXTENT - 400.0);
            Rectangle::new(p, Point::new(p.x + 400.0, p.y + 400.0))
        })
        .collect();
    for (data_name, entries) in [("points", points(n)), ("25x25 rectangles", rects(n))] {
        let mut results: Vec<usize> = Vec::new();
        for optimize in [true, false] {
            let name = format!("e11-{}-{optimize}", data_name.replace(' ', "_"));
            // one component: the memory component of every entry, flushed
            let config = LsmConfig { mem_budget: usize::MAX, merge_policy: MergePolicy::NoMerge, ..spatial::config(&name) };
            let mut tree = LsmTree::new(Arc::clone(&cache), config);
            for (mbr, pk) in &entries {
                let value = if optimize { spatial::value(mbr) } else { spatial::rect_bytes(mbr).to_vec() };
                tree.upsert(spatial::key(mbr, pk), value).unwrap();
            }
            let ((), t_build) = time_it(|| tree.flush().unwrap());
            let pages = component_pages(&root, &name);
            for q in &queries {
                let _ = spatial::search(&tree, q).unwrap(); // warm the cache
            }
            let mut total = 0usize;
            let (_, t_q) = time_it(|| {
                for q in &queries {
                    total += spatial::search(&tree, q).unwrap().len();
                }
            });
            results.push(total);
            report.row(&[
                data_name.into(),
                if optimize { "point-MBR" } else { "full MBRs" }.into(),
                pages.to_string(),
                ms(t_build),
                format!("{:.2}", t_q.as_secs_f64() * 1e3 / n_queries as f64),
                total.to_string(),
            ]);
        }
        assert_eq!(results[0], results[1], "{data_name}: identical query results");
    }
    report.note(
        "shape: for point data the optimized component is substantially smaller \
         (16 value bytes an entry where the other arm stores 32) with identical \
         results; for non-point data it is a no-op — exactly the 'small \
         improvement' the paper kept while leaving the exotic index alternatives \
         out of the code base. tree_pages counts the component file's pages, its \
         footer (fence index with each leaf's MBR, bloom filter) included",
    );
    let _ = std::fs::remove_dir_all(root);
    report
}

/// Pages of the component files of index `name` under `dir`.
fn component_pages(dir: &std::path::Path, name: &str) -> u64 {
    let prefix = format!("{name}_c");
    let bytes: u64 = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.file_name().to_string_lossy().starts_with(&prefix))
        .map(|entry| entry.metadata().unwrap().len())
        .sum();
    bytes / PAGE_SIZE as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 4);
        let pt_opt: u64 = r.rows[0][2].parse().unwrap();
        let pt_full: u64 = r.rows[1][2].parse().unwrap();
        assert!(pt_opt < pt_full, "point optimization shrinks the component");
        let rc_opt: u64 = r.rows[2][2].parse().unwrap();
        let rc_full: u64 = r.rows[3][2].parse().unwrap();
        assert_eq!(rc_opt, rc_full, "no-op for rectangles");
    }
}
