//! Property-based tests for the storage layer: B+ tree vs model, LSM vs
//! model, R-tree and LSM R-tree vs brute force, bloom filter totality, hash
//! vs model.

use asterix_adm::binary::{encode, encode_key};
use asterix_adm::fsst::{Encoder, SymbolTable};
use asterix_adm::schema_encode::encode_with_schema;
use asterix_adm::types::{Field, ObjectType, TypeExpr};
use asterix_adm::{BatchBuilder, Point, RecordLayout, Rectangle, Value};
use asterix_storage::btree::{BTreeBuilder, DiskBTree, MAX_ENTRY};
use asterix_storage::leaf_group::GROUP_RECORDS;
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::linear_hash::LinearHash;
use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy, Projected};
use asterix_storage::lsm_rtree::{LsmRTree, LsmRTreeConfig};
use asterix_storage::rtree::{DiskRTree, MemRTree, RTreeBuilder, SpatialEntry};
use asterix_storage::stats::IoStats;
use asterix_storage::{BackgroundExecutor, BackgroundJob, JobStep};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::ops::{Bound, RangeBounds};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!(
            "asterix-storage-prop-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup(cache_pages: usize) -> (Arc<BufferCache>, TempDir) {
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    (BufferCache::new(fm, cache_pages), dir)
}

/// Runs each job on a thread of its own: merges concurrent with the test's
/// reads and writes.
struct OnThread;

impl BackgroundExecutor for OnThread {
    fn offload(&self, job: Arc<dyn BackgroundJob>) {
        std::thread::spawn(move || while job.step() == JobStep::Again {});
    }
}

fn k(i: i64) -> Vec<u8> {
    encode_key(&[Value::Int(i)])
}

/// A string of the pieces `picks` names: words a table codes, and
/// characters of every width it escapes — ASCII controls and `NUL`, Latin,
/// CJK, emoji, the last code point.
fn text(picks: Vec<u32>) -> String {
    const WORDS: [&str; 6] = [" the", " signal", " customization", "é", "日本", ""];
    picks
        .into_iter()
        .map(|p| match p % 8 {
            0..=3 => WORDS[(p / 8) as usize % WORDS.len()].to_string(),
            4 => char::from_u32(p / 8 % 0x80).map(String::from).unwrap_or_default(),
            5 => char::from_u32(0x80 + p / 8 % 0x780).map(String::from).unwrap_or_default(),
            6 => char::from_u32(0x4E00 + p / 8 % 0x5000).map(String::from).unwrap_or_default(),
            _ => char::from_u32([0x1F600 + p / 8 % 0x50, 0x10FFFF][(p / 8 % 2) as usize]).map(String::from).unwrap_or_default(),
        })
        .collect()
}

fn texts(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(prop::collection::vec(any::<u32>(), 0..24).prop_map(text), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A symbol table trained on some strings codes any string — of those
    /// or not, escaping what it has no symbol for — so that it decodes to
    /// itself, and so does the table once written and read back.
    #[test]
    fn coded_strings_decode_to_themselves(sample in texts(0..60), others in texts(1..20)) {
        let strs: Vec<&str> = sample.iter().map(String::as_str).collect();
        // no table only for strings with nothing to code: then one of a word
        let trained = SymbolTable::train(&strs);
        prop_assert_eq!(trained.is_none(), strs.iter().all(|s| s.is_empty()));
        let table = trained.or_else(|| SymbolTable::train(&[" the"])).unwrap();
        let mut bytes = Vec::new();
        table.write(&mut bytes);
        let (read, len) = SymbolTable::read(&bytes).unwrap();
        prop_assert_eq!((read.as_ref(), len), (Some(&table), bytes.len()));
        let encoder = Encoder::new(&table);
        for s in sample.iter().chain(&others) {
            let mut codes = Vec::new();
            encoder.encode(s, &mut codes);
            prop_assert!(table.check(&codes).is_ok());
            let mut back = Vec::new();
            table.decode_into(&codes, &mut back).unwrap();
            prop_assert_eq!(String::from_utf8(back).unwrap(), s.clone());
        }
    }

    /// Strings made of a few words code to under half their bytes.
    #[test]
    fn coded_strings_shrink_repetition(words in prop::collection::vec("[a-z]{2,7}", 2..12),
                                       picks in prop::collection::vec(any::<u32>(), 200..400)) {
        let strings: Vec<String> = picks
            .chunks(5)
            .map(|chunk| chunk.iter().map(|p| format!(" {}", words[*p as usize % words.len()])).collect())
            .collect();
        let strs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let table = SymbolTable::train(&strs).unwrap();
        let encoder = Encoder::new(&table);
        let (mut plain, mut coded) = (0, Vec::new());
        for s in &strs {
            encoder.encode(s, &mut coded);
            plain += s.len();
        }
        prop_assert!(coded.len() * 2 < plain, "{} of {} bytes", coded.len(), plain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A bulk-loaded B+ tree answers every point and range query identically
    /// to a sorted model.
    #[test]
    fn btree_matches_model(mut keys in prop::collection::btree_set(-500i64..500, 1..300),
                           probes in prop::collection::vec(-600i64..600, 20),
                           lo in -600i64..600, width in 0i64..200) {
        let (cache, _d) = setup(64);
        let w = cache.manager().bulk_writer("p.btree").unwrap();
        let mut b = BTreeBuilder::new(w, keys.len());
        let model: BTreeMap<i64, Vec<u8>> = std::mem::take(&mut keys)
            .into_iter()
            .map(|i| (i, format!("v{i}").into_bytes()))
            .collect();
        for (i, v) in &model {
            b.add(&k(*i), v).unwrap();
        }
        let t = DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap());
        for p in probes {
            prop_assert_eq!(t.get(&k(p)).unwrap(), model.get(&p).cloned());
        }
        let hi = lo + width;
        let got: Vec<i64> = t
            .range(Bound::Included(&k(lo)), Bound::Included(k(hi)))
            .unwrap()
            .map(|r| {
                let (key, _) = r.unwrap();
                match asterix_adm::binary::decode_key(&key).unwrap().pop().unwrap() {
                    Value::Int(i) => i,
                    other => panic!("{other:?}"),
                }
            })
            .collect();
        let want: Vec<i64> = model.range(lo..=hi).map(|(i, _)| *i).collect();
        prop_assert_eq!(got, want);
    }

    /// An LSM tree under random upserts/deletes/flushes answers point gets
    /// and full scans identically to a map model.
    #[test]
    fn lsm_matches_model(ops in prop::collection::vec((0u8..10, -100i64..100), 1..400)) {
        let (cache, _d) = setup(128);
        let mut t = LsmTree::new(
            cache,
            LsmConfig {
                name: "p".into(),
                mem_budget: 2 << 10,
                merge_policy: MergePolicy::Constant { max_components: 3 },
                bloom: true,
                layout: None,
            },
        );
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for (op, key) in ops {
            match op {
                0..=6 => {
                    let v = format!("v{key}-{op}").into_bytes();
                    t.upsert(k(key), v.clone()).unwrap();
                    model.insert(key, v);
                }
                7 | 8 => {
                    t.delete(k(key)).unwrap();
                    model.remove(&key);
                }
                _ => t.flush().unwrap(),
            }
        }
        for probe in -100i64..100 {
            prop_assert_eq!(t.get(&k(probe)).unwrap(), model.get(&probe).cloned());
        }
        let scan = t.scan().unwrap();
        prop_assert_eq!(scan.len(), model.len());
    }

    /// Disk R-tree search equals brute-force filtering.
    #[test]
    fn rtree_matches_brute_force(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 0..300),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0, qw in 0.0f64..50.0, qh in 0.0f64..50.0,
    ) {
        let (cache, _d) = setup(64);
        let entries: Vec<SpatialEntry> = pts
            .iter()
            .enumerate()
            .map(|(i, (x, y))| SpatialEntry {
                mbr: Point::new(*x, *y).to_mbr(),
                key: i.to_le_bytes().to_vec(),
            })
            .collect();
        let w = cache.manager().bulk_writer("p.rtree").unwrap();
        let t = DiskRTree::from_built(
            Arc::clone(&cache),
            RTreeBuilder::new(w, true).build(entries.clone()).unwrap(),
        );
        let q = Rectangle::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
        let mut got: Vec<Vec<u8>> = t.search(&q).unwrap().into_iter().map(|e| e.key).collect();
        let mut want: Vec<Vec<u8>> = entries
            .iter()
            .filter(|e| e.mbr.intersects(&q))
            .map(|e| e.key.clone())
            .collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// An LSM R-tree under random inserts, moves, deletes, flushes and
    /// merges — merging inline or on a background thread — answers every
    /// rectangle query like a brute-force filter over a key → position map.
    #[test]
    fn lsm_rtree_matches_model(
        ops in prop::collection::vec(
            (0u8..10, 0u8..24, (0.0f64..32.0, 0.0f64..32.0),
             (0.0f64..32.0, 0.0f64..32.0, 0.0f64..16.0, 0.0f64..16.0)),
            1..150,
        ),
        constant in any::<bool>(),
        background in any::<bool>(),
    ) {
        let (cache, _d) = setup(128);
        let merge_policy = if constant {
            MergePolicy::Constant { max_components: 2 }
        } else {
            MergePolicy::NoMerge
        };
        let mut t = LsmRTree::new(
            cache,
            LsmRTreeConfig { mem_budget: 1 << 10, merge_policy, ..LsmRTreeConfig::new("p") },
        );
        if background {
            t.set_executor(Arc::new(OnThread));
        }
        let mut model: HashMap<Vec<u8>, Rectangle> = HashMap::new();
        for (op, id, (x, y), (qx, qy, qw, qh)) in ops {
            let key = format!("k{id}").into_bytes();
            match op {
                // insert, or move when the key already has a position
                0..=5 => {
                    let mbr = Point::new(x, y).to_mbr();
                    if let Some(old) = model.insert(key.clone(), mbr) {
                        t.delete(&old, &key).unwrap();
                    }
                    t.insert(mbr, key).unwrap();
                }
                6 | 7 => {
                    if let Some(old) = model.remove(&key) {
                        t.delete(&old, &key).unwrap();
                    }
                }
                8 => t.flush().unwrap(),
                _ => t.merge_newest(2 + id as usize % 3).unwrap(),
            }
            // checked right away: a background merge may still be running
            let q = Rectangle::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
            let mut got: Vec<(Vec<u8>, Rectangle)> =
                t.search(&q).unwrap().into_iter().map(|e| (e.key, e.mbr)).collect();
            let mut want: Vec<(Vec<u8>, Rectangle)> = model
                .iter()
                .filter(|(_, mbr)| mbr.intersects(&q))
                .map(|(k, mbr)| (k.clone(), *mbr))
                .collect();
            got.sort_by(|a, b| a.0.cmp(&b.0));
            want.sort_by(|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(got, want);
        }
        prop_assert!(t.wait_merges_idle(std::time::Duration::from_secs(30)));
        prop_assert_eq!(t.count().unwrap(), model.len());
        if constant {
            prop_assert!(t.component_count() <= 2, "{} components", t.component_count());
        }
    }

    /// In-memory R-tree also equals brute force, including after removals.
    #[test]
    fn mem_rtree_matches_brute_force(
        pts in prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 1..150),
        remove_mask in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let mut t = MemRTree::with_capacity(5);
        let mut live: Vec<(Point, Vec<u8>)> = Vec::new();
        for (i, (x, y)) in pts.iter().enumerate() {
            let key = i.to_le_bytes().to_vec();
            t.insert(Point::new(*x, *y).to_mbr(), key.clone());
            live.push((Point::new(*x, *y), key));
        }
        for (i, rm) in remove_mask.iter().enumerate() {
            if *rm && i < live.len() {
                let (p, key) = live[i].clone();
                prop_assert!(t.remove(&p.to_mbr(), &key));
            }
        }
        let live: Vec<_> = live
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !remove_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, e)| e)
            .collect();
        let q = Rectangle::new(Point::new(10.0, 10.0), Point::new(35.0, 35.0));
        let mut got: Vec<Vec<u8>> = t.search(&q).into_iter().map(|e| e.key).collect();
        let mut want: Vec<Vec<u8>> = live
            .iter()
            .filter(|(p, _)| q.contains_point(p))
            .map(|(_, k)| k.clone())
            .collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Linear hashing behaves like a HashMap under puts/removes, even with a
    /// tiny buffer cache (forced writebacks).
    #[test]
    fn linear_hash_matches_model(ops in prop::collection::vec((0u8..4, 0u64..200), 1..400)) {
        let (cache, _d) = setup(8);
        let mut h = LinearHash::create(cache, "p.lh", 2, 10).unwrap();
        let mut model: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for (op, key) in ops {
            let kb = key.to_le_bytes();
            match op {
                0..=2 => {
                    let v = format!("v{key}").into_bytes();
                    h.put(&kb, &v).unwrap();
                    model.insert(key, v);
                }
                _ => {
                    let removed = h.remove(&kb).unwrap();
                    prop_assert_eq!(removed, model.remove(&key).is_some());
                }
            }
        }
        for probe in 0u64..200 {
            prop_assert_eq!(h.get(&probe.to_le_bytes()).unwrap(), model.get(&probe).cloned());
        }
    }
}

/// Honour the CI nightly's `PROPTEST_CASES` (the in-attribute config
/// overrides proptest's own env lookup).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(24)
}

fn as_slice(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    b.as_ref().map(Vec::as_slice)
}

/// Key sets that strain a shared-prefix page: a few byte values, the least
/// and the greatest among them, so that keys are often prefixes of one
/// another; every key behind `shared` bytes they have in common; and values
/// that are empty, short, or as long as a page takes (`fill`), which makes
/// one-entry leaves and, past a few hundred of them, a second internal level.
fn page_keys() -> impl Strategy<Value = (std::collections::BTreeSet<Vec<u8>>, Vec<u8>, usize, u8)> {
    const BYTES: [u8; 5] = [0x00, 0x01, b'a', 0xFE, 0xFF];
    let byte = || (0usize..BYTES.len()).prop_map(|i| BYTES[i]);
    let shared = prop_oneof![Just(0usize), Just(1), Just(9), Just(300), Just(3_000)];
    let suffixes = prop_oneof![
        4 => prop::collection::btree_set(prop::collection::vec(byte(), 0..10), 1..300),
        2 => prop::collection::btree_set(prop::collection::vec(byte(), 0..10), 500..800),
    ];
    (suffixes, prop::collection::vec(byte(), 0..14), shared, 0u8..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A B+ tree bulk-loaded from sorted byte keys — whatever prefix its
    /// pages share and however short its separators get — answers point gets
    /// and range scans like a `BTreeMap` of the same pairs, and says the
    /// same after it is reopened from its trailer.
    #[test]
    fn btree_pages_answer_like_an_ordered_map(
        (suffixes, stray, shared, fill) in page_keys(),
        bounds in prop::collection::vec((0usize..1_000, 0usize..1_000, 0u8..3, 0u8..3), 1..12),
    ) {
        let key = |suffix: &[u8]| [vec![b'p'; shared].as_slice(), suffix].concat();
        let model: BTreeMap<Vec<u8>, Vec<u8>> = suffixes
            .iter()
            .enumerate()
            .map(|(i, suffix)| {
                let key = key(suffix);
                let len = match (fill, i % 7) {
                    (0, _) => 0,
                    (1, _) => 6,
                    (2, _) | (3, 0) => MAX_ENTRY - key.len(),
                    _ => 40,
                };
                (key, vec![i as u8; len])
            })
            .collect();
        let (cache, _d) = setup(64);
        let mut b = BTreeBuilder::new(cache.manager().bulk_writer("p.btree").unwrap(), model.len());
        for (k, v) in &model {
            b.add(k, v).unwrap();
        }
        let built = b.finish().unwrap();
        let reopened = DiskBTree::open(Arc::clone(&cache), built.file, None).unwrap();
        let t = DiskBTree::from_built(Arc::clone(&cache), built);
        prop_assert_eq!((reopened.len(), reopened.min_key(), reopened.max_key()), (t.len(), t.min_key(), t.max_key()));
        // every key, its neighbours in byte order, and keys that are not there
        let mut probes: Vec<Vec<u8>> = vec![Vec::new(), key(&stray), stray, vec![b'p'; shared], vec![b'q']];
        for k in model.keys() {
            probes.push(k.clone());
            probes.push([k.as_slice(), &[0]].concat());
            probes.push(k[..k.len().saturating_sub(1)].to_vec());
        }
        for p in &probes {
            prop_assert_eq!(&reopened.get(p).unwrap(), &model.get(p).cloned(), "get {:?}", p);
        }
        for (lo, hi, lo_kind, hi_kind) in bounds {
            let (lo, hi) = (&probes[lo % probes.len()], &probes[hi % probes.len()]);
            let bound = |kind: u8, k: &Vec<u8>| match kind {
                0 => Bound::Unbounded,
                1 => Bound::Included(k.clone()),
                _ => Bound::Excluded(k.clone()),
            };
            let (lo, hi) = (bound(lo_kind, lo), bound(hi_kind, hi));
            let got: Vec<(Vec<u8>, Vec<u8>)> =
                t.range(as_slice(&lo), hi.clone()).unwrap().map(|r| r.unwrap()).collect();
            // `BTreeMap::range` panics on bounds that cross
            let want: Vec<(Vec<u8>, Vec<u8>)> = model
                .iter()
                .filter(|(k, _)| (as_slice(&lo), as_slice(&hi)).contains(&k.as_slice()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(got, want, "range {:?}..{:?}", lo, hi);
        }
    }
}

/// One step of the reopen model check: upsert, delete, flush, merge the
/// newest components, or restart.
#[derive(Debug, Clone)]
enum LifeOp {
    Put(i64),
    Delete(i64),
    Flush,
    Merge(usize),
    Reopen,
}

fn life_ops() -> impl Strategy<Value = Vec<LifeOp>> {
    let op = prop_oneof![
        6 => (0i64..60).prop_map(LifeOp::Put),
        2 => (0i64..60).prop_map(LifeOp::Delete),
        1 => Just(LifeOp::Flush),
        1 => (2usize..5).prop_map(LifeOp::Merge),
        1 => Just(LifeOp::Reopen),
    ];
    prop::collection::vec(op, 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Two B+-tree LSM indexes take the same operations; one of them is,
    /// every so often, flushed, dropped and reopened from its manifest. It
    /// must go on answering exactly like the one that never went away —
    /// through later flushes and merges of the reopened components too.
    #[test]
    fn reopen_matches_never_crashed_btree(ops in life_ops()) {
        let config = |name: &str| LsmConfig {
            mem_budget: 1 << 10,
            merge_policy: MergePolicy::Constant { max_components: 3 },
            ..LsmConfig::new(name)
        };
        let (kept_cache, _d1) = setup(64);
        let (cache, _d2) = setup(64);
        let mut kept = LsmTree::new(kept_cache, config("kept"));
        let mut t = LsmTree::new(Arc::clone(&cache), config("t"));
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                LifeOp::Put(i) => {
                    let v = format!("v{i}@{step}").into_bytes();
                    kept.upsert(k(i), v.clone()).unwrap();
                    t.upsert(k(i), v).unwrap();
                }
                LifeOp::Delete(i) => {
                    kept.delete(k(i)).unwrap();
                    t.delete(k(i)).unwrap();
                }
                LifeOp::Flush => {
                    kept.flush().unwrap();
                    t.flush().unwrap();
                }
                LifeOp::Merge(n) => {
                    kept.merge_newest(n).unwrap();
                    t.merge_newest(n).unwrap();
                }
                LifeOp::Reopen => {
                    kept.flush().unwrap();
                    t.flush().unwrap();
                    let components = t.component_count();
                    drop(t);
                    t = LsmTree::reopen(Arc::clone(&cache), config("t")).unwrap();
                    prop_assert_eq!(t.component_count(), components);
                }
            }
            prop_assert_eq!(t.scan().unwrap(), kept.scan().unwrap(), "after step {}", step);
        }
        for probe in 0i64..60 {
            prop_assert_eq!(t.get(&k(probe)).unwrap(), kept.get(&k(probe)).unwrap());
        }
    }

    /// The same for the R-tree kind, whose components are two files and
    /// whose deletes live in the companion key tree.
    #[test]
    fn reopen_matches_never_crashed_rtree(ops in life_ops()) {
        let config = |name: &str| LsmRTreeConfig {
            mem_budget: 1 << 10,
            merge_policy: MergePolicy::Constant { max_components: 3 },
            ..LsmRTreeConfig::new(name)
        };
        let (kept_cache, _d1) = setup(64);
        let (cache, _d2) = setup(64);
        let mut kept = LsmRTree::new(kept_cache, config("kept"));
        let mut t = LsmRTree::new(Arc::clone(&cache), config("t"));
        // where each key currently is, to delete it from
        let mut at: HashMap<i64, Rectangle> = HashMap::new();
        let everything = Rectangle::new(Point::new(-1.0, -1.0), Point::new(1e6, 1e6));
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                LifeOp::Put(i) => {
                    let key = format!("k{i}").into_bytes();
                    let mbr = Point::new(i as f64, step as f64).to_mbr();
                    if let Some(old) = at.insert(i, mbr) {
                        kept.delete(&old, &key).unwrap();
                        t.delete(&old, &key).unwrap();
                    }
                    kept.insert(mbr, key.clone()).unwrap();
                    t.insert(mbr, key).unwrap();
                }
                LifeOp::Delete(i) => {
                    if let Some(old) = at.remove(&i) {
                        let key = format!("k{i}").into_bytes();
                        kept.delete(&old, &key).unwrap();
                        t.delete(&old, &key).unwrap();
                    }
                }
                LifeOp::Flush => {
                    kept.flush().unwrap();
                    t.flush().unwrap();
                }
                LifeOp::Merge(n) => {
                    kept.merge_newest(n).unwrap();
                    t.merge_newest(n).unwrap();
                }
                LifeOp::Reopen => {
                    kept.flush().unwrap();
                    t.flush().unwrap();
                    let components = t.component_count();
                    drop(t);
                    t = LsmRTree::reopen(Arc::clone(&cache), config("t")).unwrap();
                    prop_assert_eq!(t.component_count(), components);
                }
            }
            let sorted = |t: &LsmRTree| {
                let mut hits: Vec<(Vec<u8>, Rectangle)> =
                    t.search(&everything).unwrap().into_iter().map(|e| (e.key, e.mbr)).collect();
                hits.sort_by(|a, b| a.0.cmp(&b.0));
                hits
            };
            let got = sorted(&t);
            prop_assert_eq!(got.len(), at.len(), "after step {}", step);
            prop_assert_eq!(got, sorted(&kept), "after step {}", step);
        }
    }
}

// ---------------------------------------------------------------------------
// Leaf groups: a tree whose values are records
// ---------------------------------------------------------------------------

/// A record type with a column of every kind: integers wide and narrow, an
/// optional one, a fixed-width value, a string, a nested field — and open.
fn record_type() -> ObjectType {
    let named = TypeExpr::named;
    ObjectType::open(
        "R",
        vec![
            Field::required("id", named("int")),
            Field::required("a", named("int")),
            Field::optional("t", named("datetime")),
            Field::optional("p", named("point")),
            Field::required("s", named("string")),
            Field::optional("n", TypeExpr::Array(Box::new(named("int")))),
        ],
    )
}

/// The record under key `i` at version `v`: which optional fields it has,
/// whether `t` is a `null`, how wide `a` is and whether it has an open part
/// all turn on `v`.
fn record(i: i64, v: u64) -> Value {
    let wide = [0, 1, -1, i64::MIN, i64::MAX, 1 << 40];
    let mut fields = vec![
        ("id".to_string(), Value::Int(i)),
        ("a".into(), Value::Int(if v.is_multiple_of(11) { wide[(v / 11) as usize % wide.len()] } else { (v % 300) as i64 })),
    ];
    match v % 5 {
        0 => fields.push(("t".into(), Value::DateTime(1_500_000_000_000 + v as i64))),
        1 if v % 7 == 1 => fields.push(("t".into(), Value::Null)),
        _ => {}
    }
    if !v.is_multiple_of(3) {
        fields.push(("p".into(), Value::Point(Point::new(i as f64, v as f64 / 8.0))));
    }
    fields.push(("s".into(), Value::from("x".repeat(v as usize % 40))));
    if v.is_multiple_of(4) {
        fields.push(("n".into(), Value::Array((0..v % 3).map(|e| Value::Int(e as i64)).collect())));
    }
    if v.is_multiple_of(6) {
        fields.push(("open".into(), Value::object(vec![("v".into(), Value::Int(v as i64))])));
    }
    Value::object(fields)
}

/// The stored row of [`record`], under the declared type or under none.
fn row(typed: bool, i: i64, v: u64) -> Vec<u8> {
    if typed {
        encode_with_schema(&record(i, v), &record_type()).unwrap()
    } else {
        encode(&record(i, v))
    }
}

fn layout(typed: bool) -> Arc<RecordLayout> {
    Arc::new(RecordLayout::new(typed.then(record_type).as_ref()))
}

#[derive(Debug, Clone)]
enum RecordOp {
    Put(i64, u64),
    /// Keys `from..from + len`, in one go: components of several groups.
    PutRun(i64, i64, u64),
    Delete(i64),
    DeleteRun(i64, i64),
    Flush,
    Merge(usize),
    Reopen,
}

fn record_ops() -> impl Strategy<Value = Vec<RecordOp>> {
    const KEYS: i64 = 2 * GROUP_RECORDS as i64 + 500;
    let op = prop_oneof![
        8 => (0..KEYS, any::<u64>()).prop_map(|(i, v)| RecordOp::Put(i, v)),
        2 => (0..KEYS, 1..1_300i64, any::<u64>()).prop_map(|(i, n, v)| RecordOp::PutRun(i, n, v)),
        3 => (0..KEYS).prop_map(RecordOp::Delete),
        1 => (0..KEYS, 1..400i64).prop_map(|(i, n)| RecordOp::DeleteRun(i, n)),
        2 => Just(RecordOp::Flush),
        2 => (2usize..5).prop_map(RecordOp::Merge),
        1 => Just(RecordOp::Reopen),
    ];
    prop::collection::vec(op, 1..40)
}

/// What `t` answers, against `model`: whole rows, the cells a reader names,
/// point gets of both kinds, the count — and a read resumed after every key,
/// which is where a group ends as often as anywhere.
fn check_records(t: &LsmTree, layout: &RecordLayout, model: &BTreeMap<i64, Vec<u8>>, fields: &[String]) {
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(i, row)| (k(*i), row.clone())).collect();
    assert_eq!(t.scan().unwrap(), want);
    assert_eq!(t.count().unwrap(), model.len());
    let wanted = layout.resolve(fields);
    let project = |stored: Projected<'_>| match stored {
        Projected::Row(row) => layout.decode_row(&wanted, row).unwrap(),
        Projected::Cells(cells) => layout.project(&wanted, cells).unwrap(),
    };
    let mut live = t.reader(Bound::Unbounded, Bound::Unbounded, Some(wanted.cells())).unwrap();
    for (i, row) in model {
        let (key, stored) = live.next_entry().unwrap().expect("an entry for every key of the model");
        assert_eq!(key, k(*i));
        assert_eq!(project(stored), layout.decode_row(&wanted, row).unwrap(), "key {i} fields {fields:?}");
    }
    assert!(live.next_entry().unwrap().is_none());
    drop(live);
    // the same as columns: what each record reads as, spread over one column
    // per field (one of records without any)
    let columns = |row: &[u8]| -> Vec<Value> {
        let record = layout.decode_row(&wanted, row).unwrap();
        match fields {
            [] => vec![record],
            fields => fields.iter().map(|f| record.field(f).clone()).collect(),
        }
    };
    let keys: Vec<i64> = model.keys().copied().collect();
    for (at, i) in keys.iter().enumerate() {
        let mut rest = t.reader(Bound::Excluded(&k(*i)), Bound::Unbounded, Some(&[])).unwrap();
        let next = rest.next_entry().unwrap().map(|(key, _)| key.to_vec());
        assert_eq!(next, keys.get(at + 1).map(|n| k(*n)), "resumed after {i}");
        // and a batch resumed there holds the two records that follow
        let mut batch = BatchBuilder::new(layout, &wanted);
        t.reader(Bound::Excluded(&k(*i)), Bound::Unbounded, Some(wanted.cells())).unwrap().fill(&mut batch, 2).unwrap();
        let got: Vec<Vec<Value>> = batch.finish().unwrap().into_rows().collect();
        let want: Vec<Vec<Value>> = keys[at + 1..].iter().take(2).map(|n| columns(&model[n])).collect();
        assert_eq!(got, want, "a batch resumed after {i}");
    }
    // in batches whose ends fall inside the leaf groups, each read on from
    // the key the last stopped at
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut after: Option<Vec<u8>> = None;
    loop {
        let from = after.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
        let mut batch = BatchBuilder::new(layout, &wanted);
        let last = t.reader(from, Bound::Unbounded, Some(wanted.cells())).unwrap().fill(&mut batch, 300).unwrap();
        assert!(batch.rows() == 300 || last.is_none(), "a batch is full unless the range ran out");
        rows.extend(batch.finish().unwrap().into_rows());
        match last {
            Some(key) => after = Some(key),
            None => break,
        }
    }
    assert_eq!(rows, model.values().map(|row| columns(row)).collect::<Vec<_>>(), "fields {fields:?}");
    for probe in (-1..2 * GROUP_RECORDS as i64 + 501).step_by(7) {
        assert_eq!(t.get(&k(probe)).unwrap(), model.get(&probe).cloned(), "get {probe}");
        let mut one = BatchBuilder::new(layout, &wanted);
        assert_eq!(t.get_into(&k(probe), &mut one).unwrap(), model.contains_key(&probe));
        let got: Vec<Vec<Value>> = one.finish().unwrap().into_rows().collect();
        assert_eq!(got, model.get(&probe).map(|row| columns(row)).into_iter().collect::<Vec<_>>(), "get_into {probe}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// An LSM tree with a layout — rows in its memory components, leaf
    /// groups on disk — answers gets, scans and reads of named cells like a
    /// map of the rows, through flushes, merges of some or all components
    /// (delete markers go only when nothing older is left) and reopening;
    /// with a declared type and without.
    #[test]
    fn layout_tree_answers_like_a_map_of_rows(
        ops in record_ops(),
        typed in any::<bool>(),
        picks in prop::collection::vec(0usize..9, 0..4),
    ) {
        let pool = ["id", "a", "t", "p", "s", "n", "open", "v", "nope"];
        let fields: Vec<String> = picks.iter().map(|p| pool[*p].to_string()).collect();
        let layout = layout(typed);
        let config = || LsmConfig {
            mem_budget: 48 << 10,
            merge_policy: MergePolicy::NoMerge,
            layout: Some(Arc::clone(&layout)),
            ..LsmConfig::new("r")
        };
        let (cache, _d) = setup(64);
        let mut t = LsmTree::new(Arc::clone(&cache), config());
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        let put = |t: &mut LsmTree, model: &mut BTreeMap<i64, Vec<u8>>, i: i64, v: u64| {
            let row = row(typed, i, v);
            t.upsert(k(i), row.clone()).unwrap();
            model.insert(i, row);
        };
        for op in ops {
            match op {
                RecordOp::Put(i, v) => put(&mut t, &mut model, i, v),
                RecordOp::PutRun(from, len, v) => {
                    (from..from + len).for_each(|i| put(&mut t, &mut model, i, v.wrapping_add(i as u64)))
                }
                RecordOp::Delete(i) => {
                    t.delete(k(i)).unwrap();
                    model.remove(&i);
                }
                RecordOp::DeleteRun(from, len) => {
                    for i in from..from + len {
                        t.delete(k(i)).unwrap();
                        model.remove(&i);
                    }
                }
                RecordOp::Flush => t.flush().unwrap(),
                RecordOp::Merge(n) => t.merge_newest(n).unwrap(),
                RecordOp::Reopen => {
                    t.flush().unwrap();
                    drop(t);
                    t = LsmTree::reopen(Arc::clone(&cache), config()).unwrap();
                }
            }
        }
        check_records(&t, &layout, &model, &fields);
        t.flush().unwrap();
        let all = t.component_count();
        t.merge_newest(all).unwrap();
        check_records(&t, &layout, &model, &fields);
    }
}

/// Puts record `i` with the string `s` into `t` and `model`.
fn put_text(t: &mut LsmTree, model: &mut BTreeMap<i64, Vec<u8>>, i: i64, s: &str) {
    let record = Value::object(vec![("id".into(), Value::Int(i)), ("a".into(), Value::Int(i % 7)), ("s".into(), Value::from(s))]);
    let row = encode_with_schema(&record, &record_type()).unwrap();
    t.upsert(k(i), row.clone()).unwrap();
    model.insert(i, row);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Strings of any characters come out of a layout tree's string column as
    /// they went in — by entry, as cells and as columns — through a flush
    /// (each component trains its table on its first group), overwrites and
    /// deletes in memory over the coded groups, a second component coded
    /// under another table, a merge that decodes both to code them under a
    /// third, and a reopen that reads the tables back.
    #[test]
    fn any_string_survives_flush_merge_and_reopen(first in texts(1..1_500), second in texts(1..600), stride in 1i64..7) {
        let layout = layout(true);
        let config = || LsmConfig {
            mem_budget: 1 << 30,
            merge_policy: MergePolicy::NoMerge,
            layout: Some(Arc::clone(&layout)),
            ..LsmConfig::new("s")
        };
        let (cache, _d) = setup(64);
        let mut t = LsmTree::new(Arc::clone(&cache), config());
        let mut model = BTreeMap::new();
        for (i, s) in first.iter().enumerate() {
            put_text(&mut t, &mut model, i as i64, s);
        }
        t.flush().unwrap();
        for (i, s) in second.iter().enumerate() {
            put_text(&mut t, &mut model, i as i64 * stride, s);
        }
        for i in (1..first.len() as i64).step_by(11) {
            t.delete(k(i)).unwrap();
            model.remove(&i);
        }
        check_records(&t, &layout, &model, &["s".into(), "a".into()]);
        t.flush().unwrap();
        check_records(&t, &layout, &model, &["s".into()]);
        t.merge_newest(2).unwrap();
        drop(t);
        let t = LsmTree::reopen(Arc::clone(&cache), config()).unwrap();
        prop_assert_eq!(t.component_count(), 1);
        check_records(&t, &layout, &model, &["s".into()]);
    }
}

/// Groups of exactly one record — a component of one, and the record a full
/// group leaves over — and a tree of delete markers alone.
#[test]
fn one_record_groups_and_markers_alone() {
    let layout = layout(true);
    let config = LsmConfig { mem_budget: 1 << 30, merge_policy: MergePolicy::NoMerge, layout: Some(Arc::clone(&layout)), ..LsmConfig::new("one") };
    let (cache, _d) = setup(64);
    let mut t = LsmTree::new(cache, config);
    let mut model = BTreeMap::new();
    for i in 0..=GROUP_RECORDS as i64 {
        t.upsert(k(i), row(true, i, i as u64)).unwrap();
        model.insert(i, row(true, i, i as u64));
    }
    t.flush().unwrap();
    t.upsert(k(-5), row(true, -5, 5)).unwrap();
    model.insert(-5, row(true, -5, 5));
    t.flush().unwrap();
    for i in [0, 7, GROUP_RECORDS as i64] {
        t.delete(k(i)).unwrap();
        model.remove(&i);
    }
    t.flush().unwrap();
    assert_eq!(t.component_count(), 3);
    check_records(&t, &layout, &model, &["a".into(), "open".into()]);
    // the two newest: the markers stay, for the oldest component to be masked by
    t.merge_newest(2).unwrap();
    check_records(&t, &layout, &model, &["s".into()]);
    t.merge_newest(2).unwrap();
    check_records(&t, &layout, &model, &[]);
    // flushed 1 025 + 1 + 3; the first merge kept the markers (4 entries), the
    // last one dropped them and the three records they mask
    let n = GROUP_RECORDS as u64 + 1;
    assert_eq!(t.stats().entries_written, (n + 1 + 3) + 4 + (n + 1 - 3));
}

/// A leaf-group component whose leaf area is damaged: a flipped bit in a
/// group's directory is `Corrupt` to whatever reads the group, and one
/// anywhere else in the leaf area is an error or a wrong answer — never a
/// panic.
#[test]
fn a_damaged_leaf_group_is_an_error_not_a_panic() {
    let layout = layout(true);
    let (cache, dir) = setup(64);
    let n = GROUP_RECORDS as i64 + 200;
    let mut b = BTreeBuilder::with_layout(cache.manager().bulk_writer("g.btree").unwrap(), n as usize, Arc::clone(&layout));
    for i in 0..n {
        b.add_row(&k(i), (i % 9 != 4).then(|| row(true, i, i as u64 * 7)).as_deref()).unwrap();
    }
    let built = b.finish().unwrap();
    let sound = std::fs::read(dir.0.join("g.btree")).unwrap();
    drop(DiskBTree::from_built(Arc::clone(&cache), built));
    let dir_len = 16 + 16 * (2 + 2 * layout.cell_count());
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |below: usize| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % below as u64) as usize
    };
    let leaf_pages = sound.len() / asterix_storage::PAGE_SIZE - 3;
    for round in 0..300 {
        let in_directory = round % 3 == 0;
        let bit = if in_directory { next(dir_len * 8) } else { next(leaf_pages * asterix_storage::PAGE_SIZE * 8) };
        let mut bad = sound.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let name = format!("bad{round}.btree");
        std::fs::write(dir.0.join(&name), &bad).unwrap();
        let file = cache.manager().open(&name).unwrap();
        let t = DiskBTree::open(Arc::clone(&cache), file, Some(&layout)).unwrap();
        let scanned: Result<Vec<_>, _> = t.scan().unwrap_or_else(|_| t.range(Bound::Excluded(&k(n)), Bound::Unbounded).unwrap()).collect();
        let got = t.get(&k(3));
        if in_directory {
            assert!(matches!(t.scan().map(|s| s.count()), Err(asterix_storage::StorageError::Corrupt(_))), "bit {bit}: {scanned:?}");
            assert!(matches!(got, Err(asterix_storage::StorageError::Corrupt(_))), "bit {bit}");
        }
    }
}
