//! Property-based tests for the storage layer: B+ tree vs model, LSM vs
//! model, spatial leaves and the spatial index vs brute force, bloom filter
//! totality, hash vs model.

use asterix_adm::binary::encode_key;
use asterix_adm::fsst::{Encoder, SymbolTable};
use asterix_adm::types::{Field, ObjectType, TypeExpr};
use asterix_adm::{BatchBuilder, Point, RecordLayout, Rectangle, Value};
use asterix_obs::IdGen;
use asterix_storage::btree::{BTreeBuilder, DiskBTree, Entry, LeafShape, MAX_ENTRY, MAX_KEY};
use asterix_storage::leaf_group::GROUP_RECORDS;
use asterix_storage::cache::BufferCache;
use asterix_storage::io::FileManager;
use asterix_storage::linear_hash::LinearHash;
use asterix_storage::lsm::{LsmConfig, LsmStats, LsmTree, MergePolicy, Projected};
use asterix_storage::spatial;
use asterix_storage::stats::IoStats;
use asterix_storage::{BackgroundExecutor, BackgroundJob, JobStep};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::ops::{Bound, RangeBounds};
use std::path::PathBuf;
use std::sync::Arc;

static DIR_COUNTER: IdGen = IdGen::new(0);

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        let n = DIR_COUNTER.next();
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

/// Puts the spatial index entry of `mbr` under `pk` into `t`.
fn spatial_put(t: &mut LsmTree, mbr: &Rectangle, pk: &[u8]) {
    t.upsert(spatial::key(mbr, pk), spatial::value(mbr)).unwrap();
}

/// Writes a delete marker on the spatial index entry of `mbr` under `pk`.
fn spatial_delete(t: &mut LsmTree, mbr: &Rectangle, pk: &[u8]) {
    t.delete(spatial::key(mbr, pk)).unwrap();
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
        let mut b = BTreeBuilder::new(w, true);
        let model: BTreeMap<i64, Entry> = std::mem::take(&mut keys)
            .into_iter()
            .map(|i| (i, Entry::Put(format!("v{i}").into_bytes())))
            .collect();
        for (i, v) in &model {
            b.add(&k(*i), v.value()).unwrap();
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
                leaves: LeafShape::Rows,
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

    /// A component of spatial leaves hands a search the entries of exactly
    /// the leaves whose fence MBR meets the query: among them, every entry
    /// that meets it, points and rectangles alike — also once reopened.
    #[test]
    fn spatial_leaves_match_brute_force(
        boxes in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.0f64..4.0, 0.0f64..4.0, any::<bool>()), 0..600),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0, qw in 0.0f64..50.0, qh in 0.0f64..50.0,
    ) {
        let (cache, _d) = setup(64);
        let mut entries: Vec<(Vec<u8>, Rectangle)> = boxes
            .iter()
            .enumerate()
            .map(|(i, &(x, y, w, h, point))| {
                let mbr = if point { Point::new(x, y).to_mbr() } else { Rectangle::new(Point::new(x, y), Point::new(x + w, y + h)) };
                (spatial::key(&mbr, &(i as u64).to_be_bytes()), mbr)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut b = BTreeBuilder::with_shape(cache.manager().bulk_writer("p.btree").unwrap(), true, &LeafShape::Spatial);
        for (key, mbr) in &entries {
            b.add(key, Some(&spatial::value(mbr))).unwrap();
        }
        let t = DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap());
        let q = Rectangle::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
        let want: Vec<Vec<u8>> = entries.iter().filter(|(_, mbr)| mbr.intersects(&q)).map(|(k, _)| k.clone()).collect();
        let reopened = DiskBTree::open(Arc::clone(&cache), t.file(), &LeafShape::Spatial).unwrap();
        for tree in [&t, &reopened] {
            let mut got = Vec::new();
            tree.search_leaves(&q, |key, value| {
                if spatial::mbr_of(value.unwrap_or_default())?.intersects(&q) {
                    got.push(key.to_vec());
                }
                Ok(())
            })
            .unwrap();
            prop_assert_eq!(&got, &want);
        }
    }

    /// A spatial index under random inserts of points and rectangles, moves,
    /// resizes about the same centre (the same key, put again without a
    /// delete), deletes, flushes and merges — merging inline or on a
    /// background thread — answers every rectangle query like a brute-force
    /// filter over a key → MBR map.
    #[test]
    fn spatial_index_matches_model(
        ops in prop::collection::vec(
            (0u8..12, 0u8..24, (0.0f64..32.0, 0.0f64..32.0, 0.0f64..8.0, 0.0f64..8.0),
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
        if background {
            cache.stats().lsm().install_executor(Arc::new(OnThread));
        }
        let mut t = LsmTree::new(cache, LsmConfig { mem_budget: 1 << 10, merge_policy, ..spatial::config("p") });
        let mut model: HashMap<Vec<u8>, Rectangle> = HashMap::new();
        for (op, id, (x, y, w, h), (qx, qy, qw, qh)) in ops {
            let pk = format!("k{id}").into_bytes();
            let put = match op {
                0..=3 => Some(Point::new(x, y).to_mbr()),
                4 | 5 => Some(Rectangle::new(Point::new(x, y), Point::new(x + w, y + h))),
                // about the centre it has, smaller or larger
                6 | 7 => model.get(&pk).map(|old| {
                    let c = old.center();
                    Rectangle::new(Point::new(c.x - w / 2.0, c.y - h / 2.0), Point::new(c.x + w / 2.0, c.y + h / 2.0))
                }),
                _ => None,
            };
            match op {
                0..=7 => {
                    if let Some(mbr) = put {
                        // an entry whose key moves is deleted where it was
                        if let Some(old) = model.insert(pk.clone(), mbr).filter(|old| spatial::key(old, &pk) != spatial::key(&mbr, &pk)) {
                            spatial_delete(&mut t, &old, &pk);
                        }
                        spatial_put(&mut t, &mbr, &pk);
                    }
                }
                8 | 9 => {
                    if let Some(old) = model.remove(&pk) {
                        spatial_delete(&mut t, &old, &pk);
                    }
                }
                10 => t.flush().unwrap(),
                _ => t.merge_newest(2 + id as usize % 3).unwrap(),
            }
            // checked right away: a background merge may still be running
            let q = Rectangle::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
            let mut got: Vec<(Vec<u8>, Rectangle)> =
                spatial::search(&t, &q).unwrap().into_iter().map(|e| (e.pk, e.mbr)).collect();
            let mut want: Vec<(Vec<u8>, Rectangle)> = model
                .iter()
                .filter(|(_, mbr)| mbr.intersects(&q))
                .map(|(k, mbr)| (k.clone(), *mbr))
                .collect();
            got.sort_by(|a, b| a.0.cmp(&b.0));
            want.sort_by(|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(got, want);
        }
        prop_assert!(t.run_merges_to_idle());
        prop_assert_eq!(t.count().unwrap(), model.len());
        if constant {
            prop_assert!(t.component_count() <= 2, "{} components", t.component_count());
        }
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

fn as_slice(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    b.as_ref().map(Vec::as_slice)
}

/// Key sets that strain a front-coded page: a few byte values, the least
/// and the greatest among them, so that keys are often prefixes of one
/// another — and a chain of keys starting with a byte no other key does,
/// each the one before it and one byte more, longer than a restart interval;
/// every key behind `shared` bytes they have in common; and values that are
/// empty, short, or as long as a page takes (`fill`), which makes pages of
/// hundreds of entries, or one-entry leaves and, past a few hundred of them,
/// a fence index of several pages — every fifth entry a delete marker.
fn page_keys() -> impl Strategy<Value = (std::collections::BTreeSet<Vec<u8>>, Vec<u8>, usize, u8)> {
    const BYTES: [u8; 5] = [0x00, 0x01, b'a', 0xFE, 0xFF];
    let byte = || (0usize..BYTES.len()).prop_map(|i| BYTES[i]);
    let shared = prop_oneof![Just(0usize), Just(1), Just(9), Just(300), Just(3_000)];
    let suffixes = prop_oneof![
        4 => prop::collection::btree_set(prop::collection::vec(byte(), 0..10), 1..300),
        2 => prop::collection::btree_set(prop::collection::vec(byte(), 0..10), 500..800),
    ];
    let chain = prop::collection::vec(byte(), 0..60);
    (suffixes, chain, prop::collection::vec(byte(), 0..14), shared, 0u8..4).prop_map(|(mut suffixes, chain, stray, shared, fill)| {
        suffixes.extend((0..=chain.len()).map(|n| [&[b'c'][..], &chain[..n]].concat()));
        (suffixes, stray, shared, fill)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A B+ tree bulk-loaded from sorted byte keys — whatever prefix its
    /// pages share and however short its separators get — answers point gets
    /// and range scans like a `BTreeMap` of the same pairs, and says the
    /// same after it is reopened from its footer.
    #[test]
    fn btree_pages_answer_like_an_ordered_map(
        (suffixes, stray, shared, fill) in page_keys(),
        bounds in prop::collection::vec((0usize..1_000, 0usize..1_000, 0u8..3, 0u8..3), 1..12),
    ) {
        let key = |suffix: &[u8]| [vec![b'p'; shared].as_slice(), suffix].concat();
        let model: BTreeMap<Vec<u8>, Entry> = suffixes
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
                let entry = if i % 5 == 4 { Entry::Tombstone } else { Entry::Put(vec![i as u8; len]) };
                (key, entry)
            })
            .collect();
        let (cache, _d) = setup(64);
        let mut b = BTreeBuilder::new(cache.manager().bulk_writer("p.btree").unwrap(), true);
        for (k, v) in &model {
            b.add(k, v.value()).unwrap();
        }
        let built = b.finish().unwrap();
        let reopened = DiskBTree::open(Arc::clone(&cache), built.file, &LeafShape::Rows).unwrap();
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
        // an excluded lower bound at every key, wherever in its restart
        // interval or page it stands: a cursor starts at the key after it
        let keys: Vec<&Vec<u8>> = model.keys().collect();
        for (i, k) in keys.iter().enumerate() {
            let got: Vec<Vec<u8>> = t.range(Bound::Excluded(k), Bound::Unbounded).unwrap().take(2).map(|r| r.unwrap().0).collect();
            let want: Vec<Vec<u8>> = keys[i + 1..].iter().take(2).map(|k| k.to_vec()).collect();
            prop_assert_eq!(got, want, "after {:?}", k);
        }
        for (lo, hi, lo_kind, hi_kind) in bounds {
            let (lo, hi) = (&probes[lo % probes.len()], &probes[hi % probes.len()]);
            let bound = |kind: u8, k: &Vec<u8>| match kind {
                0 => Bound::Unbounded,
                1 => Bound::Included(k.clone()),
                _ => Bound::Excluded(k.clone()),
            };
            let (lo, hi) = (bound(lo_kind, lo), bound(hi_kind, hi));
            let got: Vec<(Vec<u8>, Entry)> =
                t.range(as_slice(&lo), hi.clone()).unwrap().map(|r| r.unwrap()).collect();
            // `BTreeMap::range` panics on bounds that cross
            let want: Vec<(Vec<u8>, Entry)> = model
                .iter()
                .filter(|(k, _)| (as_slice(&lo), as_slice(&hi)).contains(&k.as_slice()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(got, want, "range {:?}..{:?}", lo, hi);
        }
    }
}

// ---------------------------------------------------------------------------
// A component file ends where its bytes end
// ---------------------------------------------------------------------------

/// Key `i` of a tree whose keys are `len` bytes: a filler all keys share,
/// then `i`, big-endian, in as many of the last four bytes as `len` leaves.
fn sized_key(len: usize, i: usize) -> Vec<u8> {
    let width = len.min(4);
    let mut key = vec![b'k'; len - width];
    key.extend_from_slice(&(i as u32).to_be_bytes()[4 - width..]);
    key
}

/// A component of every even key `sized_key(len, 2i)` for `i < n`, as a
/// tree of row leaves — values of 0 to 40 bytes — or of leaf groups, every
/// seventh entry a delete marker in either; and the map of what a read of
/// each key gives.
fn sized_tree(cache: &Arc<BufferCache>, name: &str, groups: bool, len: usize, n: usize) -> (DiskBTree, BTreeMap<Vec<u8>, Entry>) {
    let w = cache.manager().bulk_writer(name).unwrap();
    let mut b = if groups { BTreeBuilder::with_layout(w, true, layout(true)) } else { BTreeBuilder::new(w, true) };
    let mut model = BTreeMap::new();
    for i in 0..n {
        let key = sized_key(len, 2 * i);
        let entry = match i % 7 {
            6 => Entry::Tombstone,
            _ if groups => Entry::Put(row(true, i as i64, i as u64 * 3)),
            _ => Entry::Put(vec![i as u8; i % 41]),
        };
        b.add(&key, entry.value()).unwrap();
        model.insert(key, entry);
    }
    (DiskBTree::from_built(Arc::clone(cache), b.finish().unwrap()), model)
}

/// Whether `t` answers like `model`: a get of every `step`th key and of the
/// keys between them, ranges between the probes, and a scan outside the
/// cache.
fn answers_like(t: &DiskBTree, model: &BTreeMap<Vec<u8>, Entry>, len: usize, n: usize, step: usize) {
    prop_assert_eq!(t.len(), n as u64);
    let probes: Vec<Vec<u8>> = (0..2 * n + 2).step_by(step).chain([2 * n.saturating_sub(1)]).map(|i| sized_key(len, i)).collect();
    for p in &probes {
        prop_assert_eq!(&t.get(p).unwrap(), &model.get(p).cloned(), "get {:?}", p);
    }
    for (lo, hi) in probes.iter().zip(probes.iter().rev()).take(4) {
        let got: Vec<Vec<u8>> = t.range(Bound::Excluded(lo), Bound::Included(hi.clone())).unwrap().map(|r| r.unwrap().0).collect();
        let want: Vec<Vec<u8>> = model.keys().filter(|k| *k > lo && *k <= hi).cloned().collect();
        prop_assert_eq!(got, want, "range {:?}..={:?}", lo, hi);
    }
    let scanned: Vec<(Vec<u8>, Entry)> = t.scan_uncached().unwrap().map(|r| r.unwrap()).collect();
    prop_assert!(scanned.iter().map(|(k, v)| (k, v)).eq(model.iter()), "scan outside the cache");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trees of none to thousands of entries, in both leaf shapes, under
    /// keys of one byte to `MAX_KEY`: long keys make long separators, so a
    /// fence index of many pages and trailers whose smallest and largest key
    /// lie across pages — and trees a page of separators could not have
    /// routed in one level. Each answers like an ordered map, and so does
    /// the file reopened from its footer.
    #[test]
    fn a_tree_of_any_size_and_key_length_answers_like_a_map(
        groups in any::<bool>(),
        len in prop_oneof![Just(1usize), 2usize..16, 16usize..300, Just(1_000), Just(MAX_KEY)],
        n in 0usize..3_000,
    ) {
        // as many even keys as `len` bytes tell apart, and fewer long ones
        let n = n.min(if len >= 1_000 { 300 } else { usize::MAX }).min(1 << (8 * len.min(4) - 1));
        let (cache, _d) = setup(64);
        let (t, model) = sized_tree(&cache, "s.btree", groups, len, n);
        let step = (n / 50).max(1);
        answers_like(&t, &model, len, n, step);
        let shape = if groups { LeafShape::Groups(layout(true)) } else { LeafShape::Rows };
        let reopened = DiskBTree::open(Arc::clone(&cache), t.file(), &shape).unwrap();
        prop_assert_eq!((reopened.min_key(), reopened.max_key()), (t.min_key(), t.max_key()));
        answers_like(&reopened, &model, len, n, step);
    }
}

/// A component file cut at any page boundary, or with any one byte of its
/// footer flipped, is refused as `Corrupt`, and one whose zero pad is
/// flipped whole reads back what was written; none panics. The footer's
/// checksum covers all but the pad and the last eight bytes, which locate
/// the trailer and say what the file is.
#[test]
fn a_cut_or_a_flipped_footer_byte_is_refused_or_harmless() {
    let (cache, dir) = setup(64);
    // (what a read gives, the file, where its trailer starts, where its leaf area ends)
    let footer = |model: BTreeMap<Vec<u8>, Entry>| {
        let sound = std::fs::read(dir.0.join("sound.btree")).unwrap();
        let back = u32::from_le_bytes(sound[sound.len() - 8..][..4].try_into().unwrap()) as usize;
        let trailer = sound.len() - 8 - back;
        let leaf_end = u64::from_le_bytes(sound[trailer + 8..][..8].try_into().unwrap()) as usize;
        (model, sound, trailer, leaf_end)
    };
    // a row-leaf tree, the first leaf-group tree from 1 000 entries on whose
    // footer lies across a page boundary, and a tree of 3 000-byte keys,
    // whose trailer does
    let page = asterix_storage::PAGE_SIZE;
    let groups = (1_000..).step_by(10).map(|n| footer(sized_tree(&cache, "sound.btree", true, 8, n).1));
    let trees = [
        (false, 8, footer(sized_tree(&cache, "sound.btree", false, 8, 500).1)),
        (true, 8, groups.take(100).find(|(_, _, trailer, leaf_end)| leaf_end / page < trailer / page).unwrap()),
        (false, 3_000, footer(sized_tree(&cache, "sound.btree", false, 3_000, 3).1)),
    ];
    for (groups, len, (model, sound, trailer, leaf_end)) in trees {
        assert!(groups || leaf_end % page == 0);
        let shape = if groups { LeafShape::Groups(layout(true)) } else { LeafShape::Rows };
        // each image opened as a file of its own, so that no page of
        // another is in the cache
        let check = |image: &[u8], what: &str| {
            std::fs::write(dir.0.join("bad.btree"), image).unwrap();
            let file = cache.manager().open("bad.btree").unwrap();
            let opened = match DiskBTree::open(Arc::clone(&cache), file, &shape) {
                Err(asterix_storage::StorageError::Corrupt(_)) => false,
                Err(e) => panic!("{what}: {e}"),
                Ok(t) => {
                    let scanned: Vec<_> = t.scan().unwrap().map(|r| r.unwrap()).collect();
                    assert!(scanned.iter().map(|(k, v)| (k, v)).eq(model.iter()), "{what}: a scan");
                    for key in model.keys().step_by(37) {
                        assert_eq!(t.get(key).unwrap().as_ref(), model.get(key), "{what}: get");
                    }
                    true
                }
            };
            cache.manager().delete(file).unwrap();
            opened
        };
        assert!(check(&sound, "sound"));
        for pages in 0..sound.len() / page {
            assert!(!check(&sound[..pages * page], "cut"), "cut to {pages} pages opened");
        }
        // the trailer: entry count, leaf end, four lengths, two keys, checksum
        let pad = trailer + 8 + 8 + 16 + 2 * (4 + len) + 4..sound.len() - 8;
        for at in (leaf_end..sound.len()).filter(|at| !pad.contains(at)) {
            let mut bad = sound.clone();
            bad[at] ^= 0x5A;
            assert!(!check(&bad, &format!("byte {at}")), "byte {at} flipped opened");
        }
        let mut bad = sound.clone();
        bad[pad].iter_mut().for_each(|b| *b = !*b);
        assert!(check(&bad, "the pad"));
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
    #![proptest_config(ProptestConfig::with_cases(24))]

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

    /// The same for the spatial index, whose entries move, and whose deletes
    /// are markers a search must find in components it prunes.
    #[test]
    fn reopen_matches_never_crashed_spatial(ops in life_ops()) {
        let config = |name: &str| LsmConfig {
            mem_budget: 1 << 10,
            merge_policy: MergePolicy::Constant { max_components: 3 },
            ..spatial::config(name)
        };
        let (kept_cache, _d1) = setup(64);
        let (cache, _d2) = setup(64);
        let mut kept = LsmTree::new(kept_cache, config("kept"));
        let mut t = LsmTree::new(Arc::clone(&cache), config("t"));
        // where each key currently is, to delete it from
        let mut at: HashMap<i64, Rectangle> = HashMap::new();
        let everything = Rectangle::new(Point::new(-1.0, -1.0), Point::new(1e6, 1e6));
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                LifeOp::Put(i) => {
                    let pk = format!("k{i}").into_bytes();
                    let mbr = Point::new(i as f64, step as f64).to_mbr();
                    if let Some(old) = at.insert(i, mbr) {
                        spatial_delete(&mut kept, &old, &pk);
                        spatial_delete(&mut t, &old, &pk);
                    }
                    spatial_put(&mut kept, &mbr, &pk);
                    spatial_put(&mut t, &mbr, &pk);
                }
                LifeOp::Delete(i) => {
                    if let Some(old) = at.remove(&i) {
                        let pk = format!("k{i}").into_bytes();
                        spatial_delete(&mut kept, &old, &pk);
                        spatial_delete(&mut t, &old, &pk);
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
                    t = LsmTree::reopen(Arc::clone(&cache), config("t")).unwrap();
                    prop_assert_eq!(t.component_count(), components);
                }
            }
            let sorted = |t: &LsmTree| {
                let mut hits: Vec<(Vec<u8>, Rectangle)> =
                    spatial::search(t, &everything).unwrap().into_iter().map(|e| (e.pk, e.mbr)).collect();
                hits.sort_by(|a, b| a.0.cmp(&b.0));
                hits
            };
            let got = sorted(&t);
            prop_assert_eq!(got.len(), at.len(), "after step {}", step);
            prop_assert_eq!(got, sorted(&kept), "after step {}", step);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An index without a layout whose entries are keys alone — a secondary
    /// index's — among valued entries and delete markers answers like a map
    /// through flushes, merges of the newest components and reopening. Then
    /// a delete marker is kept exactly while it masks something: markers
    /// flushed into one component and new keys into the next, merged
    /// without the oldest, are each written again and still mask the
    /// oldest, also once reopened; the merge of everything writes the live
    /// keys alone.
    #[test]
    fn key_only_entries_and_delete_markers_survive_flush_merge_and_reopen(ops in life_ops(), valued in 0i64..4) {
        let config = |mem_budget: usize| LsmConfig { mem_budget, merge_policy: MergePolicy::NoMerge, ..LsmConfig::new("s") };
        let (cache, _d) = setup(64);
        let mut t = LsmTree::new(Arc::clone(&cache), config(1 << 10));
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        // key `i` holds a value when `i % 4 < valued`, else nothing
        let value = |i: i64, step: usize| if i % 4 < valued { format!("v{i}@{step}").into_bytes() } else { Vec::new() };
        let answers = |t: &LsmTree, model: &BTreeMap<i64, Vec<u8>>| {
            t.scan().unwrap() == model.iter().map(|(i, v)| (k(*i), v.clone())).collect::<Vec<_>>()
        };
        let put = |t: &mut LsmTree, model: &mut BTreeMap<i64, Vec<u8>>, i: i64, step: usize| {
            t.upsert(k(i), value(i, step)).unwrap();
            model.insert(i, value(i, step));
        };
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                LifeOp::Put(i) => put(&mut t, &mut model, i, step),
                LifeOp::Delete(i) => {
                    t.delete(k(i)).unwrap();
                    model.remove(&i);
                }
                LifeOp::Flush => t.flush().unwrap(),
                LifeOp::Merge(n) => t.merge_newest(n).unwrap(),
                LifeOp::Reopen => {
                    t.flush().unwrap();
                    drop(t);
                    t = LsmTree::reopen(Arc::clone(&cache), config(1 << 10)).unwrap();
                }
            }
            prop_assert!(answers(&t, &model), "after step {}", step);
        }
        // from here on one flush is one component
        t.flush().unwrap();
        drop(t);
        let mut t = LsmTree::reopen(Arc::clone(&cache), config(1 << 20)).unwrap();
        (61..64).for_each(|i| put(&mut t, &mut model, i, 0));
        t.flush().unwrap();
        let deleted: Vec<i64> = model.keys().step_by(2).copied().collect();
        for i in &deleted {
            t.delete(k(*i)).unwrap();
            model.remove(i);
        }
        t.flush().unwrap();
        (100..105).for_each(|i| put(&mut t, &mut model, i, 0));
        t.flush().unwrap();
        let before = t.stats().entries_written;
        t.merge_newest(2).unwrap();
        prop_assert_eq!(t.stats().entries_written - before, deleted.len() as u64 + 5, "a merge that leaves the oldest out keeps its markers");
        prop_assert!(answers(&t, &model));
        drop(t);
        let mut t = LsmTree::reopen(Arc::clone(&cache), config(1 << 20)).unwrap();
        prop_assert!(answers(&t, &model), "reopened");
        let (all, before) = (t.component_count(), t.stats().entries_written);
        t.merge_newest(all).unwrap();
        prop_assert_eq!(t.stats().entries_written - before, model.len() as u64, "the merge of everything drops the markers");
        drop(t);
        let t = LsmTree::reopen(Arc::clone(&cache), config(1 << 20)).unwrap();
        prop_assert!(answers(&t, &model), "merged and reopened");
        for i in (0..64).chain(100..105) {
            prop_assert_eq!(t.get(&k(i)).unwrap(), model.get(&i).cloned(), "get {}", i);
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

/// The stored row of [`record`] under [`layout`]`(declared)`.
fn row(declared: bool, i: i64, v: u64) -> Vec<u8> {
    layout(declared).encode(&record(i, v)).unwrap()
}

/// The layout of [`record_type`], or of an open type that declares none of
/// its fields: zero columns, every record all rest.
fn layout(declared: bool) -> Arc<RecordLayout> {
    let ty = if declared { record_type() } else { ObjectType::open("R", Vec::new()) };
    Arc::new(RecordLayout::new(&ty))
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An LSM tree with a layout — rows in its memory components, leaf
    /// groups on disk — answers gets, scans and reads of named cells like a
    /// map of the rows, through flushes, merges of some or all components
    /// (delete markers go only when nothing older is left) and reopening;
    /// under a type that declares the fields and one that declares none.
    #[test]
    fn layout_tree_answers_like_a_map_of_rows(
        ops in record_ops(),
        declared in any::<bool>(),
        picks in prop::collection::vec(0usize..9, 0..4),
    ) {
        let pool = ["id", "a", "t", "p", "s", "n", "open", "v", "nope"];
        let fields: Vec<String> = picks.iter().map(|p| pool[*p].to_string()).collect();
        let layout = layout(declared);
        let config = || LsmConfig {
            mem_budget: 48 << 10,
            merge_policy: MergePolicy::NoMerge,
            leaves: LeafShape::Groups(Arc::clone(&layout)),
            ..LsmConfig::new("r")
        };
        let (cache, _d) = setup(64);
        let mut t = LsmTree::new(Arc::clone(&cache), config());
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        let put = |t: &mut LsmTree, model: &mut BTreeMap<i64, Vec<u8>>, i: i64, v: u64| {
            let row = row(declared, i, v);
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
    let row = layout(true).encode(&record).unwrap();
    t.upsert(k(i), row.clone()).unwrap();
    model.insert(i, row);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
            leaves: LeafShape::Groups(Arc::clone(&layout)),
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
    let config = LsmConfig { mem_budget: 1 << 30, merge_policy: MergePolicy::NoMerge, leaves: LeafShape::Groups(Arc::clone(&layout)), ..LsmConfig::new("one") };
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
    let mut b = BTreeBuilder::with_layout(cache.manager().bulk_writer("g.btree").unwrap(), true, Arc::clone(&layout));
    for i in 0..n {
        b.add(&k(i), (i % 9 != 4).then(|| row(true, i, i as u64 * 7)).as_deref()).unwrap();
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
        // damaged once open, so that the reads below meet the damage: a
        // debug build's open reads every group's keys, to audit its fences
        let name = format!("bad{round}.btree");
        std::fs::write(dir.0.join(&name), &sound).unwrap();
        let file = cache.manager().open(&name).unwrap();
        let t = DiskBTree::open(Arc::clone(&cache), file, &LeafShape::Groups(Arc::clone(&layout))).unwrap();
        std::fs::write(dir.0.join(&name), &bad).unwrap();
        let scanned: Result<Vec<_>, _> = t.scan().unwrap_or_else(|_| t.range(Bound::Excluded(&k(n)), Bound::Unbounded).unwrap()).collect();
        let got = t.get(&k(3));
        if in_directory {
            assert!(matches!(t.scan().map(|s| s.count()), Err(asterix_storage::StorageError::Corrupt(_))), "bit {bit}: {scanned:?}");
            assert!(matches!(got, Err(asterix_storage::StorageError::Corrupt(_))), "bit {bit}");
        }
        // and opened damaged: refused as `Corrupt` (by a debug build's audit,
        // for a damaged directory) or opened, never a panic
        let reopened = DiskBTree::open(Arc::clone(&cache), cache.manager().open(&name).unwrap(), &LeafShape::Groups(Arc::clone(&layout)));
        match reopened {
            Err(asterix_storage::StorageError::Corrupt(_)) => {}
            Err(e) => panic!("bit {bit}: {e}"),
            Ok(_) => assert!(!(in_directory && cfg!(debug_assertions)), "bit {bit}: the audit read a damaged directory"),
        }
    }
}

// ---------------------------------------------------------------------------
// A flush the merge policy would merge at once becomes that merge
// ---------------------------------------------------------------------------

/// Parks the merges handed to it; the test steps them a morsel at a time,
/// so that reads meet a merge that took a memory component in at any point
/// of its run. A seal or a flush finishes them on its own.
#[derive(Default)]
struct Stepped(asterix_storage::lock_order::Mutex<Vec<Arc<dyn BackgroundJob>>>);

impl BackgroundExecutor for Stepped {
    fn offload(&self, job: Arc<dyn BackgroundJob>) {
        self.0.lock().push(job);
    }
}

impl Stepped {
    /// One morsel of the oldest parked merge, if one is parked.
    fn step(&self) {
        let job = self.0.lock().first().cloned();
        if job.is_some_and(|job| job.step() == JobStep::Done) {
            self.0.lock().remove(0);
        }
    }
}

/// An index under test, of any kind and leaf shape: entry `i` at version
/// `v` and its delete, and every live entry as `(key, value)` bytes — an
/// R-tree entry's value its point's bytes.
trait Subject: Sized {
    /// A new version of an entry goes in only once the old one is deleted
    /// (an R-tree's entry moves).
    const RETRACTS: bool = false;
    fn create(cache: Arc<BufferCache>, name: &str, mem_budget: usize, merge_policy: MergePolicy) -> Self;
    /// Its lifecycle.
    fn lsm(&mut self) -> &mut LsmTree;
    fn merge_newest(&mut self, n: usize);
    fn put(&mut self, i: u64, v: u64);
    fn delete(&mut self, i: u64, v: u64);
    fn entry(i: u64, v: u64) -> (Vec<u8>, Vec<u8>);
    fn live(&self) -> Vec<(Vec<u8>, Vec<u8>)>;
}

/// A tree of opaque values: row leaves.
struct RowTree(LsmTree);
/// A tree of records: leaf groups.
struct GroupTree(LsmTree);
struct Spatial(LsmTree);

fn tree_config(name: &str, mem_budget: usize, merge_policy: MergePolicy, leaves: LeafShape) -> LsmConfig {
    LsmConfig { mem_budget, merge_policy, leaves, ..LsmConfig::new(name) }
}


impl Subject for RowTree {
    fn merge_newest(&mut self, n: usize) {
        self.0.merge_newest(n).unwrap();
    }
    fn lsm(&mut self) -> &mut LsmTree {
        &mut self.0
    }
    fn create(cache: Arc<BufferCache>, name: &str, mem_budget: usize, merge_policy: MergePolicy) -> Self {
        RowTree(LsmTree::new(cache, tree_config(name, mem_budget, merge_policy, LeafShape::Rows)))
    }
    fn put(&mut self, i: u64, v: u64) {
        let (key, value) = Self::entry(i, v);
        self.0.upsert(key, value).unwrap();
    }
    fn delete(&mut self, i: u64, _: u64) {
        self.0.delete(k(i as i64)).unwrap();
    }
    fn entry(i: u64, v: u64) -> (Vec<u8>, Vec<u8>) {
        (k(i as i64), format!("v{v}-{}", "x".repeat(v as usize % 50)).into_bytes())
    }
    fn live(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.0.scan().unwrap()
    }
}

impl Subject for GroupTree {
    fn merge_newest(&mut self, n: usize) {
        self.0.merge_newest(n).unwrap();
    }
    fn lsm(&mut self) -> &mut LsmTree {
        &mut self.0
    }
    fn create(cache: Arc<BufferCache>, name: &str, mem_budget: usize, merge_policy: MergePolicy) -> Self {
        GroupTree(LsmTree::new(cache, tree_config(name, mem_budget, merge_policy, LeafShape::Groups(layout(true)))))
    }
    fn put(&mut self, i: u64, v: u64) {
        let (key, value) = Self::entry(i, v);
        self.0.upsert(key, value).unwrap();
    }
    fn delete(&mut self, i: u64, _: u64) {
        self.0.delete(k(i as i64)).unwrap();
    }
    fn entry(i: u64, v: u64) -> (Vec<u8>, Vec<u8>) {
        (k(i as i64), row(true, i as i64, v))
    }
    fn live(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.0.scan().unwrap()
    }
}

impl Subject for Spatial {
    const RETRACTS: bool = true;
    fn merge_newest(&mut self, n: usize) {
        self.0.merge_newest(n).unwrap();
    }
    fn lsm(&mut self) -> &mut LsmTree {
        &mut self.0
    }
    fn create(cache: Arc<BufferCache>, name: &str, mem_budget: usize, merge_policy: MergePolicy) -> Self {
        Spatial(LsmTree::new(cache, LsmConfig { mem_budget, merge_policy, ..spatial::config(name) }))
    }
    fn put(&mut self, i: u64, v: u64) {
        spatial_put(&mut self.0, &Self::point(i, v), format!("k{i:04}").as_bytes());
    }
    fn delete(&mut self, i: u64, v: u64) {
        spatial_delete(&mut self.0, &Self::point(i, v), format!("k{i:04}").as_bytes());
    }
    fn entry(i: u64, v: u64) -> (Vec<u8>, Vec<u8>) {
        (format!("k{i:04}").into_bytes(), Self::bytes(&Self::point(i, v)))
    }
    fn live(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let everything = Rectangle::new(
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            Point::new(f64::INFINITY, f64::INFINITY),
        );
        let mut live: Vec<_> = spatial::search(&self.0, &everything).unwrap().into_iter().map(|e| (e.pk, Self::bytes(&e.mbr))).collect();
        live.sort();
        live
    }
}

impl Spatial {
    /// Entry `i` at version `v`: a point that moves with the version, on a
    /// grid coarse enough that points share their place.
    fn point(i: u64, v: u64) -> Rectangle {
        Point::new((v % 7) as f64, (i % 5) as f64).to_mbr()
    }

    fn bytes(r: &Rectangle) -> Vec<u8> {
        [r.min.x, r.min.y, r.max.x, r.max.y].iter().flat_map(|c| c.to_le_bytes()).collect()
    }
}

/// The bytes of every component file of index `name` under `dir`, grouped
/// by component, newest first: what a reopen would find, once no read holds
/// a merged-away component.
fn images(dir: &TempDir, name: &str) -> Vec<Vec<(String, Vec<u8>)>> {
    let mut by_id: BTreeMap<u64, Vec<(String, Vec<u8>)>> = BTreeMap::new();
    for entry in std::fs::read_dir(&dir.0).unwrap() {
        let file = entry.unwrap().file_name().to_string_lossy().into_owned();
        let Some((id, suffix)) = file.strip_prefix(&format!("{name}_c")).and_then(|rest| rest.split_once('.')) else {
            continue;
        };
        let bytes = std::fs::read(dir.0.join(&file)).unwrap();
        by_id.entry(id.parse().unwrap()).or_default().push((suffix.to_owned(), bytes));
    }
    by_id.into_values().rev().map(|mut files| { files.sort(); files }).collect()
}

/// Drives one op stream — upserts, deletes, writes of an open transaction
/// after a leap of the log that makes a seal due, a morsel of a parked
/// merge followed by a write, and flushes — through an index of `S` under
/// `policy`, its merges on the caller (`exec` 0), on a thread of their own
/// (1) or stepped by the stream (2), and checks every read against a map
/// after every op. A write settles the index without waiting for a merge
/// that takes its sealed component in. Returns how many sealed components
/// went straight into a merge that published them, and how many of those a
/// due seal found still in their merge and published through it, writing
/// nothing on its own.
fn matches_the_model_while_memory_merges_run<S: Subject>(ops: &[(u8, u64)], policy: MergePolicy, exec: u8) -> (u64, u64) {
    let (cache, _d) = setup(64);
    let stepped = Arc::new(Stepped::default());
    match exec {
        0 => {}
        1 => cache.stats().lsm().install_executor(Arc::new(OnThread)),
        _ => cache.stats().lsm().install_executor(stepped.clone()),
    }
    const BUDGET: u64 = 2 << 10;
    const TXN: u64 = 1;
    let mut t = S::create(cache, "m", BUDGET as usize, policy);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut finished_by_seal = 0;
    let mut lsn = 0;
    for (version, &(op, i)) in (1u64..).zip(ops) {
        let before = t.lsm().stats();
        match op {
            5 | 6 => {
                if let Some(old) = model.remove(&i) {
                    t.delete(i, old);
                }
            }
            9 => t.lsm().flush().unwrap(),
            _ => {
                match op {
                    // the log the active component pins passes the budget:
                    // the write's settling seals, and what it seals waits
                    // for the transaction
                    7 => {
                        lsn += 1;
                        t.lsm().stamp(lsn, None);
                        lsn += BUDGET;
                        t.lsm().stamp(lsn, Some(TXN));
                    }
                    8 => stepped.step(),
                    _ => {}
                }
                if let Some(old) = model.insert(i, version).filter(|_| S::RETRACTS) {
                    t.delete(i, old);
                }
                t.put(i, version);
            }
        }
        if op == 7 {
            // no transaction is open before: a sealed component held is a merge's
            let after = t.lsm().stats();
            let on_own = |s: LsmStats| s.flushes - s.flushes_merged;
            assert!(after.seals > before.seals, "op {version}: no seal came due");
            if before.seals > before.flushes {
                assert!(after.flushes_merged > before.flushes_merged && on_own(after) == on_own(before), "op {version}: the seal published it");
                finished_by_seal += 1;
            }
            t.lsm().release(TXN).unwrap();
        }
        let mut want: Vec<_> = model.iter().map(|(&i, &v)| S::entry(i, v)).collect();
        want.sort();
        assert_eq!(t.live(), want, "after op {version} ({op}, {i})");
    }
    t.lsm().flush().unwrap();
    let stats = t.lsm().stats();
    assert_eq!(stats.seals, stats.flushes, "a sealed component outlived the flush");
    (stats.flushes_merged, finished_by_seal)
}

/// The same op rounds, each closed by a flush, through index `a`, whose
/// policy merges some flushes at once, and `b`, which never merges on its
/// own and is merged by hand as `a` was: after every round both hold
/// components of the same bytes, newest first. With `big`, both start with
/// a component the policy never takes again, so merges leave the oldest out
/// and keep their delete markers.
fn memory_merges_write_what_flush_then_merge_does<S: Subject>(rounds: &[Vec<(u8, u64)>], policy: MergePolicy, big: bool) -> u64 {
    let (cache, dir) = setup(64);
    let mut a = S::create(Arc::clone(&cache), "a", 1 << 30, policy);
    let mut b = S::create(cache, "b", 1 << 30, MergePolicy::NoMerge);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut version = 0;
    let mut apply = |a: &mut S, b: &mut S, op: u8, i: u64| {
        version += 1;
        if op < 5 {
            if let Some(old) = model.insert(i, version).filter(|_| S::RETRACTS) {
                a.delete(i, old);
                b.delete(i, old);
            }
            a.put(i, version);
            b.put(i, version);
        } else if let Some(old) = model.remove(&i) {
            a.delete(i, old);
            b.delete(i, old);
        }
    };
    if big {
        for i in 1_000..4_000 {
            apply(&mut a, &mut b, 0, i);
        }
        a.lsm().flush().unwrap();
        b.lsm().flush().unwrap();
    }
    for (round, ops) in rounds.iter().enumerate() {
        for &(op, i) in ops {
            apply(&mut a, &mut b, op, i);
        }
        a.lsm().flush().unwrap();
        b.lsm().flush().unwrap();
        let merged = b.lsm().component_count() + 1 - a.lsm().component_count();
        b.merge_newest(merged);
        assert_eq!(images(&dir, "a"), images(&dir, "b"), "after round {round}");
    }
    a.lsm().stats().flushes_merged
}

fn memory_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..10, 0u64..80), 1..300)
}

fn memory_rounds() -> impl Strategy<Value = Vec<Vec<(u8, u64)>>> {
    let round = prop::collection::vec((0u8..7, 0u64..120), 0..80);
    // each round writes something, so that each ends in a flush
    let round = (0u64..120, round).prop_map(|(first, mut rest)| {
        rest.insert(0, (0, first));
        rest
    });
    prop::collection::vec(round, 1..8)
}

/// The three policies the model checks run under.
fn memory_policy(which: u8) -> MergePolicy {
    match which {
        0 => MergePolicy::Prefix { max_mergable_bytes: 64 << 10, max_tolerance_components: 2 },
        1 => MergePolicy::Constant { max_components: 2 },
        _ => MergePolicy::NoMerge,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row leaves, leaf groups and the R-tree under Prefix, Constant and
    /// NoMerge, with merges on the caller, on a thread and stepped by the
    /// stream: every read after every op answers like a map, also while a
    /// merge that took a sealed component in is in flight.
    #[test]
    fn reads_match_a_model_while_a_merge_holds_a_memory_component(
        ops in memory_ops(),
        policy in 0u8..3,
        exec in 0u8..3,
    ) {
        let policy = memory_policy(policy);
        matches_the_model_while_memory_merges_run::<RowTree>(&ops, policy, exec);
        matches_the_model_while_memory_merges_run::<GroupTree>(&ops, policy, exec);
        matches_the_model_while_memory_merges_run::<Spatial>(&ops, policy, exec);
    }

    /// A merge that takes a sealed component in publishes the bytes a flush
    /// of it and a merge of that flush would have, for each kind: merging
    /// everything (Constant) and leaving the oldest out (Prefix past a
    /// component it will not take).
    #[test]
    fn a_merge_that_takes_a_memory_component_writes_what_flush_then_merge_does(
        rounds in memory_rounds(),
        partial in any::<bool>(),
    ) {
        let policy = if partial {
            MergePolicy::Prefix { max_mergable_bytes: 64 << 10, max_tolerance_components: 1 }
        } else {
            MergePolicy::Constant { max_components: 1 }
        };
        memory_merges_write_what_flush_then_merge_does::<RowTree>(&rounds, policy, partial);
        memory_merges_write_what_flush_then_merge_does::<GroupTree>(&rounds, policy, partial);
        memory_merges_write_what_flush_then_merge_does::<Spatial>(&rounds, policy, partial);
    }
}

/// The op streams above do reach what they are about: under a merging
/// policy a sealed component goes straight into a merge, while reads are
/// checked with it stepped part way, and — with the merge stepped by the
/// stream — a seal finds one still in its merge and publishes it through
/// that merge; the byte comparison meets such merges both including the
/// oldest component and leaving it out.
#[test]
fn memory_merges_are_reached_by_the_streams_that_check_them() {
    let ops: Vec<(u8, u64)> = (0..400u64).map(|n| (((n * 7) % 10) as u8, (n * 13) % 80)).collect();
    // a seal every fifth op and no merge stepped between: the next finds the last in its merge
    let due: Vec<(u8, u64)> = (0..400u64).map(|n| if n % 5 == 4 { (7, 1) } else { (0, n % 80) }).collect();
    for exec in 0..3 {
        for policy in 0..2 {
            let policy = memory_policy(policy);
            for (merged, _) in [
                matches_the_model_while_memory_merges_run::<RowTree>(&ops, policy, exec),
                matches_the_model_while_memory_merges_run::<GroupTree>(&ops, policy, exec),
                matches_the_model_while_memory_merges_run::<Spatial>(&ops, policy, exec),
            ] {
                assert!(merged > 0, "{policy:?} {exec}");
            }
            if exec == 2 {
                for (_, finished_by_seal) in [
                    matches_the_model_while_memory_merges_run::<RowTree>(&due, policy, exec),
                    matches_the_model_while_memory_merges_run::<GroupTree>(&due, policy, exec),
                    matches_the_model_while_memory_merges_run::<Spatial>(&due, policy, exec),
                ] {
                    assert!(finished_by_seal > 0, "{policy:?}: no seal met a sealed component in its merge");
                }
            }
        }
    }
    let rounds: Vec<Vec<(u8, u64)>> = (0..5u64).map(|r| (0..60).map(|n| (((n + r) % 7) as u8, (n * 11 + r) % 120)).collect()).collect();
    for (policy, big) in [(MergePolicy::Constant { max_components: 1 }, false), (MergePolicy::Prefix { max_mergable_bytes: 64 << 10, max_tolerance_components: 1 }, true)] {
        assert!(memory_merges_write_what_flush_then_merge_does::<RowTree>(&rounds, policy, big) > 0, "{policy:?}");
        assert!(memory_merges_write_what_flush_then_merge_does::<GroupTree>(&rounds, policy, big) > 0, "{policy:?}");
        assert!(memory_merges_write_what_flush_then_merge_does::<Spatial>(&rounds, policy, big) > 0, "{policy:?}");
    }
}
