//! `mem_budget` means what it says: a memory component's
//! [`MemComponent::bytes`] is what the allocator holds for it — within 15 %
//! when keys arrive in random order, as the budget-sealed components of an
//! upsert workload see them, and short by at most a fifth when they ascend —
//! whether its entries are records (a primary index's) or keys alone (a
//! secondary's), and whatever spare capacity the caller's vectors had. So is
//! a spatial index's, entries and delete markers alike.
//!
//! `counting_alloc` counts, per thread, the bytes live allocations hold, so
//! a test measures only what it allocates itself.

use asterix_adm::{Point, Rectangle};
use asterix_storage::lsm::{LsmConfig, LsmTree, MemComponent};
use asterix_storage::spatial;
use asterix_storage::{BufferCache, FileManager, IoStats};
use counting_alloc::{held, Counting};
use rand::prelude::*;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ENTRIES: usize = 100_000;

/// A primary index's entry: a one-int key and a generated message's row.
const PRIMARY: (usize, usize) = (9, 75);
/// A secondary B+ tree's: `(authorId, messageId)`, no value.
const SECONDARY: (usize, usize) = (18, 0);

/// Key `i` of `key_len` bytes, big-endian so that ascending `i` is ascending
/// bytes, allocated with `spare` bytes of room beyond them.
fn key(i: u64, key_len: usize, spare: usize) -> Vec<u8> {
    let mut k = Vec::with_capacity(key_len + spare);
    k.resize(key_len, 0);
    k[key_len - 8..].copy_from_slice(&i.to_be_bytes());
    k
}

/// The memory component of [`ENTRIES`] entries of `shape`, put in `order`,
/// each key and value allocated with `spare` bytes of room beyond it, and
/// the bytes the allocator holds for it.
fn filled(shape: (usize, usize), order: &[u64], spare: usize) -> (MemComponent, usize) {
    let before = held();
    let mut mem = MemComponent::new();
    for &i in order {
        let mut value = Vec::with_capacity(shape.1 + spare);
        value.resize(shape.1, 7);
        mem.put(key(i, shape.0, spare), value);
    }
    let held = (held() - before) as usize;
    (mem, held)
}

fn orders() -> [(&'static str, Vec<u64>); 2] {
    let ascending: Vec<u64> = (0..ENTRIES as u64).collect();
    let mut random = ascending.clone();
    let mut rng = StdRng::seed_from_u64(7);
    for i in (1..random.len()).rev() {
        random.swap(i, rng.gen_range(0..=i));
    }
    [("random", random), ("ascending", ascending)]
}

#[test]
fn a_memory_component_counts_what_the_allocator_holds_for_it() {
    for (name, order) in orders() {
        // an ascending load leaves every node half full: 92.9 B an entry
        // where `ENTRY_BYTES` counts the 74.5 of random order
        let band = if name == "random" { 0.85..=1.15 } else { 0.80..=1.0 };
        for shape in [PRIMARY, SECONDARY] {
            let (mem, held) = filled(shape, &order, 0);
            let ratio = mem.bytes() as f64 / held as f64;
            let per_entry = (held - ENTRIES * (shape.0 + shape.1)) as f64 / ENTRIES as f64;
            println!("{name} {shape:?}: counts {} of {held} bytes held ({ratio:.3}); the map {per_entry:.1} B an entry", mem.bytes());
            assert!(band.contains(&ratio), "{name} order, entries of {shape:?}: counts {} of {held} held", mem.bytes());
        }
    }
}

/// A row encoder hands over a vector with room to spare (one that starts at
/// 64 bytes holds a 75-byte row in 128): the memory component keeps the row
/// at its length, so it holds exactly what exact-sized vectors would cost.
#[test]
fn spare_capacity_is_given_back_not_held() {
    let [(_, random), _] = orders();
    for shape in [PRIMARY, SECONDARY] {
        let (exact, held_exact) = filled(shape, &random, 0);
        let (spare, held_spare) = filled(shape, &random, 53);
        assert_eq!((spare.bytes(), held_spare), (exact.bytes(), held_exact), "entries of {shape:?}");
    }
}

#[test]
fn overwriting_every_key_once_leaves_the_count_where_it_was() {
    for (name, order) in orders() {
        for shape in [PRIMARY, SECONDARY] {
            let (mut mem, _) = filled(shape, &order, 0);
            let bytes = mem.bytes();
            for &i in &order {
                mem.put(key(i, shape.0, 0), vec![8u8; shape.1]);
            }
            assert_eq!(mem.bytes(), bytes, "{name} order, entries of {shape:?}: a put over a put");
            for &i in &order {
                mem.delete(key(i, shape.0, 0));
            }
            assert_eq!(mem.bytes(), bytes - ENTRIES * shape.1, "{name} order, entries of {shape:?}: a delete over a put");
            assert_eq!(mem.len(), ENTRIES);
        }
    }
}

/// A spatial index's memory component, which holds entries — points or
/// rectangles — and the delete markers written while it was active: filled
/// past `BUDGET` (under a budget no write reaches, so nothing seals it), it
/// counts what the allocator holds for it within 15 %. (Keys deleted in
/// ascending primary-key order still reach the memory component in Hilbert
/// order, which the positions decide, so they are held like random ones; the
/// case keeps the band of an ascending load, at most a fifth more.)
#[test]
fn an_r_tree_memory_component_counts_what_the_allocator_holds_for_it() {
    const BUDGET: usize = 4 << 20;
    let dir = std::env::temp_dir().join(format!("asterix-mem-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = BufferCache::new(FileManager::new(&dir, IoStats::new()).unwrap(), 16);
    let [(_, random), (_, ascending)] = orders();
    let point = |rng: &mut StdRng| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
    let cases: [(&str, &[u64], std::ops::RangeInclusive<f64>); 4] = [
        ("points", &random, 0.85..=1.15),
        ("rectangles", &random, 0.85..=1.15),
        ("deleted keys", &random, 0.85..=1.15),
        ("deleted keys ascending", &ascending, 0.80..=1.0),
    ];
    for (name, order, band) in cases {
        let config = LsmConfig { mem_budget: usize::MAX, ..spatial::config(name.replace(' ', "_")) };
        let mut tree = LsmTree::new(std::sync::Arc::clone(&cache), config);
        let mut rng = StdRng::seed_from_u64(9);
        let before = held();
        let mut entries = order.iter().map(|&i| key(i, 9, 0));
        while tree.mem_layers().map(|(mem, _)| mem.bytes()).sum::<usize>() <= BUDGET {
            let key = entries.next().unwrap_or_else(|| panic!("{name}: never over budget"));
            let at = point(&mut rng);
            match name {
                "points" => tree.upsert(spatial::key(&at.to_mbr(), &key), spatial::value(&at.to_mbr())).unwrap(),
                "rectangles" => {
                    let mbr = Rectangle::new(at, Point::new(at.x + 3.0, at.y + 2.0));
                    tree.upsert(spatial::key(&mbr, &key), spatial::value(&mbr)).unwrap()
                }
                _ => tree.delete(spatial::key(&at.to_mbr(), &key)).unwrap(),
            }
        }
        let held = (held() - before) as usize;
        let ratio = BUDGET as f64 / held as f64;
        println!("{name}: {BUDGET} counted of {held} bytes held ({ratio:.3})");
        assert!(band.contains(&ratio), "{name}: over a budget of {BUDGET} with {held} bytes held");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
