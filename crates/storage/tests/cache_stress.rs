//! Concurrency and correctness stress tests for the lock-striped buffer
//! cache: concurrent get/put/flush/evict across shards, eviction under
//! pressure, and write-through `put`.

use asterix_obs::MetricsSnapshot;
use asterix_storage::cache::{BufferCache, CacheOptions};
use asterix_storage::error::StorageError;
use asterix_storage::faults::{FaultConfig, FaultInjector};
use asterix_storage::io::{FileId, FileManager, PAGE_SIZE};
use asterix_storage::stats::{CacheShardSnapshot, IoStats};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "asterix-cache-stress-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
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

fn make_file(fm: &Arc<FileManager>, name: &str, pages: u64) -> FileId {
    let id = fm.create(name).unwrap();
    for i in 0..pages {
        let mut p = vec![0u8; PAGE_SIZE];
        p[..8].copy_from_slice(&i.to_le_bytes());
        fm.append_page(id, &p).unwrap();
    }
    id
}

fn page_no_of(page: &[u8]) -> u64 {
    u64::from_le_bytes(page[..8].try_into().unwrap())
}

/// Every access is counted once, in its shard: each of the five cache
/// counters a reader sees is the sum of the shards' own, and the byte totals
/// are the page counts × `PAGE_SIZE`. Returns the snapshot it checked.
fn counted_once(cache: &BufferCache, fm: &FileManager) -> MetricsSnapshot {
    let snap = fm.stats().registry().snapshot();
    let shards = cache.shard_snapshots();
    let sum = |count: fn(&CacheShardSnapshot) -> u64| Some(shards.iter().map(count).sum::<u64>());
    for (name, in_shards) in [
        ("storage.io.cache_hits", sum(|s| s.hits)),
        ("storage.io.cache_misses", sum(|s| s.misses)),
        ("storage.io.evictions", sum(|s| s.evictions)),
        ("storage.io.readaheads", sum(|s| s.readaheads)),
        ("cache.coalesced_waits", sum(|s| s.coalesced_waits)),
    ] {
        assert_eq!(snap.counter(name), in_shards, "{name} is the sum of its shards");
    }
    for (bytes, pages) in [
        ("storage.io.bytes_read", "storage.io.physical_reads"),
        ("storage.io.bytes_written", "storage.io.physical_writes"),
    ] {
        let pages = snap.counter(pages).map(|n| n * PAGE_SIZE as u64);
        assert_eq!(snap.counter(bytes), pages, "{bytes} is pages × PAGE_SIZE");
    }
    snap
}

#[test]
fn concurrent_scanners_read_consistent_pages() {
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 32, shards: 8, readahead_pages: 4 },
    );
    let id = make_file(&fm, "scan.pf", 64);
    let mut handles = Vec::new();
    for t in 0..8 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            for round in 0..20u64 {
                for p in 0..64u64 {
                    let page = if (t + round) % 2 == 0 {
                        cache.get(id, p).unwrap()
                    } else {
                        cache.get_sequential(id, p).unwrap()
                    };
                    assert_eq!(page_no_of(&page), p, "page content matches its number");
                }
            }
        }));
    }
    for h in handles {
        asterix_storage::lock_order::join(h).unwrap();
    }
    assert!(cache.resident() <= 32, "residency bounded under concurrency");
    let snap = counted_once(&cache, &fm);
    let io = |name: &str| snap.counter(&format!("storage.io.{name}")).unwrap();
    for name in ["cache_hits", "cache_misses", "evictions", "readaheads"] {
        assert!(io(name) > 0, "the readahead storm moved {name}");
    }
    assert_eq!(io("cache_hits") + io("cache_misses"), 8 * 20 * 64, "every access counted exactly once");
}

#[test]
fn concurrent_get_put_flush_evict() {
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 16, shards: 4, readahead_pages: 0 },
    );
    // One mutable file per writer thread, plus a shared read-only file.
    let shared = make_file(&fm, "shared.pf", 32);
    let mut mutable = Vec::new();
    for t in 0..3 {
        mutable.push(make_file(&fm, &format!("mut{t}.pf"), 8));
    }
    let mut handles = Vec::new();
    for (t, &mid) in mutable.iter().enumerate() {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            for round in 0..30u64 {
                for p in 0..8u64 {
                    let mut page = vec![0u8; PAGE_SIZE];
                    page[..8].copy_from_slice(&p.to_le_bytes());
                    page[8..16].copy_from_slice(&round.to_le_bytes());
                    cache.put(mid, p, page).unwrap();
                }
                cache.manager().sync(mid).unwrap();
            }
            let _ = t;
        }));
    }
    for _ in 0..3 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            for _ in 0..30 {
                for p in 0..32u64 {
                    let page = cache.get(shared, p).unwrap();
                    assert_eq!(page_no_of(&page), p);
                }
            }
        }));
    }
    {
        let cache = Arc::clone(&cache);
        let evictee = shared;
        handles.push(std::thread::spawn(move || {
            for _ in 0..15 {
                cache.evict_file(evictee);
                std::thread::yield_now();
            }
        }));
    }
    for h in handles {
        asterix_storage::lock_order::join(h).unwrap();
    }
    // After the dust settles every mutable file's final flush is on disk.
    for &mid in &mutable {
        for p in 0..8u64 {
            let page = fm.read_page(mid, p).unwrap();
            assert_eq!(page_no_of(&page), p);
            assert_eq!(u64::from_le_bytes(page[8..16].try_into().unwrap()), 29);
        }
    }
    assert!(cache.resident() <= 16);
}

#[test]
fn eviction_under_pressure_preserves_contents() {
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    // Budget far below the working set: every scan re-faults most pages.
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 8, shards: 4, readahead_pages: 0 },
    );
    let id = make_file(&fm, "big.pf", 128);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let cache = Arc::clone(&cache);
        handles.push(std::thread::spawn(move || {
            for p in 0..128u64 {
                let page = cache.get(id, p).unwrap();
                assert_eq!(page_no_of(&page), p, "eviction never corrupts a page");
            }
        }));
    }
    for h in handles {
        asterix_storage::lock_order::join(h).unwrap();
    }
    assert!(cache.resident() <= 8, "residency stays within the budget");
    let snap = counted_once(&cache, &fm);
    assert!(snap.counter("storage.io.evictions").unwrap() > 0, "pressure actually evicted");
    let per_shard = cache.shard_snapshots();
    for s in &per_shard {
        assert!(s.resident <= s.capacity, "no shard exceeds its slice");
    }
}

/// A `put` is in the file when it returns, and the next `get` of the page
/// sees it — also when the frame it left was evicted in between, so that the
/// `get` reads the file: a one-frame cache, each `put` followed by a read of
/// another file's page.
#[test]
fn a_put_is_on_disk_when_it_returns_and_a_later_get_sees_it() {
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 1, shards: 1, readahead_pages: 0 },
    );
    let mid = make_file(&fm, "mut.pf", 2);
    let filler = make_file(&fm, "filler.pf", 1);
    for version in 1..=3u8 {
        for p in 0..2u64 {
            let mut page = vec![0u8; PAGE_SIZE];
            page[8] = version;
            let before = fm.stats().physical_writes();
            cache.put(mid, p, page).unwrap();
            assert_eq!(fm.stats().physical_writes() - before, 1, "one write per put");
            assert_eq!(fm.read_page(mid, p).unwrap()[8], version, "on disk when put returns");
            assert_eq!(cache.get(mid, p).unwrap()[8], version, "a get straight after hits the new frame");
            cache.get(filler, 0).unwrap(); // evicts it
            assert_eq!(cache.get(mid, p).unwrap()[8], version, "a get after eviction reads it back");
        }
    }
    let before = fm.stats().physical_writes();
    cache.manager().sync(mid).unwrap();
    assert_eq!(fm.stats().physical_writes(), before, "nothing is left to write at a flush");
    assert!(counted_once(&cache, &fm).counter("storage.io.evictions").unwrap() >= 6);
}

#[test]
fn racing_cold_misses_count_once() {
    // Two threads fault the same cold pages simultaneously (barrier-aligned
    // so both probe before either installs). Insert-side-wins accounting
    // means a page's miss is counted exactly once — by whichever thread won
    // the install — so with no eviction pressure total misses must equal
    // the number of distinct pages, never more. Probe-side counting would
    // book the same cold page as two misses whenever the race hits.
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 64, shards: 4, readahead_pages: 0 },
    );
    let pages = 8u64;
    let rounds = 200u64;
    let id = make_file(&fm, "race.pf", pages);
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            for _ in 0..rounds {
                for p in 0..pages {
                    barrier.wait();
                    let page = cache.get(id, p).unwrap();
                    assert_eq!(page_no_of(&page), p);
                }
            }
        }));
    }
    for h in handles {
        asterix_storage::lock_order::join(h).unwrap();
    }
    let snaps = cache.shard_snapshots();
    let hits: u64 = snaps.iter().map(|s| s.hits).sum();
    let misses: u64 = snaps.iter().map(|s| s.misses).sum();
    assert_eq!(hits + misses, 2 * rounds * pages, "every access counted exactly once");
    assert_eq!(misses, pages, "each cold page is one miss no matter who races it in");
    counted_once(&cache, &fm);
    assert_eq!(
        fm.stats().physical_reads(),
        misses,
        "request coalescing: race losers park on the leader's in-flight \
         read instead of issuing their own, so physical reads equal misses"
    );
}

#[test]
fn miss_storm_coalesces_onto_one_physical_read() {
    // 8 threads fault the same cold page at the same instant. The injected
    // 200ms read latency holds the leader's physical read open long enough
    // that every other thread deterministically finds the in-flight slot and
    // parks: exactly 1 physical read, 1 miss (the leader's), 7 coalesced
    // waits that resolve as logical hits on the shared frame.
    let dir = TempDir::new();
    let faults = FaultInjector::new(FaultConfig {
        read_delay: Some(Duration::from_millis(200)),
        ..FaultConfig::default()
    });
    let fm = FileManager::with_faults(&dir.0, IoStats::new(), Some(faults)).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 32, shards: 4, readahead_pages: 0 },
    );
    let id = make_file(&fm, "storm.pf", 1);
    let before = fm.stats().registry().snapshot();
    let barrier = Arc::new(Barrier::new(8));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let page = cache.get(id, 0).unwrap();
            assert_eq!(page_no_of(&page), 0);
        }));
    }
    for h in handles {
        asterix_storage::lock_order::join(h).unwrap();
    }
    let storm = fm.stats().registry().snapshot().delta(&before);
    let io = |name: &str| storm.counter(&format!("storage.io.{name}")).unwrap();
    assert_eq!(io("physical_reads"), 1, "the storm issued exactly one physical read");
    assert_eq!(io("cache_misses"), 1, "only the leader owns the miss");
    assert_eq!(io("cache_hits"), 7, "waiters resolve as logical hits");
    assert_eq!(
        io("cache_hits") + io("cache_misses"),
        8,
        "all 8 accesses accounted as logical hits/waits"
    );
    assert_eq!(storm.counter("cache.coalesced_waits"), Some(7), "seven requesters parked on the leader");
    let snap = counted_once(&cache, &fm);
    assert_eq!(snap.counter("cache.coalesced_waits"), Some(7), "in the shards as well");
    assert_eq!(cache.inflight_loads(), 0, "the in-flight slot was retired");
}

#[test]
fn coalesced_load_failure_propagates_typed_to_every_waiter() {
    // Phase 1: replay the exact setup workload against a non-crashing
    // injector to learn its I/O-operation count, so phase 2 can schedule the
    // crash to land precisely on the storm's single physical read.
    let setup_ops = {
        let dir = TempDir::new();
        let faults = FaultInjector::new(FaultConfig::default());
        let fm =
            FileManager::with_faults(&dir.0, IoStats::new(), Some(Arc::clone(&faults))).unwrap();
        make_file(&fm, "doomed.pf", 1);
        faults.ops()
    };
    let dir = TempDir::new();
    let faults = FaultInjector::new(FaultConfig {
        crash_after_ios: Some(setup_ops),
        torn_writes: false,
        // Hold the doomed read open so all 7 waiters are parked on the
        // in-flight slot when the failure publishes.
        read_delay: Some(Duration::from_millis(200)),
        ..FaultConfig::default()
    });
    let fm = FileManager::with_faults(&dir.0, IoStats::new(), Some(faults)).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 32, shards: 4, readahead_pages: 0 },
    );
    let id = make_file(&fm, "doomed.pf", 1);
    let barrier = Arc::new(Barrier::new(8));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let cache = Arc::clone(&cache);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            cache.get(id, 0)
        }));
    }
    let mut injected = 0;
    let mut coalesced = 0;
    for h in handles {
        // join returning at all is the "none hang" assertion
        match asterix_storage::lock_order::join(h).unwrap().expect_err("the injected crash must fail every requester") {
            StorageError::Injected(_) => injected += 1,
            StorageError::CoalescedLoad { file, page, cause } => {
                assert_eq!(file, id);
                assert_eq!(page, 0);
                assert!(cause.contains("injected"), "waiters see the leader's cause: {cause}");
                coalesced += 1;
            }
            other => panic!("unexpected error shape: {other}"),
        }
    }
    assert_eq!(injected, 1, "exactly one requester (the leader) saw the raw injected fault");
    assert_eq!(coalesced, 7, "all seven waiters got the typed coalesced-load error");
    assert_eq!(cache.inflight_loads(), 0, "the failed slot was retired");
    // A later request opens a fresh slot and retries the read itself (the
    // injector is sticky-crashed, so the retry fails typed — but it *ran*,
    // it did not park on stale in-flight state).
    match cache.get(id, 0) {
        Err(StorageError::Injected(_)) => {}
        other => panic!("retry after failure must re-attempt the read, got {other:?}"),
    }
    assert_eq!(cache.inflight_loads(), 0);
}

#[test]
fn failed_load_retires_slot_so_next_request_succeeds() {
    // A load that fails for a transient reason (here: page not yet written)
    // must not poison the key: once the page exists, the next request reads
    // it fresh and succeeds.
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 8, shards: 2, readahead_pages: 0 },
    );
    let id = make_file(&fm, "grow.pf", 1);
    assert!(cache.get(id, 3).is_err(), "page 3 does not exist yet");
    assert_eq!(cache.inflight_loads(), 0, "failed slot retired immediately");
    for i in 1..=3u64 {
        let mut p = vec![0u8; PAGE_SIZE];
        p[..8].copy_from_slice(&i.to_le_bytes());
        fm.append_page(id, &p).unwrap();
    }
    let page = cache.get(id, 3).expect("fresh request after failure must retry the read");
    assert_eq!(page_no_of(&page), 3);
}

#[test]
fn readahead_respects_capacity_pressure() {
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    // Readahead batch larger than the whole budget must be clamped.
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 4, shards: 2, readahead_pages: 64 },
    );
    let id = make_file(&fm, "seq.pf", 32);
    for p in 0..32u64 {
        let page = cache.get_sequential(id, p).unwrap();
        assert_eq!(page_no_of(&page), p);
    }
    assert!(cache.resident() <= 4, "readahead never overflows the budget");
}

#[test]
fn auto_sharding_tracks_host_parallelism() {
    // shards: 0 sizes the stripe count to the machine (clamped to the page
    // budget), matching the morsel worker pool's width — explicit counts
    // above keep stress runs deterministic, but the default must scale.
    let dir = TempDir::new();
    let fm = FileManager::new(&dir.0, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 4096, shards: 0, readahead_pages: 0 },
    );
    assert_eq!(cache.shard_count(), asterix_storage::cache::default_shards().min(4096));
    let tiny = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 2, shards: 0, readahead_pages: 0 },
    );
    assert_eq!(
        tiny.shard_count(),
        asterix_storage::cache::default_shards().min(2),
        "page budget clamps the auto stripe count"
    );
}
