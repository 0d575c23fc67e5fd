// Fixture: annotated nested acquisition AGAINST the declared order
// (cache_shard is rank 5, catalog is rank 1).
use asterix_storage::lock_order::RwLock;

pub fn inverted(shard: &RwLock<u32>, cat: &RwLock<u32>) -> u32 {
    let s = shard.read(); // xlint: lock(cache_shard)
    let c = cat.read(); // xlint: lock(catalog)
    *s + *c
}
