//! The write-ahead log's block codec: an LZ77 parse whose byte streams are
//! each Huffman-coded.
//!
//! [`crate::wal`] codes a small group commit's records whole, and splits a
//! larger one's into streams of like bytes — headers, keys, rows, each
//! declared field's cells, each in the form its type calls for — and codes
//! each stream on its own: no window or table carries from one stream or
//! block to the next, so a block decodes without any other.
//!
//! The parse is a run of sequences: some literals, then, unless the
//! sequence is the last, a match — a distance back into what was decoded (1
//! to 65 535) and a length of at least [`MIN_MATCH`]. LZ4 lays a sequence
//! out in a row; here its fields go to five byte streams, each of bytes of
//! one kind:
//!
//! 1. *tokens*, one a sequence: the literal count in the high nibble, the
//!    match length less `MIN_MATCH` in the low one, 15 in either meaning
//!    "more length follows";
//! 2. *lengths*: that more, in bytes of 255 until one is smaller — the
//!    literal count's, then the match length's;
//! 3. and 4. the distances' low bytes, and their high bytes;
//! 5. *literals*.
//!
//! A coded block is a byte of flags, bit `i` set when stream `i + 1` is
//! coded; varints of how many sequences and length bytes there are, and of
//! how many literals when they are coded (every sequence but the last has a
//! distance, and literals left as they are run to the end of the block);
//! then the five streams in that order, each under a canonical Huffman code
//! of its own ([`crate::huff`]), or as it is where that does not shrink it.
//! A block of a few records keeps most of its streams as they are, and
//! pays three bytes for their layout.
//!
//! [`Coder`] matches greedily: each position hashes its next four bytes into
//! a table of 2^14 slots holding the last position seen there, and a slot
//! whose bytes agree within the 64 KiB window starts a match, extended as
//! far as the bytes agree, eight at a time. [`decompress`] checks every
//! length and distance, and refuses a decoded length the coded bytes could
//! not produce before it allocates anything.
//!
//! On a 2-cpu x86-64 host, over the log blocks of generated Gleambook
//! messages, coding runs at ≈ 250–280 MB/s of records and decoding at
//! ≈ 400–450 MB/s. Over the repository benchmark's blocks (seed 1), split
//! and each stream in its form, `scan_agg`'s set-up blocks of 2 500
//! messages take 0.267 of their records and `htap_mix`'s timed blocks of
//! ≈ 25 take 0.465 (coded whole, 0.452 and 0.605).

use crate::huff;
use asterix_adm::binary::{put_varint, read_varint};

const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 14;
const WINDOW: usize = u16::MAX as usize;
/// The most one coded byte decodes to: eight symbols of a bit each, each a
/// match length byte of 255.
const MAX_EXPANSION: usize = 8 * 255;

/// A parse, as its five streams.
#[derive(Default)]
struct Streams {
    tokens: Vec<u8>,
    lengths: Vec<u8>,
    distance_low: Vec<u8>,
    distance_high: Vec<u8>,
    literals: Vec<u8>,
}

/// The flag of coded literals, the last stream.
const LITERALS_CODED: u8 = 1 << 4;

/// A block coder. Holds its hash table and streams from one block to the
/// next, so that coding a block allocates little beyond the output.
pub struct Coder {
    /// Per slot, the last position seen there plus `base`: a slot below
    /// `base` is from an earlier block, and reads as empty (as 0) without
    /// the table being cleared for each block.
    table: Vec<u32>,
    base: u32,
    streams: Streams,
}

impl Default for Coder {
    fn default() -> Self {
        Coder { table: vec![0; 1 << HASH_BITS], base: 0, streams: Streams::default() }
    }
}

fn read_u32(src: &[u8], at: usize) -> u32 {
    let mut word = [0; 4];
    word.copy_from_slice(&src[at..at + 4]);
    u32::from_le_bytes(word)
}

fn hash(word: u32) -> usize {
    (word.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// How many leading bytes `a` and `b` share, compared eight at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut k = 0;
    while k + 8 <= n {
        let mut x = [0; 8];
        let mut y = [0; 8];
        x.copy_from_slice(&a[k..k + 8]);
        y.copy_from_slice(&b[k..k + 8]);
        let diff = u64::from_le_bytes(x) ^ u64::from_le_bytes(y);
        if diff != 0 {
            return k + (diff.trailing_zeros() / 8) as usize;
        }
        k += 8;
    }
    k + a[k..n].iter().zip(&b[k..n]).take_while(|(x, y)| x == y).count()
}

/// Appends a length's extra bytes beyond the nibble's 15.
fn put_length(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

impl Streams {
    /// The streams in the order a block holds them.
    fn in_order(&mut self) -> [&mut Vec<u8>; 5] {
        [&mut self.tokens, &mut self.lengths, &mut self.distance_low, &mut self.distance_high, &mut self.literals]
    }

    /// Appends one sequence: `literals`, then the match `(distance, length)`
    /// if there is one.
    fn put_sequence(&mut self, literals: &[u8], matched: Option<(usize, usize)>) {
        let extra = matched.map_or(0, |(_, len)| len - MIN_MATCH);
        self.tokens.push(((literals.len().min(15) as u8) << 4) | extra.min(15) as u8);
        if literals.len() >= 15 {
            put_length(&mut self.lengths, literals.len() - 15);
        }
        self.literals.extend_from_slice(literals);
        if let Some((distance, _)) = matched {
            let [low, high] = (distance as u16).to_le_bytes();
            self.distance_low.push(low);
            self.distance_high.push(high);
            if extra >= 15 {
                put_length(&mut self.lengths, extra - 15);
            }
        }
    }
}

impl Coder {
    /// Appends the coding of `src` to `out`.
    pub fn compress(&mut self, src: &[u8], out: &mut Vec<u8>) {
        let base = match u32::try_from(src.len()).ok().and_then(|len| self.base.checked_add(len)) {
            Some(next) => std::mem::replace(&mut self.base, next),
            None => {
                self.table.fill(0);
                self.base = src.len() as u32;
                0
            }
        };
        let s = &mut self.streams;
        for stream in s.in_order() {
            stream.clear();
        }
        let (mut anchor, mut i) = (0, 0);
        while i + MIN_MATCH <= src.len() {
            let word = read_u32(src, i);
            let slot = &mut self.table[hash(word)];
            // a slot's position may be stale or from another word: the
            // bytes decide
            let candidate = slot.checked_sub(base).unwrap_or(0) as usize;
            *slot = base + i as u32;
            if candidate < i && i - candidate <= WINDOW && read_u32(src, candidate) == word {
                let len = MIN_MATCH + common_prefix(&src[candidate + MIN_MATCH..], &src[i + MIN_MATCH..]);
                s.put_sequence(&src[anchor..i], Some((i - candidate, len)));
                i += len;
                anchor = i;
            } else {
                i += 1;
            }
        }
        s.put_sequence(&src[anchor..], None);
        let flags = out.len();
        out.push(0);
        put_varint(out, s.tokens.len() as u64);
        put_varint(out, s.lengths.len() as u64);
        let counted = out.len();
        for (i, stream) in s.in_order().into_iter().enumerate() {
            if huff::encode(stream, out) {
                out[flags] |= 1 << i;
            }
        }
        if out[flags] & LITERALS_CODED != 0 {
            let mut count = Vec::new();
            put_varint(&mut count, s.literals.len() as u64);
            out.splice(counted..counted, count);
        }
    }
}

/// Reads a length whose token nibble is `nibble`, with its extra bytes.
fn read_length(lengths: &mut std::slice::Iter<'_, u8>, nibble: u8) -> Option<usize> {
    let mut len = usize::from(nibble);
    if nibble == 15 {
        loop {
            let b = *lengths.next()?;
            len = len.checked_add(usize::from(b))?;
            if b != 255 {
                break;
            }
        }
    }
    Some(len)
}

/// Decodes a block [`Coder::compress`] made of `raw_len` bytes. `None` when
/// `src` is not such a block: a stream [`huff::decode`] refuses, a length or
/// distance past what is there, a stream with bytes no sequence takes, a
/// decoded length other than `raw_len`, or a `raw_len` no block of
/// `src.len()` bytes decodes to.
pub fn decompress(src: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    if raw_len > src.len().saturating_mul(MAX_EXPANSION) {
        return None;
    }
    let flags = *src.first().filter(|&&f| f < 1 << 5)?;
    let mut pos = 1;
    let mut count = || {
        let (n, used) = read_varint(&src[pos..])?;
        pos += used;
        usize::try_from(n).ok()
    };
    let (sequences, length_bytes) = (count()?, count()?);
    let literal_count = if flags & LITERALS_CODED != 0 { Some(count()?) } else { None };
    let distances = sequences.checked_sub(1)?;
    let counts = [Some(sequences), Some(length_bytes), Some(distances), Some(distances), literal_count];
    let mut streams: [Vec<u8>; 5] = Default::default();
    for (i, (stream, n)) in streams.iter_mut().zip(counts).enumerate() {
        let rest = &src[pos..];
        let n = n.unwrap_or(rest.len());
        let (bytes, used) = if flags & (1 << i) != 0 {
            huff::decode(rest, n)?
        } else {
            (rest.get(..n)?.to_vec(), n)
        };
        *stream = bytes;
        pos += used;
    }
    let [tokens, lengths, low, high, literals] = streams;
    if pos != src.len() {
        return None;
    }
    let mut out = vec![0; raw_len];
    let mut lengths = lengths.iter();
    let (mut o, mut lit, mut matches) = (0, 0, 0);
    for (n, &token) in tokens.iter().enumerate() {
        let lits = read_length(&mut lengths, token >> 4)?;
        if lits > raw_len - o || lits > literals.len() - lit {
            return None;
        }
        if lits <= 16 && o + 16 <= raw_len && lit + 16 <= literals.len() {
            // sixteen at once: the bytes past `lits` are written again
            out[o..o + 16].copy_from_slice(&literals[lit..lit + 16]);
        } else {
            out[o..o + lits].copy_from_slice(&literals[lit..lit + lits]);
        }
        o += lits;
        lit += lits;
        if n + 1 == tokens.len() {
            // the last sequence: literals alone, and every stream used up
            let done = token & 15 == 0 && lit == literals.len() && matches == low.len();
            return (done && lengths.len() == 0 && o == raw_len).then_some(out);
        }
        let distance = usize::from(u16::from_le_bytes([*low.get(matches)?, high[matches]]));
        matches += 1;
        let len = read_length(&mut lengths, token & 15)?.checked_add(MIN_MATCH)?;
        if distance == 0 || distance > o || len > raw_len - o {
            return None;
        }
        let from = o - distance;
        if len <= 16 && distance >= 16 && o + 16 <= raw_len {
            out.copy_within(from..from + 16, o);
        } else {
            // a match that overlaps what it writes repeats its first
            // `distance` bytes: copied from `from`, what is there doubles
            let mut k = 0;
            while k < len {
                let chunk = (len - k).min(o + k - from);
                out.copy_within(from..from + chunk, o + k);
                k += chunk;
            }
        }
        o += len;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn compress(src: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Coder::default().compress(src, &mut out);
        out
    }

    /// A block of the five streams of a parse, each as it is: tokens,
    /// lengths, distance low and high bytes, literals.
    fn raw_streams(streams: [&[u8]; 5]) -> Vec<u8> {
        let mut out = vec![0, streams[0].len() as u8, streams[1].len() as u8];
        out.extend(streams.concat());
        out
    }

    #[test]
    fn a_block_is_the_parse_in_five_streams() {
        // no match: one token of its literals
        assert_eq!(compress(b""), raw_streams([&[0x00], &[], &[], &[], &[]]));
        assert_eq!(compress(b"abc"), raw_streams([&[0x30], &[], &[], &[], b"abc"]));
        assert_eq!(compress(b"abc"), [0, 1, 0, 0x30, b'a', b'b', b'c']);
        // "abcd" then a match of 12 at distance 4, then the rest as literals
        assert_eq!(
            compress(b"abcdabcdabcdabcdxy"),
            raw_streams([&[0x48, 0x20], &[], &[4], &[0], b"abcdxy"])
        );
        // 15 or more: the nibble says 15 and bytes of 255 and less follow,
        // in the lengths stream; a long run's 255s code to a bit each, and
        // that stream alone is coded
        let long = [b"0123456789abcdefghij".as_slice(), &[b'z'; 3_000]].concat();
        let coded = compress(&long);
        assert_eq!(coded[..5], [0b00010, 2, 13, 0xFF, 0x00]);
        let run = 3_000 - 1 - MIN_MATCH - 15;
        let lengths = [&[21 - 15][..], &[255; 11], &[(run - 11 * 255) as u8]].concat();
        assert_eq!(huff::decode(&coded[5..], 13).map(|(s, _)| s), Some(lengths));
        assert!(coded.len() < 48, "{} bytes", coded.len());
        assert_eq!(decompress(&coded, long.len()).as_deref(), Some(long.as_slice()));
    }

    #[test]
    fn a_run_decodes_from_an_overlapping_match() {
        let run = vec![7u8; 70_000];
        let coded = compress(&run);
        assert!(coded.len() < 64, "{} bytes", coded.len());
        assert_eq!(decompress(&coded, run.len()), Some(run));
    }

    #[test]
    fn a_coder_codes_a_block_as_a_fresh_one_would() {
        let blocks: Vec<Vec<u8>> = (0..6u8)
            .map(|k| (0..300u32 * u32::from(k)).map(|i| (i % (7 + u32::from(k))) as u8 ^ k).collect())
            .collect();
        // a base near its end starts over with a cleared table
        let mut coder = Coder { base: u32::MAX - 500, ..Coder::default() };
        for block in blocks.iter().chain(&blocks) {
            let mut out = Vec::new();
            coder.compress(block, &mut out);
            assert_eq!(out, compress(block));
        }
    }

    #[test]
    fn a_match_never_reaches_past_the_window() {
        let mut src: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        src.extend(std::iter::repeat_n(0x55, WINDOW));
        src.extend((0..=255u8).cycle().take(1024));
        let coded = compress(&src);
        assert_eq!(decompress(&coded, src.len()), Some(src));
    }

    #[test]
    fn a_length_the_block_cannot_produce_is_refused_before_allocating() {
        let coded = compress(b"abcdabcdabcdabcd");
        assert_eq!(decompress(&coded, 16).map(|v| v.len()), Some(16));
        for wrong in [0, 15, 17] {
            assert_eq!(decompress(&coded, wrong), None, "raw_len {wrong}");
        }
        // `with_capacity(usize::MAX)` would abort: the check comes first
        assert_eq!(decompress(&coded, usize::MAX), None);
        assert_eq!(decompress(&coded, coded.len() * MAX_EXPANSION + 1), None);
    }

    #[test]
    fn a_damaged_block_is_refused() {
        // a distance of 0, a distance past the start, a match past
        // `raw_len`, no token, a distance with no high byte, a match length
        // left open, a last sequence that promises a match, a match with no
        // sequence after it, literals or lengths or a distance no sequence
        // takes, a stream cut short, bytes after the last stream, a flag for
        // a sixth stream
        for (coded, raw_len) in [
            (raw_streams([&[0x41, 0], &[], &[0], &[0], b"abcd"]), 9),
            (raw_streams([&[0x41, 0], &[], &[5], &[0], b"abcd"]), 9),
            (raw_streams([&[0x41, 0], &[], &[4], &[0], b"abcd"]), 8),
            (raw_streams([&[], &[], &[], &[], b"abcd"]), 4),
            (raw_streams([&[0x41, 0], &[], &[4], &[], b"abcd"]), 9),
            (raw_streams([&[0x4F, 0], &[], &[4], &[0], b"abcd"]), 30),
            (raw_streams([&[0x41], &[], &[], &[], b"abcd"]), 4),
            (raw_streams([&[0x41], &[], &[4], &[0], b"abcd"]), 9),
            (raw_streams([&[0x40], &[], &[], &[], b"abcde"]), 4),
            (raw_streams([&[0x40], &[7], &[], &[], b"abcd"]), 4),
            (raw_streams([&[0x40], &[], &[4], &[0], b"abcd"]), 4),
            (raw_streams([&[0x40], &[], &[], &[], b"abcd"])[..7].to_vec(), 4),
            ([raw_streams([&[0x40], &[], &[], &[], b"abcd"]), vec![0]].concat(), 4),
            ([&[0x20][..], &raw_streams([&[0x40], &[], &[], &[], b"abcd"])[1..]].concat(), 4),
        ] {
            assert_eq!(decompress(&coded, raw_len), None, "{coded:?}");
        }
        let whole = raw_streams([&[0x41, 0], &[], &[4], &[0], b"abcd"]);
        assert_eq!(decompress(&whole, 9).as_deref(), Some(b"abcdabcda".as_slice()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any bytes — few distinct ones, so that they repeat — round-trip.
        #[test]
        fn arbitrary_bytes_round_trip(
            src in prop_oneof![
                prop::collection::vec(any::<u8>(), 0..2_000),
                prop::collection::vec(0u8..4, 0..20_000),
            ],
        ) {
            let coded = compress(&src);
            prop_assert!(coded.len() <= src.len() + src.len() / 255 + 40);
            prop_assert_eq!(decompress(&coded, src.len()), Some(src));
        }

        /// A coded block with any byte changed decodes to `raw_len` bytes
        /// or is refused, never a panic: the tables, counts and codes of
        /// real streams, damaged.
        #[test]
        fn a_damaged_block_decodes_or_is_refused(
            words in prop::collection::vec(0usize..12, 40..400),
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            const WORDS: [&str; 12] = ["the", "log", "block", "is", "coded", "and", "each", "of", "its", "streams", "0x", "1234"];
            let src: Vec<u8> = words.iter().flat_map(|&w| WORDS[w].bytes().chain([b' '])).collect();
            let mut coded = compress(&src);
            prop_assert_eq!(decompress(&coded, src.len()).as_deref(), Some(src.as_slice()));
            let at = at % coded.len();
            coded[at] ^= flip;
            if let Some(out) = decompress(&coded, src.len()) {
                prop_assert_eq!(out.len(), src.len());
            }
        }

        /// Any bytes decode to `None` or to `raw_len` bytes, never a panic.
        #[test]
        fn arbitrary_input_never_panics(
            coded in prop::collection::vec(any::<u8>(), 0..200),
            raw_len in 0usize..4_000,
        ) {
            if let Some(out) = decompress(&coded, raw_len) {
                prop_assert_eq!(out.len(), raw_len);
            }
        }
    }
}
