//! The write-ahead log's block codec: LZ77 in LZ4's block layout.
//!
//! [`crate::wal`] codes the records of one group commit together, each
//! block on its own: no window or table carries from one block to the next,
//! so a block decodes without any other.
//!
//! A coded block is a run of sequences. A sequence is a token byte — the
//! literal count in its high nibble, the match length less [`MIN_MATCH`] in
//! its low one, 15 in either meaning "more length follows, in bytes of 255
//! until one is smaller" — then the literal count's extra bytes, the
//! literals, and, unless the coded bytes end there, the match: a
//! little-endian `u16` distance back into what was decoded (1 to 65 535) and
//! the match length's extra bytes. The last sequence is literals alone.
//!
//! [`Coder`] matches greedily: each position hashes its next four bytes into
//! a table of 2^14 slots holding the last position seen there, and a slot
//! whose bytes agree within the 64 KiB window starts a match, extended as
//! far as the bytes agree, eight at a time. [`decompress`] checks every
//! length and distance, and refuses a decoded length the coded bytes could
//! not produce before it allocates anything.

const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 14;
const WINDOW: usize = u16::MAX as usize;
/// The most one coded byte decodes to: a match length byte of 255.
const MAX_EXPANSION: usize = 255;

/// A block coder. Holds its hash table from one block to the next so that
/// coding a block allocates nothing but the output.
pub struct Coder {
    table: Vec<u32>,
}

impl Default for Coder {
    fn default() -> Self {
        Coder { table: vec![0; 1 << HASH_BITS] }
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

/// Appends one sequence: `literals`, then the match `(distance, length)`
/// if there is one.
fn put_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let extra = matched.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push(((literals.len().min(15) as u8) << 4) | extra.min(15) as u8);
    if literals.len() >= 15 {
        put_length(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((distance, _)) = matched {
        out.extend_from_slice(&(distance as u16).to_le_bytes());
        if extra >= 15 {
            put_length(out, extra - 15);
        }
    }
}

impl Coder {
    /// Appends the coding of `src` to `out`.
    pub fn compress(&mut self, src: &[u8], out: &mut Vec<u8>) {
        self.table.fill(0);
        let (mut anchor, mut i) = (0, 0);
        while i + MIN_MATCH <= src.len() {
            let word = read_u32(src, i);
            let slot = &mut self.table[hash(word)];
            // a slot's position may be stale or from another word: the
            // bytes decide
            let candidate = *slot as usize;
            *slot = i as u32;
            if candidate < i && i - candidate <= WINDOW && read_u32(src, candidate) == word {
                let len = MIN_MATCH + common_prefix(&src[candidate + MIN_MATCH..], &src[i + MIN_MATCH..]);
                put_sequence(out, &src[anchor..i], Some((i - candidate, len)));
                i += len;
                anchor = i;
            } else {
                i += 1;
            }
        }
        put_sequence(out, &src[anchor..], None);
    }
}

/// Reads a length whose token nibble is `nibble`, with its extra bytes.
fn read_length(src: &[u8], pos: &mut usize, nibble: u8) -> Option<usize> {
    let mut len = usize::from(nibble);
    if nibble == 15 {
        loop {
            let b = *src.get(*pos)?;
            *pos += 1;
            len = len.checked_add(usize::from(b))?;
            if b != 255 {
                break;
            }
        }
    }
    Some(len)
}

/// Decodes a block [`Coder::compress`] made of `raw_len` bytes. `None` when
/// `src` is not such a block: a length or distance past what is there, a
/// decoded length other than `raw_len`, or a `raw_len` no block of
/// `src.len()` bytes decodes to.
pub fn decompress(src: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    if raw_len > src.len().saturating_mul(MAX_EXPANSION) {
        return None;
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0;
    loop {
        let token = *src.get(pos)?;
        pos += 1;
        let lits = read_length(src, &mut pos, token >> 4)?;
        let literals = src.get(pos..pos.checked_add(lits)?)?;
        if lits > raw_len - out.len() {
            return None;
        }
        out.extend_from_slice(literals);
        pos += lits;
        if pos == src.len() {
            // the last sequence: literals alone
            return (token & 15 == 0 && out.len() == raw_len).then_some(out);
        }
        let distance = usize::from(u16::from_le_bytes([*src.get(pos)?, *src.get(pos + 1)?]));
        pos += 2;
        let len = read_length(src, &mut pos, token & 15)?.checked_add(MIN_MATCH)?;
        if distance == 0 || distance > out.len() || len > raw_len - out.len() {
            return None;
        }
        let from = out.len() - distance;
        if distance >= len {
            out.extend_from_within(from..from + len);
        } else {
            // the match overlaps what it writes: a repeating pattern
            for k in from..from + len {
                out.push(out[k]);
            }
        }
    }
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

    #[test]
    fn a_block_is_literals_and_matches_in_lz4_layout() {
        assert_eq!(compress(b""), [0x00]);
        assert_eq!(compress(b"abc"), b"\x30abc");
        // "abcd" then a match of 12 at distance 4, then the rest as literals
        assert_eq!(compress(b"abcdabcdabcdabcdxy"), b"\x48abcd\x04\x00\x20xy");
        // 15 or more: the nibble says 15 and bytes of 255 and less follow
        let long = [b"0123456789abcdefghij".as_slice(), &[b'z'; 300]].concat();
        let coded = compress(&long);
        assert_eq!(&coded[..3], [0xFF, 21 - 15, b'0']);
        assert_eq!(decompress(&coded, long.len()).as_deref(), Some(long.as_slice()));
    }

    #[test]
    fn a_run_decodes_from_an_overlapping_match() {
        let run = vec![7u8; 70_000];
        let coded = compress(&run);
        assert!(coded.len() < 300, "{} bytes", coded.len());
        assert_eq!(decompress(&coded, run.len()), Some(run));
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
        // a distance of 0, a distance past the start, a match past `raw_len`,
        // no token, a cut distance, a match length left open, a last
        // sequence that promises a match, a match with no sequence after it
        for (coded, raw_len) in [
            (&b"\x41abcd\x00\x00\x00"[..], 9),
            (b"\x41abcd\x05\x00\x00", 9),
            (b"\x41abcd\x04\x00\x00", 8),
            (b"", 0),
            (b"\x41abcd\x04", 9),
            (b"\x4Fabcd\x04\x00", 30),
            (b"\x41abcd", 4),
            (b"\x41abcd\x04\x00", 9),
        ] {
            assert_eq!(decompress(coded, raw_len), None, "{coded:?}");
        }
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
            prop_assert!(coded.len() <= src.len() + src.len() / 255 + 16);
            prop_assert_eq!(decompress(&coded, src.len()), Some(src));
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
