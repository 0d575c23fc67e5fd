//! Canonical Huffman coding of one byte stream: the entropy stage of the
//! write-ahead log's block codec ([`crate::lz`]), which keeps each stream's
//! length and whether [`encode`] coded it or left it as it is.
//!
//! A coded stream is a head byte, its code lengths and its codes:
//!
//! | head | then |
//! |---|---|
//! | k, 1 ≤ k ≤ 31 | the k symbols, ascending; their code lengths; the codes |
//! | 32 | a 256-bit map of the symbols (bit `s % 8` of byte `s / 8`); their code lengths; the codes |
//!
//! Code lengths are a nibble each, two a byte, the first in the low nibble,
//! and run from 1 to [`MAX_BITS`]; they make a complete code (their Kraft
//! sum is exactly one), except that the one symbol of a one-symbol stream
//! takes a bit. Codes are canonical — shorter first, then by symbol — and
//! packed least significant bit first, each reversed, so that decoding a
//! symbol is one lookup of its next `MAX_BITS` bits. The stream ends with
//! the byte its last code ends in.
//!
//! Every symbol takes at least a bit, so a stream of `n` symbols is at
//! least `n / 8` bytes: [`decode`] refuses a length its bytes could not hold
//! before it allocates.

/// The longest code: a decoding table of 2 048 entries.
const MAX_BITS: u8 = 11;
/// The most symbols the sparse form lists; from one more on, the map of
/// 32 bytes is shorter.
const SPARSE_MAX: u8 = 31;
const HEAD_MAP: u8 = 32;

/// Appends the coding of `src` to `out` and returns `true`; or, when coding
/// would not shrink it, appends `src` as it is and returns `false`.
pub(crate) fn encode(src: &[u8], out: &mut Vec<u8>) -> bool {
    let freq = histogram(src);
    let k = freq.iter().filter(|&&f| f > 0).count();
    let sparse = k <= usize::from(SPARSE_MAX);
    let table = if sparse { 1 + k } else { 1 + 32 } + k.div_ceil(2);
    // a bit a symbol at the least: no need to build the code to know
    if table + src.len().div_ceil(8) >= src.len() {
        out.extend_from_slice(src);
        return false;
    }
    let lens = code_lengths(&freq);
    let bits: u64 = freq.iter().zip(&lens).map(|(&f, &l)| u64::from(f) * u64::from(l)).sum();
    if table as u64 + bits.div_ceil(8) >= src.len() as u64 {
        out.extend_from_slice(src);
        return false;
    }
    let symbols: Vec<u8> = (0..=255).filter(|&s| freq[usize::from(s)] > 0).collect();
    if sparse {
        out.push(k as u8);
        out.extend_from_slice(&symbols);
    } else {
        out.push(HEAD_MAP);
        let mut map = [0u8; 32];
        for &s in &symbols {
            map[usize::from(s / 8)] |= 1 << (s % 8);
        }
        out.extend_from_slice(&map);
    }
    for pair in symbols.chunks(2) {
        let high = pair.get(1).map_or(0, |&s| lens[usize::from(s)]);
        out.push(lens[usize::from(pair[0])] | high << 4);
    }
    let codes = canonical_codes(&lens);
    // four codes at a time into `acc`, then its whole bytes out in one
    // store of eight: the room for the last store is cut off at the end
    let mut at = out.len();
    out.resize(at + bits.div_ceil(8) as usize + 8, 0);
    let (mut acc, mut have) = (0u64, 0u32);
    for four in src.chunks(4) {
        for &b in four {
            acc |= u64::from(codes[usize::from(b)]) << have;
            have += u32::from(lens[usize::from(b)]);
        }
        out[at..at + 8].copy_from_slice(&acc.to_le_bytes());
        let whole = have / 8;
        at += whole as usize;
        acc >>= 8 * whole;
        have -= 8 * whole;
    }
    out.truncate(at + have.div_ceil(8) as usize);
    true
}

/// How often each byte occurs in `src`; a long `src` is counted in four
/// tables so that a run of one byte does not wait on its own count.
fn histogram(src: &[u8]) -> [u32; 256] {
    let mut freq = [0u32; 256];
    if src.len() < 1024 {
        for &b in src {
            freq[usize::from(b)] += 1;
        }
        return freq;
    }
    let mut counts = [[0u32; 256]; 4];
    let mut fours = src.chunks_exact(4);
    for four in &mut fours {
        for (table, &b) in counts.iter_mut().zip(four) {
            table[usize::from(b)] += 1;
        }
    }
    for &b in fours.remainder() {
        counts[0][usize::from(b)] += 1;
    }
    for table in &counts {
        for (f, c) in freq.iter_mut().zip(table) {
            *f += c;
        }
    }
    freq
}

/// Code lengths of a Huffman code for the symbols `freq` counts, none
/// longer than [`MAX_BITS`]: while the longest is too long, every count is
/// halved, rounding up, and the code built again (at worst the counts are
/// all one, and 256 symbols take 8 bits each). A lone symbol takes one bit.
fn code_lengths(freq: &[u32; 256]) -> [u8; 256] {
    let mut leaves = [(0u32, 0u8); 256];
    let mut k = 0;
    for (s, &f) in (0..=255u8).zip(freq).filter(|&(_, &f)| f > 0) {
        leaves[k] = (f, s);
        k += 1;
    }
    let leaves = &mut leaves[..k];
    leaves.sort_unstable();
    let mut lens = [0u8; 256];
    if let [(_, s)] = *leaves {
        lens[usize::from(s)] = 1;
        return lens;
    }
    let mut depths = [0u32; 256];
    let depths = &mut depths[..k];
    loop {
        for (d, &(w, _)) in depths.iter_mut().zip(leaves.iter()) {
            *d = w;
        }
        huffman_lengths(depths);
        // the lightest leaf is the deepest
        if depths[0] <= u32::from(MAX_BITS) {
            for (&(_, s), &d) in leaves.iter().zip(depths.iter()) {
                lens[usize::from(s)] = d as u8;
            }
            return lens;
        }
        // halving keeps the order the leaves are sorted in
        for leaf in leaves.iter_mut() {
            leaf.0 = leaf.0.div_ceil(2);
        }
    }
}

/// Turns `a`, two or more weights in ascending order, into the depths of
/// their leaves in a Huffman tree, in place (Moffat and Katajainen, "In-place
/// calculation of minimum-redundancy codes", 1995). The first pass builds the
/// inner nodes where the weights were — the lightest two of the leaves not
/// yet taken and the inner nodes not yet taken, which are made in order of
/// weight — each taken one keeping its parent's index; the second turns
/// those into depths; the third hands the leaves, deepest first, the depths
/// the inner nodes leave room for.
fn huffman_lengths(a: &mut [u32]) {
    let n = a.len();
    a[0] += a[1];
    let (mut root, mut leaf) = (0, 2);
    for next in 1..n - 1 {
        if leaf >= n || a[root] < a[leaf] {
            a[next] = a[root];
            a[root] = next as u32;
            root += 1;
        } else {
            a[next] = a[leaf];
            leaf += 1;
        }
        if leaf >= n || (root < next && a[root] < a[leaf]) {
            a[next] += a[root];
            a[root] = next as u32;
            root += 1;
        } else {
            a[next] += a[leaf];
            leaf += 1;
        }
    }
    a[n - 2] = 0;
    for next in (0..n - 2).rev() {
        a[next] = a[a[next] as usize] + 1;
    }
    let (mut avail, mut used, mut depth) = (1, 0, 0);
    let (mut inner, mut next) = (n - 1, n);
    while avail > 0 {
        while inner > 0 && a[inner - 1] == depth {
            used += 1;
            inner -= 1;
        }
        while avail > used {
            next -= 1;
            a[next] = depth;
            avail -= 1;
        }
        avail = 2 * used;
        depth += 1;
        used = 0;
    }
}

/// The canonical code of each symbol of length `lens[s]` (0: none), bit
/// reversed for packing least significant bit first. The lengths must not
/// over-subscribe the code.
fn canonical_codes(lens: &[u8; 256]) -> [u16; 256] {
    let mut count = [0u32; MAX_BITS as usize + 1];
    for &l in lens.iter().filter(|&&l| l > 0) {
        count[usize::from(l)] += 1;
    }
    let mut next = [0u32; MAX_BITS as usize + 1];
    let mut code = 0;
    for len in 1..=usize::from(MAX_BITS) {
        code = (code + count[len - 1]) << 1;
        next[len] = code;
    }
    let mut codes = [0u16; 256];
    for (s, &l) in lens.iter().enumerate().filter(|(_, &l)| l > 0) {
        let c = next[usize::from(l)] as u16;
        next[usize::from(l)] += 1;
        codes[s] = c.reverse_bits() >> (16 - u32::from(l));
    }
    codes
}

/// Decodes the `n` symbols of the stream [`encode`] coded at the start of
/// `src`: its bytes and how many bytes of `src` it took. `None` when it is
/// not such a stream: no symbols, a head or length table of no form above,
/// lengths that over-subscribe the code or leave it incomplete, more symbols
/// than its bytes could hold, or codes running past the end of `src`.
pub(crate) fn decode(src: &[u8], n: usize) -> Option<(Vec<u8>, usize)> {
    let head = *src.first().filter(|_| n > 0)?;
    let mut pos = 1;
    let mut symbols = Vec::new();
    match head {
        HEAD_MAP => {
            let map = src.get(pos..pos + 32)?;
            pos += 32;
            symbols.extend((0..=255u8).filter(|&s| map[usize::from(s / 8)] & (1 << (s % 8)) != 0));
        }
        1..=SPARSE_MAX => {
            let listed = src.get(pos..pos + usize::from(head))?;
            pos += listed.len();
            if listed.windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            symbols.extend_from_slice(listed);
        }
        _ => return None,
    }
    let nibbles = src.get(pos..pos + symbols.len().div_ceil(2))?;
    pos += nibbles.len();
    let mut lens = [0u8; 256];
    let mut kraft = 0u32;
    for (i, &s) in symbols.iter().enumerate() {
        let len = (nibbles[i / 2] >> (4 * (i % 2))) & 15;
        if len == 0 || len > MAX_BITS {
            return None;
        }
        lens[usize::from(s)] = len;
        kraft += 1 << (MAX_BITS - len);
    }
    let lone = symbols.len() == 1 && kraft == 1 << (MAX_BITS - 1);
    if kraft != 1 << MAX_BITS && !lone {
        return None;
    }
    let bits = &src[pos..];
    if n / 8 > bits.len() {
        return None;
    }
    // the table: each code's entry (length << 8 | symbol) at every index
    // whose low bits are the code; both of a lone symbol's bits read as it
    let mut table = [0u16; TABLE];
    let codes = canonical_codes(&lens);
    for &s in &symbols {
        let (code, len) = (usize::from(codes[usize::from(s)]), lens[usize::from(s)]);
        let step = if lone { 1 } else { 1 << len };
        for slot in table.iter_mut().skip(code).step_by(step) {
            *slot = u16::from(len) << 8 | u16::from(s);
        }
    }
    let mut out = vec![0u8; n];
    let mut reader = Bits { src: bits, at: 0, acc: 0, have: 0 };
    // a refill holds at least 56 bits: four codes of 11
    let mut fours = out.chunks_exact_mut(4);
    for four in &mut fours {
        reader.refill();
        for slot in four {
            *slot = reader.symbol(&table);
        }
    }
    for slot in fours.into_remainder() {
        reader.refill();
        *slot = reader.symbol(&table);
    }
    let used = (8 * reader.at - reader.have as usize).div_ceil(8);
    (used <= bits.len()).then_some((out, pos + used))
}

/// Entries of a decoding table: one for each value of [`MAX_BITS`] bits.
const TABLE: usize = 1 << MAX_BITS;

/// A reader of codes packed least significant bit first.
struct Bits<'a> {
    src: &'a [u8],
    /// Bytes of `src` taken into `acc`, past its end as zeros.
    at: usize,
    acc: u64,
    /// Bits of `acc` not yet read.
    have: u32,
}

impl Bits<'_> {
    /// Takes whole bytes into `acc` until it holds at least 56 bits. The
    /// bits above `have` that a word read brings with it are those the next
    /// read puts there again.
    fn refill(&mut self) {
        if self.at + 8 <= self.src.len() {
            self.acc |= crate::le::u64_at(self.src, self.at) << self.have;
            self.at += ((63 - self.have) / 8) as usize;
            self.have |= 56;
        } else {
            while self.have <= 56 {
                self.acc |= u64::from(self.src.get(self.at).copied().unwrap_or(0)) << self.have;
                self.at += 1;
                self.have += 8;
            }
        }
    }

    /// Reads one code: `have` must be at least its length.
    fn symbol(&mut self, table: &[u16; TABLE]) -> u8 {
        let entry = table[self.acc as usize % TABLE];
        let len = u32::from(entry >> 8);
        self.acc >>= len;
        self.have -= len;
        entry as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What [`encode`] appends, if it codes `src`.
    fn coded(src: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        let coded = encode(src, &mut out);
        assert!(coded || out == src, "a stream left as it is");
        coded.then_some(out)
    }

    /// The Kraft sum of `lens`, in units of 2^-MAX_BITS.
    fn kraft(lens: &[u8; 256]) -> u32 {
        lens.iter().filter(|&&l| l > 0).map(|&l| 1 << (MAX_BITS - l)).sum()
    }

    fn freq_of(counts: &[(u8, u32)]) -> [u32; 256] {
        let mut freq = [0; 256];
        for &(s, c) in counts {
            freq[usize::from(s)] = c;
        }
        freq
    }

    #[test]
    fn a_coded_stream_is_a_head_a_table_and_the_codes() {
        // too short to shrink: as it is
        assert_eq!(coded(b""), None);
        assert_eq!(coded(b"abc"), None);
        assert_eq!(coded(&[7; 4]), None);
        // 'a' takes one bit (code 0), 'b' and 'c' two (10 and 11): three
        // symbols listed, lengths 1 and 2 in a byte, 2 in the next; then
        // "abacabaa" four times over is 0 10 0 11 0 10 0 0, each code's
        // first bit lowest, 44 bits in six bytes
        let src = b"abacabaa".repeat(4);
        let want = [3, b'a', b'b', b'c', 0x21, 0x02, 0xB2, 0x90, 0x85, 0x2C, 0x64, 0x01];
        assert_eq!(coded(&src).as_deref(), Some(want.as_slice()));
        assert_eq!(decode(&want, 32), Some((src, want.len())));
        // one symbol: a bit each, all zeros
        let run = [7u8; 100];
        let want = [&[1, 7, 1][..], &[0; 13]].concat();
        assert_eq!(coded(&run), Some(want.clone()));
        assert_eq!(decode(&want, 100), Some((run.to_vec(), want.len())));
    }

    #[test]
    fn many_symbols_are_listed_by_a_map() {
        // the 49 squares mod 97
        let src: Vec<u8> = (0..4_000u32).map(|i| (i * i % 97) as u8).collect();
        let out = coded(&src).unwrap();
        assert_eq!(out[0], HEAD_MAP);
        assert!(out.len() < src.len(), "{} of {}", out.len(), src.len());
        assert_eq!(decode(&out, src.len()), Some((src, out.len())));
    }

    #[test]
    fn code_lengths_are_limited_and_complete() {
        // Fibonacci counts make a tree as deep as it has symbols
        let mut fib = vec![(0u8, 1u32), (1, 1)];
        for s in 2..40u8 {
            fib.push((s, fib[usize::from(s) - 1].1 + fib[usize::from(s) - 2].1));
        }
        let alphabets: Vec<Vec<(u8, u32)>> = vec![
            fib,
            vec![(9, 1), (200, 5_000_000)],
            (0..=255).map(|s| (s, 1)).collect(),
            (0..=255).map(|s| (s, 1 + u32::from(s) * 1_000)).collect(),
            (0..=255).map(|s| (s, 1 << (s % 24))).collect(),
            (0..3).map(|s| (s, 7)).collect(),
        ];
        for counts in alphabets {
            let lens = code_lengths(&freq_of(&counts));
            assert!(lens.iter().all(|&l| l <= MAX_BITS), "{counts:?}");
            assert_eq!(kraft(&lens), 1 << MAX_BITS, "{counts:?}");
            assert_eq!(lens.iter().filter(|&&l| l > 0).count(), counts.len());
        }
        // equal counts: as balanced as can be
        let lens = code_lengths(&freq_of(&(0..=255).map(|s| (s, 3)).collect::<Vec<_>>()));
        assert!(lens.iter().all(|&l| l == 8));
        let lens = code_lengths(&freq_of(&(0..5).map(|s| (s, 3)).collect::<Vec<_>>()));
        assert_eq!(lens[..5].iter().filter(|&&l| l == 2).count(), 3);
        // a lone symbol takes a bit
        let lens = code_lengths(&freq_of(&[(42, 9)]));
        assert_eq!((lens[42], kraft(&lens)), (1, 1 << (MAX_BITS - 1)));
    }

    /// A stream in the sparse form with these lengths and `bits` bytes of
    /// codes.
    fn sparse(table: &[(u8, u8)], bits: &[u8]) -> Vec<u8> {
        let mut out = vec![table.len() as u8];
        out.extend(table.iter().map(|&(s, _)| s));
        for pair in table.chunks(2) {
            out.push(pair[0].1 | pair.get(1).map_or(0, |p| p.1) << 4);
        }
        out.extend_from_slice(bits);
        out
    }

    #[test]
    fn a_damaged_stream_is_refused() {
        let ok = sparse(&[(1, 1), (2, 2), (3, 2)], &[0, 0]);
        // eight zero bits are eight of the one-bit symbol; a byte is left
        assert_eq!(decode(&ok, 8), Some((vec![1; 8], ok.len() - 1)));
        for (why, bad, n) in [
            ("over-subscribed", sparse(&[(1, 1), (2, 1), (3, 2)], &[0, 0]), 8),
            ("incomplete", sparse(&[(1, 1), (2, 2)], &[0, 0]), 8),
            ("a length of 0", sparse(&[(1, 1), (2, 0), (3, 1)], &[0, 0]), 8),
            ("a length of 12", sparse(&[(1, 1), (2, 12)], &[0, 0]), 8),
            ("a lone symbol of two bits", sparse(&[(1, 2)], &[0]), 8),
            ("symbols out of order", sparse(&[(2, 1), (1, 2), (3, 2)], &[0, 0]), 8),
            ("a symbol twice", sparse(&[(1, 1), (1, 2), (3, 2)], &[0, 0]), 8),
            ("the codes cut short", sparse(&[(1, 1), (2, 2), (3, 2)], &[0xff]), 8),
            ("more symbols than bits", sparse(&[(1, 1), (2, 1)], &[0, 0]), 24),
            ("a head of 0", vec![0, 0], 8),
            ("a head past the map", vec![33, 0], 8),
            ("a list cut short", vec![3, 1, 2], 8),
            ("lengths cut short", vec![3, 1, 2, 3, 0x21], 8),
            ("a map cut short", vec![32, 0, 0], 8),
            ("no head", vec![], 8),
            ("no symbols", sparse(&[(1, 1), (2, 1)], &[]), 0),
        ] {
            assert_eq!(decode(&bad, n), None, "{why}");
        }
        // a length only its bytes bound: refused before the allocation
        assert_eq!(decode(&[1, 9, 1], 1 << 40), None);
        assert_eq!(decode(&[1, 9, 1], usize::MAX), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any bytes round-trip, coded only where that shrinks them.
        #[test]
        fn any_bytes_round_trip(
            src in prop_oneof![
                prop::collection::vec(any::<u8>(), 0..3_000),
                prop::collection::vec(0u8..3, 0..3_000),
                prop::collection::vec(prop_oneof![Just(0u8), Just(1), any::<u8>()], 0..3_000),
            ],
        ) {
            if let Some(out) = coded(&src) {
                prop_assert!(out.len() < src.len());
                prop_assert_eq!(decode(&out, src.len()), Some((src, out.len())));
            }
        }

        /// Any counts get lengths of at most `MAX_BITS` whose Kraft sum is
        /// exactly one (half for a lone symbol).
        #[test]
        fn any_counts_make_a_complete_limited_code(
            counts in prop::collection::vec((any::<u8>(), 1u32..u32::MAX / 256), 1..300),
        ) {
            let freq = freq_of(&counts);
            let lens = code_lengths(&freq);
            prop_assert!(lens.iter().all(|&l| l <= MAX_BITS));
            let symbols = freq.iter().filter(|&&c| c > 0).count();
            prop_assert_eq!(lens.iter().filter(|&&l| l > 0).count(), symbols);
            let want = if symbols == 1 { 1 << (MAX_BITS - 1) } else { 1 << MAX_BITS };
            prop_assert_eq!(kraft(&lens), want);
        }

        /// Any bytes decode to a stream within them, or are refused; never
        /// a panic.
        #[test]
        fn any_input_decodes_or_is_refused(
            src in prop::collection::vec(any::<u8>(), 0..300),
            n in 1usize..4_000,
        ) {
            if let Some((out, used)) = decode(&src, n) {
                prop_assert!(used <= src.len());
                prop_assert_eq!(out.len(), n);
            }
        }
    }
}
