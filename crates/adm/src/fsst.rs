//! FSST: strings coded by a table of up to 255 short symbols.
//!
//! After Boncz, Neumann & Leis, *FSST: Fast Random Access String Compression*
//! (VLDB 2020). A [`SymbolTable`] holds up to [`MAX_SYMBOLS`] *symbols* of 1
//! to 8 bytes; a string is coded as a run of one-byte codes, code `c` standing
//! for symbol `c` and [`ESCAPE`] for the one character that follows it, as it
//! is. Each string is coded on its own, so any one decodes without the others
//! — what a column of strings needs whose row `i` is read without the rows
//! before it.
//!
//! The strings are UTF-8 and so are the symbols: a symbol is one or more whole
//! characters and an escape carries one whole character, so no code splits a
//! character. A table read off disk is checked once ([`SymbolTable::read`]),
//! and a code run that [`SymbolTable::check`] passes decodes to valid UTF-8.
//!
//! [`SymbolTable::train`] builds a table from a sample in the paper's rounds:
//! code the sample with the table so far, count how often each symbol — and
//! each pair of symbols one after the other — was used, and keep the 255 that
//! save the most bytes, the sample's characters filling what room is left. An
//! [`Encoder`] finds the symbol to use by O(1) lookups: a direct table over
//! the next two bytes for symbols of one or two, a hash of the next three for
//! longer ones, one symbol per slot.

use crate::binary;
use crate::error::{AdmError, Result};
use std::collections::HashMap;
use std::fmt;

/// The code that stands for the one character after it, as it is.
pub const ESCAPE: u8 = 255;
/// Symbols in a table at most: every code but [`ESCAPE`].
pub const MAX_SYMBOLS: usize = 255;
/// Bytes of a symbol at most.
const MAX_LEN: usize = 8;
/// Bytes of sample a table is trained on, about.
pub const SAMPLE_BYTES: usize = 8 << 10;
/// Rounds of training: the longest symbols about double in length in each,
/// so the fourth can reach eight bytes. (A fifth codes the benchmark's
/// messages 0.6 % shorter and costs a fifth more time.)
const ROUNDS: usize = 4;
/// Slots of the hash of a long symbol's first three bytes, as a power of two.
const HASH_BITS: u32 = 10;

/// Bytes of the UTF-8 character `lead` starts; 0 for a byte none starts with.
fn char_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF4 => 4,
        _ => 0,
    }
}

fn corrupt(what: &str) -> AdmError {
    AdmError::Serde(format!("FSST: {what}"))
}

/// The first eight bytes of `s`, little-endian, zero past its end.
#[inline]
fn word_of(s: &[u8]) -> u64 {
    match s.first_chunk::<MAX_LEN>() {
        Some(word) => u64::from_le_bytes(*word),
        None => {
            let mut word = [0u8; MAX_LEN];
            word[..s.len()].copy_from_slice(s);
            u64::from_le_bytes(word)
        }
    }
}

/// The low `len` bytes of a word, for `len` in `1..=8`.
#[inline]
fn mask(len: usize) -> u64 {
    u64::MAX >> (64 - 8 * len)
}

/// The hash slot of a word's first three bytes.
#[inline]
fn slot(word: u64) -> usize {
    ((word & 0xFF_FFFF).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HASH_BITS)) as usize
}

/// The character escape code `codes[i]` carries, checked.
fn escaped(codes: &[u8], i: usize) -> Result<&[u8]> {
    if codes.get(i) != Some(&ESCAPE) {
        return Err(corrupt("a code past the table's symbols"));
    }
    let len = codes.get(i + 1).map_or(0, |lead| char_len(*lead));
    codes
        .get(i + 1..i + 1 + len)
        .filter(|ch| !ch.is_empty() && std::str::from_utf8(ch).is_ok())
        .ok_or_else(|| corrupt("an escape that carries no whole character"))
}

/// Up to [`MAX_SYMBOLS`] symbols, each one or more whole UTF-8 characters of
/// at most eight bytes: what decodes a code run. About 2.3 KiB.
#[derive(Clone, PartialEq, Eq)]
pub struct SymbolTable {
    /// Symbol `c`'s bytes, little-endian, zero past its length.
    words: [u64; 256],
    /// Symbol `c`'s length; 0 for a code that is no symbol ([`ESCAPE`] among them).
    lens: [u8; 256],
    n: usize,
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let symbol = |c: usize| String::from_utf8_lossy(&self.words[c].to_le_bytes()[..self.lens[c] as usize]).into_owned();
        f.debug_list().entries((0..self.n).map(symbol)).finish()
    }
}

impl SymbolTable {
    fn empty() -> SymbolTable {
        SymbolTable { words: [0; 256], lens: [0; 256], n: 0 }
    }

    fn push(&mut self, word: u64, len: usize) {
        self.words[self.n] = word & mask(len);
        self.lens[self.n] = len as u8;
        self.n += 1;
    }

    /// Symbols.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Appends the table as it is stored: the symbol count, each symbol's
    /// length, then the symbols' bytes end to end.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(self.n as u8);
        out.extend_from_slice(&self.lens[..self.n]);
        for c in 0..self.n {
            out.extend_from_slice(&self.words[c].to_le_bytes()[..self.lens[c] as usize]);
        }
    }

    /// The table [`SymbolTable::write`] wrote at the start of `bytes` —
    /// `None` for one of no symbols — and the bytes it took. A symbol of no
    /// length, of more than eight bytes or that is not whole characters, and a
    /// table cut short, are errors.
    pub fn read(bytes: &[u8]) -> Result<(Option<SymbolTable>, usize)> {
        let short = || corrupt("a symbol table cut short");
        let n = *bytes.first().ok_or_else(short)? as usize;
        let lens = bytes.get(1..1 + n).ok_or_else(short)?;
        let mut at = 1 + n;
        let mut table = SymbolTable::empty();
        for &len in lens {
            let len = len as usize;
            if !(1..=MAX_LEN).contains(&len) {
                return Err(corrupt("a symbol of no length or of more than eight bytes"));
            }
            let symbol = bytes.get(at..at + len).ok_or_else(short)?;
            if std::str::from_utf8(symbol).is_err() {
                return Err(corrupt("a symbol that is not whole characters"));
            }
            table.push(word_of(symbol), len);
            at += len;
        }
        Ok(((n > 0).then_some(table), at))
    }

    /// Appends what `codes` decodes to: valid UTF-8, or an error — a code
    /// that is no symbol, an escape cut short or carrying no whole character —
    /// and `out` as it was.
    pub fn decode_into(&self, codes: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let start = out.len();
        // a code stands for eight bytes at most: every symbol is copied whole,
        // and the bytes past its length are written over by the next
        out.resize(start + codes.len() * MAX_LEN, 0);
        let (mut at, mut i) = (start, 0);
        while let Some(&code) = codes.get(i) {
            let len = self.lens[code as usize] as usize;
            if len != 0 {
                out[at..at + MAX_LEN].copy_from_slice(&self.words[code as usize].to_le_bytes());
                (at, i) = (at + len, i + 1);
                continue;
            }
            match escaped(codes, i) {
                Ok(ch) => {
                    out[at..at + ch.len()].copy_from_slice(ch);
                    (at, i) = (at + ch.len(), i + 1 + ch.len());
                }
                Err(e) => {
                    out.truncate(start);
                    return Err(e);
                }
            }
        }
        out.truncate(at);
        Ok(())
    }

    /// Appends the `string` cell of what `codes` decodes to — its tag, its
    /// length and the text — or an error, as [`SymbolTable::decode_into`].
    pub fn decode_cell(&self, codes: &[u8], out: &mut Vec<u8>) -> Result<()> {
        out.push(binary::T_STRING);
        binary::put_len_prefixed(out, |text| self.decode_into(codes, text))
    }

    /// Whether `codes` decodes ([`SymbolTable::decode_into`]) without
    /// decoding it.
    pub fn check(&self, codes: &[u8]) -> Result<()> {
        let mut i = 0;
        while let Some(&code) = codes.get(i) {
            i += match self.lens[code as usize] {
                0 => 1 + escaped(codes, i)?.len(),
                _ => 1,
            };
        }
        Ok(())
    }

    /// The table that codes `strings` — or a sample of them of about 8 KiB,
    /// strings spread over all of them, none longer than that — shortest;
    /// `None` when they have no bytes to code.
    pub fn train(strings: &[&str]) -> Option<SymbolTable> {
        let n = strings.len();
        // a stride prime to `n` visits every string once, far apart
        let stride = [7_919, 7_907].into_iter().find(|p| !n.is_multiple_of(*p)).unwrap_or(1);
        let (mut sample, mut bytes) = (Vec::new(), 0);
        for i in 0..n {
            if bytes >= SAMPLE_BYTES {
                break;
            }
            let s = strings[i * stride % n];
            let cut = (0..=s.len().min(SAMPLE_BYTES)).rev().find(|at| s.is_char_boundary(*at)).unwrap_or(0);
            sample.push(&s.as_bytes()[..cut]);
            bytes += cut;
        }
        let mut table = SymbolTable::empty();
        let (mut counts, mut encoder) = (Counts::new(), Encoder::new(&table));
        for _ in 0..ROUNDS {
            encoder.set(&table);
            counts.tally(&table, &encoder, &sample);
            table = counts.best();
        }
        (!table.is_empty()).then_some(table)
    }

    /// [`SymbolTable::train`] on the text of those of `cells` that are
    /// `string` cells of UTF-8: the table of a column of them.
    pub fn train_cells<'a>(cells: impl IntoIterator<Item = &'a [u8]>) -> Option<SymbolTable> {
        SymbolTable::train(&cells.into_iter().filter_map(cell_text).collect::<Vec<_>>())
    }
}

/// The text a `string` cell holds, if it is UTF-8.
fn cell_text(cell: &[u8]) -> Option<&str> {
    binary::string_cell(cell).and_then(|s| std::str::from_utf8(s).ok())
}

/// Codes strings with one table.
pub struct Encoder {
    /// By the next two bytes, little-endian: `code | len << 8` of the longest
    /// symbol of one or two bytes they start; 0 when none does.
    short: Box<[u16; 1 << 16]>,
    /// The same by one byte, for a string's last.
    single: [u16; 256],
    /// By the hash slot of the next three bytes: a symbol of three or more
    /// bytes, and `code | len << 8`; 0 for an empty slot.
    long: Box<[(u64, u16); 1 << HASH_BITS]>,
}

impl Encoder {
    pub fn new(table: &SymbolTable) -> Encoder {
        // the tables' lengths in their types: a lookup by a `u16` or a slot
        // needs no bounds check
        let short = vec![0; 1 << 16].into_boxed_slice().try_into().expect("1 << 16 entries");
        let long = vec![(0, 0); 1 << HASH_BITS].into_boxed_slice().try_into().expect("a slot per hash");
        let mut encoder = Encoder { short, single: [0; 256], long };
        encoder.set(table);
        encoder
    }

    /// Makes this the encoder of `table`, in place.
    fn set(&mut self, table: &SymbolTable) {
        self.short.fill(0);
        self.single.fill(0);
        self.long.fill((0, 0));
        let entry = |c: usize| c as u16 | u16::from(table.lens[c]) << 8;
        // a two-byte symbol wins over the one-byte one it starts with
        for c in (0..table.n).filter(|c| table.lens[*c] == 1) {
            let b0 = table.words[c] as usize;
            self.single[b0] = entry(c);
            (0..256).for_each(|b1| self.short[b0 | b1 << 8] = entry(c));
        }
        for c in 0..table.n {
            let word = table.words[c];
            match table.lens[c] {
                1 => {}
                2 => self.short[word as usize] = entry(c),
                _ if self.long[slot(word)].1 == 0 => self.long[slot(word)] = (word, entry(c)),
                // a table trained here has one long symbol per slot
                _ => {}
            }
        }
    }

    /// `code | len << 8` of the symbol `s` starts with, the longest of those
    /// the lookups find; its length is 0 when none does.
    #[inline]
    fn find(&self, s: &[u8]) -> u16 {
        let word = word_of(s);
        if s.len() >= 3 {
            let (symbol, entry) = self.long[slot(word)];
            let len = (entry >> 8) as usize;
            if len != 0 && len <= s.len() && word & mask(len) == symbol {
                return entry;
            }
        }
        match s {
            [only] => self.single[*only as usize],
            _ => self.short[word as u16 as usize],
        }
    }

    /// Codes the text of each of `cells`, `string` cells: appends its codes
    /// to `codes` and hands `each` how many bytes they take. Returns the
    /// bytes of the texts; `None`, part-way, at a cell that is no string of
    /// UTF-8.
    pub fn encode_cells<'a>(&self, cells: impl IntoIterator<Item = &'a [u8]>, codes: &mut Vec<u8>, mut each: impl FnMut(usize)) -> Option<usize> {
        let mut plain = 0;
        for cell in cells {
            let text = cell_text(cell)?;
            let start = codes.len();
            self.encode(text, codes);
            each(codes.len() - start);
            plain += text.len();
        }
        Some(plain)
    }

    /// Appends the codes of `s`.
    pub fn encode(&self, s: &str, out: &mut Vec<u8>) {
        let mut rest = s.as_bytes();
        while !rest.is_empty() {
            let entry = self.find(rest);
            let len = match (entry >> 8) as usize {
                0 => {
                    let len = char_len(rest[0]).max(1);
                    out.push(ESCAPE);
                    out.extend_from_slice(&rest[..len]);
                    len
                }
                len => {
                    out.push(entry as u8);
                    len
                }
            };
            rest = &rest[len..];
        }
    }
}

/// Codes while training: a symbol's own, [`ASCII`] `+ b` for an escaped ASCII
/// byte `b`, [`WIDE`] `+ k` for the `k`-th other character escaped.
const ASCII: usize = 256;
const WIDE: usize = 384;
const CODES: usize = 512;

/// How often a round of training used each symbol, and each pair of symbols
/// one after the other.
struct Counts {
    /// What each code stands for: a word and its length.
    symbols: Vec<(u64, usize)>,
    /// The characters past ASCII escaped so far, by their word: their code.
    wide: HashMap<u64, usize>,
    single: Vec<u32>,
    /// By `first * CODES + second`.
    pair: Vec<u16>,
    /// The pairs counted, to be read and cleared.
    touched: Vec<usize>,
    /// Every character of the sample as a candidate, as the first round —
    /// of no symbols — counted them: what fills the slots a table has left,
    /// so that no character is escaped for want of room.
    chars: Vec<u128>,
}

/// A candidate symbol as a sort key: most gain first, then longest, then by
/// bytes — one integer compare where a tuple's would cost twice the time.
fn candidate(word: u64, len: usize, gain: u64) -> u128 {
    const MAX_GAIN: u64 = (1 << 40) - 1;
    u128::from(MAX_GAIN - gain.min(MAX_GAIN)) << 68 | ((MAX_LEN - len) as u128) << 64 | u128::from(word)
}

impl Counts {
    fn new() -> Counts {
        let mut symbols = vec![(0, 0); CODES];
        for b in 0..128 {
            symbols[ASCII + b] = (b as u64, 1);
        }
        let (single, pair) = (vec![0; CODES], vec![0; CODES * CODES]);
        Counts { symbols, wide: HashMap::new(), single, pair, touched: Vec::new(), chars: Vec::new() }
    }

    /// The code of an escaped character; `None` once [`WIDE`]'s codes ran out.
    fn escape_code(&mut self, ch: &[u8]) -> Option<usize> {
        if let [ascii] = ch {
            return Some(ASCII + *ascii as usize);
        }
        let word = word_of(ch);
        let next = WIDE + self.wide.len();
        match self.wide.get(&word) {
            Some(code) => Some(*code),
            None if next < CODES => {
                self.wide.insert(word, next);
                self.symbols[next] = (word, ch.len());
                Some(next)
            }
            None => None,
        }
    }

    /// Codes `sample` with `table`, whose encoder `encoder` is, counting.
    fn tally(&mut self, table: &SymbolTable, encoder: &Encoder, sample: &[&[u8]]) {
        self.single.fill(0);
        for p in self.touched.drain(..) {
            self.pair[p] = 0;
        }
        self.wide.clear();
        for c in 0..table.n {
            self.symbols[c] = (table.words[c], table.lens[c] as usize);
        }
        for s in sample {
            let (mut rest, mut prev) = (*s, None);
            while !rest.is_empty() {
                let entry = encoder.find(rest);
                let ch = char_len(rest[0]).max(1);
                let (code, len) = match (entry >> 8) as usize {
                    0 => (self.escape_code(&rest[..ch]), ch),
                    len => (Some((entry & 0xFF) as usize), len),
                };
                // beside a longer symbol, its first character alone: what
                // keeps a table from losing the short symbols it still needs
                let alone = if len > ch { self.escape_code(&rest[..ch]) } else { None };
                for code in [code, alone].into_iter().flatten() {
                    self.single[code] += 1;
                    if let Some(prev) = prev {
                        let p = prev * CODES + code;
                        if self.pair[p] == 0 {
                            self.touched.push(p);
                        }
                        self.pair[p] = self.pair[p].saturating_add(1);
                    }
                }
                (rest, prev) = (&rest[len..], code);
            }
        }
        if table.is_empty() {
            self.chars = (ASCII..CODES).filter(|c| self.single[*c] > 0).map(|c| self.gain(c)).collect();
            self.chars.sort_unstable();
        }
    }

    /// Code `code` as a candidate by the bytes it saved: a whole character
    /// alone weighed eight times, what keeps escapes of two or more bytes rare.
    fn gain(&self, code: usize) -> u128 {
        let (word, len) = self.symbols[code];
        let boost = if char_len(word as u8) == len { 8 } else { 1 };
        candidate(word, len, u64::from(self.single[code]) * len as u64 * boost)
    }

    /// The symbols that would have saved the most: each one used, and each
    /// pair used one after the other that fits eight bytes; then the
    /// sample's characters, while there is room. A symbol reached two ways is
    /// taken once, and of the long ones one per hash slot.
    fn best(&self) -> SymbolTable {
        let mut candidates: Vec<u128> = Vec::with_capacity(CODES + self.touched.len());
        candidates.extend((0..CODES).filter(|c| self.single[*c] > 0).map(|c| self.gain(c)));
        for &p in &self.touched {
            let ((first, l1), (second, l2)) = (self.symbols[p / CODES], self.symbols[p % CODES]);
            if l1 + l2 <= MAX_LEN {
                candidates.push(candidate(first | second << (8 * l1), l1 + l2, u64::from(self.pair[p]) * (l1 + l2) as u64));
            }
        }
        candidates.sort_unstable();
        // a bit per hash slot, and per `(len - 1) << 16 | word` of a short symbol
        let mut taken = vec![0u64; ((1 << HASH_BITS) + (2 << 16)) / 64];
        let mut table = SymbolTable::empty();
        for &key in candidates.iter().chain(&self.chars) {
            if table.n == MAX_SYMBOLS {
                break;
            }
            let (word, len) = (key as u64, MAX_LEN - ((key >> 64) & 0xF) as usize);
            let bit = match len {
                1 | 2 => (len - 1) << 16 | word as usize,
                _ => (2 << 16) + slot(word),
            };
            let (at, mask) = (bit / 64, 1 << (bit % 64));
            if taken[at] & mask == 0 {
                taken[at] |= mask;
                table.push(word, len);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(table: &SymbolTable, s: &str) -> Vec<u8> {
        let mut codes = Vec::new();
        Encoder::new(table).encode(s, &mut codes);
        table.check(&codes).unwrap();
        let mut back = b"kept".to_vec();
        table.decode_into(&codes, &mut back).unwrap();
        assert_eq!(&back[4..], s.as_bytes(), "{s:?} through {table:?}");
        codes
    }

    /// `n` strings of 3 to 11 words drawn from a small lexicon.
    fn words(n: usize) -> Vec<String> {
        let lexicon = ["love", "like", "the", "verizon", "samsung", "at&t", "signal", "customization", "3G", "can't"];
        let mut state = 7u64;
        let mut draw = |below: usize| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % below
        };
        (0..n).map(|_| (0..3 + draw(9)).map(|_| format!(" {}", lexicon[draw(lexicon.len())])).collect()).collect()
    }

    #[test]
    fn text_of_few_words_codes_to_a_fraction_and_decodes_back() {
        let text = words(1_000);
        let strs: Vec<&str> = text.iter().map(String::as_str).collect();
        let table = SymbolTable::train(&strs).unwrap();
        assert!(table.len() <= MAX_SYMBOLS);
        let (plain, coded): (usize, usize) = strs.iter().fold((0, 0), |(p, c), s| (p + s.len(), c + round_trip(&table, s).len()));
        assert!(coded * 4 < plain, "{coded} of {plain} bytes");
        // the table is what it reads back as, and training is deterministic
        let mut bytes = Vec::new();
        table.write(&mut bytes);
        assert!(bytes.len() <= 1 + MAX_SYMBOLS * 9);
        assert_eq!(SymbolTable::read(&bytes).unwrap(), (Some(table.clone()), bytes.len()));
        assert_eq!(SymbolTable::train(&strs), Some(table));
    }

    #[test]
    fn any_string_goes_through_any_table() {
        let every_char: String = (0..=0x2FFu32).chain([0x20AC, 0xFFFD, 0x1F600, 0x10FFFF]).filter_map(char::from_u32).collect();
        let odd = ["", "\0", "\0\0\0\0\0\0\0\0\0", "é", "ééé", "日本語のテキスト", "a\u{1F600}b", "\u{7F}\u{80}"];
        let tables = [
            SymbolTable::train(&["the cat", "the hat", "\0\0\0"]).unwrap(),
            SymbolTable::train(&[&every_char]).unwrap(),
            SymbolTable::train(&odd).unwrap(),
        ];
        for table in &tables {
            for s in odd.iter().copied().chain([every_char.as_str(), "a string no sample had: ±∞"]) {
                round_trip(table, s);
            }
        }
        assert!(SymbolTable::train(&["", ""]).is_none(), "nothing to code");
        assert!(round_trip(&tables[0], "").is_empty());
    }

    #[test]
    fn escapes_carry_whole_characters() {
        let table = SymbolTable::train(&["aaaa"]).unwrap();
        let codes = round_trip(&table, "aé€😀");
        // `a` is a symbol; the rest are escaped one character at a time
        assert_eq!(codes.iter().filter(|c| **c == ESCAPE).count(), 3);
        assert_eq!(codes.len(), 1 + 3 + 2 + 3 + 4);
    }

    #[test]
    fn damaged_codes_and_tables_are_errors_not_invalid_text() {
        let table = SymbolTable::train(&["hello world", "héllo wörld"]).unwrap();
        let mut codes = Vec::new();
        Encoder::new(&table).encode("héllo wörld ☃", &mut codes);
        for cut in 0..codes.len() {
            let mut out = b"x".to_vec();
            match table.decode_into(&codes[..cut], &mut out) {
                Ok(()) => assert!(std::str::from_utf8(&out).is_ok()),
                Err(e) => {
                    assert!(matches!(e, AdmError::Serde(_)));
                    assert_eq!(out, b"x", "an error leaves the output as it was");
                    assert!(table.check(&codes[..cut]).is_err());
                }
            }
        }
        for at in 0..codes.len() {
            for flip in [0x01, 0x40, 0x80, 0xFF] {
                let mut bad = codes.clone();
                bad[at] ^= flip;
                let mut out = Vec::new();
                match table.decode_into(&bad, &mut out) {
                    Ok(()) => {
                        assert!(std::str::from_utf8(&out).is_ok());
                        assert!(table.check(&bad).is_ok());
                    }
                    Err(_) => assert!(table.check(&bad).is_err()),
                }
            }
        }
        assert!(table.decode_into(&[table.len() as u8], &mut Vec::new()).is_err(), "a code past the symbols");
        let mut bytes = Vec::new();
        table.write(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(SymbolTable::read(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for (at, bad) in [(1, 0), (1, 9)] {
            let mut doctored = bytes.clone();
            doctored[at] = bad;
            assert!(SymbolTable::read(&doctored).is_err(), "a symbol of {bad} bytes");
        }
        // a symbol that is half a character
        let mut half = vec![1, 1, 0xC3];
        assert!(SymbolTable::read(&half).is_err());
        half[2] = b'a';
        assert_eq!(SymbolTable::read(&half).unwrap().1, 3);
        assert_eq!(SymbolTable::read(&[0]).unwrap(), (None, 1));
    }

    /// A column of `string` cells: trained on those that are text, each
    /// coded on its own and decoded back to its cell; a cell that is no
    /// string of UTF-8 stops the coding.
    #[test]
    fn a_column_of_string_cells_codes_and_decodes_cell_by_cell() {
        use crate::binary::{encode, put_var_cell, T_STRING};
        use crate::Value;
        let texts = ["the network signal", "día de la señal", "", "the signal of the network"];
        let cells: Vec<Vec<u8>> = texts.iter().map(|t| encode(&Value::from(*t))).collect();
        let (null, mut not_utf8) = (encode(&Value::Null), Vec::new());
        put_var_cell(&mut not_utf8, T_STRING, &[0xC3]);
        let mixed = cells.iter().chain([&null, &not_utf8]).map(Vec::as_slice);
        let table = SymbolTable::train_cells(mixed).unwrap();
        assert_eq!(Some(table.clone()), SymbolTable::train(&texts));
        let encoder = Encoder::new(&table);
        let (mut codes, mut lens) = (Vec::new(), Vec::new());
        let plain = encoder.encode_cells(cells.iter().map(Vec::as_slice), &mut codes, |len| lens.push(len));
        assert_eq!(plain, Some(texts.iter().map(|t| t.len()).sum()));
        assert_eq!(lens.iter().sum::<usize>(), codes.len());
        let mut at = 0;
        for (cell, len) in cells.iter().zip(lens) {
            let mut back = b"kept".to_vec();
            table.decode_cell(&codes[at..at + len], &mut back).unwrap();
            assert_eq!(&back[4..], cell.as_slice());
            at += len;
        }
        for bad in [&null, &not_utf8] {
            let column = [cells[0].as_slice(), bad];
            assert_eq!(encoder.encode_cells(column, &mut Vec::new(), |_| {}), None, "{bad:?}");
        }
    }
}
