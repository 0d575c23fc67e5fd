//! The codec of a log block: a sync's record stream in, the block's body
//! out ([`Coder::encode`]), and back ([`decode`]). It knows the block's
//! shapes and the forms of its streams and nothing of the log — no file,
//! offset, LSN or counter; [`crate::wal`] keeps the records, frames each
//! body with its length and checksum, and writes, syncs and rotates the
//! files. A body is
//!
//! ```text
//! [tag][raw_len varint][payload]
//! ```
//!
//! where `raw_len` is the record stream's length: every record after its
//! LEB128 length. The payload is one of three shapes, whichever `raw_len`
//! calls for and takes fewer bytes than the stream itself, or else the
//! stream as it is (`BLOCK_RAW`):
//!
//! * up to `SMALL_BLOCK` bytes of records, the stream coded whole
//!   (`BLOCK_CODED`; `crate::lz`: an LZ77 parse whose byte streams are each
//!   Huffman-coded);
//! * past that, the stream *split* into streams of like bytes, each coded on
//!   its own (`BLOCK_SPLIT`), so that a message's random location bytes, its
//!   text and its ids each get their own window and Huffman tables:
//!   * *headers*: per put whose value reads as a row to its last byte, its
//!     tag, the varints of transaction, dataset and partition, and the
//!     varint of its key's length — or, where the key is
//!     [`asterix_adm::binary::encode_key`] of one of its row's cells,
//!     `CELL_KEYED` and that cell's declared position in their stead; per
//!     other record, `WHOLE`, then the record with its length;
//!   * *keys*: the keys of those puts that no cell gives;
//!   * *rows*: per such put, its row's declared count, presence bitmap and
//!     open part ([`asterix_adm::layout::split_row`]);
//!   * *cells `i`*, for each declared position `i` up to the largest
//!     declared count in the block: the cell of the `i`-th declared field of
//!     every such put that has it.
//!
//! Each stream of cells is held in the one form its cells call for — the
//! tag they share, learned as the block is split — a fact of the block,
//! like raw or coded:
//!   * all `int`s: their zigzag varints without their tags, or the zigzag
//!     varints of each one's (wrapping) difference from the one before,
//!     whichever a count of their bytes, taken before either is written,
//!     says is shorter;
//!   * all of one fixed-width type (`double`, `point`, …): the tag once, then
//!     byte 0 of every cell, byte 1 of every cell, and so on;
//!   * all `string`s, [`asterix_adm::fsst::SAMPLE_BYTES`] or more of them: an
//!     FSST table trained on the block's strings, each string's code count
//!     and the codes — kept only where that codes shorter than the cells as
//!     they are; trained, coded and decoded by the helpers the leaf groups
//!     use (`SymbolTable::train_cells`, `Encoder::encode_cells`,
//!     `SymbolTable::decode_cell`);
//!   * any other stream — a mix, an optional field's `null` among `int`s —
//!     as it is.
//!
//! A split payload is the count of streams, then per stream — a stream of
//! cells after the byte of its form — its varint length, the varint length
//! of its coding and that coding, or a 0 and the stream as it is, where
//! coding does not shrink it. A split put's length is not stored, nor is a
//! key its cell gives: decoding puts the record together again and takes
//! both from what it put together. A block's bytes depend on its records
//! alone: a coder keeps only scratch from one block to the next.

use crate::error::{Result, StorageError};
use crate::le::{Cursor, Format};
use crate::lz;
use crate::wal::{encode_write, write_ids, WriteRef, TAG_PUT};
use asterix_adm::binary::{
    cell_key_into, encode_into, fixed_width, int_cell, put_len_prefixed, put_varint, put_zigzag, string_cell, unzigzag,
    Decoder,
};
use asterix_adm::fsst::{Encoder, SymbolTable, SAMPLE_BYTES};
use asterix_adm::layout::{join_row, split_row};
use asterix_adm::Value;
use std::borrow::Cow;
use std::fmt::Display;

/// Tag bytes of a block: its payload is the record stream as it is, coded
/// whole, or split into streams that are coded each on its own.
const BLOCK_RAW: u8 = 0x20;
const BLOCK_CODED: u8 = 0x22;
const BLOCK_SPLIT: u8 = 0x26;
/// The block's header (see [`crate::le`]): its tag.
pub(crate) const FORMAT: Format =
    Format { kind: "log block", headers: &[&[BLOCK_RAW], &[BLOCK_CODED], &[BLOCK_SPLIT]] };

/// What leads a record in a split block's headers stream, but for a split
/// put without a cell that gives its key, which leads with [`TAG_PUT`].
const WHOLE: u8 = 0;
const CELL_KEYED: u8 = 1;
/// A split block's first three streams; the cells of declared position `i`
/// are stream `CELLS + i`.
const HEADERS: usize = 0;
const KEYS: usize = 1;
const ROWS: usize = 2;
const CELLS: usize = 3;

/// The form of a split block's stream of cells, the byte before its
/// lengths (see the module doc).
const AS_IS: u8 = 0;
const INTS: u8 = 1;
const DELTAS: u8 = 2;
const PLANES: u8 = 3;
const FSST: u8 = 4;

/// Record-stream bytes up to which a block is coded whole: below that, its
/// streams coded apart cost more in framing and in matches lost between them
/// than their own Huffman tables save. For generated messages the two meet
/// at about eight records, 750 bytes.
const SMALL_BLOCK: usize = 3 << 8;

/// Payload bytes of a block by stream kind — headers, keys, rows, cells. A
/// raw or whole-coded block's are all headers: it keeps every record whole.
pub(crate) type StreamBytes = [u64; 4];

/// The error of a block that does not read.
fn corrupt(why: impl Display) -> StorageError {
    StorageError::Corrupt(format!("log block: {why}"))
}

/// Bytes of the zigzag varint of `v`.
fn zigzag_len(v: i64) -> usize {
    let z = ((v << 1) ^ (v >> 63)) as u64;
    (64 - z.leading_zeros()).max(1).div_ceil(7) as usize
}

/// The tag every cell of a stream shares, learned cell by cell as a block
/// is split: a cell's tag is its type, and a cell that split whole is a
/// whole value of it.
#[derive(Clone, Copy)]
enum Tag {
    /// No cell yet.
    None,
    One(u8),
    Mixed,
}

impl Tag {
    /// The tag once `cell` — empty for an absent field — is among them.
    fn with(self, cell: &[u8]) -> Tag {
        match (self, cell.first()) {
            (_, None) => self,
            (Tag::None, Some(&tag)) => Tag::One(tag),
            (Tag::One(t), Some(&tag)) if t == tag => self,
            _ => Tag::Mixed,
        }
    }
}

/// Each cell of a stream of cells, in order. The stream was made of whole
/// cells, so none is cut short.
fn each_cell(stream: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut d = Decoder::new(stream);
    std::iter::from_fn(move || {
        let start = d.position();
        d.skip_value().ok()?;
        Some(&stream[start..d.position()])
    })
}

/// Appends the stream of cells `stream`, whose cells all have the tag
/// `tag`, in the form that tag calls for and returns the form; [`AS_IS`],
/// with nothing appended, where none does. An FSST form is not yet known to
/// code shorter than the stream as it is.
fn form_of(tag: Tag, stream: &[u8], out: &mut Vec<u8>) -> u8 {
    let (Tag::One(tag), Some(first)) = (tag, each_cell(stream).next()) else { return AS_IS };
    if int_cell(first).is_some() {
        // the byte counts decide between values and differences
        let (mut values, mut deltas, mut last) = (0, 0, 0i64);
        for v in each_cell(stream).filter_map(int_cell) {
            (values, deltas, last) = (values + zigzag_len(v), deltas + zigzag_len(v.wrapping_sub(last)), v);
        }
        let form = if deltas < values { DELTAS } else { INTS };
        last = 0;
        for v in each_cell(stream).filter_map(int_cell) {
            put_zigzag(out, if form == DELTAS { v.wrapping_sub(last) } else { v });
            last = v;
        }
        return form;
    }
    if let Some(width) = fixed_width(tag) {
        let n = stream.len() / (1 + width);
        out.push(tag);
        let planes = out.len();
        out.resize(planes + n * width, 0);
        for (i, cell) in stream.chunks_exact(1 + width).enumerate() {
            for (j, byte) in cell[1..].iter().enumerate() {
                out[planes + j * n + i] = *byte;
            }
        }
        return PLANES;
    }
    if string_cell(first).is_none() || stream.len() < SAMPLE_BYTES {
        return AS_IS;
    }
    let Some(table) = SymbolTable::train_cells(each_cell(stream)) else { return AS_IS };
    let start = out.len();
    table.write(out);
    put_varint(out, each_cell(stream).count() as u64);
    let mut codes = Vec::with_capacity(stream.len());
    let code_count = |len: usize| put_varint(out, len as u64);
    // a row's bytes were not read as text, so a string may be no UTF-8
    if Encoder::new(&table).encode_cells(each_cell(stream), &mut codes, code_count).is_none() {
        out.truncate(start);
        return AS_IS;
    }
    out.extend_from_slice(&codes);
    FSST
}

/// The stream of cells that `held`, of the form `form`, holds; `room` is
/// what the block's streams may still take, and shrinks by what this one
/// does. Every count and length is checked against the bytes that hold it
/// before anything is sized by it.
fn cells_of<'a>(form: u8, held: Cow<'a, [u8]>, room: &mut usize) -> Result<Cow<'a, [u8]>> {
    let mut out = Vec::new();
    match form {
        AS_IS => {
            *room = room.checked_sub(held.len()).ok_or_else(|| corrupt("streams past the block's records"))?;
            return Ok(held);
        }
        INTS | DELTAS => {
            let (mut c, mut last) = (Cursor::new(&held), 0i64);
            while c.pos() < held.len() {
                let v = unzigzag(c.varint()?);
                last = if form == DELTAS { last.wrapping_add(v) } else { v };
                encode_into(&Value::Int(last), &mut out);
                if out.len() > *room {
                    return Err(corrupt("`int`s past the block's records"));
                }
            }
        }
        PLANES => {
            let [tag, planes @ ..] = &held[..] else { return Err(corrupt("planes of no type")) };
            let width = fixed_width(*tag).ok_or_else(|| corrupt(format!("planes of tag {tag}, no fixed width")))?;
            if planes.len() % width != 0 {
                return Err(corrupt(format!("{} bytes in {width} planes", planes.len())));
            }
            let n = planes.len() / width;
            if n * (1 + width) > *room {
                return Err(corrupt("planes past the block's records"));
            }
            out.reserve(n * (1 + width));
            for i in 0..n {
                out.push(*tag);
                out.extend((0..width).map(|j| planes[j * n + i]));
            }
        }
        FSST => {
            let (table, used) = SymbolTable::read(&held).map_err(|e| corrupt(format!("its FSST table: {e}")))?;
            let table = table.ok_or_else(|| corrupt("an FSST table of no symbols"))?;
            let mut c = Cursor::at(&held, used);
            let count: usize = c.varint()?;
            // a code count takes a byte at least
            if count > held.len() - c.pos() {
                return Err(corrupt(format!("{count} strings in {} bytes", held.len() - c.pos())));
            }
            let lengths = c.pos();
            let mut coded = 0usize;
            for _ in 0..count {
                coded = coded.saturating_add(c.varint()?);
            }
            let codes = c.rest();
            if coded != codes.len() {
                return Err(corrupt(format!("code counts of {coded} bytes for {} of codes", codes.len())));
            }
            let (mut c, mut at) = (Cursor::at(&held, lengths), 0);
            for _ in 0..count {
                let len: usize = c.varint()?;
                table.decode_cell(&codes[at..at + len], &mut out).map_err(|e| corrupt(format!("its strings: {e}")))?;
                at += len;
                if out.len() > *room {
                    return Err(corrupt("`string`s past the block's records"));
                }
            }
        }
        _ => return Err(corrupt(format!("a stream of cells of form {form}"))),
    }
    *room -= out.len();
    Ok(Cow::Owned(out))
}

/// Codes record streams into block bodies. It keeps only scratch — the LZ
/// coder and the streams a block is split into — from one block to the
/// next, so that coding one allocates little beyond its output.
#[derive(Default)]
pub(crate) struct Coder {
    lz: lz::Coder,
    /// Headers, keys, rows, then the cells of each declared position.
    streams: Vec<Vec<u8>>,
    /// The tag the cells of each declared position share.
    tags: Vec<Tag>,
    /// Scratch: a cell's key, a stream in its form, codings.
    key: Vec<u8>,
    form: Vec<u8>,
    coded: Vec<u8>,
    alt: Vec<u8>,
}

impl Coder {
    /// Appends to `out` the body of the record stream `records` — its tag,
    /// the stream's length and the payload: the stream coded whole up to
    /// [`SMALL_BLOCK`] bytes, split and each stream coded past that, or as
    /// it is where coding does not shrink it — and returns the payload's
    /// bytes by stream kind.
    pub(crate) fn encode(&mut self, records: &[u8], out: &mut Vec<u8>) -> StreamBytes {
        let start = out.len();
        out.push(BLOCK_CODED);
        put_varint(out, records.len() as u64);
        let payload = out.len();
        let split = if records.len() > SMALL_BLOCK { self.split(records) } else { None };
        let mut kinds = match split {
            Some(used) => {
                out[start] = BLOCK_SPLIT;
                self.code(used, out)
            }
            None => {
                self.lz.compress(records, out);
                [(out.len() - payload) as u64, 0, 0, 0]
            }
        };
        if out.len() - payload >= records.len() {
            out.truncate(payload);
            out[start] = BLOCK_RAW;
            out.extend_from_slice(records);
            kinds = [records.len() as u64, 0, 0, 0];
        }
        kinds
    }

    /// Splits the record stream `records` into `self.streams`, learning
    /// the tag each stream of cells shares; returns how many streams it fills
    /// (`None` when `records` is not a record stream).
    fn split(&mut self, records: &[u8]) -> Option<usize> {
        self.streams.resize_with(self.streams.len().max(CELLS), Vec::new);
        for stream in &mut self.streams {
            stream.clear();
        }
        self.tags.clear();
        let (mut used, mut cells, mut key_at) = (CELLS, Vec::new(), 0);
        let mut c = Cursor::new(records);
        while c.pos() < records.len() {
            let at = c.pos();
            let len = c.varint().ok()?;
            let record = c.bytes(len).ok()?;
            cells.clear();
            let put = WriteRef::read(record).ok().filter(|w| !w.is_delete);
            let parts = put.and_then(|w| Some((w.ids, w.key, split_row(w.value, |cell| cells.push(cell)).ok()?)));
            let Some((ids, key, (head, open))) = parts else {
                self.streams[HEADERS].push(WHOLE);
                self.streams[HEADERS].extend_from_slice(&records[at..c.pos()]);
                continue;
            };
            used = used.max(CELLS + cells.len());
            self.streams.resize_with(self.streams.len().max(used), Vec::new);
            self.tags.resize(used - CELLS, Tag::None);
            let keyed = self.key_cell(&mut key_at, key, &cells);
            let headers = &mut self.streams[HEADERS];
            headers.push(if keyed.is_some() { CELL_KEYED } else { TAG_PUT });
            headers.extend_from_slice(ids);
            match keyed {
                Some(i) => put_varint(headers, i as u64),
                None => {
                    put_varint(headers, key.len() as u64);
                    self.streams[KEYS].extend_from_slice(key);
                }
            }
            self.streams[ROWS].extend_from_slice(head);
            self.streams[ROWS].extend_from_slice(open);
            for ((stream, tag), cell) in self.streams[CELLS..].iter_mut().zip(&mut self.tags).zip(&cells) {
                stream.extend_from_slice(cell);
                *tag = tag.with(cell);
            }
        }
        Some(used)
    }

    /// The declared position of a cell of `cells` whose value's key is
    /// `key`: `key_at`, where the block's last such put had it, first, as a
    /// dataset's puts share theirs; `key_at` moves to what is found.
    fn key_cell(&mut self, key_at: &mut usize, key: &[u8], cells: &[&[u8]]) -> Option<usize> {
        let found = std::iter::once(*key_at).chain(0..cells.len()).find(|&i| {
            self.key.clear();
            cells.get(i).is_some_and(|cell| cell_key_into(cell, &mut self.key).is_ok() && self.key == key)
        })?;
        *key_at = found;
        Some(found)
    }

    /// Appends the payload of the first `used` streams — their count, then
    /// per stream (a stream of cells after its form) its length, the length
    /// of its coding (an LZ77 parse) and the coding, or a 0 and the stream
    /// as it is where coding does not shrink it — and returns its bytes by
    /// stream kind.
    fn code(&mut self, used: usize, out: &mut Vec<u8>) -> StreamBytes {
        let Coder { lz, streams, tags, form, coded, alt, .. } = self;
        put_varint(out, used as u64);
        let mut kinds = [0; 4];
        for (i, stream) in streams[..used].iter().enumerate() {
            form.clear();
            let mut shape = match i.checked_sub(CELLS) {
                Some(at) => form_of(tags[at], stream, form),
                None => AS_IS,
            };
            let mut held: &[u8] = if shape == AS_IS { stream } else { form };
            let mut size = code_into(lz, held, coded);
            if shape == FSST {
                // the table and the code counts must pay for themselves, and
                // no form outgrows its stream: a decoder bounds the streams
                // by the records they make
                let plain = code_into(lz, stream, alt);
                if plain <= size || form.len() > stream.len() {
                    (shape, held, size) = (AS_IS, stream, plain);
                    std::mem::swap(coded, alt);
                }
            }
            if i >= CELLS {
                out.push(shape);
            }
            put_varint(out, held.len() as u64);
            let bytes = if size < held.len() {
                put_varint(out, coded.len() as u64);
                &coded[..]
            } else {
                put_varint(out, 0);
                held
            };
            out.extend_from_slice(bytes);
            kinds[i.min(CELLS)] += bytes.len() as u64;
        }
        kinds
    }
}

/// Codes `bytes` into `coded` (cleared first), and returns what the stream
/// will take: the coding, or `bytes` as they are where that is no shorter.
fn code_into(lz: &mut lz::Coder, bytes: &[u8], coded: &mut Vec<u8>) -> usize {
    coded.clear();
    if !bytes.is_empty() {
        lz.compress(bytes, coded);
    }
    coded.len().min(bytes.len())
}

/// The record stream of a block body: [`Coder::encode`] reversed.
pub(crate) fn decode(body: &[u8]) -> Result<Cow<'_, [u8]>> {
    let mut c = Cursor::new(body);
    let tag = c.header(&FORMAT)?;
    let raw_len = c.varint()?;
    let payload = c.rest();
    let stream = match tag {
        [BLOCK_SPLIT] => return join_block(payload, raw_len).map(Cow::Owned),
        [BLOCK_RAW] => (payload.len() == raw_len).then_some(Cow::Borrowed(payload)),
        _ => lz::decompress(payload, raw_len).map(Cow::Owned),
    };
    stream.ok_or_else(|| corrupt(format!("its payload is not a stream of {raw_len} bytes")))
}

/// The record stream of a split block of `raw_len` bytes, from its payload:
/// each stream decoded and put back in its cells, then every record put
/// together again in the order the headers stream gives, a key its cell
/// gives derived from that cell. Every length is checked against `raw_len`
/// before anything is sized by it, and a stream with bytes that no record
/// takes is refused.
fn join_block(payload: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let mut c = Cursor::new(payload);
    let count: usize = c.varint()?;
    // a stream takes two bytes at least
    if count < CELLS || count > payload.len() / 2 {
        return Err(corrupt(format!("{count} streams in {} bytes", payload.len())));
    }
    // a put's bytes are in its streams once, but for a key its cell gives,
    // and a record kept whole with one more, so the streams hold at most
    // twice the records, in their forms and put back in their cells
    let (mut streams, mut total, mut room) = (Vec::with_capacity(count), 0usize, raw_len.saturating_mul(2));
    for i in 0..count {
        let form = if i < CELLS { AS_IS } else { c.u8()? };
        let len: usize = c.varint()?;
        total = total.saturating_add(len);
        if total > raw_len.saturating_mul(2) {
            return Err(corrupt(format!("streams of over {total} bytes for {raw_len} of records")));
        }
        let held = match c.varint()? {
            0 => Cow::Borrowed(c.bytes(len)?),
            coded => Cow::Owned(
                lz::decompress(c.bytes(coded)?, len)
                    .ok_or_else(|| corrupt(format!("a stream that does not decode to {len} bytes")))?,
            ),
        };
        streams.push(cells_of(form, held, &mut room)?);
    }
    if c.pos() != payload.len() {
        return Err(corrupt(format!("{} bytes after its streams", payload.len() - c.pos())));
    }
    let [headers, keys, rows, cells @ ..] = streams.as_slice() else {
        return Err(corrupt("fewer than three streams"));
    };
    let (mut h, mut k, mut rows) = (Cursor::new(headers), Cursor::new(keys), Decoder::new(rows));
    let mut columns: Vec<Decoder> = cells.iter().map(|cells| Decoder::new(cells)).collect();
    // what the streams hold, not what `raw_len` says, sizes the records
    let mut out = Vec::with_capacity(raw_len.min(raw_len.saturating_mul(2) - room));
    let mut derived = Vec::new();
    while h.pos() < headers.len() {
        let start = h.pos();
        let tag = h.u8()?;
        if tag == WHOLE {
            let len: usize = h.varint()?;
            h.bytes(len)?;
            out.extend_from_slice(&headers[start + 1..h.pos()]);
        } else if tag == TAG_PUT || tag == CELL_KEYED {
            let (txn_id, dataset, partition) = write_ids(&mut h)?;
            // the cell that gives the key, and where its stream stands
            let mut from = None;
            let key = if tag == TAG_PUT {
                let klen = h.varint()?;
                k.bytes(klen)?
            } else {
                let at: usize = h.varint()?;
                let (Some(column), Some(stream)) = (columns.get(at), cells.get(at)) else {
                    return Err(corrupt(format!("a key from the cells of declared field {at}, which the block has not")));
                };
                let mut cell = Decoder::new(&stream[column.position()..]);
                cell.skip_value().map_err(|e| corrupt(format!("a key's cell: {e}")))?;
                derived.clear();
                cell_key_into(&stream[column.position()..][..cell.position()], &mut derived)
                    .map_err(|e| corrupt(format!("a key's cell: {e}")))?;
                from = Some((at, column.position() + cell.position()));
                &derived[..]
            };
            put_len_prefixed(&mut out, |record| {
                encode_write(record, txn_id, dataset, partition, key, Some(&[]));
                join_row(&mut rows, &mut columns, record)
            })
            .map_err(|e| corrupt(format!("a put's row does not join: {e}")))?;
            // the row took the cell its key came from
            if from.is_some_and(|(at, end)| columns[at].position() != end) {
                return Err(corrupt("a key from a cell its row has not"));
            }
        } else {
            return Err(corrupt(format!("a record led by {tag} in its headers")));
        }
        if out.len() > raw_len {
            return Err(corrupt(format!("records of over {raw_len} bytes")));
        }
    }
    if k.pos() != keys.len() || !rows.is_done() || !columns.iter().all(Decoder::is_done) {
        return Err(corrupt("a stream with bytes no record takes"));
    }
    if out.len() != raw_len {
        return Err(corrupt(format!("{} bytes of records, not {raw_len}", out.len())));
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wal::WalRecord;
    use asterix_adm::Point;
    use rand::{Rng, SeedableRng};

    /// A message the way a Gleambook load logs it: the storage encoding of
    /// ids, a location and a text of 3 to 11 words.
    pub(crate) fn message_row(rng: &mut impl Rng, id: i64) -> Vec<u8> {
        const WORDS: [&str; 16] = [
            "love", "like", "hate", "the", "its", "verizon", "samsung", "apple", "platform", "speed",
            "voice", "command", "network", "signal", "customization", "reachability",
        ];
        let words = rng.gen_range(3..12);
        let text: Vec<&str> = (0..words).map(|_| WORDS[rng.gen_range(0..WORDS.len())]).collect();
        let location = Point::new(rng.gen_range(0.0..90.0), rng.gen_range(0.0..180.0));
        let message = Value::object(vec![
            ("messageId".into(), Value::Int(id)),
            ("authorId".into(), Value::Int(rng.gen_range(1..=1_000))),
            ("senderLocation".into(), Value::Point(location)),
            ("message".into(), Value::from(text.join(" "))),
        ]);
        let types = asterix_adm::types::gleambook_types();
        asterix_adm::RecordLayout::new(types.get("GleambookMessageType").unwrap()).encode(&message).unwrap()
    }

    /// The body of one block: `tag`, `raw_len`, `payload`.
    fn body(tag: u8, raw_len: u64, payload: &[u8]) -> Vec<u8> {
        let mut body = vec![tag];
        put_varint(&mut body, raw_len);
        body.extend_from_slice(payload);
        body
    }

    /// The record stream of `records`: each after its length.
    fn stream_of(records: &[WalRecord]) -> Vec<u8> {
        let mut stream = Vec::new();
        for record in records {
            put_len_prefixed(&mut stream, |buf| record.encode_into(buf));
        }
        stream
    }

    /// The records of the block body `body` as a log reads them back: its
    /// record stream decoded, then each record.
    fn read(body: &[u8]) -> Result<Vec<WalRecord>> {
        let stream = decode(body)?;
        let (mut c, mut records) = (Cursor::new(&stream), Vec::new());
        while c.pos() < stream.len() {
            let len = c.varint()?;
            records.push(WalRecord::decode(c.bytes(len)?)?);
        }
        Ok(records)
    }

    #[test]
    fn a_stream_length_the_block_cannot_hold_is_refused_without_allocating() {
        let refused = |body: Vec<u8>| matches!(read(&body), Err(StorageError::Corrupt(_)));
        // a block of "abc" coded whole that says it decodes to 2^40 or to
        // u64::MAX: refused before a buffer of that size is asked for
        let mut abc = Vec::new();
        lz::Coder::default().compress(b"abc", &mut abc);
        for raw_len in [1u64 << 40, u64::MAX] {
            assert!(refused(body(BLOCK_CODED, raw_len, &abc)), "raw_len {raw_len}");
        }
        // a split block of one commit: three streams as they are, headers
        // of eleven bytes, keys and rows empty
        let commit = [WHOLE, 9, 2, 1, 0, 0, 0, 0, 0, 0, 0];
        let payload = [&[3, 11, 0][..], &commit, &[0, 0, 0, 0]].concat();
        assert_eq!(read(&body(BLOCK_SPLIT, 10, &payload)).unwrap(), [WalRecord::Commit { txn_id: 1 }]);
        // the same streams said to make 2^40 or u64::MAX bytes of records
        for raw_len in [1u64 << 40, u64::MAX] {
            assert!(refused(body(BLOCK_SPLIT, raw_len, &payload)), "raw_len {raw_len}");
        }
        // a headers stream that says it is 2^40 bytes, as it is or coded
        // from "abc", in a block of 10 bytes of records or of 2^40
        for (raw_len, coded) in [(10, false), (10, true), (1 << 40, true)] {
            let mut payload = vec![3];
            put_varint(&mut payload, 1 << 40);
            if coded {
                put_varint(&mut payload, abc.len() as u64);
                payload.extend_from_slice(&abc);
            } else {
                payload.push(0);
            }
            payload.extend_from_slice(&[0, 0, 0, 0]);
            assert!(refused(body(BLOCK_SPLIT, raw_len, &payload)), "{raw_len} coded {coded}");
        }
        // 2^40 streams, or two
        let mut count = Vec::new();
        put_varint(&mut count, 1 << 40);
        for head in [&count[..], &[2]] {
            assert!(refused(body(BLOCK_SPLIT, 10, &[head, &payload[1..]].concat())), "{head:?}");
        }
        // a raw block whose stream length is not its payload's
        assert!(refused(body(BLOCK_RAW, 9, &[0])));
    }

    /// A row of a type of two declared fields — an `int` and an optional
    /// list — and now and then an open one.
    fn pair_row(rng: &mut impl Rng, id: i64) -> Vec<u8> {
        use asterix_adm::types::{Field, ObjectType, TypeExpr};
        let ty = ObjectType::open(
            "Pair",
            vec![
                Field::required("id", TypeExpr::named("int")),
                Field::optional("tags", TypeExpr::Array(Box::new(TypeExpr::named("string")))),
            ],
        );
        let mut fields = vec![("id".to_string(), Value::Int(id))];
        if rng.gen_bool(0.5) {
            fields.push(("tags".into(), Value::Array((0..rng.gen_range(0..3)).map(|t| Value::from(format!("t{t}"))).collect())));
        }
        if rng.gen_bool(0.3) {
            fields.push(("note".into(), Value::from("open")));
        }
        asterix_adm::RecordLayout::new(&ty).encode(&Value::object(fields)).unwrap()
    }

    /// A double at an edge of its bits, or any one.
    fn edge_double(rng: &mut impl Rng) -> f64 {
        const BITS: [u64; 7] = [
            0x7FF8_0000_0000_0000,     // the quiet NaN
            0xFFF0_0000_0000_0ABC,     // a signalling NaN with a payload and its sign
            0x8000_0000_0000_0000,     // -0.0
            0x0000_0000_0000_0001,     // the least subnormal
            0x800F_FFFF_FFFF_FFFF,     // the greatest negative subnormal
            0x7FF0_0000_0000_0000,     // +inf
            0x0000_0000_0000_0000,     // 0.0
        ];
        match rng.gen_range(0..BITS.len() + 2) {
            i if i < BITS.len() => f64::from_bits(BITS[i]),
            _ => rng.gen_range(-1e6..1e6),
        }
    }

    /// A string of words, some of several bytes a character, and now and
    /// then a character from anywhere that a table trained on the rest
    /// would escape.
    fn edge_string(rng: &mut impl Rng) -> String {
        const WORDS: [&str; 10] = ["día", "naïve", "日本語", "😀", "Ω", "tab\t", "nul\0", "network", "signal", "the"];
        let mut s = String::new();
        for _ in 0..rng.gen_range(0..90) {
            match char::from_u32(rng.gen_range(0x80..0x3_0000)).filter(|_| rng.gen_bool(0.05)) {
                Some(rare) => s.push(rare),
                None => s.push_str(WORDS[rng.gen_range(0..WORDS.len())]),
            }
            s.push(' ');
        }
        s
    }

    /// A row of a type whose every form meets its edges, and the `int` its
    /// key is made from. Declared positions 0, 3 and 4 are a message's
    /// `int`, `point` and `string`; the rest are its own: a `double` where a
    /// message's other `int` is, an optional `int` now and then `null` (its
    /// stream then keeps no form), `int`s that are mostly `i64::MIN` and
    /// `i64::MAX` in turn (their differences wrap), and `double`s of NaN,
    /// -0.0, subnormal and infinite bits, as are the points'.
    fn edge_row(rng: &mut impl Rng, id: i64) -> (i64, Vec<u8>) {
        use asterix_adm::types::{Field, ObjectType, TypeExpr};
        let named = |name: &str, ty: &str| Field::required(name, TypeExpr::named(ty));
        let ty = ObjectType::closed(
            "Edges",
            vec![
                named("m", "int"),
                named("d", "double"),
                Field::optional("maybe", TypeExpr::named("int")),
                named("p", "point"),
                named("s", "string"),
                named("n", "int"),
                named("e", "double"),
            ],
        );
        let n = match rng.gen_range(0..5) {
            0 => rng.gen_range(-3..3),
            _ if id % 2 == 0 => i64::MIN,
            _ => i64::MAX,
        };
        let maybe = match rng.gen_range(0..20) {
            0 => Value::Null,
            i => Value::Int(i),
        };
        let row = Value::object(vec![
            ("m".into(), Value::Int(rng.gen_range(0..1_000))),
            ("d".into(), Value::Double(edge_double(rng))),
            ("maybe".into(), maybe),
            ("p".into(), Value::Point(Point::new(edge_double(rng), edge_double(rng)))),
            ("s".into(), Value::from(edge_string(rng))),
            ("n".into(), Value::Int(n)),
            ("e".into(), Value::Double(edge_double(rng))),
        ]);
        (n, asterix_adm::RecordLayout::new(&ty).encode(&row).unwrap())
    }

    /// A record of any kind: a put whose value is a row of one of three
    /// layouts (five declared fields; two and open ones; seven at the edges
    /// of their forms), bytes that may or may not read as a row, or
    /// nothing; a delete; a commit, an abort, a checkpoint or a feed
    /// cursor. A row's key is most times its first field's, and an edge
    /// row's is also a composite key or one that is no cell's.
    fn any_record(rng: &mut impl Rng, id: i64) -> WalRecord {
        let (txn_id, partition) = (rng.gen_range(1..300), id as u32 % 3);
        let key = asterix_adm::binary::encode_key(&[Value::Int(id)]);
        let write = |dataset, is_delete, key, value| WalRecord::Write { txn_id, dataset, partition, is_delete, key, value };
        match rng.gen_range(0..16) {
            0..=3 => write(3, false, key, message_row(rng, id)),
            4 | 5 => write(5, false, key, pair_row(rng, id)),
            6 => write(5, false, key, (0..rng.gen_range(1..12)).map(|_| rng.gen_range(0..4)).collect()),
            7 => write(3, false, key, Vec::new()),
            8 => write(3, true, key, Vec::new()),
            9 => WalRecord::Commit { txn_id },
            10 => WalRecord::Abort { txn_id },
            11 if rng.gen_bool(0.5) => WalRecord::Checkpoint { max_txn: txn_id, feed_cursors: vec![("f".into(), 7)] },
            11 => WalRecord::FeedCursor { txn_id, feed: "feed".into(), seq: id as u64 },
            _ => {
                let (n, row) = edge_row(rng, id);
                let key = match rng.gen_range(0..3) {
                    0 => asterix_adm::binary::encode_key(&[Value::Int(n), Value::Int(id)]),
                    1 => asterix_adm::binary::encode_key(&[Value::Int(n.wrapping_add(1) ^ 0x55)]),
                    _ => asterix_adm::binary::encode_key(&[Value::Int(n)]),
                };
                write(7, false, key, row)
            }
        }
    }

    /// The bytes of a block body that frame its streams: its tag and
    /// stream length, and a split block's stream count and each stream's
    /// form and lengths — what the stream bytes [`Coder::encode`] returns
    /// leave of the body.
    pub(crate) fn framing_of(body: &[u8]) -> u64 {
        let mut c = Cursor::new(body);
        let tag = c.header(&FORMAT).unwrap();
        c.varint::<u64>().unwrap();
        // a raw or whole-coded block's payload counts as headers
        let mut streams = body.len() - c.pos();
        if tag == [BLOCK_SPLIT] {
            streams = 0;
            for i in 0..c.varint::<usize>().unwrap() {
                if i >= CELLS {
                    c.u8().unwrap();
                }
                let len: usize = c.varint().unwrap();
                let len = match c.varint().unwrap() {
                    0 => len,
                    coded => coded,
                };
                streams += c.bytes(len).unwrap().len();
            }
        }
        (body.len() - streams) as u64
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Generated messages in group commits of any size come back from
        /// their blocks as they went in, through one coder; a block of twenty
        /// or more is split and coded, with its length and checksum, to under
        /// 0.48 of its records, one of sixty or more to under 0.39 (0.472 and
        /// 0.384 at worst in 256 cases).
        #[test]
        fn real_log_blocks_round_trip(
            seed in proptest::prelude::any::<u64>(),
            groups in proptest::collection::vec(0usize..120, 1..5),
        ) {
            let (mut rng, mut coder, mut id) = (rand::rngs::StdRng::seed_from_u64(seed), Coder::default(), 0);
            for (txn, &puts) in groups.iter().enumerate() {
                let txn_id = txn as u64 + 1;
                let mut appended = Vec::new();
                for _ in 0..puts {
                    id += 1;
                    let (key, value) = (asterix_adm::binary::encode_key(&[Value::Int(id)]), message_row(&mut rng, id));
                    appended.push(WalRecord::Write { txn_id, dataset: 3, partition: id as u32 % 4, is_delete: false, key, value });
                }
                appended.push(WalRecord::Commit { txn_id });
                let records = stream_of(&appended);
                let mut block = Vec::new();
                coder.encode(&records, &mut block);
                proptest::prop_assert_eq!(read(&block).unwrap(), appended);
                let (raw_len, file_len) = (records.len(), 8 + block.len());
                if puts >= 20 {
                    proptest::prop_assert_eq!(block[0], BLOCK_SPLIT);
                    proptest::prop_assert!(100 * file_len < 48 * raw_len, "{} puts: {} of {} bytes", puts, file_len, raw_len);
                }
                if puts >= 60 {
                    proptest::prop_assert!(100 * file_len < 39 * raw_len, "{} puts: {} of {} bytes", puts, file_len, raw_len);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any record stream comes back from its block byte for byte, and
        /// its records as they went in, whatever the coder coded before:
        /// rows of three layouts
        /// side by side, values that are no row, empty values, deletes and
        /// every other kind of record; keys a cell gives, composite keys and
        /// keys no cell gives; and streams of cells in every form at its
        /// edges — `int` differences that wrap, NaN, -0.0 and subnormal
        /// bits in planes, multi-byte and escaped characters through a
        /// table (a stream of 8 KiB of strings in about a third of the
        /// cases), and a `null` among `int`s that leaves its stream as it is.
        #[test]
        fn any_record_stream_round_trips_byte_for_byte(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..240,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let appended: Vec<WalRecord> = (0..n as i64).map(|id| any_record(&mut rng, id)).collect();
            let other: Vec<WalRecord> = (0..n as i64).map(|id| any_record(&mut rng, id)).collect();
            let (records, other) = (stream_of(&appended), stream_of(&other));
            let mut block = Vec::new();
            let kinds = Coder::default().encode(&records, &mut block);
            if records.len() > SMALL_BLOCK {
                proptest::prop_assert_eq!(block[0], BLOCK_SPLIT);
            }
            proptest::prop_assert_eq!(kinds.iter().sum::<u64>() + framing_of(&block), block.len() as u64);
            proptest::prop_assert_eq!(decode(&block).unwrap().as_ref(), records.as_slice());
            proptest::prop_assert_eq!(read(&block).unwrap(), appended);
            // a coder that has coded another stream codes this one alike
            let (mut used, mut again) = (Coder::default(), Vec::new());
            used.encode(&other, &mut Vec::new());
            used.encode(&records, &mut again);
            proptest::prop_assert!(again == block, "a block's bytes depend on the coder's past");
        }

        /// Any payload under the split tag decodes or is `Corrupt`, never a
        /// panic: bytes made up, and the payload of a
        /// real block with bytes changed. A stream of cells whose FSST table
        /// is damaged, whose code counts disagree with its codes or whose
        /// planes do not divide it is `Corrupt` for that reason, before
        /// anything is sized by it.
        #[test]
        fn any_payload_under_the_split_tag_decodes_or_is_refused(
            payload in proptest::collection::vec(0u8..8, 0..64),
            raw_len in 0u64..400,
            seed in proptest::prelude::any::<u64>(),
            at in proptest::prelude::any::<usize>(),
            flip in 1u8..=255,
        ) {
            let decoded = |body: &[u8]| match read(body) {
                Ok(_) | Err(StorageError::Corrupt(_)) => Ok(()),
                Err(e) => Err(e),
            };
            proptest::prop_assert!(decoded(&body(BLOCK_SPLIT, raw_len, &payload)).is_ok());
            let refused = |form: u8, cells: &[u8], why: &str| {
                let body = body(BLOCK_SPLIT, 1 << 40, &one_put_payload(form, cells));
                matches!(read(&body), Err(StorageError::Corrupt(e)) if e.contains(why))
            };
            // a table with a symbol of no bytes or of more than eight
            let mut table = Vec::new();
            SymbolTable::train(&["día de la señal", "the network signal"]).unwrap().write(&mut table);
            let mut damaged = table.clone();
            damaged[1 + at % usize::from(table[0])] = if flip <= 8 { 0 } else { flip };
            proptest::prop_assert!(refused(FSST, &[&damaged[..], &[1, 0]].concat(), "FSST table"));
            // code counts of more or fewer bytes than the codes, and more
            // counts than there are bytes
            let mut form = table.clone();
            put_varint(&mut form, payload.len() as u64);
            form.extend_from_slice(&payload);
            let coded = payload.iter().map(|&n| usize::from(n)).sum::<usize>();
            let fewer = flip % 2 == 0 && coded > 0;
            form.resize(form.len() + if fewer { coded - 1 } else { coded + 1 }, 0);
            proptest::prop_assert!(refused(FSST, &form, "code counts"));
            let mut bomb = table.clone();
            put_varint(&mut bomb, 1 << 40);
            bomb.extend_from_slice(&payload);
            proptest::prop_assert!(refused(FSST, &bomb, "strings in"));
            // planes of a point, a byte short of or past whole cells
            let cells = 1 + at % 4;
            let planes = vec![0x7F; 16 * cells + if flip % 2 == 0 { 1 } else { 15 }];
            let point = asterix_adm::binary::encode(&Value::Point(Point::new(1.0, 2.0)))[0];
            proptest::prop_assert!(refused(PLANES, &[&[point][..], &planes].concat(), "planes"));
            proptest::prop_assert!(refused(PLANES, &[&[3][..], &planes].concat(), "planes of tag 3"));
            // a key from the cell of a field the put's row has not: the row
            // declares two fields and has the second only
            let keyed = [&[5, 5, 0, CELL_KEYED, 1, 3, 0, 0, 0, 0, 3, 0, 2, 0b10, 0][..], &[AS_IS, 2, 0, 3, 14, AS_IS, 2, 0, 3, 16]].concat();
            let keyed = body(BLOCK_SPLIT, 1 << 40, &keyed);
            proptest::prop_assert!(matches!(read(&keyed), Err(StorageError::Corrupt(e)) if e.contains("a cell its row has not")));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // enough records to make a split block most times
            let records = stream_of(&(0..80).map(|id| any_record(&mut rng, id)).collect::<Vec<_>>());
            let mut block = Vec::new();
            Coder::default().encode(&records, &mut block);
            let at = at % block.len();
            block[at] ^= flip;
            proptest::prop_assert!(decoded(&block).is_ok());
        }
    }

    /// The payload of a split block of one put of key `k` whose row's one
    /// declared cell is the stream `cells`, held in the form `form`.
    fn one_put_payload(form: u8, cells: &[u8]) -> Vec<u8> {
        let mut payload = vec![4, 5, 0, TAG_PUT, 1, 3, 0, 1, 1, 0, b'k', 3, 0, 1, 1, 0, form];
        put_varint(&mut payload, cells.len() as u64);
        payload.push(0);
        payload.extend_from_slice(cells);
        payload
    }
}
