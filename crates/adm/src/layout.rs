//! A stored record: its one encoding, as a row and as cells.
//!
//! A dataset's type splits a record into a *closed part* — the fields the
//! type declares, stored by position without their names — and an *open
//! part* that carries any other field with its name (paper Section III: open
//! types "carry additional (self-describing) record content"); an open type
//! that declares only its key stores a schema-free record. Declaring buys
//! compactness, which is what experiment E10 measures.
//!
//! [`RecordLayout::encode`] writes a record as one *row*:
//! `[declared count][presence bitmap][declared values][open count]` then
//! `[name length][name][value]` per open field, the counts and each name's
//! length LEB128 varints ([`crate::binary::put_varint`]; one byte below 128)
//! and each value as [`crate::binary::encode_into`] writes it. A declared
//! field the record lacks is a cleared presence bit and no bytes. This row
//! is what a write encodes, once: what the log carries, what a memory
//! component holds and what a before-image is.
//!
//! A [`RecordLayout`] takes such a row apart into *cells* — one per declared
//! top-level field, in declaration order, and a last one, the *rest*, for
//! what the type does not declare — and puts it together again, byte for
//! byte. A cell is the value's bytes, tag included — an `int`'s is its tag
//! and a zigzag varint, a string's its tag, a varint length and the bytes —
//! and is empty for a field the record does not have; the rest is the row's
//! open part (count and `name value` pairs), and is empty when the record has
//! no undeclared field. A type that declares no field has a layout of zero
//! columns, whose rest is the whole open part.
//!
//! The storage layer keeps each column's cells together (a *chunk* per leaf
//! group, see `asterix_storage::leaf_group`) and packs them by the column's
//! [`ColumnKind`], which says what it may assume of a present cell; a reader
//! names the cells it wants once ([`RecordLayout::resolve`]) and builds its
//! record from those alone ([`RecordLayout::project`]) — or, from a row that
//! was never taken apart (the memory component's), with
//! [`RecordLayout::decode_row`]. The two agree. A scan builds no record: it
//! appends the cells to the typed vectors of a batch
//! ([`crate::batch::BatchBuilder`]), a column per field asked for.
//!
//! The log takes rows apart too, with no layout at hand: [`split_row`] reads
//! a row's own declared count and presence bitmap to find its cells, so that
//! a block of puts can keep each declared position's cells together, and
//! [`join_row`] puts the row back, byte for byte.

use crate::binary::{self, encode_nested, put_varint, put_zigzag, Decoder};
use crate::error::{AdmError, Result};
use crate::types::{ObjectType, TypeExpr};
use crate::value::{Object, Value, MAX_DEPTH};

/// What every present cell of a column looks like, by the declared type.
/// A value of another form (the `null` an optional field may hold) makes the
/// storage layer keep that group's cells as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// The tag and a zigzag LEB128 varint (`int`).
    Varint,
    /// The tag and a little-endian two's-complement integer of `width` bytes
    /// (`datetime`: 8; `date`, `time`: 4).
    Int { tag: u8, width: u8 },
    /// The tag and `width` bytes that are stored as they are (`double`,
    /// `point`, `boolean`, ...).
    Fixed { tag: u8, width: u8 },
    /// The tag, a varint length and that many bytes (`string`, `binary`).
    Bytes { tag: u8 },
    /// Whatever `encode_into` wrote: a nested or `any`-typed field, the rest.
    Tagged,
}

impl ColumnKind {
    /// A `string` column's kind: the one whose cells are text.
    pub const STRING: ColumnKind = ColumnKind::Bytes { tag: binary::T_STRING };

    /// A fixed-width type's width is [`binary::fixed_width`]'s.
    fn of(ty: &TypeExpr) -> ColumnKind {
        use binary::*;
        let TypeExpr::Named(name) = ty else { return ColumnKind::Tagged };
        let (tag, int) = match name.as_str() {
            "int" | "int8" | "int16" | "int32" | "int64" => return ColumnKind::Varint,
            "string" => return ColumnKind::STRING,
            "binary" => return ColumnKind::Bytes { tag: T_BINARY },
            "datetime" => (T_DATETIME, true),
            "date" => (T_DATE, true),
            "time" => (T_TIME, true),
            "boolean" => (T_BOOL, false),
            "double" | "float" => (T_DOUBLE, false),
            "duration" => (T_DURATION, false),
            "point" => (T_POINT, false),
            "uuid" => (T_UUID, false),
            "rectangle" => (T_RECTANGLE, false),
            _ => return ColumnKind::Tagged,
        };
        match fixed_width(tag).map(|w| w as u8) {
            Some(width) if int => ColumnKind::Int { tag, width },
            Some(width) => ColumnKind::Fixed { tag, width },
            None => ColumnKind::Tagged,
        }
    }

    /// Bytes a present cell's value takes in a chunk, at most for an
    /// integer (its offset in a frame of reference) and about for the rest:
    /// what orders the chunks of a group, narrowest first.
    pub fn width(&self) -> usize {
        match self {
            ColumnKind::Varint => 8,
            ColumnKind::Int { width, .. } | ColumnKind::Fixed { width, .. } => *width as usize,
            ColumnKind::Bytes { .. } => 64,
            ColumnKind::Tagged => 128,
        }
    }

    /// The integer a present cell of a `Varint` or an `Int` column holds;
    /// `None` for a cell of another form (an optional field's `null`) and
    /// for a column of another kind.
    pub fn int_of(&self, cell: &[u8]) -> Option<i64> {
        match *self {
            ColumnKind::Varint => binary::int_cell(cell),
            ColumnKind::Int { tag, width } => match cell {
                [t, payload @ ..] if *t == tag && payload.len() == width as usize && width <= 8 => {
                    let sign = if payload.last().is_some_and(|b| b & 0x80 != 0) { 0xFF } else { 0 };
                    let mut v = [sign; 8];
                    v[..payload.len()].copy_from_slice(payload);
                    Some(i64::from_le_bytes(v))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Appends the cell of an `Int` column that holds `v` — of any other,
    /// the cell of the `int` `v` — which [`ColumnKind::int_of`] reads back.
    pub fn put_int(&self, v: i64, out: &mut Vec<u8>) {
        match *self {
            ColumnKind::Int { tag, width } => {
                out.push(tag);
                out.extend_from_slice(&v.to_le_bytes()[..usize::from(width).min(8)]);
            }
            _ => {
                out.push(binary::T_INT);
                put_zigzag(out, v);
            }
        }
    }
}

/// One declared top-level field as a column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    /// The declared type, as written (`int`, `[EmploymentType]`).
    pub ty: String,
    pub kind: ColumnKind,
}

/// A record's cells in one buffer: cell `i` is `get(i)`, empty for a field
/// the record does not have.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Cells {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Cells {
    /// Room for `cells` cells of `bytes` bytes in all, so that filling it
    /// does not grow it a doubling at a time.
    pub fn with_capacity(cells: usize, bytes: usize) -> Cells {
        Cells { bytes: Vec::with_capacity(bytes), ends: Vec::with_capacity(cells) }
    }

    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    pub fn push(&mut self, cell: &[u8]) {
        self.bytes.extend_from_slice(cell);
        self.ends.push(self.bytes.len());
    }

    /// Appends the cell `write` appends to the buffer it is given.
    pub fn push_with<E>(&mut self, write: impl FnOnce(&mut Vec<u8>) -> std::result::Result<(), E>) -> std::result::Result<(), E> {
        let start = self.bytes.len();
        let done = write(&mut self.bytes);
        if done.is_err() {
            self.bytes.truncate(start);
        }
        self.ends.push(self.bytes.len());
        done
    }
}

/// The cells a reader wants, resolved from the field names once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// Cell indices, ascending: column ordinals, then the column count for
    /// the rest.
    cells: Vec<usize>,
    /// The names wanted of the rest (all of it when `whole`).
    open: Vec<String>,
    /// The record whole: every cell, every field of the rest.
    whole: bool,
    /// The names asked for, as asked; none when `whole`.
    names: Vec<String>,
    /// Per name asked for, the place of its cell in `cells` — when every
    /// name is a declared field and none is asked for twice.
    cell_columns: Option<Vec<usize>>,
}

impl Projection {
    /// The cells to hand to [`RecordLayout::project`], in this order.
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    /// The field names asked for, in the order asked: the columns of a batch
    /// of what this projection reads ([`crate::batch::BatchBuilder`]). None
    /// for the record whole, which is one column.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Columns of such a batch.
    pub fn width(&self) -> usize {
        self.names.len().max(1)
    }

    /// When each of those columns is one cell — a declared field's, no name
    /// twice — the place in [`Projection::cells`] of each column's cell.
    pub fn cell_columns(&self) -> Option<&[usize]> {
        self.cell_columns.as_deref()
    }

    /// Reads into `obj` what this projection wants of the open part `d`
    /// stands at the count of: all of it for the record whole, else the
    /// names asked for that the type does not declare. The open part ends
    /// the row, so a read of all of it must reach the end.
    fn read_open_part(&self, d: &mut Decoder<'_>, obj: &mut Object) -> Result<()> {
        let pairs = d.len()?;
        if d.pairs(pairs, (!self.whole).then_some(self.open.as_slice()), obj)? && !d.is_done() {
            return Err(AdmError::Serde("trailing bytes after a row's open part".into()));
        }
        Ok(())
    }
}

/// How the records of one dataset are stored: its declared type's top-level
/// fields as columns. Built once per dataset; a disk component records it in
/// its trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLayout {
    columns: Vec<Column>,
}

impl RecordLayout {
    /// The layout of records stored under `ty`.
    pub fn new(ty: &ObjectType) -> RecordLayout {
        let columns =
            ty.fields.iter().map(|f| Column { name: f.name.clone(), ty: f.ty.to_string(), kind: ColumnKind::of(&f.ty) });
        RecordLayout { columns: columns.collect() }
    }

    /// The columns, in declaration order: cell `i` is column `i`'s, cell
    /// `columns().len()` the rest.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    fn declares(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name)
    }

    /// The row of `record`, an object cast to the type (`validate::cast_object`):
    /// its declared fields by position, any other with its name. A declared
    /// field that is `missing` is one the record lacks.
    pub fn encode(&self, record: &Value) -> Result<Vec<u8>> {
        let obj = record
            .as_object()
            .ok_or_else(|| AdmError::Type(format!("expected object, got {}", record.type_name())))?;
        // the record is one level: its fields' values may nest one less
        let field = |v: &Value, row: &mut Vec<u8>| {
            encode_nested(v, row, MAX_DEPTH - 1)
                .ok_or_else(|| AdmError::Type(format!("a record may nest at most {MAX_DEPTH} deep")))
        };
        let n = self.columns.len();
        let mut row = Vec::with_capacity(64);
        put_varint(&mut row, n as u64);
        let bitmap = row.len();
        row.resize(bitmap + n.div_ceil(8), 0);
        for (i, column) in self.columns.iter().enumerate() {
            if let Some(v) = obj.get(&column.name).filter(|v| !v.is_missing()) {
                row[bitmap + i / 8] |= 1 << (i % 8);
                field(v, &mut row)?;
            }
        }
        let open: Vec<(&str, &Value)> = obj.iter().filter(|(name, _)| !self.declares(name)).collect();
        put_varint(&mut row, open.len() as u64);
        for (name, v) in open {
            put_varint(&mut row, name.len() as u64);
            row.extend_from_slice(name.as_bytes());
            field(v, &mut row)?;
        }
        Ok(row)
    }

    /// Cells per record: one per column and the rest.
    pub fn cell_count(&self) -> usize {
        self.columns.len() + 1
    }

    /// A decoder standing at the first declared field of `row` and the row's
    /// presence bitmap: the one check that `row` is a row of this layout.
    fn row_header<'r>(&self, row: &'r [u8]) -> Result<(Decoder<'r>, &'r [u8])> {
        let n = self.columns.len();
        let mut d = Decoder::new(row);
        if d.varint()? != n as u64 {
            return Err(AdmError::Serde(format!("schema mismatch: the row was not encoded with {n} declared fields")));
        }
        let bitmap = presence_bitmap(&mut d, n)?;
        Ok((d, bitmap))
    }

    /// Hands `each` the cells `cells` (declared fields' ordinals, ascending)
    /// of `row` where they lie — the `k`-th of them as `(k, its bytes)`,
    /// empty for a field the record lacks — reading no further into the row
    /// than the last of them.
    pub(crate) fn row_cells(&self, cells: &[usize], row: &[u8], mut each: impl FnMut(usize, &[u8]) -> Result<()>) -> Result<()> {
        let (mut d, bitmap) = self.row_header(row)?;
        let mut wanted = cells.iter().copied().enumerate().peekable();
        for i in 0..self.columns.len() {
            let Some(&(k, cell)) = wanted.peek() else { break };
            let start = d.position();
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                d.skip_value()?;
            }
            if cell == i {
                each(k, &row[start..d.position()])?;
                wanted.next();
            }
        }
        Ok(())
    }

    /// Takes `row` apart ([`split_row`]): `cells` comes back holding
    /// [`Self::cell_count`] cells, the rest last.
    pub fn shred(&self, row: &[u8], cells: &mut Cells) -> Result<()> {
        cells.clear();
        let (_, rest) = split_row(row, |cell| cells.push(cell))?;
        let n = self.columns.len();
        if cells.len() != n {
            return Err(AdmError::Serde(format!("schema mismatch: the row was not encoded with {n} declared fields")));
        }
        // an open part of no field is its count, zero
        cells.push(if rest == [0] { &[] } else { rest });
        Ok(())
    }

    /// Puts the row [`Self::shred`] took apart together again, appending it
    /// to `row`.
    pub fn assemble(&self, cells: &Cells, row: &mut Vec<u8>) {
        let n = self.columns.len();
        debug_assert_eq!(cells.len(), n + 1);
        put_varint(row, n as u64);
        let bitmap = row.len();
        row.resize(bitmap + n.div_ceil(8), 0);
        for i in (0..n).filter(|&i| !cells.get(i).is_empty()) {
            row[bitmap + i / 8] |= 1 << (i % 8);
        }
        for i in 0..n {
            row.extend_from_slice(cells.get(i));
        }
        match cells.get(n) {
            [] => row.push(0),
            rest => row.extend_from_slice(rest),
        }
    }

    /// The cells a reader of the top-level fields `fields` wants (the record
    /// whole when `fields` is empty): a declared field is its column, and
    /// any other name asks for the rest.
    pub fn resolve(&self, fields: &[String]) -> Projection {
        let n = self.columns.len();
        if fields.is_empty() {
            return Projection { cells: (0..=n).collect(), open: Vec::new(), whole: true, names: Vec::new(), cell_columns: None };
        }
        let mut cells: Vec<usize> = (0..n).filter(|&i| fields.contains(&self.columns[i].name)).collect();
        let open: Vec<String> = fields.iter().filter(|f| !self.declares(f)).cloned().collect();
        if !open.is_empty() {
            cells.push(n);
        }
        let place = |name: &String| cells.iter().position(|&cell| self.columns.get(cell).is_some_and(|c| c.name == *name));
        let cell_columns: Option<Vec<usize>> = fields.iter().map(place).collect();
        let distinct = cell_columns.filter(|places| places.len() == cells.len());
        Projection { cells, open, whole: false, names: fields.to_vec(), cell_columns: distinct }
    }

    /// The record holding what `wanted` names, from the cells
    /// `wanted.cells()` of a row — those and no others, in that order.
    pub fn project(&self, wanted: &Projection, cells: &Cells) -> Result<Value> {
        if cells.len() != wanted.cells.len() {
            return Err(AdmError::Serde(format!(
                "{} cells for a projection of {}",
                cells.len(),
                wanted.cells.len()
            )));
        }
        let mut obj = Object::with_capacity(cells.len());
        for (k, &cell) in wanted.cells.iter().enumerate() {
            let bytes = cells.get(k);
            match self.columns.get(cell) {
                Some(_) if bytes.is_empty() => {}
                Some(column) => obj.set(column.name.clone(), binary::decode(bytes)?),
                None if bytes.is_empty() => {}
                None => wanted.read_open_part(&mut Decoder::new(bytes), &mut obj)?,
            }
        }
        Ok(Value::Object(obj))
    }

    /// [`Self::project`] from a row that was not taken apart: what
    /// `project(wanted, cells of shred(row))` answers. A declared field is
    /// found by its position, the others stepped over, and reading stops at
    /// the last one wanted unless the open part is wanted too.
    pub fn decode_row(&self, wanted: &Projection, row: &[u8]) -> Result<Value> {
        let n = self.columns.len();
        let open = wanted.cells.last() == Some(&n);
        let mut declared = wanted.cells[..wanted.cells.len() - usize::from(open)].iter().copied().peekable();
        let mut obj = Object::with_capacity(wanted.cells.len());
        let (mut d, bitmap) = self.row_header(row)?;
        for (i, column) in self.columns.iter().enumerate() {
            if declared.peek().is_none() && !open {
                break;
            }
            let present = bitmap[i / 8] & (1 << (i % 8)) != 0;
            match declared.next_if_eq(&i) {
                Some(_) if present => obj.set(column.name.clone(), d.value()?),
                None if present => d.skip_value()?,
                _ => {}
            }
        }
        if open {
            wanted.read_open_part(&mut d, &mut obj)?;
        }
        Ok(Value::Object(obj))
    }
}

/// A row's declared count, `d` standing at it.
fn declared_count(d: &mut Decoder<'_>) -> Result<usize> {
    usize::try_from(d.varint()?).map_err(|_| AdmError::Serde("a declared count past usize".into()))
}

/// The presence bitmap of a row of `n` declared fields, `d` standing at it:
/// refused when the row is cut short or sets a bit past the `n`-th.
fn presence_bitmap<'r>(d: &mut Decoder<'r>, n: usize) -> Result<&'r [u8]> {
    let bitmap = d.take(n.div_ceil(8))?;
    if !n.is_multiple_of(8) && bitmap[n / 8] >> (n % 8) != 0 {
        return Err(AdmError::Serde(format!("presence bits past the {n} declared fields")));
    }
    Ok(bitmap)
}

fn present(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

/// Takes a row apart with no layout at hand — the one walk over a row's
/// cells, for [`RecordLayout::shred`] and for a coder that keeps like bytes
/// together (the log's blocks): returns its *head* — declared count and
/// presence bitmap — and its open part, and hands `cell` the cell of each
/// declared position in turn, empty for a field the record lacks. The row's
/// own count and bitmap say where the cells are, each cell ends where its
/// value does, and the open part is read through: anything that does not
/// read as a row to its last byte is refused.
pub fn split_row<'r>(row: &'r [u8], mut cell: impl FnMut(&'r [u8])) -> Result<(&'r [u8], &'r [u8])> {
    let mut d = Decoder::new(row);
    let n = declared_count(&mut d)?;
    let bitmap = presence_bitmap(&mut d, n)?;
    let head = d.since(0);
    for i in 0..n {
        let start = d.position();
        if present(bitmap, i) {
            d.skip_value()?;
        }
        cell(d.since(start));
    }
    let open = d.position();
    let pairs = d.len()?;
    d.skip_pairs(pairs)?;
    if !d.is_done() {
        return Err(AdmError::Serde("trailing bytes after a row's open part".into()));
    }
    Ok((head, d.since(open)))
}

/// Reverses [`split_row`]: appends to `row` the row whose head and open part
/// are the next in `parts` and whose declared fields are, for each one
/// present, the next value in `cells` at its position.
pub fn join_row(parts: &mut Decoder<'_>, cells: &mut [Decoder<'_>], row: &mut Vec<u8>) -> Result<()> {
    let start = parts.position();
    let n = declared_count(parts)?;
    let bitmap = presence_bitmap(parts, n)?;
    row.extend_from_slice(parts.since(start));
    for i in (0..n).filter(|&i| present(bitmap, i)) {
        let column = cells.get_mut(i).ok_or_else(|| AdmError::Serde(format!("no cells for declared field {i}")))?;
        let cell = column.position();
        column.skip_value()?;
        row.extend_from_slice(column.since(cell));
    }
    let open = parts.position();
    let pairs = parts.len()?;
    parts.skip_pairs(pairs)?;
    row.extend_from_slice(parts.since(open));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::adm_eq;
    use crate::parse::parse_value;
    use crate::types::{gleambook_types, Field, TypeRegistry};
    use crate::validate::cast_object;

    /// A row's head, open part and cells.
    type Split<'r> = (&'r [u8], &'r [u8], Vec<&'r [u8]>);

    /// `split_row`'s parts of `row`, its cells gathered.
    fn split(row: &[u8]) -> Result<Split<'_>> {
        let mut cells = Vec::new();
        let (head, open) = split_row(row, |cell| cells.push(cell))?;
        Ok((head, open, cells))
    }

    fn message(text: &str) -> (RecordLayout, Vec<u8>) {
        let reg = gleambook_types();
        let ty = reg.get("GleambookMessageType").unwrap();
        let v = cast_object(&parse_value(text).unwrap(), ty, &reg).unwrap().into_owned();
        let layout = RecordLayout::new(ty);
        let row = layout.encode(&v).unwrap();
        (layout, row)
    }

    /// `v` through its row and back, and the row's length.
    fn roundtrip(v: &Value, ty: &ObjectType) -> usize {
        let layout = RecordLayout::new(ty);
        let row = layout.encode(v).unwrap();
        let back = layout.decode_row(&layout.resolve(&[]), &row).unwrap();
        assert!(adm_eq(v, &back), "{v:?} -> {back:?}");
        row.len()
    }

    /// A message's row and its cells, byte for byte: what the log, a memory
    /// component and a leaf group's chunks hold of it.
    #[test]
    fn a_message_row_is_pinned_byte_for_byte() {
        let (layout, row) = message(
            r#"{"messageId": 7, "authorId": 3, "senderLocation": point("1.5,2.5"), "message": "hi", "mood": "fine"}"#,
        );
        let cells: [&[u8]; 6] = [
            &[3, 14],                                                         // messageId: int tag, zigzag 7
            &[3, 6],                                                          // authorId 3
            &[],                                                              // inResponseTo: absent
            &[10, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F, 0, 0, 0, 0, 0, 0, 0x04, 0x40], // point(1.5, 2.5)
            &[5, 2, b'h', b'i'],                                              // message
            &[1, 4, b'm', b'o', b'o', b'd', 5, 4, b'f', b'i', b'n', b'e'],    // the rest: one open field
        ];
        // five declared fields, every one but inResponseTo present
        let want: Vec<u8> = [&[5, 0b1_1011][..]].into_iter().chain(cells).flatten().copied().collect();
        assert_eq!(row, want);
        let mut got = Cells::default();
        layout.shred(&row, &mut got).unwrap();
        assert_eq!((0..got.len()).map(|i| got.get(i)).collect::<Vec<_>>(), cells);
        let mut back = Vec::new();
        layout.assemble(&got, &mut back);
        assert_eq!(back, row);
        assert!(layout.shred(&row[..12], &mut got).is_err(), "cut inside a declared field");
    }

    #[test]
    fn a_projection_reads_its_cells_and_no_others() {
        let (layout, row) = message(r#"{"messageId": 7, "authorId": 3, "message": "hi", "mood": "fine"}"#);
        let wanted = layout.resolve(&["authorId".into(), "mood".into(), "inResponseTo".into()]);
        assert_eq!(wanted.cells(), [1, 2, 5]);
        let mut all = Cells::default();
        layout.shred(&row, &mut all).unwrap();
        let mut picked = Cells::default();
        for &c in wanted.cells() {
            picked.push(all.get(c));
        }
        let got = layout.project(&wanted, &picked).unwrap();
        assert_eq!(got, parse_value(r#"{"authorId": 3, "mood": "fine"}"#).unwrap());
        assert_eq!(layout.decode_row(&wanted, &row).unwrap(), got);
        assert_eq!(layout.resolve(&["authorId".into()]).cells(), [1], "no rest for declared names");
    }

    /// What `split_row` gives of a message: its head, its cells as `shred`
    /// takes them, its open part; `join_row` puts it back from streams of
    /// such parts, a row after another.
    #[test]
    fn a_row_splits_without_its_layout_and_joins_back() {
        let (layout, row) = message(
            r#"{"messageId": 7, "authorId": 3, "senderLocation": point("1.5,2.5"), "message": "hi", "mood": "fine"}"#,
        );
        let (_, other) = message(r#"{"messageId": 8, "authorId": 4, "inResponseTo": 7, "message": "ok"}"#);
        let (head, open, cells) = split(&row).unwrap();
        assert_eq!(head, [5, 0b1_1011]);
        let mut shredded = Cells::default();
        layout.shred(&row, &mut shredded).unwrap();
        assert_eq!(cells, (0..5).map(|i| shredded.get(i)).collect::<Vec<_>>());
        assert_eq!(open, shredded.get(5));
        // two rows as streams: heads and open parts in one, each position's
        // cells in another
        let (mut parts, mut columns) = (Vec::new(), vec![Vec::new(); 5]);
        for r in [&row, &other] {
            let (head, open, cells) = split(r).unwrap();
            parts.extend_from_slice(head);
            parts.extend_from_slice(open);
            for (column, cell) in columns.iter_mut().zip(&cells) {
                column.extend_from_slice(cell);
            }
        }
        let mut parts = Decoder::new(&parts);
        let mut columns: Vec<Decoder> = columns.iter().map(|c| Decoder::new(c)).collect();
        let mut joined = Vec::new();
        join_row(&mut parts, &mut columns, &mut joined).unwrap();
        assert_eq!(joined, row);
        joined.clear();
        join_row(&mut parts, &mut columns, &mut joined).unwrap();
        assert_eq!(joined, other);
        assert!(parts.is_done() && columns.iter().all(Decoder::is_done));
        // no cells for a declared field: refused
        assert!(join_row(&mut Decoder::new(&row[..2]), &mut [], &mut joined).is_err());
    }

    #[test]
    fn what_is_not_a_row_to_its_last_byte_does_not_split() {
        let (_, row) = message(r#"{"messageId": 7, "authorId": 3, "message": "hi"}"#);
        for cut in 0..row.len() {
            assert!(split(&row[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = row.clone();
        longer.push(0);
        assert!(split(&longer).is_err(), "a byte past the open part");
        let mut stray = row.clone();
        stray[1] |= 0x80;
        assert!(split(&stray).is_err(), "a presence bit past the declared fields");
        assert!(split(b"value").is_err(), "bytes that are no row");
        // a type that declares nothing: a head of its zero count
        let (head, open, cells) = split(&[0, 0]).unwrap();
        assert_eq!((head, open, cells.len()), (&[0][..], &[0][..], 0));
    }

    /// `shred` walks a row as `split_row` does: an open part that does not
    /// read to the row's last byte is refused, not kept as the rest.
    #[test]
    fn shred_refuses_an_open_part_that_does_not_read_to_its_last_byte() {
        let (layout, row) = message(r#"{"messageId": 7, "authorId": 3, "message": "hi", "mood": "fine"}"#);
        let mut cells = Cells::default();
        layout.shred(&row, &mut cells).unwrap();
        let open = cells.get(layout.columns().len()).len();
        let mut longer = row.clone();
        longer.push(0);
        let mut more_fields = row.clone();
        more_fields[row.len() - open] = 2;
        let mut long_name = row.clone();
        long_name[row.len() - open + 1] = 0x7F;
        for (bad, why) in [(longer, "a byte past it"), (more_fields, "a field it does not hold"), (long_name, "a name past the row")] {
            assert!(layout.shred(&bad, &mut cells).is_err(), "{why}");
        }
        for cut in 0..row.len() {
            assert!(layout.shred(&row[..cut], &mut cells).is_err(), "cut at {cut}");
        }
        let other = RecordLayout::new(&ObjectType::open("T", vec![])).encode(&parse_value(r#"{"id": 1}"#).unwrap()).unwrap();
        assert!(layout.shred(&other, &mut cells).is_err(), "a row of another layout");
    }

    #[test]
    fn a_record_nested_past_the_bound_is_refused_at_write() {
        let layout = RecordLayout::new(&ObjectType::open("T", vec![]));
        let mut v = Value::Int(1);
        for _ in 0..MAX_DEPTH - 1 {
            v = Value::Array(vec![v]);
        }
        // the record is one level more: at the bound, it is stored and read back
        let record = |v: Value| Value::object(vec![("v".into(), v)]);
        let row = layout.encode(&record(v.clone())).unwrap();
        assert_eq!(layout.decode_row(&layout.resolve(&[]), &row).unwrap(), record(v.clone()));
        assert!(layout.encode(&record(Value::Array(vec![v]))).is_err());
    }

    #[test]
    fn a_type_that_declares_nothing_stores_the_record_as_its_rest() {
        let layout = RecordLayout::new(&ObjectType::open("T", vec![]));
        let record = parse_value(r#"{"id": 1, "v": [1, 2]}"#).unwrap();
        let row = layout.encode(&record).unwrap();
        let mut cells = Cells::default();
        layout.shred(&row, &mut cells).unwrap();
        assert_eq!((cells.len(), cells.get(0)), (1, &row[1..]), "a count of none, no bitmap, the open part");
        let wanted = layout.resolve(&["v".into()]);
        assert_eq!(wanted.cells(), [0]);
        assert_eq!(layout.project(&wanted, &cells).unwrap(), parse_value(r#"{"v": [1, 2]}"#).unwrap());
        assert_eq!(layout.decode_row(&layout.resolve(&[]), &row).unwrap(), record);
    }

    #[test]
    fn declared_fields_drop_names() {
        let mut reg = TypeRegistry::new();
        reg.define(ObjectType::open(
            "T",
            vec![
                Field::required("aVeryLongFieldName", TypeExpr::named("int")),
                Field::optional("anotherVeryLongFieldName", TypeExpr::named("string")),
            ],
        ))
        .unwrap();
        let ty = reg.get("T").unwrap();
        let v = parse_value(r#"{"aVeryLongFieldName": 1, "anotherVeryLongFieldName": "x"}"#).unwrap();
        let cast = cast_object(&v, ty, &reg).unwrap();
        let declared = roundtrip(&cast, ty);
        let undeclared = roundtrip(&cast, &ObjectType::open("U", vec![]));
        assert!(declared < undeclared, "declared {declared} bytes vs undeclared {undeclared}");
    }

    #[test]
    fn open_fields_still_roundtrip() {
        let reg = gleambook_types();
        let ty = reg.get("GleambookUserType").unwrap();
        let user = |extra: &str| {
            let text = format!(
                r#"{{"id":1, "alias":"a", "name":"n", "userSince": datetime("2012-01-01T00:00:00"),
                    "friendIds": {{{{1,2}}}}, "employment": []{extra}}}"#
            );
            cast_object(&parse_value(&text).unwrap(), ty, &reg).unwrap().into_owned()
        };
        let n = roundtrip(&user(r#", "nickname": "nick", "gender": "M""#), ty);
        // undeclared fields cost their names inline
        assert!(n > roundtrip(&user(""), ty) + "nickname".len() + "gender".len());
    }

    #[test]
    fn absent_optional_fields_cost_one_bit() {
        let mut reg = TypeRegistry::new();
        reg.define(ObjectType::open(
            "T",
            vec![
                Field::required("id", TypeExpr::named("int")),
                Field::optional("opt1", TypeExpr::named("string")),
                Field::optional("opt2", TypeExpr::named("string")),
            ],
        ))
        .unwrap();
        let ty = reg.get("T").unwrap();
        let v = cast_object(&parse_value(r#"{"id": 1}"#).unwrap(), ty, &reg).unwrap().into_owned();
        // declared count 1 + bitmap 1 + int (tag and one-byte varint) 2 +
        // open count 1 = 5
        assert_eq!(roundtrip(&v, ty), 5);
    }

    #[test]
    fn a_row_of_another_layout_or_cut_short_is_an_error() {
        let int = || TypeExpr::named("int");
        let a = RecordLayout::new(&ObjectType::open("A", vec![Field::required("x", int())]));
        let b = RecordLayout::new(&ObjectType::open("B", vec![Field::required("x", int()), Field::required("y", int())]));
        let row = a.encode(&parse_value(r#"{"x": 1}"#).unwrap()).unwrap();
        assert!(b.decode_row(&b.resolve(&[]), &row).is_err());
        assert!(a.decode_row(&a.resolve(&[]), &row[..3]).is_err(), "truncated");
        assert!(a.encode(&Value::Int(1)).is_err(), "not a record");
    }
}
