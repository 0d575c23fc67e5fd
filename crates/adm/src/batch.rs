//! Column batches: up to [`BATCH_ROWS`] rows held a column at a time.
//!
//! A [`ColumnBatch`] is what a dataset scan hands to the dataflow instead of
//! one `Object` per record: for every field the query reads, one [`Column`]
//! — a typed vector (`i64`s; fixed-width values as their encoded bytes;
//! strings as an offset array over one byte buffer, or over the codes a
//! component's symbol table ([`crate::fsst`]) decodes, a row's only when it is
//! read; anything else as [`Value`]s) and a presence bitmap, row `i` of every
//! column belonging to record `i`. A row that lacks a field has its presence
//! bit clear and reads as `MISSING`, which is what `$r.f` answers for it.
//!
//! Operators that work on columns (select, assign, project, the local half
//! of an aggregation) narrow a batch with a *selection* — the ascending row
//! numbers still in play — rather than copying it, and append the columns
//! they compute. The first operator that needs rows builds them, once
//! ([`ColumnBatch::into_rows`]).
//!
//! [`BatchBuilder`] is how the storage layer fills one: whole rows from a
//! memory component ([`BatchBuilder::push_row`]), and from a leaf group the
//! cells of one column at a time ([`BatchBuilder::cell_column`]) — the two
//! agree, row for row, with [`RecordLayout::decode_row`].

use crate::binary::{self, T_INT};
use crate::error::{AdmError, Result};
use crate::fsst::SymbolTable;
use crate::layout::{Cells, ColumnKind, Projection, RecordLayout};
use crate::value::Value;
use std::sync::Arc;

/// Rows in a batch at most: one leaf group's worth, and one scheduling
/// morsel's.
pub const BATCH_ROWS: usize = 1024;

/// One bit per row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// `len` bits, all `bit`.
    fn filled(len: usize, bit: bool) -> Bitmap {
        let mut words = vec![if bit { u64::MAX } else { 0 }; len.div_ceil(64)];
        if bit && !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit `i`; clear past the end.
    #[inline]
    fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }
}

/// The values of one column, row by row. A row whose presence bit is clear
/// holds a placeholder (0, no bytes, `MISSING`).
#[derive(Debug, Clone, PartialEq)]
enum ColumnData {
    /// No row has a value yet: the first one decides the type.
    Untyped,
    /// `Value::Int`s.
    Int(Vec<i64>),
    /// Values of one fixed-width type as [`binary::encode`] writes them past
    /// the tag: `width` bytes a row.
    Fixed { tag: u8, width: usize, bytes: Vec<u8> },
    /// `Value::String`s: row `i` is `bytes[ends[i - 1]..ends[i]]`, UTF-8.
    Str { ends: Vec<u32>, bytes: Vec<u8> },
    /// `Value::String`s still coded: row `i` is what `table` decodes
    /// `codes[ends[i - 1]..ends[i]]` to, every row's codes checked when
    /// they were pushed.
    Coded { table: Arc<SymbolTable>, ends: Vec<u32>, codes: Vec<u8> },
    /// Anything.
    Values(Vec<Value>),
}

/// One column of a batch: a typed vector and a presence bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    present: Bitmap,
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

impl Column {
    /// An empty column that takes the type of the first value pushed: an
    /// `Int` makes it a vector of `i64`, anything else of `Value`s.
    pub fn new() -> Column {
        Column { data: ColumnData::Untyped, present: Bitmap::default() }
    }

    /// An empty column for the cells of a declared field of kind `kind`.
    pub fn of_kind(kind: ColumnKind) -> Column {
        let data = match kind {
            ColumnKind::Varint => ColumnData::Int(Vec::new()),
            // the widest fixed-width type is a rectangle's 32 bytes
            ColumnKind::Int { tag, width } | ColumnKind::Fixed { tag, width } if width <= 32 => {
                ColumnData::Fixed { tag, width: width as usize, bytes: Vec::new() }
            }
            ColumnKind::Bytes { tag: binary::T_STRING } => ColumnData::Str { ends: Vec::new(), bytes: Vec::new() },
            _ => ColumnData::Values(Vec::new()),
        };
        Column { data, present: Bitmap::default() }
    }

    /// `len` rows of `v`.
    pub fn constant(v: &Value, len: usize) -> Column {
        let (data, present) = match v {
            Value::Missing => (ColumnData::Untyped, false),
            Value::Int(i) => (ColumnData::Int(vec![*i; len]), true),
            v => (ColumnData::Values(vec![v.clone(); len]), true),
        };
        Column { data, present: Bitmap::filled(len, present) }
    }

    /// Rows.
    pub fn len(&self) -> usize {
        self.present.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Turns the vector into one of `Value`s: a value arrived that its type
    /// cannot hold.
    fn demote(&mut self) {
        let values = (0..self.len()).map(|i| self.get(i)).collect();
        self.data = ColumnData::Values(values);
    }

    /// A row without a value.
    pub fn push_absent(&mut self) {
        match &mut self.data {
            ColumnData::Untyped => {}
            ColumnData::Int(vs) => vs.push(0),
            ColumnData::Fixed { width, bytes, .. } => bytes.resize(bytes.len() + *width, 0),
            ColumnData::Str { ends, bytes } => ends.push(bytes.len() as u32),
            ColumnData::Coded { ends, codes, .. } => ends.push(codes.len() as u32),
            ColumnData::Values(vs) => vs.push(Value::Missing),
        }
        self.present.push(false);
    }

    /// Turns coded strings into plain ones: a string arrived that is not
    /// coded, or coded under another table.
    fn uncode(&mut self) {
        let ColumnData::Coded { table, ends, codes } = &self.data else { return };
        let (mut plain, mut bytes, mut start) = (Vec::with_capacity(ends.len()), Vec::new(), 0);
        for &end in ends {
            // checked when pushed
            let _ = table.decode_into(&codes[start..end as usize], &mut bytes);
            plain.push(bytes.len() as u32);
            start = end as usize;
        }
        self.data = ColumnData::Str { ends: plain, bytes };
    }

    /// A run of strings coded under `table`: `codes` is each one's codes end
    /// to end, `lens` the length of each. They are kept coded when the column
    /// holds no string yet or strings coded under the same table, else
    /// decoded. Codes that do not decode are an error, and add nothing.
    pub fn push_coded(&mut self, table: &Arc<SymbolTable>, codes: &[u8], lens: impl Iterator<Item = usize> + Clone) -> Result<()> {
        let mut at = 0;
        for len in lens.clone() {
            let one = codes.get(at..at + len).ok_or_else(|| AdmError::Serde("coded strings past their codes".into()))?;
            table.check(one)?;
            at += len;
        }
        if at != codes.len() {
            return Err(AdmError::Serde("coded strings that do not fill their codes".into()));
        }
        let no_text = match &self.data {
            ColumnData::Untyped => true,
            ColumnData::Str { bytes, .. } => bytes.is_empty(),
            _ => false,
        };
        if no_text {
            self.data = ColumnData::Coded { table: Arc::clone(table), ends: vec![0; self.len()], codes: Vec::new() };
        }
        match &mut self.data {
            ColumnData::Coded { table: held, ends, codes: held_codes }
                if (Arc::ptr_eq(held, table) || held == table) && held_codes.len() + codes.len() <= u32::MAX as usize =>
            {
                let mut end = held_codes.len();
                for len in lens {
                    end += len;
                    ends.push(end as u32);
                    self.present.push(true);
                }
                held_codes.extend_from_slice(codes);
                Ok(())
            }
            _ => {
                let (mut text, mut text_lens, mut at) = (Vec::new(), Vec::new(), 0);
                for len in lens {
                    let before = text.len();
                    table.decode_into(&codes[at..at + len], &mut text)?;
                    text_lens.push(text.len() - before);
                    at += len;
                }
                self.push_strs(&text, text_lens.into_iter())
            }
        }
    }

    #[inline]
    pub fn push_int(&mut self, v: i64) {
        match &mut self.data {
            ColumnData::Int(vs) => vs.push(v),
            _ => return self.push_value(Value::Int(v)),
        }
        self.present.push(true);
    }

    /// A run of `string` or `binary` values (`tag` says which): `bytes` is
    /// what [`binary::encode`] writes of each past tag and length, end to
    /// end, `lens` the length of each.
    pub fn push_var(&mut self, tag: u8, bytes: &[u8], lens: impl Iterator<Item = usize> + Clone) -> Result<()> {
        match tag {
            binary::T_STRING => self.push_strs(bytes, lens),
            binary::T_BINARY => {
                let mut rest = bytes;
                for len in lens {
                    let Some((value, after)) = rest.split_at_checked(len) else {
                        return Err(AdmError::Serde("binary values past their bytes".into()));
                    };
                    self.push_value(Value::Binary(value.to_vec()));
                    rest = after;
                }
                Ok(())
            }
            other => Err(AdmError::Serde(format!("tag {other} is not of a string or a binary"))),
        }
    }

    /// A run of strings: checked as a whole, copied as a whole.
    fn push_strs(&mut self, bytes: &[u8], lens: impl Iterator<Item = usize> + Clone) -> Result<()> {
        let bad = || AdmError::Serde("invalid UTF-8 in string".into());
        let text = std::str::from_utf8(bytes).map_err(|_| bad())?;
        let mut at = 0;
        for len in lens.clone() {
            at += len;
            if !text.is_char_boundary(at) {
                return Err(bad());
            }
        }
        if at != bytes.len() {
            return Err(AdmError::Serde("strings that do not fill their bytes".into()));
        }
        self.uncode();
        if !matches!(self.data, ColumnData::Str { .. }) {
            let mut at = 0;
            for len in lens {
                self.push_value(Value::String(text[at..at + len].to_owned()));
                at += len;
            }
            return Ok(());
        }
        let ColumnData::Str { ends, bytes: held } = &mut self.data else { return Ok(()) };
        if held.len() + bytes.len() > u32::MAX as usize {
            return Err(AdmError::Serde("a string column past 4 GiB".into()));
        }
        let mut end = held.len();
        for len in lens {
            end += len;
            ends.push(end as u32);
            self.present.push(true);
        }
        held.extend_from_slice(bytes);
        Ok(())
    }

    /// Any value; `MISSING` is a row without one.
    pub fn push_value(&mut self, v: Value) {
        if v.is_missing() {
            return self.push_absent();
        }
        if matches!(self.data, ColumnData::Untyped) {
            let rows = self.len();
            self.data = match v {
                Value::Int(_) => ColumnData::Int(vec![0; rows]),
                _ => ColumnData::Values(vec![Value::Missing; rows]),
            };
        }
        if matches!(v, Value::String(_)) {
            self.uncode();
        }
        match (&mut self.data, v) {
            (ColumnData::Int(vs), Value::Int(i)) => vs.push(i),
            (ColumnData::Str { ends, bytes }, Value::String(s)) if bytes.len() + s.len() <= u32::MAX as usize => {
                bytes.extend_from_slice(s.as_bytes());
                ends.push(bytes.len() as u32);
            }
            (ColumnData::Values(vs), v) => vs.push(v),
            (_, v) => {
                self.demote();
                return self.push_value(v);
            }
        }
        self.present.push(true);
    }

    /// A cell as [`binary::encode_into`] wrote it, tag and all; an empty one
    /// is a row without a value. An `int` goes to a vector of `i64` without
    /// a `Value` in between, its varint read in place.
    pub fn push_cell(&mut self, cell: &[u8]) -> Result<()> {
        match (&mut self.data, cell) {
            (_, []) => self.push_absent(),
            (ColumnData::Int(_), [T_INT, ..]) => {
                let v = binary::int_cell(cell).ok_or_else(|| AdmError::Serde("an int cell that is no varint".into()))?;
                self.push_int(v);
            }
            (ColumnData::Fixed { tag, width, bytes }, [t, payload @ ..]) if t == tag && payload.len() == *width => {
                bytes.extend_from_slice(payload);
                self.present.push(true);
            }
            _ => self.push_value(binary::decode(cell)?),
        }
        Ok(())
    }

    /// The `i64` of row `i`, if the column is a vector of them and the row
    /// has one.
    #[inline]
    pub fn int_at(&self, i: usize) -> Option<i64> {
        match &self.data {
            ColumnData::Int(vs) if self.present.get(i) => vs.get(i).copied(),
            _ => None,
        }
    }

    /// The string of row `i` (a `Str` column's, its bitmap says present).
    fn str_at<'a>(ends: &[u32], bytes: &'a [u8], i: usize) -> &'a str {
        let start = if i == 0 { 0 } else { ends[i - 1] as usize };
        // checked when the bytes were pushed
        std::str::from_utf8(&bytes[start..ends[i] as usize]).unwrap_or_default()
    }

    /// Row `i` as a value; `MISSING` for a row without one or past the end.
    pub fn get(&self, i: usize) -> Value {
        if !self.present.get(i) {
            return Value::Missing;
        }
        match &self.data {
            ColumnData::Untyped => Value::Missing,
            ColumnData::Int(vs) => Value::Int(vs[i]),
            ColumnData::Fixed { tag, width, bytes } => {
                let mut cell = [0u8; 33];
                cell[0] = *tag;
                cell[1..=*width].copy_from_slice(&bytes[i * width..(i + 1) * width]);
                // a fixed-width type decodes from any bytes of its width
                binary::decode(&cell[..=*width]).unwrap_or(Value::Null)
            }
            ColumnData::Str { ends, bytes } => Value::String(Self::str_at(ends, bytes, i).to_owned()),
            ColumnData::Coded { table, ends, codes } => {
                let start = if i == 0 { 0 } else { ends[i - 1] as usize };
                let mut text = Vec::new();
                // checked when the codes were pushed
                let _ = table.decode_into(&codes[start..ends[i] as usize], &mut text);
                Value::String(String::from_utf8(text).unwrap_or_default())
            }
            ColumnData::Values(vs) => vs[i].clone(),
        }
    }

    /// [`Column::get`], leaving `MISSING` behind where the value was held
    /// as one: what building rows out of a batch does.
    pub fn take(&mut self, i: usize) -> Value {
        match &mut self.data {
            ColumnData::Values(vs) if self.present.get(i) => std::mem::take(&mut vs[i]),
            _ => self.get(i),
        }
    }

    /// Hands `f` row `i` as a value, built only if the column does not hold
    /// it as one.
    pub fn with_value<R>(&self, i: usize, f: impl FnOnce(&Value) -> R) -> R {
        match &self.data {
            ColumnData::Values(vs) if self.present.get(i) => f(&vs[i]),
            _ => f(&self.get(i)),
        }
    }

    /// Approximate bytes held, for frame accounting: the vectors' own —
    /// what a `Value` points to is not walked.
    pub fn heap_size(&self) -> usize {
        self.present.words.len() * 8
            + match &self.data {
                ColumnData::Untyped => 0,
                ColumnData::Int(vs) => vs.len() * 8,
                ColumnData::Fixed { bytes, .. } => bytes.len(),
                ColumnData::Str { ends, bytes } => ends.len() * 4 + bytes.len(),
                ColumnData::Coded { ends, codes, .. } => ends.len() * 4 + codes.len(),
                ColumnData::Values(vs) => std::mem::size_of_val(vs.as_slice()),
            }
    }
}

/// The rows of a batch that are in play, ascending.
#[derive(Debug, Clone)]
pub enum RowIds<'a> {
    All(std::ops::Range<usize>),
    Selected(std::slice::Iter<'a, u32>),
}

impl Iterator for RowIds<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            RowIds::All(range) => range.next(),
            RowIds::Selected(ids) => ids.next().map(|i| *i as usize),
        }
    }
}

/// Rows as columns: every column has [`ColumnBatch::len`] rows, of which the
/// selection — all of them, until an operator narrows it — are in play. A
/// column is shared, not copied, when it is carried on under another number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<Arc<Column>>,
    len: usize,
    /// The rows in play, ascending; `None`: all.
    selection: Option<Vec<u32>>,
}

impl ColumnBatch {
    /// A batch of `len` rows over `columns`.
    pub fn new(columns: Vec<Column>, len: usize) -> Result<ColumnBatch> {
        if len > u32::MAX as usize || columns.iter().any(|c| c.len() != len) {
            return Err(AdmError::Serde(format!("a batch of {len} rows whose columns disagree on it")));
        }
        Ok(ColumnBatch { columns: columns.into_iter().map(Arc::new).collect(), len, selection: None })
    }

    /// Rows each column holds, selected or not.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Rows in play.
    pub fn rows(&self) -> usize {
        self.selection.as_ref().map_or(self.len, Vec::len)
    }

    /// Columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// Column `c`, to carry on as another ([`ColumnBatch::push_column`]).
    pub fn share(&self, c: usize) -> Arc<Column> {
        Arc::clone(&self.columns[c])
    }

    /// The numbers of the rows in play, ascending.
    pub fn row_ids(&self) -> RowIds<'_> {
        match &self.selection {
            None => RowIds::All(0..self.len),
            Some(ids) => RowIds::Selected(ids.iter()),
        }
    }

    /// Narrows the rows in play to `keep`: ascending, each one of
    /// [`ColumnBatch::row_ids`].
    pub fn select(&mut self, keep: Vec<u32>) {
        self.selection = Some(keep);
    }

    /// Keeps of the rows in play those from the `skip`-th on, `count` at
    /// most.
    pub fn slice(&mut self, skip: usize, count: Option<usize>) {
        let keep: Vec<u32> = self.row_ids().skip(skip).take(count.unwrap_or(usize::MAX)).map(|i| i as u32).collect();
        self.select(keep);
    }

    /// Appends a column of [`ColumnBatch::len`] rows.
    pub fn push_column(&mut self, column: Arc<Column>) -> Result<()> {
        if column.len() != self.len {
            return Err(AdmError::Serde(format!("a column of {} rows for a batch of {}", column.len(), self.len)));
        }
        self.columns.push(column);
        Ok(())
    }

    /// The column holding `value(row)` for every row in play (nothing for
    /// the others).
    pub fn map_rows<E>(&self, mut value: impl FnMut(usize) -> std::result::Result<Value, E>) -> std::result::Result<Column, E> {
        let mut column = Column::new();
        for row in self.row_ids() {
            while column.len() < row {
                column.push_absent();
            }
            column.push_value(value(row)?);
        }
        while column.len() < self.len {
            column.push_absent();
        }
        Ok(column)
    }

    /// The batch of columns `cols`, in that order.
    pub fn project(self, cols: &[usize]) -> ColumnBatch {
        let columns = cols.iter().map(|c| Arc::clone(&self.columns[*c])).collect();
        ColumnBatch { columns, len: self.len, selection: self.selection }
    }

    /// Row `row` as a tuple.
    pub fn tuple(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// The rows in play as tuples, in order: values held as such are moved,
    /// out of every column this batch is the last to hold.
    pub fn into_rows(self) -> impl Iterator<Item = Vec<Value>> {
        let ids: Vec<usize> = self.row_ids().collect();
        let mut columns: Vec<Column> =
            self.columns.into_iter().map(|c| Arc::try_unwrap(c).unwrap_or_else(|shared| (*shared).clone())).collect();
        ids.into_iter().map(move |row| columns.iter_mut().map(|c| c.take(row)).collect())
    }

    /// Approximate bytes held, for frame accounting.
    pub fn heap_size(&self) -> usize {
        self.columns.iter().map(|c| c.heap_size()).sum::<usize>() + self.selection.as_ref().map_or(0, |s| s.len() * 4)
    }
}

/// Fills a batch with what a [`Projection`] names of stored records: one
/// column per field asked for, in the order asked — or, for a projection of
/// the record whole, the one column of records.
pub struct BatchBuilder<'a> {
    layout: &'a RecordLayout,
    wanted: &'a Projection,
    /// While filling, in the order of `wanted.cells()` when
    /// [`BatchBuilder::is_columnar`], else in the order asked.
    columns: Vec<Column>,
    rows: usize,
}

impl<'a> BatchBuilder<'a> {
    pub fn new(layout: &'a RecordLayout, wanted: &'a Projection) -> BatchBuilder<'a> {
        let columns = match wanted.cell_columns() {
            Some(_) => wanted.cells().iter().map(|&cell| Column::of_kind(layout.columns()[cell].kind)).collect(),
            None => (0..wanted.width()).map(|_| Column::new()).collect(),
        };
        BatchBuilder { layout, wanted, columns, rows: 0 }
    }

    /// The projection being read.
    pub fn wanted(&self) -> &'a Projection {
        self.wanted
    }

    /// Records taken so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether every column is the cell of one declared field, so that a
    /// reader of leaf groups may fill them a column at a time.
    pub fn is_columnar(&self) -> bool {
        self.wanted.cell_columns().is_some()
    }

    /// The column that takes the cells `wanted().cells()[k]` of the records
    /// ([`BatchBuilder::is_columnar`]). Whoever appends to one appends as
    /// many rows to each and says so with [`BatchBuilder::advance`].
    pub fn cell_column(&mut self, k: usize) -> &mut Column {
        &mut self.columns[k]
    }

    /// `rows` records were appended through [`BatchBuilder::cell_column`].
    pub fn advance(&mut self, rows: usize) {
        self.rows += rows;
    }

    /// One record from its row (a memory component's).
    pub fn push_row(&mut self, row: &[u8]) -> Result<()> {
        if self.is_columnar() {
            let columns = &mut self.columns;
            self.layout.row_cells(self.wanted.cells(), row, |k, cell| columns[k].push_cell(cell))?;
        } else {
            let record = self.layout.decode_row(self.wanted, row)?;
            self.push_record(record);
        }
        self.rows += 1;
        Ok(())
    }

    /// One record from the cells `wanted().cells()` of a leaf group's entry.
    pub fn push_cells(&mut self, cells: &Cells) -> Result<()> {
        let record = self.layout.project(self.wanted, cells)?;
        self.push_record(record);
        self.rows += 1;
        Ok(())
    }

    /// Spreads a decoded record over the columns.
    fn push_record(&mut self, record: Value) {
        match self.wanted.names() {
            [] => self.columns[0].push_value(record),
            names => {
                for (column, name) in self.columns.iter_mut().zip(names) {
                    column.push_value(record.field(name).clone());
                }
            }
        }
    }

    /// The batch of the records taken.
    pub fn finish(self) -> Result<ColumnBatch> {
        let batch = ColumnBatch::new(self.columns, self.rows)?;
        Ok(match self.wanted.cell_columns() {
            Some(order) => batch.project(order),
            None => batch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::encode;

    #[test]
    fn a_column_keeps_its_type_until_a_value_does_not_fit() {
        let mut c = Column::new();
        c.push_absent();
        c.push_int(7);
        c.push_value(Value::Int(-1));
        assert_eq!((c.len(), c.int_at(0), c.int_at(1), c.int_at(2)), (3, None, Some(7), Some(-1)));
        c.push_value(Value::from("seven"));
        assert_eq!(c.int_at(1), None, "a column of values now");
        assert_eq!((c.get(0), c.get(1), c.get(3), c.get(9)), (Value::Missing, Value::Int(7), Value::from("seven"), Value::Missing));
        c.push_value(Value::Missing);
        assert_eq!((c.len(), c.get(4)), (5, Value::Missing));

        // by declared kind: strings share one buffer, a datetime is its bytes
        let mut s = Column::of_kind(ColumnKind::Bytes { tag: binary::T_STRING });
        s.push_var(binary::T_STRING, "abcé".as_bytes(), [1, 0, 4].into_iter()).unwrap();
        s.push_absent();
        s.push_cell(&encode(&Value::from("z"))).unwrap();
        let got: Vec<Value> = (0..5).map(|i| s.get(i)).collect();
        assert_eq!(got, [Value::from("a"), Value::from(""), Value::from("bcé"), Value::Missing, Value::from("z")]);
        assert!(s.push_var(binary::T_STRING, "é".as_bytes(), [1, 1].into_iter()).is_err(), "cut inside a character");
        assert!(s.push_var(binary::T_STRING, b"ab", [1].into_iter()).is_err(), "lengths short of the bytes");
        assert_eq!(s.len(), 5, "a refused run adds nothing");
        s.push_cell(&encode(&Value::Null)).unwrap();
        assert_eq!((s.get(2), s.get(5)), (Value::from("bcé"), Value::Null), "values now, the same ones");

        let mut t = Column::of_kind(ColumnKind::Int { tag: binary::T_DATETIME, width: 8 });
        t.push_cell(&encode(&Value::DateTime(1_500_000_000_000))).unwrap();
        t.push_cell(&[]).unwrap();
        assert_eq!((t.get(0), t.get(1), t.heap_size()), (Value::DateTime(1_500_000_000_000), Value::Missing, 16 + 8));
        assert_eq!(Column::constant(&Value::Int(3), 70).int_at(69), Some(3));
        assert_eq!(Column::constant(&Value::Missing, 70).get(5), Value::Missing);
    }

    #[test]
    fn a_batch_narrows_projects_and_comes_apart_into_rows() {
        let column = |values: &[Value]| {
            let mut c = Column::new();
            values.iter().for_each(|v| c.push_value(v.clone()));
            c
        };
        let ids: Vec<Value> = (0..6).map(Value::Int).collect();
        let names: Vec<Value> = ["a", "b", "c", "d", "e", "f"].map(Value::from).to_vec();
        assert!(ColumnBatch::new(vec![column(&ids), column(&names[..5])], 6).is_err());
        let mut batch = ColumnBatch::new(vec![column(&ids), column(&names)], 6).unwrap();
        assert_eq!((batch.len(), batch.rows(), batch.width()), (6, 6, 2));
        batch.select(vec![1, 2, 4, 5]);
        batch.slice(1, Some(2));
        assert_eq!(batch.row_ids().collect::<Vec<_>>(), [2, 4]);
        let doubled = batch.map_rows(|row| Ok::<_, AdmError>(Value::Int(2 * row as i64))).unwrap();
        assert_eq!((doubled.len(), doubled.int_at(4), doubled.get(3)), (6, Some(8), Value::Missing));
        batch.push_column(Arc::new(doubled)).unwrap();
        assert!(batch.push_column(Arc::new(Column::new())).is_err(), "a column of another length");
        assert_eq!(batch.tuple(4), [Value::Int(4), Value::from("e"), Value::Int(8)]);
        // a column carried on twice is one column, shared
        let batch = batch.project(&[1, 2, 1]);
        let rows: Vec<Vec<Value>> = batch.into_rows().collect();
        assert_eq!(rows, [[Value::from("c"), Value::Int(4), Value::from("c")], [Value::from("e"), Value::Int(8), Value::from("e")]]);
    }
}
