//! No input nests deep enough to exhaust a thread's stack. The ADM text
//! parser and the binary decoder (`Decoder::value`, `Decoder::skip_value`)
//! each refuse nesting past `MAX_DEPTH` with their typed error, and take and
//! give back what lies at the bound. Each 100 000-deep input is read on a
//! thread with a 2 MiB stack, as a server's worker might have; CI runs these
//! in release too, where the abort they guard against was seen.

use asterix_adm::binary::{self, Decoder};
use asterix_adm::parse::parse_value;
use asterix_adm::print::to_adm_string;
use asterix_adm::{AdmError, Value, MAX_DEPTH};

const DEEP: usize = 100_000;

/// What `read` returns when run on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(read: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(2 << 20).spawn(read).unwrap().join().unwrap()
}

/// `[[…[1]…]]`, `depth` arrays deep.
fn arrays(depth: usize) -> Value {
    (0..depth).fold(Value::Int(1), |v, _| Value::Array(vec![v]))
}

/// How deep collections and objects nest in `v`: 0 for a scalar, 1 for
/// `[1]` or `{"a": 1}`.
fn depth(v: &Value) -> usize {
    match v {
        Value::Array(items) | Value::Multiset(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(o) => 1 + o.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// The binary encoding of `depth` nested collections of one item each (an
/// array, a multiset, an object's one field in turn) around an `int`,
/// written out byte by byte: no `Value` that deep could be built and dropped.
fn encoded(depth: usize) -> Vec<u8> {
    // tags: array 14, multiset 15, object 16, int 3
    let mut bytes = Vec::new();
    for level in 0..depth {
        match level % 3 {
            0 => bytes.extend([14, 1]),
            1 => bytes.extend([15, 1]),
            _ => bytes.extend([16, 1, 1, b'a']),
        }
    }
    bytes.extend([3, 2]);
    bytes
}

#[test]
fn the_text_parser_refuses_deep_nesting_with_its_error() {
    for (open, close) in [("[", "]"), ("{{", "}}"), ("{\"a\": ", "}")] {
        let text = format!("{}1{}", open.repeat(DEEP), close.repeat(DEEP));
        let parsed = on_small_stack(move || parse_value(&text));
        assert!(matches!(parsed, Err(AdmError::Parse { .. })), "{open}: {parsed:?}");
    }
    // at the bound a value parses, prints and parses back; one more is refused
    let text = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    let at_bound = on_small_stack(move || parse_value(&text(MAX_DEPTH))).unwrap();
    assert_eq!(at_bound, arrays(MAX_DEPTH));
    assert_eq!(depth(&at_bound), MAX_DEPTH);
    assert_eq!(parse_value(&to_adm_string(&at_bound)).unwrap(), at_bound);
    assert!(matches!(parse_value(&text(MAX_DEPTH + 1)), Err(AdmError::Parse { .. })));
}

#[test]
fn the_decoder_refuses_deep_nesting_with_its_error() {
    let bytes = encoded(DEEP);
    let (value, skipped) = on_small_stack(move || (Decoder::new(&bytes).value(), Decoder::new(&bytes).skip_value()));
    assert!(matches!(value, Err(AdmError::Serde(_))), "{value:?}");
    assert!(matches!(skipped, Err(AdmError::Serde(_))), "{skipped:?}");
    // at the bound every kind of nesting decodes and is stepped over whole;
    // one more is refused by both
    let at_bound = encoded(MAX_DEPTH);
    let value = binary::decode(&at_bound).unwrap();
    assert_eq!(depth(&value), MAX_DEPTH);
    assert_eq!(binary::encode(&value), at_bound);
    let mut d = Decoder::new(&at_bound);
    d.skip_value().unwrap();
    assert!(d.is_done());
    let over = encoded(MAX_DEPTH + 1);
    assert!(Decoder::new(&over).value().is_err());
    assert!(Decoder::new(&over).skip_value().is_err());
    // bytes the process encoded itself (a spill run) are read whatever their depth
    assert_eq!(depth(&binary::decode_own(&over).unwrap()), MAX_DEPTH + 1);
    assert_eq!(binary::decode(&binary::encode(&arrays(MAX_DEPTH))).unwrap(), arrays(MAX_DEPTH));
}
