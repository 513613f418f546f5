//! Never-panic properties of the parse side: whatever bytes a client
//! sends, the HTTP reader, the JSON parser and the protocol parsers
//! return `Ok` or `Err` — they do not panic, and what they accept stays
//! inside the documented limits.

use std::io::Cursor;

use minihttp::{read_request, MAX_BODY_BYTES, MAX_HEADERS};
use proptest::prelude::*;
use sprint_server::json::MAX_DEPTH;
use sprint_server::protocol::{
    DecodeOpen, ServeRequest, MAX_HEADS, MAX_LAYERS, MAX_SEQ_LEN, MODEL_NAMES,
};
use sprint_server::Json;

/// A well-formed `/v1/serve` request as a client writes it.
fn valid_request() -> Vec<u8> {
    let body = r#"{"model":"synth1","layers":1,"seq_len":16}"#;
    format!(
        "POST /v1/serve HTTP/1.1\r\nHost: sprint\r\nX-Tenant: a\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads requests off `bytes` until the reader stops, checking every
/// one it yields against the limits.
fn drain_requests(bytes: Vec<u8>) {
    let mut stream = Cursor::new(bytes);
    // Each request consumes at least its request line, so the loop is
    // bounded by the input length.
    while let Ok(Some(request)) = read_request(&mut stream) {
        assert!(request.headers.len() <= MAX_HEADERS);
        assert!(request.body.len() <= MAX_BODY_BYTES);
        assert!(request.version.starts_with("HTTP/1."));
    }
}

/// Characters that steer the JSON parser into every branch: structure,
/// string escapes, number syntax, literals, whitespace, a multi-byte
/// character.
const JSON_ALPHABET: &[char] = &[
    '[', ']', '{', '}', '"', ':', ',', '\\', 'u', 'n', 't', 'f', 'r', 'a', 'l', 's', 'e', 'E', '0',
    '1', '9', '-', '+', '.', ' ', '\n', 'd', '8', 'é', '\u{0}',
];

/// `parse` never panics on `text`; a value it accepts renders to a
/// fixed point of parse ∘ render (whole-valued floats render as
/// integers and non-finite ones as `null`, so the comparison is on the
/// rendering), and nests no deeper than the cap.
fn check_json_text(text: &str) {
    let Ok(value) = Json::parse(text) else {
        return;
    };
    assert!(depth(&value) <= MAX_DEPTH);
    let rendered = value.to_string();
    let reparsed = Json::parse(&rendered).expect("a rendering parses");
    assert_eq!(reparsed.to_string(), rendered);
}

fn depth(value: &Json) -> usize {
    match value {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(map) => 1 + map.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

const KEYS: [&str; 10] = [
    "model", "layers", "heads", "seq_len", "prefill", "seed", "mode", "action", "session", "x",
];
/// Integers on both sides of every protocol limit.
const INTS: [i128; 12] = [
    0,
    1,
    2,
    16,
    64,
    65,
    4096,
    4097,
    -1,
    u64::MAX as i128,
    u64::MAX as i128 + 1,
    i128::MIN,
];
const WORDS: [&str; 6] = ["sprint", "dense", "oracle", "no_recompute", "", "wa\"rp\n"];

fn pick(words: &mut impl Iterator<Item = u32>) -> usize {
    words.next().unwrap_or(0) as usize
}

/// A JSON tree grown from an entropy stream. Floats are never whole
/// and always finite, so a tree round-trips exactly.
fn tree(words: &mut impl Iterator<Item = u32>, depth: usize) -> Json {
    match pick(words) % if depth == 0 { 6 } else { 8 } {
        0 => Json::Null,
        1 => Json::Bool(pick(words) % 2 == 0),
        2 | 3 => Json::Int(INTS[pick(words) % INTS.len()]),
        4 => Json::Num(pick(words) as f64 + 0.5),
        5 => Json::Str(WORDS[pick(words) % WORDS.len()].to_string()),
        6 => Json::Arr(
            (0..pick(words) % 4)
                .map(|_| tree(words, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..pick(words) % 8)
                .map(|_| {
                    let key = KEYS[pick(words) % KEYS.len()];
                    (key.to_string(), tree(words, depth - 1))
                })
                .collect(),
        ),
    }
}

/// A request body: mostly an object over the protocol's field names
/// whose values are usually of the right kind — catalog names, mode
/// words, limit-straddling integers — so the protocol parsers see
/// accepted and rejected shapes alike; sometimes any tree at all.
fn body(words: &mut impl Iterator<Item = u32>) -> Json {
    if pick(words) % 8 == 0 {
        return tree(words, 4);
    }
    let mut fields = std::collections::BTreeMap::new();
    for key in KEYS {
        if pick(words) % 2 == 0 {
            continue;
        }
        let value = match (pick(words) % 4, key) {
            (0, _) => tree(words, 2),
            (_, "model") => Json::Str(MODEL_NAMES[pick(words) % MODEL_NAMES.len()].to_string()),
            (_, "mode" | "action") => Json::Str(WORDS[pick(words) % WORDS.len()].to_string()),
            _ => Json::Int(INTS[pick(words) % INTS.len()]),
        };
        fields.insert(key.to_string(), value);
    }
    Json::Obj(fields)
}

proptest! {
    #[test]
    fn read_request_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(0u16..256, 0..2049),
    ) {
        drain_requests(bytes.into_iter().map(|b| b as u8).collect());
    }

    #[test]
    fn read_request_survives_mutated_valid_requests(
        edits in proptest::collection::vec(0u32..u32::MAX, 0..6),
        keep in 0usize..4096,
        repeat in 1usize..4,
    ) {
        // Pipelined copies of a well-formed request, a few bytes
        // overwritten, the tail cut anywhere.
        let mut bytes = valid_request().repeat(repeat);
        for e in edits {
            let at = (e >> 8) as usize % bytes.len();
            bytes[at] = e as u8;
        }
        bytes.truncate(keep % (bytes.len() + 1));
        drain_requests(bytes);
    }

    #[test]
    fn json_parse_survives_arbitrary_strings(
        picks in proptest::collection::vec(0usize..JSON_ALPHABET.len(), 0..256),
        bytes in proptest::collection::vec(0u16..256, 0..64),
    ) {
        check_json_text(&picks.iter().map(|&i| JSON_ALPHABET[i]).collect::<String>());
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check_json_text(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn json_parse_survives_bracket_storms(
        opens in proptest::collection::vec(proptest::bool::ANY, 0..4096),
        close in proptest::bool::ANY,
    ) {
        // Far deeper than the cap, well-formed or not: an error, never
        // a stack overflow.
        let mut text: String = opens.iter().map(|&b| if b { '[' } else { '{' }).collect();
        if close {
            text.extend(opens.iter().rev().map(|&b| if b { ']' } else { '}' }));
        }
        check_json_text(&text);
        let nested = opens.len();
        let arrays = format!("{}{}", "[".repeat(nested), "]".repeat(nested));
        prop_assert_eq!(Json::parse(&arrays).is_ok(), (1..=MAX_DEPTH).contains(&nested));
    }

    #[test]
    fn json_trees_round_trip_and_protocol_parsers_hold_their_bounds(
        words in proptest::collection::vec(0u32..u32::MAX, 1..96),
    ) {
        let value = body(&mut words.into_iter());
        prop_assert_eq!(Json::parse(&value.to_string()).as_ref(), Ok(&value));

        if let Ok(serve) = ServeRequest::parse(&value) {
            prop_assert!(MODEL_NAMES.contains(&serve.model.as_str()));
            for (field, max) in [
                (serve.layers, MAX_LAYERS),
                (serve.heads, MAX_HEADS),
                (serve.seq_len, MAX_SEQ_LEN),
            ] {
                prop_assert!(field.map_or(true, |n| (1..=max).contains(&n)));
            }
        }
        if let Ok(open) = DecodeOpen::parse(&value) {
            prop_assert!((1..=MAX_SEQ_LEN).contains(&open.seq_len));
            prop_assert!((1..open.seq_len).contains(&open.prefill));
        }
    }
}

#[test]
fn a_string_value_at_the_body_scale_parses_in_linear_time() {
    // 1 MiB of ASCII and multi-byte characters with one escape in the
    // middle: a parser that revalidates the rest of the input on every
    // character does not get through this in a debug build.
    let half = "ab é€𝄞 ".repeat((1 << 19) / 13 + 1);
    let text = format!("{{\"k\":\"{half}\\n{half}\"}}");
    assert!(text.len() > 1 << 20);
    let value = Json::parse(&text).expect("a long string is still a string");
    assert_eq!(
        value.str_field("k"),
        Some(format!("{half}\n{half}").as_str())
    );
    assert_eq!(value.to_string(), text);
}

#[test]
fn the_body_generator_reaches_accepted_requests() {
    // The bounds above are vacuous if nothing is ever accepted.
    let mut runner = proptest::runner("never_panic::acceptance");
    let strategy = proptest::collection::vec(0u32..u32::MAX, 1..96);
    let (mut served, mut opened) = (0, 0);
    for _ in 0..500 {
        let value = body(&mut strategy.sample(&mut runner).into_iter());
        served += ServeRequest::parse(&value).is_ok() as usize;
        opened += DecodeOpen::parse(&value).is_ok() as usize;
    }
    assert!(served > 0 && opened > 0, "{served} served, {opened} opened");
}
