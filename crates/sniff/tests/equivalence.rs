//! `sniff` equals the naive reference sniffer (`tests/reference`) on
//! every input: arbitrary bytes, ASCII-heavy text, strings built from the
//! characters the text kernels treat specially (Unicode whitespace, C1
//! controls, BOMs, `=` padding), and windows that cut a multibyte
//! character at the 8 KiB edge.

mod reference;

use cryptodrop_sniff::{classify_text, sniff};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::{ProptestConfig, TestCaseError};

/// The text scan window (`text::SCAN_LIMIT`).
const SCAN_LIMIT: usize = 8 * 1024;

/// Pieces the text heuristics branch on: Unicode whitespace (U+0085,
/// U+00A0, U+2003, U+3000), C1 controls (U+0080, U+009F), C0 controls and
/// DEL, a BOM character, the base64 alphabet and its `=` padding, JSON,
/// CSV, HTML and XML punctuation, and multibyte letters.
const PIECES: &[&str] = &[
    "a",
    "Z",
    "7",
    "+",
    "/",
    "=",
    "==",
    " ",
    "\n",
    "\r\n",
    "\t",
    "\u{85}",
    "\u{a0}",
    "\u{2003}",
    "\u{3000}",
    "\u{80}",
    "\u{9f}",
    "\u{1}",
    "\u{1b}",
    "\u{7f}",
    "\u{feff}",
    "é",
    "€",
    "😀",
    ",",
    ", ",
    "\"",
    "\":",
    "{",
    "}",
    "[",
    "]",
    "<",
    "<html",
    "<!DOCTYPE HTML",
    "<?xml",
    "TWFu",
    "aGVsbG8",
    "QUJD",
    "word",
];

/// A string of `PIECES`, drawn by index.
fn pieces(max: usize) -> impl Strategy<Value = String> {
    vec(0..PIECES.len(), 0..max).prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

/// A prefix the encoding checks branch on: none, the UTF-8 BOM, a UTF-16
/// BOM, or leading whitespace.
fn prefix() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        Just(vec![0xEF, 0xBB, 0xBF]),
        Just(vec![0xFF, 0xFE]),
        Just(b"  \n".to_vec()),
    ]
}

/// Mostly printable ASCII, with a control, DEL or high byte in about one
/// position of twenty.
fn ascii_heavy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    vec((0u32..20, any::<u8>()), 0..max).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(roll, b)| if roll == 0 { b } else { 0x20 + b % 0x5F })
            .collect()
    })
}

/// Asserts that `sniff` and `classify_text` agree with the reference.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (got, want) = (sniff(bytes), reference::sniff(bytes));
    prop_assert!(
        got == want,
        "sniff {got:?} != reference {want:?} on {} bytes",
        bytes.len()
    );
    let (got, want) = (classify_text(bytes), reference::classify_text(bytes));
    prop_assert!(
        got == want,
        "classify_text {got:?} != reference {want:?} on {} bytes",
        bytes.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes(data in vec(any::<u8>(), 0..2 * SCAN_LIMIT + 64)) {
        check(&data)?;
    }

    #[test]
    fn ascii_heavy_text(pre in prefix(), body in ascii_heavy(SCAN_LIMIT + 512)) {
        check(&[pre, body].concat())?;
    }

    /// Small counts of controls sit at the 1% printability threshold.
    #[test]
    fn special_characters(pre in prefix(), text in pieces(400)) {
        check(&[pre.as_slice(), text.as_bytes()].concat())?;
    }

    /// Controls near the 1% threshold among multibyte characters: the
    /// threshold counts characters, not bytes.
    #[test]
    fn printability_threshold_counts_characters(
        n in 50usize..400,
        m in 0usize..6,
        wide in 0usize..4,
        control in 0usize..3,
    ) {
        let wide = ["é", "€", "😀", "\u{a0}"][wide];
        let control = ["\u{1}", "\u{7f}", "\u{85}"][control];
        let text = [wide.repeat(n), control.repeat(m)].concat();
        check(text.as_bytes())?;
    }

    /// Text past the 8 KiB window that opens like JSON, so the truncated
    /// `"key":` test runs on its 256-character head.
    #[test]
    fn truncated_json_shapes(open in 0usize..2, head in pieces(80), pad in 0usize..2) {
        let open = ["{", "["][open];
        let fill = ["x", "é"][pad];
        let text = [open, &head, &fill.repeat(SCAN_LIMIT)].concat();
        check(text.as_bytes())?;
    }

    /// Base64 candidates: the alphabet in lines, with or without a
    /// stray piece, padding and trailing whitespace.
    #[test]
    fn base64_shapes(
        lines in vec("[A-Za-z0-9+/]{0,40}", 1..6),
        pad in "={0,3}",
        stray in pieces(2),
        tail in "[ \n\t]{0,3}",
    ) {
        let text = format!("{}{stray}{pad}{tail}", lines.join("\n"));
        check(text.as_bytes())?;
    }

    /// A multibyte character (2, 3 or 4 bytes) starting 0–4 bytes before
    /// the 8 KiB window edge, behind an optional BOM and a leading C1
    /// control or Unicode space.
    #[test]
    fn window_cuts_a_multibyte_char(
        pre in prefix(),
        back in 0usize..5,
        ch in 0usize..4,
        lead in pieces(3),
        tail in ascii_heavy(64),
    ) {
        let wide = ["é", "€", "😀", "\u{85}"][ch];
        let body_len = SCAN_LIMIT.saturating_sub(back + lead.len());
        let mut text = [pre.as_slice(), lead.as_bytes()].concat();
        text.extend(std::iter::repeat_n(b'x', body_len));
        text.extend_from_slice(wide.as_bytes());
        text.extend_from_slice(&tail);
        check(&text)?;
    }
}

/// A quote or digit as the 255th, 256th or 257th character of a JSON-like
/// head, behind one- and two-byte characters: the JSON test reads exactly
/// the first 256 characters.
#[test]
fn json_head_is_256_characters() {
    for fill in ["x", "é"] {
        for at in 250..260 {
            for (open, close) in [("[", "]"), ("{", "}")] {
                for mark in ["1", "\"", "\":"] {
                    let short = [open, &fill.repeat(at - 1), mark, &fill.repeat(8), close].concat();
                    let long = [
                        open,
                        &fill.repeat(at - 1),
                        "\"",
                        mark,
                        &fill.repeat(SCAN_LIMIT),
                    ]
                    .concat();
                    for text in [short, long] {
                        let bytes = text.as_bytes();
                        assert_eq!(
                            sniff(bytes),
                            reference::sniff(bytes),
                            "{fill:?} x {at}, {mark:?}"
                        );
                    }
                }
            }
        }
    }
}
