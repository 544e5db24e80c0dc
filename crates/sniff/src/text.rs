//! Heuristic classification of text-like content.
//!
//! Applied when no binary magic signature matches. Mirrors the behaviour of
//! the `file` utility's language/text tests: detect the encoding first
//! (UTF-16 BOM, UTF-8 validity, printability), then refine into structured
//! text formats (HTML, XML, JSON, CSV, base64).

use crate::types::FileType;

/// How many leading bytes to inspect for structure detection.
const SCAN_LIMIT: usize = 8 * 1024;

/// Classifies a buffer that matched no binary signature.
///
/// Returns [`FileType::Empty`] for zero-length input, a text type when the
/// buffer is printable text, and [`FileType::Data`] otherwise.
pub fn classify_text(bytes: &[u8]) -> FileType {
    if bytes.is_empty() {
        return FileType::Empty;
    }
    // UTF-16 byte order marks.
    if bytes.len() >= 2 && (bytes[..2] == [0xFF, 0xFE] || bytes[..2] == [0xFE, 0xFF]) {
        return FileType::Utf16Text;
    }
    // Strip a UTF-8 BOM if present.
    let body = if bytes.len() >= 3 && bytes[..3] == [0xEF, 0xBB, 0xBF] {
        &bytes[3..]
    } else {
        bytes
    };
    let truncated = body.len() > SCAN_LIMIT;
    let window = &body[..body.len().min(SCAN_LIMIT)];
    let Ok(text) = std::str::from_utf8(window) else {
        // The window may split a multi-byte sequence at its end; retry with
        // up to 3 bytes trimmed before giving up.
        for trim in 1..=3.min(window.len()) {
            if let Ok(text) = std::str::from_utf8(&window[..window.len() - trim]) {
                return refine_text(text, truncated);
            }
        }
        return FileType::Data;
    };
    refine_text(text, truncated)
}

fn refine_text(text: &str, truncated: bool) -> FileType {
    if !is_mostly_printable(text) {
        return FileType::Data;
    }
    let trimmed = text.trim_start();
    if starts_with_ignore_ascii_case(trimmed, "<!doctype html")
        || starts_with_ignore_ascii_case(trimmed, "<html")
    {
        return FileType::Html;
    }
    if starts_with_ignore_ascii_case(trimmed, "<?xml") {
        return FileType::Xml;
    }
    if looks_like_json(trimmed, truncated) {
        return FileType::Json;
    }
    if looks_like_csv(text) {
        return FileType::Csv;
    }
    if looks_like_base64(text) {
        return FileType::Base64Text;
    }
    FileType::Utf8Text
}

/// Whether `text` starts with the lowercase ASCII `prefix`, ignoring ASCII
/// case. Compared in place: lowercasing only touches ASCII bytes, so no
/// other byte can match a byte of `prefix`.
fn starts_with_ignore_ascii_case(text: &str, prefix: &str) -> bool {
    text.as_bytes()
        .get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
}

/// Text is "printable" when control characters (other than whitespace) make
/// up under 1% of its characters — the same spirit as `file`'s ASCII test.
///
/// One pass over the UTF-8 bytes, with no branch on their values: the
/// characters are the bytes that are not continuation bytes
/// (`0b10xxxxxx`), and the control characters (`char::is_control`) are the
/// C0 set and DEL, one byte each, and the C1 set U+0080–U+009F, encoded
/// `C2 80`–`C2 9F`. Counts are kept per 64-byte chunk in `u8` lanes: on
/// the `primitives` bench's `sniff/16k_text` (2-vCPU Xeon VM) the whole
/// sniff takes 3.0–5.1 µs this way and 21–26 µs when the same pass counts
/// into `usize` with no chunks.
fn is_mostly_printable(text: &str) -> bool {
    let bytes = text.as_bytes();
    let (mut chars, mut control) = (0usize, 0usize);
    let mut prev = 0u8;
    for chunk in bytes.chunks(64) {
        let (mut c, mut k) = (0u8, 0u8);
        for &b in chunk {
            let c0 = (b < 0x20) & (b != b'\t') & (b != b'\n') & (b != b'\r');
            let c1 = (prev == 0xC2) & (b < 0xA0);
            c += u8::from(b & 0xC0 != 0x80);
            k += u8::from(c0 | (b == 0x7F) | c1);
            prev = b;
        }
        chars += usize::from(c);
        control += usize::from(k);
    }
    chars > 0 && control * 100 <= chars
}

/// A shallow JSON shape test: starts with `{` or `[`, ends (ignoring
/// whitespace) with the matching bracket, and contains a quoted key early
/// on. When the sample is a truncated window of a larger file, the closing
/// bracket cannot be required and a `"key":` pattern substitutes for it.
/// Deliberately cheap — this is a sniffer, not a parser.
fn looks_like_json(text: &str, truncated: bool) -> bool {
    let t = text.trim();
    let close = match t.as_bytes().first() {
        Some(b'{') => '}',
        Some(b'[') => ']',
        _ => return false,
    };
    // The first 256 characters, borrowed.
    let head = &t[..t.char_indices().nth(256).map_or(t.len(), |(i, _)| i)];
    if truncated {
        // A quoted string followed by a colon is JSON's signature shape.
        return head.find('"').is_some_and(|i| head[i + 1..].contains("\":"));
    }
    if !t.ends_with(close) {
        return false;
    }
    head.bytes().any(|b| b == b'"' || b.is_ascii_digit())
}

/// CSV: at least two non-empty lines with a consistent count of *field
/// separators* — commas not followed by a space. English prose also
/// contains commas, but virtually always as ", " pairs, so requiring bare
/// commas keeps prose out.
fn looks_like_csv(text: &str) -> bool {
    let mut counts = Vec::new();
    for line in text.lines().take(8) {
        if line.is_empty() {
            continue;
        }
        counts.push(bare_comma_count(line));
        if counts.len() >= 4 {
            break;
        }
    }
    counts.len() >= 2 && counts[0] >= 1 && counts.iter().all(|&c| c == counts[0])
}

/// Counts commas that are not followed by whitespace.
fn bare_comma_count(line: &str) -> usize {
    let bytes = line.as_bytes();
    bytes
        .iter()
        .enumerate()
        .filter(|&(i, &b)| {
            b == b','
                && bytes
                    .get(i + 1)
                    .is_none_or(|&n| n != b' ' && n != b'\t')
        })
        .count()
}

/// Base64: lines composed solely of the base64 alphabet, at least 40
/// significant characters, with proper `=` padding only at the very end.
/// One pass that skips whitespace and stops at the first character that
/// cannot belong: one outside the alphabet, or anything but `=` after a `=`.
fn looks_like_base64(text: &str) -> bool {
    let (mut len, mut pad) = (0usize, 0usize);
    let (mut upper, mut lower, mut digit) = (false, false, false);
    for c in text.chars() {
        match c {
            'A'..='Z' if pad == 0 => upper = true,
            'a'..='z' if pad == 0 => lower = true,
            '0'..='9' if pad == 0 => digit = true,
            '+' | '/' if pad == 0 => {}
            '=' => pad += 1,
            c if c.is_whitespace() => continue,
            _ => return false,
        }
        len += 1;
    }
    // Require a mixed alphabet so ordinary words do not qualify.
    len >= 40 && pad <= 2 && upper && lower && digit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_binary() {
        assert_eq!(classify_text(b""), FileType::Empty);
        assert_eq!(classify_text(&[0x00, 0x01, 0x02, 0xFF]), FileType::Data);
        // High-entropy ciphertext-like bytes are "data". (Avoid starting
        // with FF FE / FE FF, which would be a UTF-16 byte-order mark.)
        let cipher: Vec<u8> = (0..=255u8).map(|b| b.wrapping_mul(167)).collect();
        assert_eq!(classify_text(&cipher), FileType::Data);
    }

    #[test]
    fn plain_text() {
        assert_eq!(
            classify_text(b"Dear diary, today I wrote a filesystem.\n"),
            FileType::Utf8Text
        );
        // UTF-8 with a BOM.
        let mut bom = vec![0xEF, 0xBB, 0xBF];
        bom.extend_from_slice("héllo wörld, ünicode".as_bytes());
        assert_eq!(classify_text(&bom), FileType::Utf8Text);
    }

    #[test]
    fn utf16_boms() {
        assert_eq!(classify_text(&[0xFF, 0xFE, b'h', 0, b'i', 0]), FileType::Utf16Text);
        assert_eq!(classify_text(&[0xFE, 0xFF, 0, b'h', 0, b'i']), FileType::Utf16Text);
    }

    #[test]
    fn html_and_xml() {
        assert_eq!(
            classify_text(b"<!DOCTYPE html><html><body>x</body></html>"),
            FileType::Html
        );
        assert_eq!(classify_text(b"  <html lang=\"en\"><head>"), FileType::Html);
        assert_eq!(
            classify_text(b"<?xml version=\"1.0\"?><root/>"),
            FileType::Xml
        );
    }

    #[test]
    fn json_shapes() {
        assert_eq!(classify_text(br#"{"key": "value", "n": 3}"#), FileType::Json);
        assert_eq!(classify_text(b"[1, 2, 3]"), FileType::Json);
        assert_eq!(classify_text(b"{not json"), FileType::Utf8Text);
        assert_eq!(classify_text(b"plain prose with, commas"), FileType::Utf8Text);
    }

    #[test]
    fn csv_detection() {
        assert_eq!(
            classify_text(b"name,age,city\nalice,30,lisbon\nbob,25,porto\n"),
            FileType::Csv
        );
        // Inconsistent field counts are not CSV.
        assert_eq!(
            classify_text(b"a,b,c\nd,e\nf,g,h\n"),
            FileType::Utf8Text
        );
        // A single line is not CSV.
        assert_eq!(classify_text(b"a,b,c"), FileType::Utf8Text);
    }

    #[test]
    fn base64_detection() {
        let b64 = b"TWFuIGlzIGRpc3Rpbmd1aXNoZWQsIG5vdCBvbmx5IGJ5IGhpcyByZWFzb24g\nYnV0IGJ5IHRoaXMgc2luZ3VsYXIgcGFzc2lvbg==";
        assert_eq!(classify_text(b64), FileType::Base64Text);
        // Too short.
        assert_eq!(classify_text(b"SGVsbG8="), FileType::Utf8Text);
        // Ordinary words are not base64 despite the alphabet.
        assert_eq!(
            classify_text(b"the quick brown fox jumps over the lazy dog again"),
            FileType::Utf8Text
        );
    }

    #[test]
    fn window_boundary_multibyte_is_tolerated() {
        // Build text slightly over the scan window ending mid-codepoint.
        let mut text = "a".repeat(SCAN_LIMIT - 1);
        text.push('é'); // 2-byte UTF-8 char straddling the window edge
        text.push_str(&"b".repeat(16));
        assert_eq!(classify_text(text.as_bytes()), FileType::Utf8Text);
    }

    #[test]
    fn mostly_printable_threshold() {
        assert!(is_mostly_printable("normal text\nwith lines\t"));
        let noisy: String = std::iter::repeat_n('\u{1}', 50).chain("ok".chars()).collect();
        assert!(!is_mostly_printable(&noisy));
        assert!(!is_mostly_printable(""));
    }
}
