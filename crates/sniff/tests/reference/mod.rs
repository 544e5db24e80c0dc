//! The naive reference sniffer that the crate's text kernels must
//! reproduce: the text heuristics as they stood before the byte-pass
//! kernels, kept verbatim. The signature match and the ZIP refinement are
//! the crate's own ([`cryptodrop_sniff::match_magic`]).
//!
//! Test targets include this file as a module (`mod reference;`, or with
//! `#[path]` from another crate's tests) and assert
//! `cryptodrop_sniff::sniff(b) == reference::sniff(b)`.

use cryptodrop_sniff::{match_magic, FileType};

/// How many leading bytes to inspect for structure detection.
const SCAN_LIMIT: usize = 8 * 1024;

/// The reference [`cryptodrop_sniff::sniff`]: the crate's signature
/// match, else the reference text heuristics.
pub fn sniff(bytes: &[u8]) -> FileType {
    match_magic(bytes).unwrap_or_else(|| classify_text(bytes))
}

/// The reference [`cryptodrop_sniff::classify_text`].
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
    let lower_head: String = trimmed.chars().take(64).collect::<String>().to_ascii_lowercase();
    if lower_head.starts_with("<!doctype html") || lower_head.starts_with("<html") {
        return FileType::Html;
    }
    if lower_head.starts_with("<?xml") {
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

/// Text is "printable" when control characters (other than whitespace) make
/// up under 1% of the sample — the same spirit as `file`'s ASCII test.
fn is_mostly_printable(text: &str) -> bool {
    let mut total = 0usize;
    let mut control = 0usize;
    for c in text.chars() {
        total += 1;
        if c.is_control() && !matches!(c, '\n' | '\r' | '\t') {
            control += 1;
        }
    }
    total > 0 && control * 100 <= total
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
    let head: String = t.chars().take(256).collect();
    if truncated {
        // A quoted string followed by a colon is JSON's signature shape.
        return head
            .match_indices('"')
            .any(|(i, _)| head[i + 1..].contains("\":"));
    }
    if !t.ends_with(close) {
        return false;
    }
    head.contains('"') || head.chars().any(|c| c.is_ascii_digit())
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
fn looks_like_base64(text: &str) -> bool {
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    if compact.len() < 40 {
        return false;
    }
    let body = compact.trim_end_matches('=');
    if compact.len() - body.len() > 2 {
        return false;
    }
    body.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '/')
        // Require a mixed alphabet so ordinary words do not qualify.
        && body.chars().any(|c| c.is_ascii_uppercase())
        && body.chars().any(|c| c.is_ascii_lowercase())
        && body.chars().any(|c| c.is_ascii_digit())
}
