//! The magic-number signature database.
//!
//! Mirrors the approach of the `file` utility's magic database (paper
//! §III-A): each signature describes "the order and position of specific
//! byte values unique to a file type". Signatures are checked in priority
//! order; ZIP containers are further introspected to distinguish OOXML and
//! OpenDocument formats from plain archives.

use crate::types::FileType;

/// One magic-number signature.
#[derive(Debug, Clone, Copy)]
pub struct Signature {
    /// The file type this signature identifies.
    pub file_type: FileType,
    /// Byte offset at which the pattern must appear.
    pub offset: usize,
    /// The literal byte pattern.
    pub pattern: &'static [u8],
    /// An optional second pattern at a second offset (e.g. RIFF + WAVE).
    pub second: Option<(usize, &'static [u8])>,
}

impl Signature {
    const fn simple(file_type: FileType, pattern: &'static [u8]) -> Self {
        Self {
            file_type,
            offset: 0,
            pattern,
            second: None,
        }
    }

    const fn at(file_type: FileType, offset: usize, pattern: &'static [u8]) -> Self {
        Self {
            file_type,
            offset,
            pattern,
            second: None,
        }
    }

    const fn pair(
        file_type: FileType,
        pattern: &'static [u8],
        second_offset: usize,
        second_pattern: &'static [u8],
    ) -> Self {
        Self {
            file_type,
            offset: 0,
            pattern,
            second: Some((second_offset, second_pattern)),
        }
    }

    /// Tests this signature against a buffer.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        let hit = |offset: usize, pattern: &[u8]| {
            bytes.len() >= offset + pattern.len() && &bytes[offset..offset + pattern.len()] == pattern
        };
        hit(self.offset, self.pattern)
            && self.second.is_none_or(|(off, pat)| hit(off, pat))
    }
}

/// The built-in signature database, in match-priority order.
///
/// More specific signatures (longer patterns, paired patterns) come before
/// generic ones so that, e.g., WAV (RIFF+WAVE) wins over a bare RIFF check.
pub const SIGNATURES: &[Signature] = &[
    // Paired RIFF containers first.
    Signature::pair(FileType::Wav, b"RIFF", 8, b"WAVE"),
    Signature::pair(FileType::Avi, b"RIFF", 8, b"AVI "),
    Signature::pair(FileType::WebP, b"RIFF", 8, b"WEBP"),
    // Documents.
    Signature::simple(FileType::Pdf, b"%PDF-"),
    Signature::simple(FileType::Rtf, b"{\\rtf"),
    Signature::simple(
        FileType::OleCompound,
        &[0xD0, 0xCF, 0x11, 0xE0, 0xA1, 0xB1, 0x1A, 0xE1],
    ),
    // Images.
    Signature::simple(FileType::Png, &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]),
    Signature::simple(FileType::Jpeg, &[0xFF, 0xD8, 0xFF]),
    Signature::simple(FileType::Gif, b"GIF87a"),
    Signature::simple(FileType::Gif, b"GIF89a"),
    Signature::simple(FileType::Tiff, &[0x49, 0x49, 0x2A, 0x00]),
    Signature::simple(FileType::Tiff, &[0x4D, 0x4D, 0x00, 0x2A]),
    Signature::simple(FileType::Bmp, b"BM"),
    // Audio / video.
    Signature::simple(FileType::Mp3, b"ID3"),
    Signature::simple(FileType::Mp3, &[0xFF, 0xFB]),
    Signature::simple(FileType::Mp3, &[0xFF, 0xF3]),
    Signature::simple(FileType::Mp3, &[0xFF, 0xF2]),
    Signature::simple(FileType::Ogg, b"OggS"),
    Signature::simple(FileType::Flac, b"fLaC"),
    Signature::simple(FileType::Midi, b"MThd"),
    Signature::at(FileType::Mp4, 4, b"ftyp"),
    // Archives (ZIP is refined by container introspection in the sniffer).
    Signature::simple(FileType::Zip, &[b'P', b'K', 0x03, 0x04]),
    Signature::simple(FileType::Gzip, &[0x1F, 0x8B]),
    Signature::simple(FileType::SevenZip, &[b'7', b'z', 0xBC, 0xAF, 0x27, 0x1C]),
    Signature::simple(FileType::Rar, &[b'R', b'a', b'r', b'!', 0x1A, 0x07]),
    // Executables and system formats.
    Signature::simple(FileType::Elf, &[0x7F, b'E', b'L', b'F']),
    Signature::simple(FileType::Lnk, &[0x4C, 0x00, 0x00, 0x00, 0x01, 0x14, 0x02, 0x00]),
    Signature::simple(FileType::Pe, b"MZ"),
    // Databases.
    Signature::simple(FileType::Sqlite, b"SQLite format 3\x00"),
    // Windows icon: weak signature, checked last among binaries.
    Signature::simple(FileType::Ico, &[0x00, 0x00, 0x01, 0x00]),
];

/// How many leading bytes of a ZIP container to scan for member names when
/// distinguishing OOXML/ODF documents from plain archives.
const CONTAINER_SCAN_LIMIT: usize = 16 * 1024;

/// Matches a buffer against the signature database, refining ZIP containers
/// into their document formats. Returns `None` if no binary signature
/// matches (the caller then applies text heuristics).
pub fn match_magic(bytes: &[u8]) -> Option<FileType> {
    let base = SIGNATURES.iter().find(|s| s.matches(bytes))?.file_type;
    if base == FileType::Zip {
        Some(refine_zip(bytes))
    } else {
        Some(base)
    }
}

/// Distinguishes OOXML (docx/xlsx/pptx) and OpenDocument (odt/ods/odp)
/// containers from plain ZIP archives by scanning the leading local-file
/// headers for characteristic member names, as `file`'s magic database does.
fn refine_zip(bytes: &[u8]) -> FileType {
    let window = &bytes[..bytes.len().min(CONTAINER_SCAN_LIMIT)];
    // OpenDocument declares its type in an uncompressed `mimetype` member
    // that must be the first entry in the archive.
    if find(window, b"mimetypeapplication/vnd.oasis.opendocument.text").is_some() {
        return FileType::Odt;
    }
    if find(window, b"mimetypeapplication/vnd.oasis.opendocument.spreadsheet").is_some() {
        return FileType::Ods;
    }
    if find(window, b"mimetypeapplication/vnd.oasis.opendocument.presentation").is_some() {
        return FileType::Odp;
    }
    // OOXML is identified by its package layout.
    let has_content_types = find(window, b"[Content_Types].xml").is_some();
    if has_content_types || find(window, b"_rels/.rels").is_some() {
        if find(window, b"word/").is_some() {
            return FileType::Docx;
        }
        if find(window, b"xl/").is_some() {
            return FileType::Xlsx;
        }
        if find(window, b"ppt/").is_some() {
            return FileType::Pptx;
        }
    }
    FileType::Zip
}

/// Naive substring search: one slice comparison per haystack position.
/// The needles are short, but the window is up to 16 KiB and `refine_zip`
/// scans it up to five times per container: typing a 20 KiB docx takes
/// about 180 µs (`primitives` bench, `sniff/docx_20k`, 2-vCPU Xeon VM).
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zip_with_member(name: &[u8]) -> Vec<u8> {
        // A minimal fake local-file-header prefix: PK\x03\x04 + filler +
        // the member name, which is all the refiner inspects.
        let mut v = vec![b'P', b'K', 0x03, 0x04];
        v.extend_from_slice(&[0u8; 26]);
        v.extend_from_slice(b"[Content_Types].xml");
        v.extend_from_slice(&[b'P', b'K', 0x03, 0x04]);
        v.extend_from_slice(&[0u8; 26]);
        v.extend_from_slice(name);
        v.extend_from_slice(&[0u8; 64]);
        v
    }

    #[test]
    fn basic_signatures() {
        assert_eq!(match_magic(b"%PDF-1.5 blah"), Some(FileType::Pdf));
        assert_eq!(
            match_magic(&[0xFF, 0xD8, 0xFF, 0xE0, 0x00]),
            Some(FileType::Jpeg)
        );
        assert_eq!(match_magic(b"GIF89a......"), Some(FileType::Gif));
        assert_eq!(match_magic(b"{\\rtf1\\ansi"), Some(FileType::Rtf));
        assert_eq!(match_magic(b"ID3\x04rest"), Some(FileType::Mp3));
        assert_eq!(match_magic(b"MZ\x90\x00"), Some(FileType::Pe));
        assert_eq!(match_magic(b"SQLite format 3\x00"), Some(FileType::Sqlite));
        assert_eq!(match_magic(&[0x7F, b'E', b'L', b'F', 2]), Some(FileType::Elf));
        assert_eq!(match_magic(&[0x1F, 0x8B, 0x08]), Some(FileType::Gzip));
        assert_eq!(
            match_magic(&[b'7', b'z', 0xBC, 0xAF, 0x27, 0x1C, 0]),
            Some(FileType::SevenZip)
        );
    }

    #[test]
    fn paired_riff_signatures() {
        let mut wav = b"RIFF".to_vec();
        wav.extend_from_slice(&[0; 4]);
        wav.extend_from_slice(b"WAVEfmt ");
        assert_eq!(match_magic(&wav), Some(FileType::Wav));

        let mut avi = b"RIFF".to_vec();
        avi.extend_from_slice(&[0; 4]);
        avi.extend_from_slice(b"AVI LIST");
        assert_eq!(match_magic(&avi), Some(FileType::Avi));

        // A bare RIFF header with an unknown form type matches nothing.
        let mut riff = b"RIFF".to_vec();
        riff.extend_from_slice(&[0; 4]);
        riff.extend_from_slice(b"XXXX");
        assert_eq!(match_magic(&riff), None);
    }

    #[test]
    fn offset_signature_mp4() {
        let mut mp4 = vec![0x00, 0x00, 0x00, 0x20];
        mp4.extend_from_slice(b"ftypisom");
        assert_eq!(match_magic(&mp4), Some(FileType::Mp4));
    }

    #[test]
    fn zip_refinement() {
        assert_eq!(match_magic(&zip_with_member(b"word/document.xml")), Some(FileType::Docx));
        assert_eq!(match_magic(&zip_with_member(b"xl/workbook.xml")), Some(FileType::Xlsx));
        assert_eq!(
            match_magic(&zip_with_member(b"ppt/presentation.xml")),
            Some(FileType::Pptx)
        );
        assert_eq!(match_magic(&zip_with_member(b"random/file.bin")), Some(FileType::Zip));

        let mut odt = vec![b'P', b'K', 0x03, 0x04];
        odt.extend_from_slice(&[0u8; 26]);
        odt.extend_from_slice(b"mimetypeapplication/vnd.oasis.opendocument.text");
        assert_eq!(match_magic(&odt), Some(FileType::Odt));
    }

    #[test]
    fn truncated_buffers_do_not_match() {
        assert_eq!(match_magic(b"%PD"), None);
        assert_eq!(match_magic(b""), None);
        assert_eq!(match_magic(b"P"), None);
    }

    #[test]
    fn signature_matches_respects_offset_bounds() {
        let sig = Signature::at(FileType::Mp4, 4, b"ftyp");
        assert!(!sig.matches(b"ftyp"), "pattern at wrong offset");
        assert!(!sig.matches(b"xxxxfty"), "buffer too short");
        assert!(sig.matches(b"xxxxftyp"));
    }

    #[test]
    fn find_edge_cases() {
        assert_eq!(find(b"", b"x"), None);
        assert_eq!(find(b"abc", b""), None);
        assert_eq!(find(b"abc", b"abcd"), None);
        assert_eq!(find(b"xxabcxx", b"abc"), Some(2));
    }
}
