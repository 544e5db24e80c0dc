//! The thirty benign Windows applications of the paper's false-positive
//! study (§V-F).
//!
//! Five applications are modeled in procedural detail, following the
//! paper's exact test scripts (Fig. 6): Adobe Lightroom (final score 107),
//! ImageMagick (0), iTunes (16), Microsoft Word (0), and Microsoft Excel
//! (150). 7-zip is modeled with a real compressor because it is the
//! paper's one expected false positive. The remaining applications are
//! lighter profiles whose filesystem behaviour matches how each product
//! touches user documents.

use cryptodrop_corpus::gen;
use cryptodrop_vfs::{ProcessId, Vfs, VfsResult, VPath};
use rand::rngs::StdRng;
use rand::Rng;

use crate::compress::compress;
use crate::helpers::{find_files, overwrite_in_place, read_whole, write_new};

/// A benign application workload.
///
/// `stage` installs any app-specific inputs (e.g. Lightroom's photo
/// library) via unfiltered admin writes; `run` performs the application's
/// activity through ordinary monitored operations.
pub trait BenignApp: Send {
    /// The application's display name, as in the paper's list.
    fn name(&self) -> &'static str;

    /// The simulated executable name.
    fn executable(&self) -> &'static str;

    /// Installs app-specific input files (unmonitored setup).
    ///
    /// # Errors
    ///
    /// Propagates staging failures.
    fn stage(&self, _fs: &mut Vfs, _docs: &VPath, _rng: &mut StdRng) -> VfsResult<()> {
        Ok(())
    }

    /// Performs the application's workload as process `pid`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors — notably
    /// [`ProcessSuspended`](cryptodrop_vfs::VfsError::ProcessSuspended)
    /// when CryptoDrop flags the app (the 7-zip case).
    fn run(&self, fs: &mut Vfs, pid: ProcessId, docs: &VPath, rng: &mut StdRng) -> VfsResult<()>;
}

/// Every benign application is a [`Workload`](cryptodrop_vfs::Workload):
/// staging and the run share one RNG stream seeded from the context
/// (byte-identical to the historic `stage`-then-`run` harness path —
/// staging uses unfiltered admin writes, so running it inside `drive`
/// never scores).
impl cryptodrop_vfs::Workload for Box<dyn BenignApp> {
    fn name(&self) -> String {
        BenignApp::name(self.as_ref()).to_string()
    }

    fn pid_plan(&self) -> Vec<String> {
        vec![self.executable().to_string()]
    }

    fn drive(
        &self,
        fs: &mut Vfs,
        ctx: &cryptodrop_vfs::WorkloadCtx,
    ) -> cryptodrop_vfs::WorkloadOutcome {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        if BenignApp::stage(self.as_ref(), fs, &ctx.root, &mut rng).is_err() {
            return cryptodrop_vfs::WorkloadOutcome::default();
        }
        match BenignApp::run(self.as_ref(), fs, ctx.pid(), &ctx.root, &mut rng) {
            Ok(()) => cryptodrop_vfs::WorkloadOutcome::completed(),
            Err(e) => cryptodrop_vfs::WorkloadOutcome {
                suspended: matches!(e, cryptodrop_vfs::VfsError::ProcessSuspended(_)),
                ..cryptodrop_vfs::WorkloadOutcome::default()
            },
        }
    }
}

// ---------------------------------------------------------------------
// The five Fig. 6 applications + 7-zip
// ---------------------------------------------------------------------

/// 7-zip: archives the documents folder. Reads a large number of disparate
/// files and writes one genuinely compressed (high-entropy) archive — the
/// paper's expected false positive (§V-F/G).
#[derive(Debug, Clone)]
pub struct SevenZip {
    /// How many corpus files to archive.
    pub file_limit: usize,
}

impl Default for SevenZip {
    fn default() -> Self {
        Self { file_limit: 300 }
    }
}

impl BenignApp for SevenZip {
    fn name(&self) -> &'static str {
        "7-zip"
    }

    fn executable(&self) -> &'static str {
        "7z.exe"
    }

    fn run(&self, fs: &mut Vfs, pid: ProcessId, docs: &VPath, _rng: &mut StdRng) -> VfsResult<()> {
        let files = find_files(fs, pid, docs, None, self.file_limit)?;
        let mut payload = Vec::new();
        for f in &files {
            let data = read_whole(fs, pid, f, 64 * 1024)?;
            payload.extend_from_slice(f.as_str().as_bytes());
            payload.extend_from_slice(&data);
            if payload.len() > 6 * 1024 * 1024 {
                break;
            }
        }
        let mut archive = vec![b'7', b'z', 0xBC, 0xAF, 0x27, 0x1C, 0, 4];
        archive.extend(compress(&payload));
        write_new(fs, pid, &docs.join("documents-backup.7z"), &archive, 64 * 1024)
    }
}

/// Adobe Lightroom: imports a photo library (reading JPEGs and their XMP
/// text sidecars), builds previews and a catalog, applies automatic tone,
/// and exports five photos (§V-F; final paper score 107).
#[derive(Debug, Clone)]
pub struct Lightroom {
    /// Photos in the staged library (1,073 in the paper; scaled for
    /// simulation speed — the score comes from preview *writes*).
    pub photo_count: usize,
    /// Previews rendered during import.
    pub preview_count: usize,
}

impl Default for Lightroom {
    fn default() -> Self {
        Self {
            photo_count: 180,
            preview_count: 30,
        }
    }
}

impl BenignApp for Lightroom {
    fn name(&self) -> &'static str {
        "Adobe Lightroom"
    }

    fn executable(&self) -> &'static str {
        "lightroom.exe"
    }

    fn stage(&self, fs: &mut Vfs, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        for i in 0..self.photo_count {
            let photo = { let size = rng.gen_range(12_000..40_000); gen::image::jpeg(rng, size) };
            fs.admin().write_file(&docs.join(format!("Photos/IMG_{i:04}.jpg")), &photo)?;
            // Every photo carries an XMP metadata sidecar (develop
            // settings, keywords, edit history) that the import parses.
            let xmp = { let size = rng.gen_range(10_000..14_000); gen::text::xml(rng, size) };
            fs.admin().write_file(&docs.join(format!("Photos/IMG_{i:04}.xmp")), &xmp)?;
        }
        Ok(())
    }

    fn run(&self, fs: &mut Vfs, pid: ProcessId, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        let photos_dir = docs.join("Photos");
        // Import: read sidecars (low-entropy text) then every photo.
        let sidecars = find_files(fs, pid, &photos_dir, Some(&["xmp"]), usize::MAX)?;
        for s in &sidecars {
            read_whole(fs, pid, s, 16 * 1024)?;
        }
        let photos = find_files(fs, pid, &photos_dir, Some(&["jpg"]), usize::MAX)?;
        for p in &photos {
            read_whole(fs, pid, p, 64 * 1024)?;
            fs.advance_clock(1_500_000_000); // indexing/rendering per photo
        }
        // Previews: freshly rendered (high-entropy) JPEGs.
        for i in 0..self.preview_count {
            let preview = { let size = rng.gen_range(6_000..14_000); gen::image::jpeg(rng, size) };
            write_new(
                fs,
                pid,
                &docs.join(format!("Lightroom/previews/{i:03}.jpg")),
                &preview,
                32 * 1024,
            )?;
            fs.advance_clock(2_000_000_000); // preview render time
        }
        // Export 5 tone-adjusted photos to the documents folder.
        for i in 0..5 {
            let out = { let size = rng.gen_range(14_000..30_000); gen::image::jpeg(rng, size) };
            write_new(fs, pid, &docs.join(format!("export-{i}.jpg")), &out, 32 * 1024)?;
        }
        // Finally persist the catalog: a SQLite-ish mixed-entropy file.
        let mut catalog = b"SQLite format 3\x00".to_vec();
        catalog.extend(gen::text::xml(rng, 30_000));
        write_new(fs, pid, &docs.join("Lightroom/catalog.lrcat"), &catalog, 32 * 1024)?;
        Ok(())
    }
}

/// ImageMagick `mogrify`: rotates every JPEG 90° and saves it in place
/// (§V-F; paper score 0 — same type, already-compressed source).
#[derive(Debug, Clone)]
pub struct ImageMagick {
    /// Photos staged and rotated.
    pub photo_count: usize,
}

impl Default for ImageMagick {
    fn default() -> Self {
        Self { photo_count: 180 }
    }
}

impl BenignApp for ImageMagick {
    fn name(&self) -> &'static str {
        "ImageMagick"
    }

    fn executable(&self) -> &'static str {
        "mogrify.exe"
    }

    fn stage(&self, fs: &mut Vfs, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        for i in 0..self.photo_count {
            let photo = { let size = rng.gen_range(12_000..40_000); gen::image::jpeg(rng, size) };
            fs.admin().write_file(&docs.join(format!("Photos/IMG_{i:04}.jpg")), &photo)?;
        }
        Ok(())
    }

    fn run(&self, fs: &mut Vfs, pid: ProcessId, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        let photos = find_files(fs, pid, &docs.join("Photos"), Some(&["jpg"]), usize::MAX)?;
        for p in &photos {
            let original = read_whole(fs, pid, p, 64 * 1024)?;
            // The rotated image: a fresh JPEG stream of comparable size.
            let rotated = gen::image::jpeg(rng, original.len().max(1024));
            overwrite_in_place(fs, pid, p, &rotated, 64 * 1024)?;
            fs.advance_clock(400_000_000); // decode/rotate/encode per image
        }
        Ok(())
    }
}

/// iTunes: regenerates its library, imports the 70 Coldwell audio files,
/// plays three, and converts everything to AAC (§V-F; paper score 16).
///
/// As on a real Windows profile, the music library lives in the user's
/// `Music` folder *outside* the protected Documents tree; only a handful
/// of loose audio samples sit in Documents, so the conversion's scored
/// activity is small — which is how the paper's iTunes run ends at 16.
#[derive(Debug, Clone)]
pub struct ITunes {
    /// Library WAV tracks staged outside Documents (70 in the paper).
    pub track_count: usize,
    /// Loose WAV samples inside Documents that also get converted.
    pub docs_track_count: usize,
}

impl Default for ITunes {
    fn default() -> Self {
        Self {
            track_count: 65,
            docs_track_count: 5,
        }
    }
}

impl ITunes {
    fn music_dir(docs: &VPath) -> VPath {
        // Sibling of the Documents folder: /Users/victim/Music.
        docs.parent().unwrap_or_else(VPath::root).join("Music")
    }
}

impl BenignApp for ITunes {
    fn name(&self) -> &'static str {
        "iTunes"
    }

    fn executable(&self) -> &'static str {
        "itunes.exe"
    }

    fn stage(&self, fs: &mut Vfs, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        let music = Self::music_dir(docs);
        for i in 0..self.track_count {
            let wav = { let size = rng.gen_range(30_000..80_000); gen::audio::wav(rng, size) };
            fs.admin().write_file(&music.join(format!("track-{i:02}.wav")), &wav)?;
        }
        for i in 0..self.docs_track_count {
            let wav = { let size = rng.gen_range(30_000..80_000); gen::audio::wav(rng, size) };
            fs.admin().write_file(&docs.join(format!("audio-samples/sample-{i}.wav")), &wav)?;
        }
        // The old library the test deletes first.
        fs.admin().write_file(
            &music.join("iTunes/iTunes Library.itl"),
            &gen::archive::gzip(rng, 4_000),
        )
    }

    fn run(&self, fs: &mut Vfs, pid: ProcessId, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        let music = Self::music_dir(docs);
        // Delete the library to force regeneration.
        fs.delete(pid, &music.join("iTunes/iTunes Library.itl"))?;
        // Import scan: read every track, library and loose samples alike.
        let mut tracks = find_files(fs, pid, &music, Some(&["wav"]), usize::MAX)?;
        tracks.extend(find_files(
            fs,
            pid,
            &docs.join("audio-samples"),
            Some(&["wav"]),
            usize::MAX,
        )?);
        for t in &tracks {
            read_whole(fs, pid, t, 64 * 1024)?;
        }
        // Play three songs.
        for t in tracks.iter().take(3) {
            read_whole(fs, pid, t, 64 * 1024)?;
        }
        // Convert each to AAC next to its source.
        for (i, t) in tracks.iter().enumerate() {
            read_whole(fs, pid, t, 64 * 1024)?;
            let aac = { let size = rng.gen_range(8_000..20_000); gen::audio::mp3(rng, size) };
            let out = t
                .parent()
                .unwrap_or_else(|| music.clone())
                .join(format!("converted-{i:02}.m4a"));
            write_new(fs, pid, &out, &aac, 64 * 1024)?;
            fs.advance_clock(3_000_000_000); // transcode time per track
        }
        // Write the regenerated library.
        write_new(
            fs,
            pid,
            &music.join("iTunes/iTunes Library.itl"),
            &gen::archive::gzip(rng, 6_000),
            32 * 1024,
        )
    }
}

/// Microsoft Word: authors a new document through repeated saves — text,
/// a table, an imported photo, SmartArt (§V-F; paper score 0).
#[derive(Debug, Clone, Default)]
pub struct Word;

impl BenignApp for Word {
    fn name(&self) -> &'static str {
        "Microsoft Word"
    }

    fn executable(&self) -> &'static str {
        "winword.exe"
    }

    fn stage(&self, fs: &mut Vfs, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        fs.admin().write_file(&docs.join("Pictures/holiday.jpg"), &gen::image::jpeg(rng, 26_000))
    }

    fn run(&self, fs: &mut Vfs, pid: ProcessId, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        let doc = docs.join("report.docx");
        // Save 1: five paragraphs.
        write_new(fs, pid, &doc, &gen::office::docx(rng, 9_000), 32 * 1024)?;
        fs.advance_clock(180_000_000_000); // typing time
        // Save 2: a table with text in each cell.
        write_new(fs, pid, &doc, &gen::office::docx(rng, 14_000), 32 * 1024)?;
        fs.advance_clock(120_000_000_000);
        // Import a photo, save 3.
        read_whole(fs, pid, &docs.join("Pictures/holiday.jpg"), 64 * 1024)?;
        write_new(fs, pid, &doc, &gen::office::docx(rng, 38_000), 32 * 1024)?;
        fs.advance_clock(90_000_000_000);
        // SmartArt, save 4.
        write_new(fs, pid, &doc, &gen::office::docx(rng, 41_000), 32 * 1024)
    }
}

/// Microsoft Excel: builds a workbook over many save cycles, importing CSV
/// data, with Office-style autosave temp files that are created and
/// deleted (§V-F; paper score 150).
#[derive(Debug, Clone)]
pub struct Excel {
    /// Save cycles across the two sessions.
    pub save_cycles: usize,
}

impl Default for Excel {
    fn default() -> Self {
        Self { save_cycles: 25 }
    }
}

impl BenignApp for Excel {
    fn name(&self) -> &'static str {
        "Microsoft Excel"
    }

    fn executable(&self) -> &'static str {
        "excel.exe"
    }

    fn stage(&self, fs: &mut Vfs, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        fs.admin().write_file(&docs.join("data/import.csv"), &gen::text::csv(rng, 22_000))
    }

    fn run(&self, fs: &mut Vfs, pid: ProcessId, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        // Import the CSV data (a low-entropy read).
        read_whole(fs, pid, &docs.join("data/import.csv"), 32 * 1024)?;
        let book = docs.join("budget.xlsx");
        for i in 0..self.save_cycles {
            // Office saves via a temp file alongside the document...
            let tmp = docs.join(format!("~$budget-{i}.tmp"));
            write_new(fs, pid, &tmp, &gen::office::xlsx(rng, 12_000 + 400 * i), 32 * 1024)?;
            // ...rewrites the workbook...
            write_new(fs, pid, &book, &gen::office::xlsx(rng, 12_000 + 400 * i), 32 * 1024)?;
            // ...and removes the temp file.
            fs.delete(pid, &tmp)?;
            fs.advance_clock(45_000_000_000); // editing between saves
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Profile-based applications (the remaining 24)
// ---------------------------------------------------------------------

/// The behaviour shapes shared by the lighter application profiles.
#[derive(Debug, Clone)]
pub enum Profile {
    /// Scans documents read-only (AV scanners, sync clients, media
    /// players, PDF readers): reads the first chunk or all of up to
    /// `limit` files matching `exts`.
    Scanner {
        /// Extension filter (None = all files).
        exts: Option<&'static [&'static str]>,
        /// Max files touched.
        limit: usize,
        /// Whether to read files fully (true) or just their heads.
        full: bool,
    },
    /// Keeps appending to its own note/log files (chat clients, note
    /// apps): `writes` small text writes to `file`.
    NoteTaker {
        /// The note file name under the documents root.
        file: &'static str,
        /// Number of append-style rewrites.
        writes: usize,
    },
    /// Downloads new files into the documents tree, then verifies them by
    /// reading back (browsers, torrent clients).
    Downloader {
        /// Number of files downloaded.
        count: usize,
        /// Approximate size of each download.
        size: usize,
    },
    /// Opens a few photos and exports or overwrites a couple (image
    /// editors).
    PhotoEditor {
        /// Photos staged and opened.
        opens: usize,
        /// Photos exported as new files.
        exports: usize,
        /// Photos overwritten in place.
        overwrites: usize,
    },
    /// Authors an office document with a few saves (office suites and
    /// viewers).
    OfficeEditor {
        /// Number of saves.
        saves: usize,
    },
    /// Touches nothing inside the documents tree (system utilities whose
    /// activity lives elsewhere).
    OutsideDocuments,
}

/// A lighter application modeled by a [`Profile`].
#[derive(Debug, Clone)]
pub struct ProfileApp {
    /// Display name.
    pub app_name: &'static str,
    /// Executable name.
    pub exe: &'static str,
    /// The behaviour profile.
    pub profile: Profile,
}

impl BenignApp for ProfileApp {
    fn name(&self) -> &'static str {
        self.app_name
    }

    fn executable(&self) -> &'static str {
        self.exe
    }

    fn stage(&self, fs: &mut Vfs, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        if let Profile::PhotoEditor { opens, .. } = self.profile {
            for i in 0..opens {
                let photo = { let size = rng.gen_range(10_000..30_000); gen::image::jpeg(rng, size) };
                fs.admin().write_file(&docs.join(format!("Pictures/pic-{i:03}.jpg")), &photo)?;
            }
        }
        Ok(())
    }

    fn run(&self, fs: &mut Vfs, pid: ProcessId, docs: &VPath, rng: &mut StdRng) -> VfsResult<()> {
        match &self.profile {
            Profile::Scanner { exts, limit, full } => {
                let files = find_files(fs, pid, docs, *exts, *limit)?;
                for f in &files {
                    fs.advance_clock(150_000_000); // per-file scan pacing
                    if *full {
                        read_whole(fs, pid, f, 64 * 1024)?;
                    } else {
                        let h = fs.open(pid, f, cryptodrop_vfs::OpenOptions::read())?;
                        let r = fs.read(pid, h, 4096).map(|_| ());
                        let c = fs.close(pid, h);
                        r?;
                        c?;
                    }
                }
                Ok(())
            }
            Profile::NoteTaker { file, writes } => {
                let path = docs.join(file);
                let mut body = String::new();
                for i in 0..*writes {
                    body.push_str(&format!("note entry {i}: remember to water the plants\n"));
                    write_new(fs, pid, &path, body.as_bytes(), 8 * 1024)?;
                    fs.advance_clock(20_000_000_000); // typing between notes
                }
                Ok(())
            }
            Profile::Downloader { count, size } => {
                for i in 0..*count {
                    let data = gen::archive::zip(rng, *size);
                    let path = docs.join(format!("Downloads/download-{i}.zip"));
                    write_new(fs, pid, &path, &data, 64 * 1024)?;
                    read_whole(fs, pid, &path, 64 * 1024)?; // integrity check
                    fs.advance_clock(8_000_000_000); // network transfer time
                }
                Ok(())
            }
            Profile::PhotoEditor {
                opens,
                exports,
                overwrites,
            } => {
                let photos = find_files(fs, pid, &docs.join("Pictures"), Some(&["jpg"]), *opens)?;
                for p in &photos {
                    read_whole(fs, pid, p, 64 * 1024)?;
                }
                for i in 0..*exports {
                    let out = gen::image::png(rng, 20_000);
                    write_new(fs, pid, &docs.join(format!("Pictures/edit-{i}.png")), &out, 32 * 1024)?;
                }
                for p in photos.iter().take(*overwrites) {
                    let out = gen::image::jpeg(rng, 22_000);
                    overwrite_in_place(fs, pid, p, &out, 32 * 1024)?;
                }
                Ok(())
            }
            Profile::OfficeEditor { saves } => {
                let doc = docs.join(format!("{}-notes.odt", self.exe.trim_end_matches(".exe")));
                for i in 0..*saves {
                    write_new(fs, pid, &doc, &gen::office::odt(rng, 8_000 + 2_000 * i), 32 * 1024)?;
                }
                Ok(())
            }
            Profile::OutsideDocuments => {
                // Activity entirely outside the protected tree.
                let appdata = VPath::new("/Users/victim/AppData/app");
                fs.create_dir_all(pid, &appdata)?;
                for i in 0..10 {
                    write_new(
                        fs,
                        pid,
                        &appdata.join(format!("state-{i}.dat")),
                        &gen::text::json(rng, 2_000),
                        8 * 1024,
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// The five applications analyzed in the paper's Fig. 6, in figure order.
pub fn fig6_apps() -> Vec<Box<dyn BenignApp>> {
    vec![
        Box::new(Lightroom::default()),
        Box::new(ImageMagick::default()),
        Box::new(ITunes::default()),
        Box::new(Word),
        Box::new(Excel::default()),
    ]
}

/// All thirty applications of the paper's §V-F study.
pub fn paper_apps() -> Vec<Box<dyn BenignApp>> {
    let mut apps = fig6_apps();
    apps.insert(0, Box::new(SevenZip::default()));
    let profiles: Vec<ProfileApp> = vec![
        ProfileApp {
            app_name: "Avast Anti-Virus",
            exe: "avast.exe",
            profile: Profile::Scanner {
                exts: None,
                limit: 400,
                full: false,
            },
        },
        ProfileApp {
            app_name: "Chocolate Doom",
            exe: "chocolate-doom.exe",
            profile: Profile::NoteTaker {
                file: "doom-saves/savegame0.dsg",
                writes: 3,
            },
        },
        ProfileApp {
            app_name: "Chrome",
            exe: "chrome.exe",
            profile: Profile::Downloader { count: 2, size: 60_000 },
        },
        ProfileApp {
            app_name: "Dropbox",
            exe: "dropbox.exe",
            profile: Profile::Scanner {
                exts: None,
                limit: 250,
                full: true,
            },
        },
        ProfileApp {
            app_name: "F.lux",
            exe: "flux.exe",
            profile: Profile::OutsideDocuments,
        },
        ProfileApp {
            app_name: "GIMP",
            exe: "gimp.exe",
            profile: Profile::PhotoEditor {
                opens: 4,
                exports: 1,
                overwrites: 1,
            },
        },
        ProfileApp {
            app_name: "Launchy",
            exe: "launchy.exe",
            profile: Profile::OutsideDocuments,
        },
        ProfileApp {
            app_name: "LibreOffice Calc",
            exe: "scalc.exe",
            profile: Profile::OfficeEditor { saves: 4 },
        },
        ProfileApp {
            app_name: "LibreOffice Writer",
            exe: "swriter.exe",
            profile: Profile::OfficeEditor { saves: 4 },
        },
        ProfileApp {
            app_name: "Microsoft Office Viewers",
            exe: "officeview.exe",
            profile: Profile::Scanner {
                exts: Some(&["doc", "docx", "xlsx", "pptx"]),
                limit: 30,
                full: true,
            },
        },
        ProfileApp {
            app_name: "MusicBee",
            exe: "musicbee.exe",
            profile: Profile::Scanner {
                exts: Some(&["mp3", "wav"]),
                limit: 120,
                full: true,
            },
        },
        ProfileApp {
            app_name: "Paint.NET",
            exe: "paintdotnet.exe",
            profile: Profile::PhotoEditor {
                opens: 3,
                exports: 2,
                overwrites: 0,
            },
        },
        ProfileApp {
            app_name: "PhraseExpress",
            exe: "phraseexpress.exe",
            profile: Profile::NoteTaker {
                file: "phrases.txt",
                writes: 6,
            },
        },
        ProfileApp {
            app_name: "Picasa",
            exe: "picasa.exe",
            profile: Profile::PhotoEditor {
                opens: 40,
                exports: 6,
                overwrites: 0,
            },
        },
        ProfileApp {
            app_name: "Pidgin",
            exe: "pidgin.exe",
            profile: Profile::NoteTaker {
                file: "chat-logs/buddy.log",
                writes: 10,
            },
        },
        ProfileApp {
            app_name: "Piriform CCleaner",
            exe: "ccleaner.exe",
            profile: Profile::OutsideDocuments,
        },
        ProfileApp {
            app_name: "Private Internet Access VPN",
            exe: "pia.exe",
            profile: Profile::OutsideDocuments,
        },
        ProfileApp {
            app_name: "ResophNotes",
            exe: "resophnotes.exe",
            profile: Profile::NoteTaker {
                file: "notes/resoph.txt",
                writes: 12,
            },
        },
        ProfileApp {
            app_name: "Skype",
            exe: "skype.exe",
            profile: Profile::NoteTaker {
                file: "skype/chat-history.log",
                writes: 8,
            },
        },
        ProfileApp {
            app_name: "Spotify",
            exe: "spotify.exe",
            profile: Profile::OutsideDocuments,
        },
        ProfileApp {
            app_name: "Sticky Notes",
            exe: "stikynot.exe",
            profile: Profile::NoteTaker {
                file: "StickyNotes.snt",
                writes: 5,
            },
        },
        ProfileApp {
            app_name: "SumatraPDF",
            exe: "sumatrapdf.exe",
            profile: Profile::Scanner {
                exts: Some(&["pdf"]),
                limit: 15,
                full: true,
            },
        },
        ProfileApp {
            app_name: "uTorrent",
            exe: "utorrent.exe",
            profile: Profile::Downloader {
                count: 3,
                size: 200_000,
            },
        },
        ProfileApp {
            app_name: "VLC Media Player",
            exe: "vlc.exe",
            profile: Profile::Scanner {
                exts: Some(&["mp3", "wav"]),
                limit: 40,
                full: true,
            },
        },
    ];
    for p in profiles {
        apps.push(Box::new(p));
    }
    apps
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_vfs::{FilterDriver, FsOp, FsView, OpContext, OpOutcome, Verdict};
    use rand::SeedableRng;
    use std::sync::{Arc, Mutex};

    fn docs_fixture() -> (Vfs, VPath) {
        let mut fs = Vfs::new();
        let docs = VPath::new("/Users/victim/Documents");
        let mut rng = StdRng::seed_from_u64(404);
        for i in 0..30 {
            let (name, data): (String, Vec<u8>) = match i % 5 {
                0 => (format!("d{i}.txt"), gen::text::txt(&mut rng, 3_000)),
                1 => (format!("d{i}.pdf"), gen::office::pdf(&mut rng, 15_000)),
                2 => (format!("d{i}.jpg"), gen::image::jpeg(&mut rng, 14_000)),
                3 => (format!("d{i}.docx"), gen::office::docx(&mut rng, 12_000)),
                _ => (format!("d{i}.csv"), gen::text::csv(&mut rng, 4_000)),
            };
            fs.admin().write_file(&docs.join(format!("folder{}/{name}", i % 4)), &data)
                .unwrap();
        }
        (fs, docs)
    }

    #[test]
    fn thirty_apps_with_unique_names() {
        let apps = paper_apps();
        assert_eq!(apps.len(), 30, "the paper tested thirty applications");
        let names: std::collections::HashSet<&str> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 30);
        assert_eq!(fig6_apps().len(), 5);
    }

    #[test]
    fn all_apps_run_clean_without_filters() {
        let mut rng = StdRng::seed_from_u64(7);
        for app in paper_apps() {
            let (mut fs, docs) = docs_fixture();
            app.stage(&mut fs, &docs, &mut rng).unwrap();
            let pid = fs.spawn_process(app.executable());
            app.run(&mut fs, pid, &docs, &mut rng)
                .unwrap_or_else(|e| panic!("{} failed: {e}", app.name()));
        }
    }

    #[test]
    fn seven_zip_output_is_archive_typed_and_high_entropy() {
        let (mut fs, docs) = docs_fixture();
        let mut rng = StdRng::seed_from_u64(8);
        let app = SevenZip { file_limit: 30 };
        let pid = fs.spawn_process(app.executable());
        app.run(&mut fs, pid, &docs, &mut rng).unwrap();
        let archive = fs.admin().read_file(&docs.join("documents-backup.7z")).unwrap();
        assert_eq!(cryptodrop_sniff::sniff(&archive), cryptodrop_sniff::FileType::SevenZip);
        let e = cryptodrop_entropy::shannon_entropy(&archive[300..]);
        assert!(e > 7.0, "archive body entropy {e}");
    }

    #[test]
    fn imagemagick_preserves_types_and_count() {
        let (mut fs, docs) = docs_fixture();
        let mut rng = StdRng::seed_from_u64(9);
        let app = ImageMagick { photo_count: 12 };
        app.stage(&mut fs, &docs, &mut rng).unwrap();
        let pid = fs.spawn_process(app.executable());
        let before = fs.file_count();
        app.run(&mut fs, pid, &docs, &mut rng).unwrap();
        assert_eq!(fs.file_count(), before, "in-place edits create nothing");
        let sample = fs
            .admin().read_file(&docs.join("Photos/IMG_0000.jpg"))
            .unwrap();
        assert_eq!(cryptodrop_sniff::sniff(&sample), cryptodrop_sniff::FileType::Jpeg);
    }

    #[test]
    fn excel_cleans_up_its_temp_files() {
        let (mut fs, docs) = docs_fixture();
        let mut rng = StdRng::seed_from_u64(10);
        let app = Excel { save_cycles: 5 };
        app.stage(&mut fs, &docs, &mut rng).unwrap();
        let pid = fs.spawn_process(app.executable());
        app.run(&mut fs, pid, &docs, &mut rng).unwrap();
        let temps = fs
            .admin().files()
            .filter(|(p, _)| p.as_str().contains("~$budget"))
            .count();
        assert_eq!(temps, 0);
        assert!(fs.admin().read_file(&docs.join("budget.xlsx")).is_ok());
    }

    #[test]
    fn outside_documents_profile_never_touches_docs() {
        let (mut fs, docs) = docs_fixture();
        let mut rng = StdRng::seed_from_u64(11);
        let app = ProfileApp {
            app_name: "Piriform CCleaner",
            exe: "ccleaner.exe",
            profile: Profile::OutsideDocuments,
        };
        let pid = fs.spawn_process(app.executable());
        let seen = Arc::new(Mutex::new(Vec::new()));
        fs.register_filter(Box::new(PathRecorder(Arc::clone(&seen))));
        app.run(&mut fs, pid, &docs, &mut rng).unwrap();
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty(), "the profile ran operations");
        let touched_docs = seen.iter().any(|p| p.starts_with(&docs));
        assert!(!touched_docs, "the profile touched the documents");
    }

    /// Records every path a completed operation names.
    struct PathRecorder(Arc<Mutex<Vec<VPath>>>);

    impl FilterDriver for PathRecorder {
        fn name(&self) -> &str {
            "path-recorder"
        }

        fn post_op(&mut self, ctx: &OpContext<'_>, _: &OpOutcome<'_>, _: &FsView<'_>) -> Verdict {
            let mut seen = self.0.lock().unwrap();
            seen.push(ctx.op.path().clone());
            if let FsOp::Rename { to, .. } = ctx.op {
                seen.push(to.clone());
            }
            Verdict::Allow
        }
    }
}
