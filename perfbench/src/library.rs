//! The score library every workload serves, and the oracle that knows
//! what each read of it must return.
//!
//! A library is `n` generated two-voice, 64-element scores (the paper's
//! CMN schema, §7 and fig. 13), titled `lib-0000`, `lib-0001`, … with a
//! composer and catalogue number drawn from the seed. It is stored with
//! `store_score`, indexed on `SCORE.title` and `MEASURE.number`, then
//! checkpointed, so every run starts from the same durable image.

use std::path::Path;

use mdm_core::MusicDataManager;
use mdm_notation::Score;

/// Voices per generated score.
pub const VOICES: usize = 2;
/// Elements per voice of a generated score.
pub const LENGTH: usize = 64;

/// A deterministic 64-bit generator (splitmix64): the same seed gives
/// the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    /// The next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The splitmix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generated score with the given title, composer and catalogue id.
fn score(seed: u64, title: String, composer: String, catalog_id: String) -> Score {
    let mut s = mdm_bench::workload::generated_score(seed, VOICES, LENGTH);
    s.title = title;
    s.composer = Some(composer);
    s.catalog_id = Some(catalog_id);
    s
}

/// What the benchmark knows about a stored library.
#[derive(Debug, Clone)]
pub struct Library {
    /// Titles, by library index.
    pub titles: Vec<String>,
    /// Composers, by library index.
    pub composers: Vec<String>,
    /// Catalogue ids as stored, by library index.
    pub catalog_ids: Vec<String>,
    /// SCORE entity ids, by library index.
    pub ids: Vec<u64>,
    /// The stored scores themselves, kept only when a workload checks
    /// loaded scores against them.
    pub scores: Vec<Score>,
}

impl Library {
    /// Number of scores.
    pub fn len(&self) -> usize {
        self.titles.len()
    }

    /// Generates `n` scores from `seed`, stores them in a fresh
    /// manager at `dir`, indexes and checkpoints it, and returns the
    /// manager with the library's description. `keep_scores` keeps the
    /// generated scores for load checks.
    pub fn build(
        dir: &Path,
        seed: u64,
        n: usize,
        keep_scores: bool,
    ) -> Result<(MusicDataManager, Library), String> {
        let mut mdm = MusicDataManager::open(dir).map_err(|e| format!("open: {e}"))?;
        let mut lib = Library {
            titles: Vec::with_capacity(n),
            composers: Vec::with_capacity(n),
            catalog_ids: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            scores: Vec::new(),
        };
        for k in 0..n {
            let h = mix(seed.wrapping_mul(1_000_003).wrapping_add(k as u64));
            let title = format!("lib-{k:04}");
            let composer = format!("composer-{}", h % 97);
            let catalog_id = format!("cat-{k}");
            let s = score(h, title.clone(), composer.clone(), catalog_id.clone());
            let id = mdm
                .store_score(&s)
                .map_err(|e| format!("store {title}: {e}"))?;
            lib.titles.push(title);
            lib.composers.push(composer);
            lib.catalog_ids.push(catalog_id);
            lib.ids.push(id);
            if keep_scores {
                lib.scores.push(s);
            }
        }
        mdm.execute(
            "define index score_title on SCORE (title)\n\
             define index measure_number on MEASURE (number)",
        )
        .map_err(|e| format!("index: {e}"))?;
        mdm.save().map_err(|e| format!("checkpoint: {e}"))?;
        Ok((mdm, lib))
    }

    /// The point read of score `k`: its composer, looked up by title.
    pub fn point_query(&self, k: usize) -> String {
        format!(
            "range of s is SCORE\nretrieve (s.composer) where s.title = \"{}\"",
            self.titles[k]
        )
    }

    /// The §5.6 navigation read of score `k`: its voices, under its
    /// movements, under the score found by title.
    pub fn nav_query(&self, k: usize) -> String {
        format!(
            "range of s is SCORE\nrange of m is MOVEMENT\nrange of v is VOICE\n\
             retrieve (v.name) where v under m in voice_in_movement \
             and m under s in movement_in_score and s.title = \"{}\"",
            self.titles[k]
        )
    }
}

/// Whether a point-read answer is the composer the generator chose.
pub fn point_ok(table: &mdm_lang::Table, composer: &str) -> bool {
    matches!(
        table.rows.as_slice(),
        [row] if matches!(row.as_slice(), [mdm_model::Value::String(c)] if c == composer)
    )
}

/// Whether a navigation answer lists the generator's voice count.
pub fn nav_ok(table: &mdm_lang::Table) -> bool {
    table.rows.len() == VOICES
}
