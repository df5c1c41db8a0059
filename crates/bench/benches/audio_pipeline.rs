//! F3 + T1: the sound pipeline — performance extraction, piano-roll
//! rasterization, synthesis, and the two §4.1 codecs.

use mdm_bench::harness::measure;
use mdm_bench::workload::generated_score;
use mdm_notation::perform;
use mdm_sound::{codec, render_performance, PianoRoll, Timbre};

fn main() {
    for len in [50usize, 200, 800] {
        let score = generated_score(9, 3, len);
        let notes = perform(&score.movements[0]);
        measure(&format!("f3_pianoroll/render/{}", notes.len()), || {
            PianoRoll::render(&notes, 0.25, &|_, _| false)
        });
    }

    let score = generated_score(5, 2, 40);
    let notes = perform(&score.movements[0]);
    for rate in [8_000u32, 48_000] {
        measure(&format!("t1_synthesis/render_hz/{rate}"), || {
            render_performance(&notes, &Timbre::organ(), rate)
        });
    }

    let score = generated_score(5, 2, 30);
    let notes = perform(&score.movements[0]);
    let pcm = render_performance(&notes, &Timbre::organ(), 48_000);
    let at = |name: &str| format!("t1_codecs/{name} ({} B)", pcm.byte_size());
    measure(&at("redundancy_encode"), || codec::redundancy::encode(&pcm));
    let enc = codec::redundancy::encode(&pcm);
    measure(&at("redundancy_decode"), || {
        codec::redundancy::decode(&enc).expect("decode")
    });
    measure(&at("perceptual_encode_8bit"), || {
        codec::perceptual::encode(&pcm, 8)
    });
    let enc8 = codec::perceptual::encode(&pcm, 8);
    measure(&at("perceptual_decode_8bit"), || {
        codec::perceptual::decode(&enc8).expect("decode")
    });
}
