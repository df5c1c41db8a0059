//! F13 + F14: the temporal machinery — tempo-map conversions with ramps,
//! sync extraction, event (tie) extraction, and measure derivation.

use mdm_bench::harness::measure;
use mdm_bench::workload::generated_score;
use mdm_notation::{events, rat, syncs, TempoMap};

fn main() {
    for segments in [1usize, 8, 64] {
        let mut t = TempoMap::constant(120.0);
        for s in 0..segments {
            let beat = rat(4 * (s as i64 + 1), 1);
            if s.is_multiple_of(2) {
                t.ramp(beat, beat + rat(4, 1), 60.0 + (s as f64 * 7.0) % 120.0);
            } else {
                t.set_tempo(beat, 80.0 + (s as f64 * 13.0) % 100.0);
            }
        }
        let end = rat(4 * (segments as i64 + 2), 1);
        measure(&format!("f13_tempo_map/score_to_perf/{segments}"), || {
            t.performance_time(end)
        });
        let end_s = t.performance_time(end);
        measure(&format!("f13_tempo_map/perf_to_score/{segments}"), || {
            t.score_time(end_s)
        });
    }

    for len in [50usize, 200, 800] {
        let score = generated_score(11, 4, len);
        let m = &score.movements[0];
        let n: usize = m.voices.iter().map(|v| v.elements.len()).sum();
        measure(&format!("f14_sync_extraction/syncs/{n}"), || syncs(m).len());
        measure(&format!("f14_sync_extraction/events/{n}"), || {
            events(m).len()
        });
        measure(&format!("f14_sync_extraction/measures/{n}"), || {
            m.measures().len()
        });
    }
}
