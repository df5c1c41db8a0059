//! F4: DARMS parse → canonize → emit → resolve-to-voice throughput.

use mdm_bench::harness::measure;
use mdm_bench::workload::generated_darms;

fn main() {
    for measures in [16usize, 128, 512] {
        let text = generated_darms(42, measures);
        let at = |stage: &str| format!("f4_darms/{stage}/{measures} ({} B)", text.len());
        measure(&at("parse"), || mdm_darms::parse(&text).expect("parse"));
        let items = mdm_darms::parse(&text).expect("parse");
        measure(&at("canonize"), || mdm_darms::canonize(&items));
        let canon = mdm_darms::canonize(&items);
        measure(&at("emit"), || mdm_darms::emit(&canon));
        measure(&at("to_voice"), || {
            mdm_darms::to_voice(&canon).expect("voice")
        });
        // Full round trip including pitch resolution both ways.
        measure(&at("roundtrip"), || {
            let items = mdm_darms::parse(&text).expect("parse");
            let voice = mdm_darms::to_voice(&items).expect("voice");
            let back = mdm_darms::from_voice(&voice, mdm_notation::TimeSignature::common())
                .expect("encode");
            mdm_darms::emit(&back)
        });
    }
}
