//! F2: thematic-index search — incipit matching at the three levels of
//! looseness over a growing catalog.

use mdm_bench::harness::measure;
use mdm_bench::workload::generated_index;
use mdm_biblio::{Incipit, MatchKind};

fn main() {
    let fragment = Incipit::from_keys(vec![67, 74, 70, 69, 67]);
    for n in [100usize, 1_000, 10_000] {
        let idx = generated_index(17, n);
        for (name, kind) in [
            ("exact", MatchKind::Exact),
            ("transposed", MatchKind::Transposed),
            ("contour", MatchKind::Contour),
        ] {
            measure(&format!("f2_thematic_search/{name}/{n}"), || {
                idx.search_incipit(&fragment, kind).len()
            });
        }
        measure(&format!("f2_thematic_search/title/{n}"), || {
            idx.search_title("Work 57").len()
        });
    }
}
