//! E3: the four §5.6 QUEL example queries over growing chord databases.
//!
//! The `before`/`after` queries join two NOTE range variables (O(N²)
//! tuple-calculus enumeration — INGRES semantics without an optimizer);
//! `under` joins NOTE × CHORD. The shape to expect is quadratic growth
//! for the two-variable queries, which is the honest cost of unoptimized
//! tuple calculus and the motivation for the ordering operators having
//! *model-level* support.

use mdm_bench::harness::measure;
use mdm_bench::workload::chord_database;
use mdm_lang::Session;
use mdm_model::Database;

const QUERIES: [(&str, &str); 4] = [
    (
        "before",
        "range of n1, n2 is NOTE\nretrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 6",
    ),
    (
        "after",
        "range of n1, n2 is NOTE\nretrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = 6",
    ),
    (
        "under",
        "range of n1 is NOTE\nrange of c1 is CHORD\nretrieve (n1.name) where n1 under c1 in note_in_chord and c1.name = 2",
    ),
    (
        "parent",
        "range of n1 is NOTE\nrange of c1 is CHORD\nretrieve (c1.name) where n1 under c1 in note_in_chord and n1.name = 6",
    ),
];

const POINT: &str = "range of n is NOTE\nretrieve (n.name) where n.name = 6";

fn run(label: &str, db: &mut Database, text: &str) {
    let mut session = Session::new();
    measure(label, || session.execute(db, text).expect("query").len());
}

fn main() {
    for chords in [10usize, 40, 160] {
        let mut db = chord_database(chords, 4);
        let notes = chords * 4;
        for (name, text) in QUERIES {
            run(
                &format!("e3_quel_paper_queries/{name}/{notes}"),
                &mut db,
                text,
            );
        }
        // Single-variable selection scales linearly — the contrast case.
        run(&format!("e3_quel_selection/point/{notes}"), &mut db, POINT);
    }

    // Ablation: the executor's one optimization — sargable conjuncts
    // probing a model attribute index — on vs. off.
    for chords in [100usize, 1000] {
        let mut db = chord_database(chords, 4);
        let notes = chords * 4;
        run(&format!("e3_index_ablation/scan/{notes}"), &mut db, POINT);
        db.create_attr_index("NOTE", "name").expect("index");
        run(
            &format!("e3_index_ablation/indexed/{notes}"),
            &mut db,
            POINT,
        );
    }
}
