//! Regenerates every figure of the paper and every `BENCH_*.json`
//! document, and runs the CI smokes.
//!
//! ```text
//! cargo run -p mdm-bench --bin repro -- all                 # every figure
//! cargo run -p mdm-bench --bin repro -- fig4
//! cargo run --release -p mdm-bench --bin repro -- <command> [output path]
//! ```
//!
//! [`COMMANDS`] is the one list of commands and builds the usage text.
//! Each entry names the subcommand, where its output goes, and the
//! function that runs it; that function's doc says what it measures or
//! checks. A bench command writes its document to the repository root,
//! or to the path given after the command, and only after the document
//! passes its validator in `mdm_bench::validate`. A smoke prints its
//! report, and every failure exits non-zero. EXPERIMENTS.md holds the
//! paper-vs-produced notes for the figures.

use std::time::Instant;

use mdm_bench::harness::{
    loopback_sweep, paired_rounds, percentile, write_document, Json, ScratchDir, Sweep,
};
use mdm_bench::{validate, workload};
use mdm_core::{Analyst, Composer, Library, MusicDataManager};
use mdm_lang::Session;
use mdm_model::{diagram, graphdef, meta, Database, Value};
use mdm_net::{ClientConfig, MdmClient, MdmServer, ServerConfig};
use mdm_notation::fixtures::{bwv578_subject, gloria_fragment, two_voice_alignment};
use mdm_notation::{beam, group, perform, rat, sync, BaseDuration, Duration, Score, TimeSignature};

/// Where a command's output goes.
#[derive(Clone, Copy)]
enum Out {
    /// A paper artifact, printed under a banner; `all` runs every one.
    Figure,
    /// A report on standard output.
    Report,
    /// A validated JSON document, written to this file at the repository
    /// root unless a path follows the command.
    File(&'static str),
}

/// A command's body; it gets the arguments after the subcommand.
type Run = fn(&[String]) -> Result<String, String>;

/// Every subcommand, in usage order.
const COMMANDS: &[(&str, Out, Run)] = &[
    ("fig1", Out::Figure, |_| Ok(fig1())),
    ("fig2", Out::Figure, |_| Ok(fig2())),
    ("fig3", Out::Figure, |_| Ok(fig3())),
    ("fig4", Out::Figure, |_| Ok(fig4())),
    ("fig5", Out::Figure, |_| Ok(fig5())),
    ("fig6", Out::Figure, |_| Ok(fig6())),
    ("fig7", Out::Figure, |_| Ok(fig7())),
    ("fig8", Out::Figure, |_| Ok(fig8())),
    ("fig9", Out::Figure, |_| Ok(fig9())),
    ("fig10", Out::Figure, |_| Ok(fig10())),
    ("fig11", Out::Figure, |_| Ok(fig11())),
    ("fig12", Out::Figure, |_| Ok(fig12())),
    ("fig13", Out::Figure, |_| Ok(fig13())),
    ("fig14", Out::Figure, |_| Ok(fig14())),
    ("fig15", Out::Figure, |_| Ok(fig15())),
    ("t1", Out::Figure, |_| Ok(t1())),
    ("quel", Out::Figure, |_| Ok(quel())),
    ("bench", Out::File("BENCH_2.json"), |_| {
        write_document(&commit_sweep(&[1, 2, 4, 8], 200), validate::commit_sweep)
    }),
    ("smoke", Out::Report, |_| {
        let doc = write_document(&commit_sweep(&[1, 2], 25), validate::commit_sweep)?;
        Ok(format!("metrics JSON smoke: ok ({} bytes)", doc.len()))
    }),
    ("net-bench", Out::File("BENCH_3.json"), |_| {
        write_document(&net_loopback(&[1, 2, 4, 8], 50), validate::net_loopback)
    }),
    ("net-smoke", Out::Report, |_| net_smoke()),
    ("trace-bench", Out::File("BENCH_4.json"), |_| {
        write_document(
            &trace_overhead(&[1, 2, 4, 8], 200, 3),
            validate::trace_overhead,
        )
    }),
    ("trace-smoke", Out::Report, |_| trace_smoke()),
    ("torture", Out::File("BENCH_5.json"), |_| {
        let doc = crash_torture(&mdm_storage::TortureConfig::full());
        write_document(&doc, validate::crash_torture)
    }),
    ("torture-smoke", Out::Report, |_| {
        let started = Instant::now();
        let doc = crash_torture(&mdm_storage::TortureConfig::smoke());
        write_document(&doc, validate::crash_torture)?;
        Ok(format!(
            "torture smoke: ok — strided crash-point sweep, 0 violations, validated \
             document in {:.1}s",
            started.elapsed().as_secs_f64()
        ))
    }),
    ("index-bench", Out::File("BENCH_6.json"), |_| {
        write_document(&index_planner(500, 200), |d| {
            validate::index_planner(d, validate::INDEX_MIN_REDUCTION)
        })
    }),
    ("index-smoke", Out::Report, |_| index_smoke()),
    ("stats-bench", Out::File("BENCH_7.json"), |_| {
        write_document(&stats_overhead(&[1, 4, 8], 2000, 3), |d| {
            validate::stats_overhead(d, validate::STATS_MAX_OVERHEAD_PCT)
        })
    }),
    ("stats-smoke", Out::Report, |_| stats_smoke()),
    ("repl-bench", Out::File("BENCH_8.json"), |_| {
        write_document(&repl_fanout(&[0, 1, 2, 4], 4, 300), validate::repl_fanout)
    }),
    ("repl-smoke", Out::Report, |_| repl_smoke()),
    ("obs-bench", Out::File("BENCH_9.json"), |_| {
        write_document(&monitor_overhead(&[1, 4, 8], 2000, 3), |d| {
            validate::monitor_overhead(d, validate::MONITOR_MAX_OVERHEAD_PCT)
        })
    }),
    ("health-smoke", Out::Report, |_| health_smoke()),
    ("mvcc-bench", Out::File("BENCH_10.json"), |_| {
        write_document(&mvcc_reads(&[1, 4, 8], 8, 64, 600), |d| {
            validate::mvcc_reads(d, validate::MVCC_MIN_WRITERS)
        })
    }),
    ("mvcc-smoke", Out::Report, |_| mvcc_smoke()),
    ("replay-to", Out::Report, replay_to),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    if which == "all" {
        for (name, out, run) in COMMANDS {
            if matches!(out, Out::Figure) {
                print_figure(name, &run(&[]).expect("figures cannot fail"));
            }
        }
        return;
    }
    let Some((name, out, run)) = COMMANDS.iter().find(|c| c.0 == which) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        eprintln!(
            "unknown command {which}; use {}, or all \
             (replay-to takes <src> <dest> --lsn <N|max>)",
            names.join(", ")
        );
        std::process::exit(2);
    };
    let text = match run(&args[1..]) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{name} FAILED: {e}");
            std::process::exit(1);
        }
    };
    match out {
        Out::Figure => print_figure(name, &text),
        Out::Report => println!("{text}"),
        Out::File(file) => {
            let path = args
                .get(1)
                .cloned()
                .unwrap_or_else(|| format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")));
            std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
        }
    }
}

fn print_figure(name: &str, text: &str) {
    println!("================================================================");
    println!("== {name}");
    println!("================================================================");
    println!("{text}");
}

/// Fig. 1: the music data manager and its clients — all four client
/// kinds of §2 driving one shared MDM.
fn fig1() -> String {
    let dir = ScratchDir::new("fig1");
    let mut mdm = MusicDataManager::open(dir.path()).expect("open MDM");
    let mut out = String::new();
    out.push_str("        score          music\n");
    out.push_str("       editor        analysis      composition     score library\n");
    out.push_str("          \\              |              |              /\n");
    out.push_str("           +----------- MUSIC DATA MANAGER -----------+\n");
    out.push_str("                             |\n");
    out.push_str("                      shared database\n\n");

    // Composition client writes…
    let subject = bwv578_subject().movements[0].voices[0].clone();
    let canon = Composer::canon(&subject, 2, 4, 12, TimeSignature::common(), 84.0);
    let id = mdm.store_score(&canon).expect("store");
    out.push_str(&format!(
        "composition client stored \"{}\" (entity @{id})\n",
        canon.title
    ));

    // …the analysis client reads the same data…
    let score = mdm.load_score(id).expect("load");
    let hist = Analyst::interval_histogram(&score);
    let leaps = hist
        .iter()
        .filter(|&(&i, _)| i.abs() > 4)
        .map(|(_, n)| n)
        .sum::<usize>();
    out.push_str(&format!(
        "analysis client found {leaps} melodic leaps in it\n"
    ));

    // …the editor transposes it…
    let mut editor = mdm_core::ScoreEditor::checkout(&mut mdm, id).expect("checkout");
    editor.transpose_voice(0, 0, -2).expect("transpose");
    let new_id = editor.commit().expect("commit");
    out.push_str(&format!(
        "editor client transposed voice 1 down a tone (now @{new_id})\n"
    ));

    // …and the library client catalogs it.
    let mut lib = Library::new("GEN");
    lib.catalog(&mdm, new_id, 1).expect("catalog");
    out.push_str(&format!(
        "library client cataloged it as {}\n",
        lib.index()
            .accepted_name(lib.index().get(1).expect("entry"))
    ));
    out.push_str("\nAll four clients operated on the same entities — no converters.\n");
    out
}

/// Fig. 2: the BWV 578 thematic index entry.
fn fig2() -> String {
    let idx = mdm_biblio::bwv_index();
    idx.render_entry(578).expect("entry 578")
}

/// Fig. 3: the piano roll of the fugue opening, entrances shaded.
fn fig3() -> String {
    let subject = bwv578_subject().movements[0].voices[0].clone();
    // Two entrances, as in the figure: the answer enters at the fifth.
    let fugue = Composer::canon(&subject, 2, 8, 7, TimeSignature::common(), 84.0);
    let notes = perform(&fugue.movements[0]);
    // Shade each voice's first few notes — the fugue entrances.
    let mut first_seen: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    for n in &notes {
        let e = first_seen.entry(n.voice).or_insert(f64::INFINITY);
        *e = e.min(n.start_seconds);
    }
    let roll = mdm_sound::PianoRoll::render(&notes, 0.125, &|_, n| {
        n.start_seconds < first_seen[&n.voice] + 2.0
    });
    format!(
        "piano roll: time → rightward, pitch → upward; {} = note, {} = entrance\n\n{}",
        mdm_sound::NOTE_FILL,
        mdm_sound::HIGHLIGHT_FILL,
        roll.to_text()
    )
}

/// Fig. 4: the Gloria fragment, its DARMS encoding, and the key.
fn fig4() -> String {
    let mut out = String::new();
    out.push_str("(a) the fragment of music\n\n");
    let score = gloria_fragment();
    out.push_str(&mdm_notation::render::render_voice(
        &score.movements[0].voices[0],
        score.movements[0].meter,
    ));
    out.push_str("\n(b) its DARMS encoding (user form)\n\n");
    out.push_str(mdm_darms::fixtures::FIG4_USER_SHORT);
    out.push_str("\n\n    canonical form (output of the canonizer)\n\n");
    let items = mdm_darms::canonize(
        &mdm_darms::parse(mdm_darms::fixtures::FIG4_USER_SHORT).expect("parse"),
    );
    out.push_str(&mdm_darms::emit(&items));
    out.push_str("\n\n(c) abbreviation key\n\n");
    for (abbr, meaning) in [
        ("I4", "Instrument (or voice) definition #4"),
        ("'G", "G (treble) clef"),
        ("'K", "Key signature ('K2# two sharps)"),
        ("00", "Annotation above the staff"),
        ("R", "Rest (R2W two whole rests)"),
        ("@text$", "Literal string"),
        ("¢", "Capitalize next letter"),
        ("(notes)", "Beam grouping"),
        (
            "W H Q E S T",
            "Whole/half/quarter/eighth/16th/32nd duration",
        ),
        ("D", "Stems down"),
        ("/", "Bar line"),
        ("//", "End of excerpt"),
    ] {
        out.push_str(&format!("  {abbr:<12} {meaning}\n"));
    }
    out
}

/// Fig. 5: the entity-relationship graph of §5.1.
fn fig5() -> String {
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity DATE (day = integer, month = integer, year = integer)\n\
             define entity COMPOSITION (title = string, composition_date = DATE)\n\
             define entity PERSON (name = string)\n\
             define relationship COMPOSER (person = PERSON, composition = COMPOSITION)",
        )
        .expect("schema");
    diagram::er_diagram(db.schema())
}

/// Fig. 6: a simple instance graph — a four-note chord.
fn fig6() -> String {
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity CHORD (name = integer)\n\
             define entity NOTE (name = integer)\n\
             define ordering note_in_chord (NOTE) under CHORD",
        )
        .expect("schema");
    let y = db
        .create_entity("CHORD", &[("name", Value::Integer(1))])
        .expect("chord");
    for i in 0..4 {
        let n = db
            .create_entity("NOTE", &[("name", Value::Integer(i))])
            .expect("note");
        db.ord_append("note_in_chord", Some(y), n).expect("append");
    }
    let mut out = diagram::instance_graph(&db, "note_in_chord", Some(y)).expect("graph");
    let w = db
        .nth_child("note_in_chord", Some(y), 2)
        .expect("nth")
        .expect("w");
    out.push_str(&format!(
        "\n\"the third child of the parent labeled y\" is NOTE@{w}\n"
    ));
    out
}

/// Fig. 7: the HO graph for note_in_chord.
fn fig7() -> String {
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity CHORD (name = integer)\n\
             define entity NOTE (name = integer)\n\
             define ordering note_in_chord (NOTE) under CHORD",
        )
        .expect("schema");
    diagram::ho_graph(db.schema())
}

/// Fig. 8: recursive beam groups over the six-chord fragment.
fn fig8() -> String {
    let mut out = String::new();
    out.push_str("(a) HO graph\n\n");
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity BEAM_GROUP (name = integer)\n\
             define entity CHORD (name = integer)\n\
             define ordering beams (BEAM_GROUP, CHORD) under BEAM_GROUP",
        )
        .expect("schema");
    out.push_str(&diagram::ho_graph(db.schema()));

    out.push_str("\n(b) the fragment: eighth, two sixteenths | two sixteenths, eighth\n");
    let e = Duration::new(BaseDuration::Eighth);
    let s = Duration::new(BaseDuration::Sixteenth);
    let groups =
        beam::beam_contiguous(&[(0, e), (1, s), (2, s), (3, s), (4, s), (5, e)], rat(1, 1));
    out.push_str(&format!(
        "\n    derived beam structure: {}\n",
        beam::beam_to_string(&groups)
    ));

    out.push_str("\n(c) the instance graph, stored in the database\n\n");
    // Mirror the derived structure into BEAM_GROUP/CHORD entities.
    fn store_group(db: &mut Database, parent: u64, g: &beam::BeamGroup, next_group: &mut i64) {
        let gid = db
            .create_entity("BEAM_GROUP", &[("name", Value::Integer(*next_group))])
            .expect("group");
        *next_group += 1;
        db.ord_append("beams", Some(parent), gid).expect("append");
        for item in &g.items {
            match item {
                beam::BeamItem::Group(sub) => store_group(db, gid, sub, next_group),
                beam::BeamItem::Chord(i) => {
                    let c = db
                        .create_entity("CHORD", &[("name", Value::Integer(*i as i64 + 1))])
                        .expect("chord");
                    db.ord_append("beams", Some(gid), c).expect("append");
                }
            }
        }
    }
    let mut next_group = 1;
    let root = db
        .create_entity("BEAM_GROUP", &[("name", Value::Integer(0))])
        .expect("root");
    for g in &groups {
        store_group(&mut db, root, g, &mut next_group);
    }
    out.push_str(&diagram::instance_tree(&db, "beams", root).expect("tree"));
    out
}

/// Fig. 9: the meta-schema — stored in itself.
fn fig9() -> String {
    let mut out = String::new();
    let m = meta::meta_schema();
    out.push_str(&diagram::er_diagram(&m));
    out.push('\n');
    out.push_str(&diagram::ho_graph(&m));
    out.push_str("\nself-description: storing the meta-schema in a database whose\nschema is the meta-schema, then reading it back…\n");
    let mut db = Database::new();
    meta::store_schema(&mut db, &m).expect("store");
    let back = meta::read_schema(&db).expect("read");
    out.push_str(&format!(
        "round trip {}: {} ENTITY rows now describe the schema that holds them\n",
        if back == m { "EXACT" } else { "FAILED" },
        db.instances_of("ENTITY").expect("rows").len()
    ));
    out
}

/// Fig. 10: graphical definitions — the four-step stem drawing.
fn fig10() -> String {
    let mut out = String::new();
    // Build the three-layer database of §6.2.
    let mut app = mdm_model::Schema::new();
    app.define_entity(
        "STEM",
        vec![
            mdm_model::AttributeDef {
                name: "xpos".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "ypos".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "length".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "direction".into(),
                ty: mdm_model::DataType::Integer,
            },
        ],
    )
    .expect("schema");
    let mut db = Database::new();
    let rows = meta::store_schema(&mut db, &app).expect("meta rows");
    graphdef::install_graphics_schema(&mut db).expect("graphics schema");
    let stem_row = rows[0].1;
    db.define_entity(
        "STEM",
        vec![
            mdm_model::AttributeDef {
                name: "xpos".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "ypos".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "length".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "direction".into(),
                ty: mdm_model::DataType::Integer,
            },
        ],
    )
    .expect("schema");
    let gd = graphdef::register_graphdef(
        &mut db,
        "draw-stem",
        "newpath xpos ypos moveto 0 length direction mul rlineto stroke",
    )
    .expect("register");
    graphdef::bind_graphdef(&mut db, stem_row, gd).expect("bind");
    for (attr, setup) in [
        ("xpos", "/xpos ? def"),
        ("ypos", "/ypos ? def"),
        ("length", "/length ? def"),
        ("direction", "/direction ? def"),
    ] {
        let attr_row = db
            .ord_children("entity_attributes", Some(stem_row))
            .expect("attrs")
            .into_iter()
            .find(|&a| db.get_attr(a, "attribute_name").expect("name").as_str() == Some(attr))
            .expect("attr row");
        graphdef::bind_parameter(&mut db, attr_row, gd, setup).expect("param");
    }
    out.push_str("schema: STEM(xpos, ypos, length, direction)\n");
    out.push_str(
        "GraphDef \"draw-stem\": newpath xpos ypos moveto 0 length direction mul rlineto stroke\n",
    );
    out.push_str("GParmUse: /xpos ? def — /ypos ? def — /length ? def — /direction ? def\n\n");
    // Draw a few stems, up and down.
    let mut elements = Vec::new();
    for (x, y, len, dir) in [(3i64, 2i64, 8i64, 1i64), (10, 12, 8, -1), (17, 3, 10, 1)] {
        let stem = db
            .create_entity(
                "STEM",
                &[
                    ("xpos", Value::Integer(x)),
                    ("ypos", Value::Integer(y)),
                    ("length", Value::Integer(len)),
                    ("direction", Value::Integer(dir)),
                ],
            )
            .expect("stem");
        elements.extend(graphdef::draw_instance(&db, stem).expect("draw"));
    }
    out.push_str("three stems drawn by the 4-step procedure (find instance →\nGDefUse → GParmUse set-up → execute):\n\n");
    out.push_str(&graphdef::rasterize(&elements, 24, 16));
    out
}

/// Fig. 11: the CMN entity census over a demo corpus, with the timbral
/// (orchestra/section/instrument/part) and graphical (page/system/staff/
/// degree) hierarchies populated too.
fn fig11() -> String {
    let dir = ScratchDir::new("fig11");
    let mut mdm = MusicDataManager::open(dir.path()).expect("open MDM");
    let subject = bwv578_subject().movements[0].voices[0].clone();
    let mut fugue = bwv578_subject();
    // A sostenuto-pedal actuation — the paper's own MIDI-control example.
    fugue.movements[0]
        .controls
        .push(mdm_notation::ControlEvent {
            beat: (8, 1),
            controller: 66,
            value: 127,
            voice: 0,
        });
    let corpus = [
        fugue,
        gloria_fragment(),
        Composer::canon(&subject, 3, 4, 12, TimeSignature::common(), 84.0),
    ];
    for score in corpus {
        let id = mdm.store_score(&score).expect("store");
        let orch = mdm_notation::Orchestra::from_voices(
            &format!("{} ensemble", score.title),
            &score.movements[0].voices,
        );
        mdm_core::store_orchestra(mdm.database_mut(), id, &orch).expect("orchestra");
        mdm_core::layout_score(mdm.database_mut(), id, mdm_core::LayoutConfig::default())
            .expect("layout");
    }
    mdm.census()
}

/// Fig. 12: aspects of musical entities.
fn fig12() -> String {
    let mut out = mdm_notation::aspect::aspect_tree();
    out.push_str("\nthe attributes of a note, classified (§7.1.1):\n\n");
    for (attr, aspect) in mdm_notation::aspect::note_attribute_aspects() {
        out.push_str(&format!("  {attr:<18} {}\n", aspect.name()));
    }
    out
}

/// Fig. 13: the temporal HO graph, with live instance counts.
fn fig13() -> String {
    let dir = ScratchDir::new("fig13");
    let mut mdm = MusicDataManager::open(dir.path()).expect("open MDM");
    mdm.store_score(&bwv578_subject()).expect("store");
    let db = mdm.database();
    let mut out = String::new();
    out.push_str("SCORE ==movement_in_score==> MOVEMENT\n");
    out.push_str("MOVEMENT ==measure_in_movement==> MEASURE\n");
    out.push_str("MEASURE ==sync_in_measure==> SYNC\n");
    out.push_str("SYNC ==chord_at_sync==> CHORD      (…also under VOICE, GROUP)\n");
    out.push_str("VOICE ==voice_content==> (CHORD, REST)\n");
    out.push_str("CHORD ==note_in_chord==> NOTE\n");
    out.push_str("EVENT ==note_in_event==> NOTE      (ties bind notes into events)\n");
    out.push_str("VOICE ==event_in_voice==> EVENT\n");
    out.push_str("EVENT ==midi_in_event==> MIDI\n\n");
    out.push_str("instance counts for BWV 578 (opening):\n");
    for ty in [
        "SCORE", "MOVEMENT", "MEASURE", "SYNC", "VOICE", "CHORD", "NOTE", "EVENT", "MIDI",
    ] {
        out.push_str(&format!(
            "  {ty:<10} {}\n",
            db.instances_of(ty).expect("instances").len()
        ));
    }
    out
}

/// Fig. 14: dividing a measure into syncs.
fn fig14() -> String {
    let m = two_voice_alignment();
    let mut out = sync::sync_diagram(&m);
    let syncs = sync::syncs(&m);
    out.push_str(&format!(
        "\n{} syncs; beat-in-measure positions: {}\n",
        syncs.len(),
        syncs
            .iter()
            .map(|s| s.beat_in_measure.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out
}

/// Fig. 15: groups — phrasing and timing — with summed durations.
fn fig15() -> String {
    let score = bwv578_subject();
    let voice = &score.movements[0].voices[0];
    let mut out = String::new();
    let slur = group::Group::new(group::GroupKind::Slur, 0, 0, 3);
    let beam1 = group::Group::new(group::GroupKind::Beam, 0, 4, 7);
    let phrase = group::Group::new(group::GroupKind::Phrase, 0, 0, 10);
    for (name, g) in [
        ("slur over m.1", &slur),
        ("beam in m.2", &beam1),
        ("phrase m.1–2", &phrase),
    ] {
        out.push_str(&format!(
            "{name:<14} elements {}..={}  duration {} beats\n",
            g.start,
            g.end,
            g.duration(voice)
        ));
    }
    out.push_str(&format!(
        "\nnesting: phrase contains slur: {}; slur crosses beam: {}\n",
        phrase.contains(&slur),
        slur.crosses(&beam1)
    ));
    out
}

/// T1: the §4.1 storage arithmetic and measured codec behaviour.
fn t1() -> String {
    let mut out = String::new();
    let bytes = mdm_sound::storage_bytes(
        mdm_sound::PRO_SAMPLE_RATE,
        mdm_sound::PRO_BITS_PER_SAMPLE,
        600.0,
    );
    out.push_str(&format!(
        "paper claim: 10 min at 48 kHz × 16 bit = 57.6 MB; computed: {:.1} MB\n\n",
        bytes as f64 / 1e6
    ));
    // Synthesize the fugue opening and compress it both ways.
    let score = bwv578_subject();
    let notes = perform(&score.movements[0]);
    let pcm = mdm_sound::render_performance(&notes, &mdm_sound::Timbre::organ(), 48_000);
    out.push_str(&format!(
        "synthesized {:.2} s of the fugue at 48 kHz: {} bytes raw\n",
        pcm.seconds(),
        pcm.byte_size()
    ));
    let lossless = mdm_sound::codec::redundancy::encode(&pcm);
    out.push_str(&format!(
        "redundancy elimination (lossless): {} bytes, ratio {:.2}x\n",
        lossless.len(),
        mdm_sound::ratio(&pcm, lossless.len())
    ));
    for bits in [12u8, 8, 4] {
        let enc = mdm_sound::codec::perceptual::encode(&pcm, bits);
        let dec = mdm_sound::codec::perceptual::decode(&enc).expect("decode");
        out.push_str(&format!(
            "perceptual μ-law at {bits:>2} bits: {} bytes, ratio {:.2}x, SNR {:.1} dB\n",
            enc.len(),
            mdm_sound::ratio(&pcm, enc.len()),
            mdm_sound::codec::perceptual::snr_db(&pcm, &dec)
        ));
    }
    out
}

/// The four §5.6 example queries, executed verbatim.
fn quel() -> String {
    let mut db = workload::chord_database(3, 4);
    let mut session = Session::new();
    let mut out = String::new();
    let queries = [
        (
            "notes prior to note 6 in its chord",
            "range of n1, n2 is NOTE\nretrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 6",
        ),
        (
            "notes that follow note 6",
            "retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = 6",
        ),
        (
            "notes under chord 2",
            "range of c1 is CHORD\nretrieve (n1.name) where n1 under c1 in note_in_chord and c1.name = 2",
        ),
        (
            "the parent chord of note 6",
            "retrieve (c1.name) where n1 under c1 in note_in_chord and n1.name = 6",
        ),
    ];
    for (label, q) in queries {
        out.push_str(&format!("-- {label}\n{q}\n"));
        let results = session.execute(&mut db, q).expect("query");
        for r in results {
            if let mdm_lang::StmtResult::Rows(t) = r {
                out.push_str(&t.to_string());
            }
        }
        out.push('\n');
    }
    out
}

/// E2, `BENCH_2.json`: the multi-client commit sweep. Per client count,
/// every client commits small transactions to its own table of one
/// engine; the last engine's full metrics snapshot rides along so pool
/// hit rates, fsync latency and group-commit batch sizes sit beside the
/// throughput they explain.
fn commit_sweep(client_counts: &[usize], ops_per_client: usize) -> Json {
    let mut runs = Vec::new();
    let mut snapshot = None;
    for &clients in client_counts {
        let dir = ScratchDir::new("commit");
        let eng = mdm_storage::StorageEngine::open_with_capacity(dir.path(), 256).expect("open");
        let tables: Vec<_> = (0..clients)
            .map(|t| eng.create_table(&format!("t{t}")).expect("table"))
            .collect();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for &t in &tables {
                let eng = eng.clone();
                scope.spawn(move || {
                    for op in 0..ops_per_client {
                        let mut txn = eng.begin().expect("begin");
                        eng.insert(&mut txn, t, format!("row {op}").as_bytes())
                            .expect("insert");
                        eng.commit(txn).expect("commit");
                    }
                });
            }
        });
        let elapsed = started.elapsed();
        let txns = clients * ops_per_client;
        runs.push(Json::obj([
            ("clients", clients.into()),
            ("txns", txns.into()),
            ("micros", (elapsed.as_micros() as u64).into()),
            ("txns_per_sec", (txns as f64 / elapsed.as_secs_f64()).into()),
        ]));
        snapshot = Some(eng.metrics_snapshot());
    }
    Json::obj([
        ("bench", "e2_concurrent_commit".into()),
        ("ops_per_client", ops_per_client.into()),
        ("runs", Json::Arr(runs)),
        (
            "engine_metrics",
            snapshot.as_ref().expect("a client count").into(),
        ),
    ])
}

/// The net and trace sweeps' op: even ops commit `score`, odd ops read
/// every score title.
fn store_or_list(c: &mut MdmClient, score: &Score, op: usize) {
    if op.is_multiple_of(2) {
        c.store_score(score).expect("store");
    } else {
        c.query("range of s is SCORE\nretrieve (s.title)")
            .expect("query");
    }
}

/// The stats and monitor sweeps' op against `entity`: even ops append a
/// row, odd ops probe one by rank.
fn append_or_probe(c: &mut MdmClient, entity: &str, worker: usize, op: usize) {
    if op.is_multiple_of(2) {
        c.execute(&format!(
            "append to {entity} (name = \"w{worker}\", rank = {op})"
        ))
        .expect("append");
    } else {
        c.query(&format!(
            "range of s is {entity}\nretrieve (s.name) where s.rank = {op}"
        ))
        .expect("query");
    }
}

/// E3, `BENCH_3.json`: the network axis. Per client count, loopback TCP
/// clients alternate score commits with QUEL reads against one
/// `MdmServer`, so the figures cover framing, checksums, dispatch and
/// storage rather than the engine alone. `p50_micros` and `p99_micros`
/// are nearest-rank percentiles over every request's client-side
/// latency; documents written before the shared harness interpolated
/// them from the server's `mdm_net_request_micros` histogram buckets.
fn net_loopback(client_counts: &[usize], ops_per_client: usize) -> Json {
    let score = bwv578_subject();
    let mut runs = Vec::new();
    let mut snapshot = None;
    for &clients in client_counts {
        let sweep = loopback_sweep(
            clients,
            ops_per_client,
            |_| ServerConfig::default(),
            |c, _, op| store_or_list(c, &score, op),
        );
        runs.push(Json::obj([
            ("clients", clients.into()),
            ("requests", sweep.latencies_ns.len().into()),
            ("micros", (sweep.elapsed.as_micros() as u64).into()),
            ("requests_per_sec", sweep.ops_per_sec().into()),
            ("p50_micros", sweep.latency_us(0.50).into()),
            ("p99_micros", sweep.latency_us(0.99).into()),
        ]));
        snapshot = Some(sweep.snapshot);
    }
    Json::obj([
        ("bench", "e3_net_loopback".into()),
        ("ops_per_client", ops_per_client.into()),
        ("runs", Json::Arr(runs)),
        (
            "server_metrics",
            snapshot.as_ref().expect("a client count").into(),
        ),
    ])
}

/// The CI network smoke: server start, client connect, one QUEL query,
/// one score round-trip and a clean drained shutdown, then a validated
/// 2-point sweep, all within a deadline.
fn net_smoke() -> Result<String, String> {
    let deadline = std::time::Duration::from_secs(30);
    let started = Instant::now();
    {
        let dir = ScratchDir::new("net-smoke");
        let mdm = MusicDataManager::open(dir.path()).map_err(|e| format!("open: {e}"))?;
        let server = MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("start: {e}"))?;
        let mut c = MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        let score = bwv578_subject();
        let id = c.store_score(&score).map_err(|e| format!("store: {e}"))?;
        let loaded = c.load_score(id).map_err(|e| format!("load: {e}"))?;
        if loaded != score {
            return Err("score round-trip mismatch".into());
        }
        let table = c
            .query("range of s is SCORE\nretrieve (s.title)")
            .map_err(|e| format!("query: {e}"))?;
        if table.rows.len() != 1 {
            return Err(format!("expected 1 score row, got {}", table.rows.len()));
        }
        drop(c);
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    write_document(&net_loopback(&[1, 2], 10), validate::net_loopback)?;
    let elapsed = started.elapsed();
    if elapsed > deadline {
        return Err(format!(
            "smoke exceeded its {}s deadline ({:.1}s)",
            deadline.as_secs(),
            elapsed.as_secs_f64()
        ));
    }
    Ok(format!(
        "net smoke: ok — store/load/query round-trip and a validated \
         2-point sweep in {:.2}s",
        elapsed.as_secs_f64()
    ))
}

/// E4, `BENCH_4.json`: request-tracing overhead. Per client count,
/// `rounds` paired rounds of the net sweep's op mix, untraced and then
/// with the server tracer at the default 1-in-16 sampling. Each run
/// records the median throughputs and every round's paired overhead,
/// with their median and their smallest (`overhead_pct`); the embedded
/// snapshot is the smallest round's traced run. The latency percentiles
/// are nearest rank over all rounds' client-side samples per condition.
/// Documents written before the shared harness took each condition's
/// best round and interpolated server histogram buckets. There is no
/// overhead gate.
fn trace_overhead(client_counts: &[usize], ops_per_client: usize, rounds: usize) -> Json {
    let score = bwv578_subject();
    let mut runs = Vec::new();
    let mut snapshot = None;
    for &clients in client_counts {
        let paired = paired_rounds(
            rounds,
            |traced| {
                let sweep = loopback_sweep(
                    clients,
                    ops_per_client,
                    |m| {
                        if traced {
                            m.tracer().set_sample_every(mdm_obs::DEFAULT_SAMPLE_EVERY);
                            m.tracer().set_enabled(true);
                        }
                        ServerConfig::default()
                    },
                    |c, _, op| store_or_list(c, &score, op),
                );
                (sweep.ops_per_sec(), sweep.latencies_ns, sweep.snapshot)
            },
            |run| run.0,
        );
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for (off, on) in &paired.runs {
            untraced.extend(&off.1);
            traced.extend(&on.1);
        }
        let us = |samples: &[u64], q| (percentile(samples, q) as f64 / 1e3).into();
        let mut fields = vec![("clients", clients.into())];
        fields.extend(paired.fields("untraced_requests_per_sec", "traced_requests_per_sec"));
        fields.extend([
            ("untraced_p50_micros", us(&untraced, 0.50)),
            ("untraced_p99_micros", us(&untraced, 0.99)),
            ("traced_p50_micros", us(&traced, 0.50)),
            ("traced_p99_micros", us(&traced, 0.99)),
        ]);
        runs.push(Json::Obj(fields));
        let (_, gated) = paired.into_gated_round();
        snapshot = Some(gated.2);
    }
    Json::obj([
        ("bench", "e4_trace_overhead".into()),
        ("ops_per_client", ops_per_client.into()),
        ("rounds", rounds.into()),
        ("sample_every", mdm_obs::DEFAULT_SAMPLE_EVERY.into()),
        ("runs", Json::Arr(runs)),
        (
            "server_metrics",
            snapshot.as_ref().expect("a client count").into(),
        ),
    ])
}

/// The CI tracing smoke: one traced QUEL `execute` end-to-end over
/// loopback must yield a trace whose root (`net.request`) has at least
/// three child spans and whose tree spans net → quel → storage, with a
/// Chrome trace-event export our own JSON parser accepts.
fn trace_smoke() -> Result<String, String> {
    use mdm_net::TraceOp;
    use mdm_obs::json::{parse, Value};
    let started = Instant::now();

    let dir = ScratchDir::new("trace-smoke");
    let mdm = MusicDataManager::open(dir.path()).map_err(|e| format!("open: {e}"))?;
    let server = MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("start: {e}"))?;
    let mut c = MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    if c.negotiated_version() < 2 {
        return Err(format!(
            "expected a v2 session, negotiated v{}",
            c.negotiated_version()
        ));
    }

    c.trace_control(TraceOp::Enable { sample_every: 1 })
        .map_err(|e| format!("trace on: {e}"))?;
    // An execute runs the full path: net framing, the QUEL pipeline, and
    // a real storage transaction for the statement journal.
    c.execute("append to PERSON (name = \"Smoke\")")
        .map_err(|e| format!("execute: {e}"))?;
    let (text, chrome) = c
        .trace_fetch(false, 16)
        .map_err(|e| format!("trace fetch: {e}"))?;
    if !text.contains("net.request") {
        return Err(format!("span-tree text has no net.request root:\n{text}"));
    }

    let v = parse(&chrome).map_err(|e| format!("chrome JSON unparseable: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("chrome JSON missing traceEvents array")?;
    if events.is_empty() {
        return Err("chrome JSON has no events".into());
    }
    let arg = |e: &Value, k: &str| {
        e.get("args")
            .and_then(|a| a.get(k))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let name = |e: &Value| {
        e.get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    // The execute's trace: the one containing a quel.exec span.
    let quel_exec = events
        .iter()
        .find(|e| name(e) == "quel.exec")
        .ok_or("no quel.exec span in any trace")?;
    let trace_id = arg(quel_exec, "trace_id").ok_or("quel.exec has no trace_id")?;
    let in_trace: Vec<&Value> = events
        .iter()
        .filter(|e| arg(e, "trace_id").as_deref() == Some(trace_id.as_str()))
        .collect();
    let root = in_trace
        .iter()
        .find(|e| name(e) == "net.request")
        .ok_or("execute trace has no net.request root")?;
    let root_id = arg(root, "span_id").ok_or("root has no span_id")?;
    let direct_children = in_trace
        .iter()
        .filter(|e| arg(e, "parent_id").as_deref() == Some(root_id.as_str()))
        .count();
    if direct_children < 3 {
        return Err(format!(
            "root has {direct_children} direct children, expected >= 3 \
             (decode/dispatch/encode)"
        ));
    }
    for required in ["net.dispatch", "quel.exec", "storage.wal_append"] {
        if !in_trace.iter().any(|e| name(e) == required) {
            return Err(format!("execute trace is missing a {required} span"));
        }
    }

    drop(c);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(format!(
        "trace smoke: ok — traced execute produced a {}-span tree \
         (net → quel → storage) with a parseable Chrome export in {:.2}s",
        in_trace.len(),
        started.elapsed().as_secs_f64()
    ))
}

/// E5, `BENCH_5.json`: the crash-point torture sweep — the boundary
/// census from the clean run, the distinct crash states explored,
/// reopen (recovery) latency quantiles, every invariant violation
/// verbatim, and the `mdm_fault_*` metric snapshot.
fn crash_torture(cfg: &mdm_storage::TortureConfig) -> Json {
    let dir = ScratchDir::new("torture");
    let registry = mdm_obs::Registry::new();
    let report = mdm_storage::crash_point_sweep(dir.path(), cfg, &registry);
    Json::obj([
        ("bench", "e5_crash_torture".into()),
        (
            "config",
            Json::obj([
                ("rounds", cfg.rounds.into()),
                ("pool_pages", cfg.pool_pages.into()),
                ("stride", cfg.stride.into()),
                ("torn_writes", cfg.torn_writes.into()),
            ]),
        ),
        ("boundaries", report.boundaries.into()),
        ("writes", report.writes.into()),
        ("syncs", report.syncs.into()),
        ("crash_points", report.crash_points.into()),
        ("reopen_p50_micros", report.reopen_percentile(0.50).into()),
        ("reopen_p99_micros", report.reopen_percentile(0.99).into()),
        ("reopen_mean_micros", report.reopen_mean().into()),
        (
            "violations",
            Json::Arr(
                report
                    .violations
                    .iter()
                    .map(|v| v.as_str().into())
                    .collect(),
            ),
        ),
        ("fault_metrics", (&registry.snapshot()).into()),
    ])
}

/// E6, `BENCH_6.json`: the secondary-index sweep. One chord/note
/// fixture (`chords × notes_per_chord` notes, §5.6 shape) and three
/// probe queries — an equality probe, a range probe, and an
/// ordering-derived `under` — each EXPLAINed before and after
/// `define index`. Per query: the access paths chosen, tuples fetched
/// and wall time for both plans, with the QUEL pipeline's metrics
/// embedded. Indexed and scan plans must return identical tables; the
/// sweep panics otherwise, because a fast wrong plan is not a result.
fn index_planner(chords: usize, notes_per_chord: usize) -> Json {
    let registry = mdm_obs::Registry::new();
    let mut session = Session::with_metrics(mdm_lang::QuelMetrics::register(&registry));
    let mut db = workload::chord_database(chords, notes_per_chord);
    let notes = chords * notes_per_chord;
    let mid_note = (notes / 2) as i64;
    let mid_chord = (chords / 2) as i64;
    let queries = [
        (
            "eq-probe",
            format!("range of n is NOTE\nretrieve (n.name) where n.name = {mid_note}"),
        ),
        (
            "range-probe",
            format!(
                "range of n is NOTE\nretrieve (n.name) where n.name >= {mid_note} and n.name < {}",
                mid_note + 64
            ),
        ),
        (
            "ord-under",
            format!(
                "range of n is NOTE\nrange of c is CHORD\n\
                 retrieve (n.name) where n under c in note_in_chord and c.name = {mid_chord}"
            ),
        ),
    ];
    let mut explain = |db: &Database, name: &str, q: &str| {
        let started = Instant::now();
        let (ex, table) = session.explain(db, q).expect(name);
        (ex, table, started.elapsed())
    };

    // Scan phase: no indexes defined yet, every variable full-scans.
    let scans: Vec<_> = queries.iter().map(|(n, q)| explain(&db, n, q)).collect();
    session
        .execute(
            &mut db,
            "define index note_by_name on NOTE (name)\n\
             define index chord_by_name on CHORD (name)",
        )
        .expect("define indexes");

    let mut runs = Vec::new();
    for ((name, q), (scan_ex, scan_table, scan_elapsed)) in queries.iter().zip(&scans) {
        let started = Instant::now();
        let (ex, table) = session.explain(&db, q).expect(name);
        let indexed_elapsed = started.elapsed();
        assert_eq!(
            &table, scan_table,
            "indexed and scan plans must agree for {name}"
        );
        let paths = ex.vars.iter().map(|v| v.path.as_str().into()).collect();
        runs.push(Json::obj([
            ("query", (*name).into()),
            ("rows", table.rows.len().into()),
            ("scan_rows_scanned", scan_ex.rows_scanned.into()),
            ("scan_micros", (scan_elapsed.as_micros() as u64).into()),
            ("indexed_rows_scanned", ex.rows_scanned.into()),
            (
                "indexed_micros",
                (indexed_elapsed.as_micros() as u64).into(),
            ),
            ("indexed_paths", Json::Arr(paths)),
            (
                "scanned_reduction",
                (scan_ex.rows_scanned as f64 / ex.rows_scanned.max(1) as f64).into(),
            ),
            (
                "speedup",
                (scan_elapsed.as_secs_f64() / indexed_elapsed.as_secs_f64().max(1e-9)).into(),
            ),
        ]));
    }
    Json::obj([
        ("bench", "e6_index_planner".into()),
        ("entities", (notes + chords).into()),
        ("chords", chords.into()),
        ("notes_per_chord", notes_per_chord.into()),
        ("runs", Json::Arr(runs)),
        ("quel_metrics", (&registry.snapshot()).into()),
    ])
}

/// The CI index smoke: on a small fixture, every probe query's indexed
/// plan must pick a non-scan path, return rows identical to the scan
/// plan (checked inside `index_planner`), and fetch fewer tuples than
/// the scan did — at least 1.5× rather than the full bench's 50×, which
/// a 2 460-entity fixture cannot reach on the ordering probe.
fn index_smoke() -> Result<String, String> {
    let started = Instant::now();
    write_document(&index_planner(60, 40), |d| validate::index_planner(d, 1.5))?;
    Ok(format!(
        "index smoke: ok — 3 probe queries planned onto index/ord paths, \
         scan-identical rows, validated JSON in {:.2}s",
        started.elapsed().as_secs_f64()
    ))
}

/// The stats and monitor overhead benches' shared body. Per client
/// count, `rounds` paired rounds of `append_or_probe` against a fresh
/// `entity`, baseline then treated; `setup(m, treated)` prepares each
/// server. Each run holds the median throughputs and the paired
/// overheads (see `Paired::fields`), and under `count_keys` (treated,
/// baseline) what `count` reads from the gated round's two runs: the
/// evidence that the treatment ran only when on. Returns the runs and
/// the last gated treated run's snapshot.
fn overhead_runs(
    client_counts: &[usize],
    ops_per_client: usize,
    rounds: usize,
    entity: &str,
    setup: impl Fn(&mut MusicDataManager, bool) -> ServerConfig,
    count: impl Fn(&Sweep) -> u64,
    count_keys: [&'static str; 2],
) -> (Json, mdm_obs::Snapshot) {
    let mut runs = Vec::new();
    let mut snapshot = None;
    for &clients in client_counts {
        let paired = paired_rounds(
            rounds,
            |treated| {
                let sweep = loopback_sweep(
                    clients,
                    ops_per_client,
                    |m| {
                        // Set up first: a bypassed statement store must
                        // not record the seeding DDL either.
                        let config = setup(m, treated);
                        m.execute(&format!(
                            "define entity {entity} (name = string, rank = integer)"
                        ))
                        .expect("seed schema");
                        config
                    },
                    |c, worker, op| append_or_probe(c, entity, worker, op),
                );
                (sweep.ops_per_sec(), count(&sweep), sweep.snapshot)
            },
            |run| run.0,
        );
        let mut fields = vec![("clients", clients.into())];
        fields.extend(paired.fields("off_requests_per_sec", "on_requests_per_sec"));
        let (off, on) = paired.into_gated_round();
        fields.extend([(count_keys[0], on.1.into()), (count_keys[1], off.1.into())]);
        runs.push(Json::Obj(fields));
        snapshot = Some(on.2);
    }
    (Json::Arr(runs), snapshot.expect("a client count"))
}

/// E7, `BENCH_7.json`: statement-statistics overhead, from
/// `overhead_runs` with the statement store bypassed and then
/// recording. Throughputs are the rounds' medians. `overhead_pct` is
/// the smallest round's paired overhead, the statistic the ≤5% gate
/// tests, recorded beside the median and every round; the statement
/// counts and the embedded snapshot come from that same round.
/// Documents written before the shared harness recorded only that
/// round.
fn stats_overhead(client_counts: &[usize], ops_per_client: usize, rounds: usize) -> Json {
    let (runs, snapshot) = overhead_runs(
        client_counts,
        ops_per_client,
        rounds,
        "STAT_ITEM",
        |m, recording| {
            m.statement_store().set_enabled(recording);
            ServerConfig::default()
        },
        |sweep| sweep.mdm.statement_top(64).rows.len() as u64,
        ["statements_recorded", "statements_recorded_off"],
    );
    Json::obj([
        ("bench", "e7_stats_overhead".into()),
        ("ops_per_client", ops_per_client.into()),
        ("rounds", rounds.into()),
        ("runs", runs),
        ("server_metrics", (&snapshot).into()),
    ])
}

/// The CI statement-statistics smoke: a scaled-down overhead sweep with
/// a generous noise budget (the real 5% gate is `stats-bench`), then a
/// live `$statements` retrieve and a `Top` request over loopback — the
/// introspection surface end to end.
fn stats_smoke() -> Result<String, String> {
    let started = Instant::now();
    write_document(&stats_overhead(&[1, 2], 150, 3), |d| {
        validate::stats_overhead(d, 30.0)
    })?;

    let dir = ScratchDir::new("stats-smoke");
    let mdm = MusicDataManager::open(dir.path()).map_err(|e| format!("open: {e}"))?;
    let server = MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("start: {e}"))?;
    let mut c = MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    c.execute("define entity SMOKE (n = integer)")
        .map_err(|e| format!("execute: {e}"))?;
    for n in 0..2 {
        c.query(&format!(
            "range of s is SMOKE\nretrieve (s.n) where s.n = {n}"
        ))
        .map_err(|e| format!("query: {e}"))?;
    }
    let t = c
        .query(
            "range of st is $statements\n\
             retrieve (st.fingerprint, st.calls) where st.calls = 2",
        )
        .map_err(|e| format!("$statements: {e}"))?;
    if t.rows.len() != 1 {
        return Err(format!(
            "expected the repeated query as one $statements row, got {}",
            t.rows.len()
        ));
    }
    let top = c.top(5).map_err(|e| format!("top: {e}"))?;
    if top.rows.is_empty() {
        return Err("Top returned no statements".into());
    }
    drop(c);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(format!(
        "stats smoke: ok — validated 2-point overhead sweep, live \
         $statements retrieve and Top over loopback in {:.2}s",
        started.elapsed().as_secs_f64()
    ))
}

/// E9, `BENCH_9.json`: continuous-monitoring overhead, from
/// `overhead_runs` with the monitor passive (a zero interval: the
/// sampler thread never starts) and then sampling every 10 ms — 100×
/// the 1 s production default, so the overhead is an upper bound on
/// what a deployed server pays. Reported as in `stats_overhead`;
/// `overhead_pct` is what the ≤2% gate tests.
fn monitor_overhead(client_counts: &[usize], ops_per_client: usize, rounds: usize) -> Json {
    let (runs, snapshot) = overhead_runs(
        client_counts,
        ops_per_client,
        rounds,
        "OBS_ITEM",
        |_, sampling| ServerConfig {
            sample_interval: match sampling {
                true => std::time::Duration::from_millis(10),
                false => std::time::Duration::ZERO,
            },
            ..ServerConfig::default()
        },
        |sweep| {
            let samples = sweep.snapshot.counter("mdm_monitor_samples_total");
            samples.unwrap_or(0)
        },
        ["samples", "samples_off"],
    );
    Json::obj([
        ("bench", "e9_monitor_overhead".into()),
        ("ops_per_client", ops_per_client.into()),
        ("rounds", rounds.into()),
        ("sample_interval_ms", 10usize.into()),
        ("runs", runs),
        ("server_metrics", (&snapshot).into()),
    ])
}

/// One `GET` against a std-only observability endpoint, returning
/// `(status, body)`.
fn http_get(addr: std::net::SocketAddr, target: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: smoke\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_ascii_whitespace().next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {raw:?}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Polls `target` until it answers `want` (or the deadline passes),
/// returning the last `(status, body)` seen.
fn wait_for_status(
    addr: std::net::SocketAddr,
    target: &str,
    want: u16,
    deadline: std::time::Duration,
) -> Result<(u16, String), String> {
    let start = Instant::now();
    loop {
        let (status, body) = http_get(addr, target)?;
        if status == want || start.elapsed() > deadline {
            return Ok((status, body));
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// The CI monitoring drill: a primary and a replica both serving their
/// observability endpoints; the replica is held behind (pulls continue,
/// nothing applies) while the primary keeps writing, which must trip
/// the seeded lag alert and flip the replica's `/healthz` to 503 — then
/// resume, catch up, and flip back to 200. Finishes with a scaled-down
/// validated overhead sweep; the budget here is a sanity bound, the
/// real 2% gate is `obs-bench`.
fn health_smoke() -> Result<String, String> {
    use mdm_repl::{ReplicaConfig, ReplicaNode};
    use std::time::Duration;
    let deadline = Duration::from_secs(60);
    let started = Instant::now();

    let base = ScratchDir::new("health-smoke");
    let mdm = MusicDataManager::open(&base.path().join("primary"))
        .map_err(|e| format!("open primary: {e}"))?;
    let pcfg = ServerConfig {
        http_addr: Some("127.0.0.1:0".into()),
        sample_interval: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let server =
        MdmServer::start(mdm, "127.0.0.1:0", pcfg).map_err(|e| format!("start primary: {e}"))?;
    let primary_http = server.http_addr().ok_or("primary has no http addr")?;
    let mut pc = MdmClient::connect(&server.local_addr().to_string(), ClientConfig::default())
        .map_err(|e| format!("connect: {e}"))?;
    pc.execute("define entity HEALTH_ITEM (name = string)")
        .map_err(|e| format!("ddl: {e}"))?;

    // Hair-trigger lag thresholds so the drill runs in milliseconds.
    let mut cfg = ReplicaConfig::new(&server.local_addr().to_string());
    cfg.server.http_addr = Some("127.0.0.1:0".into());
    cfg.server.sample_interval = Duration::from_millis(25);
    cfg.lag_alert_bytes = 1;
    cfg.lag_alert_seconds = 0.5;
    let node = ReplicaNode::start(&base.path().join("replica"), "127.0.0.1:0", cfg)
        .map_err(|e| format!("replica start: {e}"))?;
    let replica_http = node
        .server()
        .http_addr()
        .ok_or("replica has no http addr")?;

    let target = server.with_manager(|m| m.engine().wal_durable_lsn());
    if !node.wait_for_lsn(target, Duration::from_secs(15)) {
        return Err(format!("replica stuck at lsn {}", node.applied_lsn()));
    }
    let (status, body) = wait_for_status(replica_http, "/healthz", 200, Duration::from_secs(5))?;
    if status != 200 {
        return Err(format!("caught-up replica unhealthy ({status}): {body}"));
    }

    node.set_apply_paused(true);
    for i in 0..10 {
        pc.execute(&format!("append to HEALTH_ITEM (name = \"e{i}\")"))
            .map_err(|e| format!("primary append: {e}"))?;
    }
    let (status, body) = wait_for_status(replica_http, "/healthz", 503, Duration::from_secs(15))?;
    if status != 503 {
        return Err(format!("lag alert never fired ({status}): {body}"));
    }
    if !body.contains("repl_lag_bytes_high") || !body.contains("\"state\":\"firing\"") {
        return Err(format!("503 body lacks the firing lag alert: {body}"));
    }
    let (status, body) = http_get(primary_http, "/statusz")?;
    if status != 200 || !body.contains("\"role\": \"primary\"") {
        return Err(format!("primary /statusz wrong ({status}): {body}"));
    }
    let (status, _) = http_get(primary_http, "/healthz")?;
    if status != 200 {
        return Err(format!("primary /healthz not 200 ({status})"));
    }

    node.set_apply_paused(false);
    let target = server.with_manager(|m| m.engine().wal_durable_lsn());
    if !node.wait_for_lsn(target, Duration::from_secs(15)) {
        return Err(format!("replica never caught up to lsn {target}"));
    }
    let (status, body) = wait_for_status(replica_http, "/healthz", 200, Duration::from_secs(15))?;
    if status != 200 {
        return Err(format!("replica never recovered ({status}): {body}"));
    }

    drop(pc);
    node.shutdown()
        .map_err(|e| format!("replica shutdown: {e}"))?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    write_document(&monitor_overhead(&[1, 2], 150, 3), |d| {
        validate::monitor_overhead(d, 30.0)
    })?;

    let elapsed = started.elapsed();
    if elapsed > deadline {
        return Err(format!(
            "smoke exceeded its {}s deadline ({:.1}s)",
            deadline.as_secs(),
            elapsed.as_secs_f64()
        ));
    }
    Ok(format!(
        "health smoke: ok — /healthz 200 → 503 on a held-back replica \
         with the lag alert firing, 200 again after catch-up, and a \
         validated 2-point overhead sweep in {:.2}s",
        elapsed.as_secs_f64()
    ))
}

/// One replication fan-out sweep: a primary under constant write load,
/// `replicas` streaming replicas (0 = readers hit the primary), and
/// `readers` concurrent QUEL readers spread round-robin over the read
/// endpoints. Returns `(reads_per_sec, lag samples in records, writes
/// completed, snapshot of the first replica — or the primary when 0)`.
fn repl_sweep(
    replicas: usize,
    readers: usize,
    reads_per_reader: usize,
) -> (f64, Vec<u64>, u64, mdm_obs::Snapshot) {
    use mdm_repl::{ReplicaConfig, ReplicaNode};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let base = ScratchDir::new("repl");
    let mdm = MusicDataManager::open(&base.path().join("primary")).expect("open primary");
    let server =
        MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default()).expect("start server");
    let addr = server.local_addr().to_string();

    // Fixture: one entity, a page of rows, so reads do real work.
    let mut seed = MdmClient::connect(&addr, ClientConfig::default()).expect("seed connect");
    let mut stmt = String::from("define entity TUNE (title = string)\n");
    for i in 0..64 {
        stmt.push_str(&format!("append to TUNE (title = \"air no. {i}\")\n"));
    }
    seed.execute(&stmt).expect("seed fixture");

    let nodes: Vec<ReplicaNode> = (0..replicas)
        .map(|i| {
            let mut cfg = ReplicaConfig::new(&addr);
            cfg.replica_id = i as u64 + 1;
            ReplicaNode::start(
                &base.path().join(format!("replica-{i}")),
                "127.0.0.1:0",
                cfg,
            )
            .expect("start replica")
        })
        .collect();
    let target = server.with_manager(|m| m.engine().wal_durable_lsn());
    for node in &nodes {
        assert!(
            node.wait_for_lsn(target, std::time::Duration::from_secs(30)),
            "replica never caught up: {:?}",
            node.last_error()
        );
    }
    let read_addrs: Vec<String> = if nodes.is_empty() {
        vec![addr.clone()]
    } else {
        nodes.iter().map(|n| n.addr().to_string()).collect()
    };

    let stop = AtomicBool::new(false);
    let writes = AtomicU64::new(0);
    let started = Instant::now();
    let lag_samples = std::thread::scope(|scope| {
        // Writer: keeps the primary's durable watermark moving so the
        // lag samples measure replication under load, not at rest.
        scope.spawn(|| {
            let mut c = MdmClient::connect(&addr, ClientConfig::default()).expect("writer");
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                c.execute(&format!("append to TUNE (title = \"load {i}\")"))
                    .expect("write");
                writes.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        });
        // Lag sampler: max records behind the primary's durable
        // watermark across the fleet, sampled while readers run.
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let lag = nodes
                    .iter()
                    .map(|n| n.primary_durable_lsn().saturating_sub(n.applied_lsn()))
                    .max()
                    .unwrap_or(0);
                samples.push(lag);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            samples
        });
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let target = &read_addrs[r % read_addrs.len()];
                scope.spawn(move || {
                    let mut c =
                        MdmClient::connect(target, ClientConfig::default()).expect("reader");
                    for _ in 0..reads_per_reader {
                        let t = c
                            .query("range of t is TUNE\nretrieve (t.title)")
                            .expect("read");
                        assert!(t.rows.len() >= 64, "reader saw a truncated fixture");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reader thread");
        }
        stop.store(true, Ordering::Release);
        sampler.join().expect("sampler thread")
    });
    let per_sec = (readers * reads_per_reader) as f64 / started.elapsed().as_secs_f64();

    let snap = match nodes.first() {
        None => server.with_manager(|m| m.metrics_snapshot()),
        Some(node) => node.server().with_manager(|m| m.metrics_snapshot()),
    };
    for node in nodes {
        node.shutdown().expect("replica shutdown");
    }
    server.shutdown().expect("primary shutdown");
    (per_sec, lag_samples, writes.load(Ordering::Acquire), snap)
}

/// E8, `BENCH_8.json`: the replication fan-out sweep. Read throughput
/// per replica count (0 = all reads on the primary) under a constant
/// primary write load, with replication-lag percentiles per topology —
/// nearest rank; documents written before the shared harness rounded a
/// fractional index instead — and the last replicated run's replica
/// metrics (`mdm_repl_*`) embedded.
fn repl_fanout(replica_counts: &[usize], readers: usize, reads_per_reader: usize) -> Json {
    let mut runs = Vec::new();
    let mut snapshot = None;
    for &replicas in replica_counts {
        let (per_sec, lags, writes, snap) = repl_sweep(replicas, readers, reads_per_reader);
        runs.push(Json::obj([
            ("replicas", replicas.into()),
            ("readers", readers.into()),
            ("reads", (readers * reads_per_reader).into()),
            ("reads_per_sec", per_sec.into()),
            ("writes_during", writes.into()),
            ("lag_p50_records", percentile(&lags, 0.50).into()),
            ("lag_p99_records", percentile(&lags, 0.99).into()),
        ]));
        if replicas > 0 {
            snapshot = Some(snap);
        }
    }
    Json::obj([
        ("bench", "e8_repl_fanout".into()),
        ("reads_per_reader", reads_per_reader.into()),
        ("runs", Json::Arr(runs)),
        (
            "replica_metrics",
            snapshot.as_ref().expect("a replicated run").into(),
        ),
    ])
}

/// The CI replication smoke: a primary and one replica over loopback.
/// Rows written on the primary must become readable on the replica
/// within the lag bound, the replica must refuse writes with the typed
/// `ReadOnly` code, and a validated 1-replica mini-sweep must pass.
fn repl_smoke() -> Result<String, String> {
    use mdm_net::{ErrorCode, NetError};
    use mdm_repl::{ReplicaConfig, ReplicaNode};
    let deadline = std::time::Duration::from_secs(60);
    let started = Instant::now();

    let base = ScratchDir::new("repl-smoke");
    let mdm =
        MusicDataManager::open(&base.path().join("primary")).map_err(|e| format!("open: {e}"))?;
    let server = MdmServer::start(mdm, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("start: {e}"))?;
    let addr = server.local_addr().to_string();
    let node = ReplicaNode::start(
        &base.path().join("replica"),
        "127.0.0.1:0",
        ReplicaConfig::new(&addr),
    )
    .map_err(|e| format!("replica start: {e}"))?;

    let mut pc =
        MdmClient::connect(&addr, ClientConfig::default()).map_err(|e| format!("connect: {e}"))?;
    pc.execute(
        "define entity TUNE (title = string)\n\
         append to TUNE (title = \"the old triangle\")\n\
         append to TUNE (title = \"the parting glass\")",
    )
    .map_err(|e| format!("primary execute: {e}"))?;
    let target = server.with_manager(|m| m.engine().wal_durable_lsn());
    if !node.wait_for_lsn(target, std::time::Duration::from_secs(15)) {
        return Err(format!(
            "replica stuck at lsn {} of {target}: {:?}",
            node.applied_lsn(),
            node.last_error()
        ));
    }
    let mut rc = MdmClient::connect(&node.addr().to_string(), ClientConfig::default())
        .map_err(|e| format!("replica connect: {e}"))?;
    let t = rc
        .query("range of t is TUNE\nretrieve (t.title)")
        .map_err(|e| format!("replica query: {e}"))?;
    if t.rows.len() != 2 {
        return Err(format!("expected 2 replicated rows, got {}", t.rows.len()));
    }
    match rc.execute("append to TUNE (title = \"nope\")") {
        Err(NetError::Remote {
            code: ErrorCode::ReadOnly,
            ..
        }) => {}
        other => return Err(format!("expected typed ReadOnly refusal, got {other:?}")),
    }
    let rs = rc
        .repl_status()
        .map_err(|e| format!("replica status: {e}"))?;
    if !rs.replica || rs.applied_lsn < target {
        return Err(format!(
            "replica status wrong: replica={} applied={}",
            rs.replica, rs.applied_lsn
        ));
    }
    drop(rc);
    node.shutdown()
        .map_err(|e| format!("replica shutdown: {e}"))?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    write_document(&repl_fanout(&[1], 2, 25), validate::repl_fanout)?;

    let elapsed = started.elapsed();
    if elapsed > deadline {
        return Err(format!(
            "smoke exceeded its {}s deadline ({:.1}s)",
            deadline.as_secs(),
            elapsed.as_secs_f64()
        ));
    }
    Ok(format!(
        "repl smoke: ok — primary→replica stream, typed read-only \
         refusal, status, and a validated 1-replica sweep in {:.2}s",
        elapsed.as_secs_f64()
    ))
}

/// Point-in-time recovery: `replay-to <src> <dest> --lsn <N>` rebuilds
/// `dest` from `src`'s archived WAL history cut strictly below `N`
/// (`--lsn max` keeps everything), then opens it once to prove the
/// restored directory recovers.
fn replay_to(args: &[String]) -> Result<String, String> {
    let mut src = None;
    let mut dest = None;
    let mut lsn = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--lsn" {
            let v = it.next().ok_or("--lsn needs a value")?;
            lsn = Some(if v == "max" {
                u64::MAX
            } else {
                v.parse::<u64>().map_err(|_| format!("bad lsn {v:?}"))?
            });
        } else if src.is_none() {
            src = Some(std::path::PathBuf::from(a));
        } else if dest.is_none() {
            dest = Some(std::path::PathBuf::from(a));
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    let (Some(src), Some(dest), Some(lsn)) = (src, dest, lsn) else {
        return Err("usage: repro replay-to <src-dir> <dest-dir> --lsn <N|max>".into());
    };
    let (engine, point) =
        mdm_repl::restore_and_open(&src, &dest, lsn).map_err(|e| e.to_string())?;
    let tables = engine.table_names().len();
    drop(engine);
    Ok(format!(
        "restored {} to {} at lsn {point} ({tables} tables recovered)",
        src.display(),
        dest.display()
    ))
}

/// One cell of the MVCC read sweep: `readers` read loops run for
/// `duration_ms` against a `rows`-row table while `writers` clients
/// update it continuously. `snapshot_mode` picks the read path — MVCC
/// snapshots (lock-free) or 2PL shared-lock transactions with wait-die
/// retry. Returns `(reads, reader_aborts, writes)` for the window.
fn mvcc_cell(
    eng: &mdm_storage::StorageEngine,
    table: u32,
    rids: &[mdm_storage::Rid],
    writers: usize,
    readers: usize,
    duration_ms: u64,
    snapshot_mode: bool,
) -> (u64, u64, u64) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let reader_aborts = AtomicU64::new(0);
    let writes = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..writers {
            let eng = eng.clone();
            let (stop, writes) = (&stop, &writes);
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let rid = rids[(w + n as usize * writers) % rids.len()];
                    let mut txn = eng.begin().expect("begin");
                    let body = format!("w{w}={n}");
                    match eng.update(&mut txn, table, rid, body.as_bytes()) {
                        Ok(_) => {
                            eng.commit(txn).expect("commit");
                            n += 1;
                            writes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(mdm_storage::StorageError::Deadlock) => {
                            eng.abort(txn).expect("abort");
                        }
                        Err(e) => panic!("writer failed: {e}"),
                    }
                    std::thread::yield_now();
                }
            });
        }
        for _ in 0..readers {
            let eng = eng.clone();
            let (stop, reads, aborts) = (&stop, &reads, &reader_aborts);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if snapshot_mode {
                        // Lock-free: visibility resolved by tuple
                        // stamps; there is no lock to lose.
                        let snap = eng.snapshot();
                        match snap.scan(table) {
                            Ok(rows) => {
                                assert_eq!(rows.len(), rids.len(), "snapshot saw a torn table");
                                reads.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                aborts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    } else {
                        // 2PL baseline: a shared lock that contends
                        // with every writer, retried on wait-die.
                        let mut txn = eng.begin().expect("begin");
                        match eng.scan(&mut txn, table) {
                            Ok(rows) => {
                                assert_eq!(rows.len(), rids.len(), "locked scan saw a torn table");
                                eng.commit(txn).expect("commit");
                                reads.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(mdm_storage::StorageError::Deadlock) => {
                                eng.abort(txn).expect("abort");
                                aborts.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("reader failed: {e}"),
                        }
                    }
                    std::thread::yield_now();
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(duration_ms));
        stop.store(true, Ordering::Relaxed);
    });

    (
        reads.load(std::sync::atomic::Ordering::Relaxed),
        reader_aborts.load(std::sync::atomic::Ordering::Relaxed),
        writes.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// E10, `BENCH_10.json`: the MVCC read sweep. At each reader count the
/// same scan loop runs under constant write load through the 2PL
/// shared-lock path and then through snapshot reads; the engine's
/// `mdm_mvcc_*` metrics ride along with the throughput they explain.
fn mvcc_reads(reader_counts: &[usize], writers: usize, rows: usize, duration_ms: u64) -> Json {
    let dir = ScratchDir::new("mvcc");
    let eng = mdm_storage::StorageEngine::open_with_capacity(dir.path(), 256).expect("open");
    let table = eng.create_table("bank").expect("table");
    let mut seed = eng.begin().expect("begin");
    let rids: Vec<_> = (0..rows)
        .map(|i| {
            eng.insert(&mut seed, table, format!("r{i}=0").as_bytes())
                .expect("insert")
        })
        .collect();
    eng.commit(seed).expect("commit");

    let secs = duration_ms as f64 / 1000.0;
    let mut runs = Vec::new();
    for &readers in reader_counts {
        let (lr, la, lw) = mvcc_cell(&eng, table, &rids, writers, readers, duration_ms, false);
        let (sr, sa, sw) = mvcc_cell(&eng, table, &rids, writers, readers, duration_ms, true);
        runs.push(Json::obj([
            ("readers", readers.into()),
            ("locked_reads", lr.into()),
            ("locked_reads_per_sec", (lr as f64 / secs).into()),
            ("locked_reader_aborts", la.into()),
            ("locked_writes", lw.into()),
            ("snapshot_reads", sr.into()),
            ("snapshot_reads_per_sec", (sr as f64 / secs).into()),
            ("snapshot_reader_aborts", sa.into()),
            ("snapshot_writes", sw.into()),
        ]));
    }
    Json::obj([
        ("bench", "mvcc_snapshot_reads".into()),
        ("writers", writers.into()),
        ("rows", rows.into()),
        ("duration_ms", duration_ms.into()),
        ("runs", Json::Arr(runs)),
        (
            "mvcc_metrics",
            (&eng.metrics_snapshot().filtered("mdm_mvcc_")).into(),
        ),
    ])
}

/// CI smoke for the MVCC read path: a scaled-down validated sweep, then
/// a pinned-snapshot drill — a snapshot opened before a burst of
/// rewrites must still read the original row afterwards, and a fresh
/// snapshot must see the newest commit.
fn mvcc_smoke() -> Result<String, String> {
    let started = Instant::now();
    write_document(&mvcc_reads(&[1, 2], 4, 32, 150), |d| {
        validate::mvcc_reads(d, 4)
    })?;

    let dir = ScratchDir::new("mvcc-smoke");
    let eng = mdm_storage::StorageEngine::open_with_capacity(dir.path(), 128)
        .map_err(|e| format!("open: {e}"))?;
    let t = eng.create_table("t").map_err(|e| format!("table: {e}"))?;
    let mut txn = eng.begin().map_err(|e| format!("begin: {e}"))?;
    let rid = eng
        .insert(&mut txn, t, b"original")
        .map_err(|e| format!("insert: {e}"))?;
    eng.commit(txn).map_err(|e| format!("commit: {e}"))?;

    let pinned = eng.snapshot();
    for i in 0..20 {
        let mut txn = eng.begin().map_err(|e| format!("begin: {e}"))?;
        eng.update(&mut txn, t, rid, format!("rewrite {i}").as_bytes())
            .map_err(|e| format!("update: {e}"))?;
        eng.commit(txn).map_err(|e| format!("commit: {e}"))?;
    }
    let old = pinned.get(t, rid).map_err(|e| format!("get: {e}"))?;
    if old.as_deref() != Some(&b"original"[..]) {
        return Err(format!("pinned snapshot drifted: read {old:?}"));
    }
    let new = eng
        .snapshot()
        .get(t, rid)
        .map_err(|e| format!("get: {e}"))?;
    if new.as_deref() != Some(&b"rewrite 19"[..]) {
        return Err(format!("fresh snapshot stale: read {new:?}"));
    }
    Ok(format!(
        "mvcc smoke: ok — validated sweep, pinned snapshot stable across 20 rewrites, \
         in {:.2}s",
        started.elapsed().as_secs_f64()
    ))
}

#[cfg(test)]
mod tests {
    use super::COMMANDS;

    /// Every `repro -- <command>` the CI workflow runs must be in the
    /// dispatch table, so renaming a command fails here instead of in CI.
    #[test]
    fn every_ci_repro_command_is_in_the_table() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../.github/workflows/ci.yml"
        );
        let ci = std::fs::read_to_string(path).expect("read the CI workflow");
        let invoked: Vec<&str> = ci
            .split("--bin repro -- ")
            .skip(1)
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        assert!(!invoked.is_empty(), "the CI workflow runs no repro command");
        for name in invoked {
            assert!(
                COMMANDS.iter().any(|c| c.0 == name),
                "CI runs `repro -- {name}`, which the dispatch table lacks"
            );
        }
    }
}
