//! F9 + F10: the cost of blurring the schema/data distinction — storing
//! and reading schemas as ordered entities, plus graphical-definition
//! dispatch through the database.

use mdm_bench::harness::measure;
use mdm_lang::Session;
use mdm_model::{graphdef, meta, AttributeDef, DataType, Database, Value};

fn cmn_schema() -> mdm_model::Schema {
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(&mut db, mdm_core::cmn_schema::CMN_DDL)
        .expect("schema");
    db.schema().clone()
}

fn stem_db() -> (Database, u64) {
    let mut app = mdm_model::Schema::new();
    let attrs = |v: Vec<&str>| {
        v.into_iter()
            .map(|n| AttributeDef {
                name: n.into(),
                ty: DataType::Integer,
            })
            .collect::<Vec<_>>()
    };
    app.define_entity("STEM", attrs(vec!["xpos", "ypos", "length", "direction"]))
        .expect("app");
    let mut db = Database::new();
    let rows = meta::store_schema(&mut db, &app).expect("meta");
    graphdef::install_graphics_schema(&mut db).expect("graphics");
    db.define_entity("STEM", attrs(vec!["xpos", "ypos", "length", "direction"]))
        .expect("data");
    let gd = graphdef::register_graphdef(
        &mut db,
        "draw-stem",
        "newpath xpos ypos moveto 0 length direction mul rlineto stroke",
    )
    .expect("gd");
    let stem_row = rows[0].1;
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
            .find(|&a| db.get_attr(a, "attribute_name").expect("n").as_str() == Some(attr))
            .expect("row");
        graphdef::bind_parameter(&mut db, attr_row, gd, setup).expect("param");
    }
    let stem = db
        .create_entity(
            "STEM",
            &[
                ("xpos", Value::Integer(3)),
                ("ypos", Value::Integer(1)),
                ("length", Value::Integer(7)),
                ("direction", Value::Integer(1)),
            ],
        )
        .expect("stem");
    (db, stem)
}

fn main() {
    let schema = cmn_schema();
    measure("f9_metaschema/store_cmn_schema_as_data", || {
        let mut db = Database::new();
        meta::store_schema(&mut db, &schema).expect("store")
    });
    let mut db = Database::new();
    meta::store_schema(&mut db, &schema).expect("store");
    measure("f9_metaschema/read_cmn_schema_from_data", || {
        meta::read_schema(&db).expect("read")
    });
    measure("f9_metaschema/self_describe_metaschema", || {
        let m = meta::meta_schema();
        let mut db = Database::new();
        meta::store_schema(&mut db, &m).expect("store");
        meta::read_schema(&db).expect("read")
    });

    let (db, stem) = stem_db();
    measure("f10_graphdef/draw_instance_4_step", || {
        graphdef::draw_instance(&db, stem).expect("draw")
    });
    // The same drawing hard-coded, as the ceiling: what a client with a
    // built-in renderer would pay.
    measure("f10_graphdef/draw_hardcoded_ceiling", || {
        let program = "/xpos 3 def /ypos 1 def /length 7 def /direction 1 def \
                       newpath xpos ypos moveto 0 length direction mul rlineto stroke";
        graphdef::execute(program, &std::collections::HashMap::new()).expect("exec")
    });
}
