//! Quickstart: build the paper's `TraditionalImgLib` (Section 3) by hand
//! and run the ranking query exactly as printed in the paper.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mirror::moa::{parse_define, Env, MoaEngine, MoaVal};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fresh logical environment with the CONTREP structure registered —
    // this is "the Mirror DBMS" at its smallest.
    let env = Env::new();
    let store = mirror::ir::register_contrep(&env);

    // The schema, verbatim from Section 3 of the paper.
    let (name, ty) = parse_define(
        "define TraditionalImgLib as
           SET<
             TUPLE<
               Atomic<URL>: source,
               CONTREP<Text>: annotation
           >>;",
    )?;
    println!("defined {name} as {ty}\n");

    // A tiny manually-annotated image library.
    let annotations = [
        "a glowing sunset over the beach",
        "dark forest with morning mist",
        "sunset behind the city skyline",
        "waves rolling onto the beach at dusk",
        "snow covered mountain peak",
    ];
    let rows: Vec<MoaVal> = annotations
        .iter()
        .enumerate()
        .map(|(i, ann)| {
            MoaVal::Tuple(vec![
                MoaVal::Str(format!("http://img.example/{i}.png")),
                MoaVal::str(*ann),
            ])
        })
        .collect();
    let env = Arc::new(env);
    env.create_collection(name, ty, rows)?;

    // Flattening registered one BAT per relational column; the CONTREP
    // attribute became a compressed inverted index in the ContrepStore:
    println!("catalog after flattening:");
    for bat in env.catalog().names() {
        println!("  {bat}");
    }
    println!("content indexes: {:?}", store.prefixes());

    // "query refers to a set of query terms"
    env.bind_query("query", vec![("sunset".into(), 1.0), ("beach".into(), 1.0)]);

    // The ranking query of Section 3, verbatim.
    let engine = MoaEngine::new(Arc::clone(&env));
    let ranking = engine.query(
        "map[sum(THIS)] (
           map[getBL(THIS.annotation, query, stats)] ( TraditionalImgLib ));",
    )?;

    println!("\nbeliefs for query {{sunset, beach}}:");
    let mut pairs = ranking.pairs().unwrap().to_vec();
    pairs.sort_by(|a, b| b.1.as_float().unwrap().total_cmp(&a.1.as_float().unwrap()));
    for (oid, belief) in &pairs {
        println!(
            "  doc {oid}  belief {:.4}   {}",
            belief.as_float().unwrap(),
            annotations[*oid as usize]
        );
    }

    // The physical plan the query flattens to:
    println!("\nEXPLAIN:");
    println!(
        "{}",
        engine.explain(
            "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](TraditionalImgLib))"
        )?
    );
    Ok(())
}
