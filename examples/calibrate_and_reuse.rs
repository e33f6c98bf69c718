//! The full model pipeline of paper Fig. 1: benchmark this machine
//! (Table 3 factorial plan), persist the models, and reuse them at the next
//! startup without re-benchmarking.
//!
//! ```text
//! cargo run --release --example calibrate_and_reuse
//! ```

use collection_switch::core::{Models, SelectionRule, Switch};
use collection_switch::model::builder::{self, BuilderConfig};
use collection_switch::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("collectionswitch-models");

    // Startup path: reuse persisted models if a calibration already ran.
    let models = match Models::load_from_dir(&dir) {
        Ok(models) => {
            println!("loaded calibrated models from {}", dir.display());
            models
        }
        Err(_) => {
            println!("calibrating on this machine (quick plan)…");
            let cfg = BuilderConfig::quick();
            let started = std::time::Instant::now();
            let models = Models {
                list: builder::build_list_model(&cfg),
                set: builder::build_set_model(&cfg),
                map: builder::build_map_model(&cfg),
            };
            println!("calibration took {:?}", started.elapsed());
            models.save_to_dir(&dir).expect("persist models");
            println!("saved to {}", dir.display());
            models
        }
    };

    // Drive the engine with the hardware-specific models.
    let engine = Switch::builder()
        .rule(SelectionRule::r_time())
        .models(models)
        .build();
    let ctx = engine.named_list_context::<i64>(ListKind::Linked, "Parser:88");
    for _ in 0..200 {
        let mut list = ctx.create_list();
        for v in 0..200 {
            list.push(v);
        }
        for v in 0..400 {
            list.contains(&v);
        }
    }
    engine.analyze_now();

    println!();
    for summary in engine.context_summaries() {
        println!("{summary}");
    }
    assert_ne!(
        ctx.current_kind(),
        ListKind::Linked,
        "a calibrated model must move a lookup-heavy site off LinkedList"
    );
}
