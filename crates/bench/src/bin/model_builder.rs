//! Runs the paper's model-building benchmark (§4.1, Table 3) on this
//! machine and saves the calibrated performance models.
//!
//! ```text
//! cargo run --release -p cs-bench --bin model_builder [--paper] [out_dir]
//! ```
//!
//! By default runs the quick plan (five sizes, 8 ms samples; under a
//! minute); `--paper` runs the full factorial plan at 80 ms samples (about
//! half an hour). Every cell is timed by `cs_model::timing::time_per_iter`:
//! a warm-up of 2.5 samples, then nine samples, of which the median is the
//! cell's cost. Models are written with [`Models::save_to_dir`] to
//! `out_dir` (default `target/models`).

use std::path::PathBuf;

use cs_core::Models;
use cs_model::builder::{build_list_model, build_map_model, build_set_model, BuilderConfig};
use cs_model::CostDimension;
use cs_profile::OpKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let out_dir: PathBuf = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/models"));

    let cfg = if paper {
        BuilderConfig::paper()
    } else {
        BuilderConfig::quick()
    };
    println!(
        "# Table 3 factorial calibration: {} sizes x 4 scenarios x all variants ({:?} samples)",
        cfg.sizes.len(),
        cfg.sample
    );

    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let started = std::time::Instant::now();
    let list = build_list_model(&cfg);
    println!("# lists calibrated ({:?})", started.elapsed());
    let set = build_set_model(&cfg);
    println!("# sets calibrated ({:?})", started.elapsed());
    let map = build_map_model(&cfg);
    println!("# maps calibrated ({:?})", started.elapsed());

    // Atomic writes: a calibration run killed mid-save must never leave a
    // torn model file for the next engine boot to choke on.
    let models = Models { list, set, map };
    models.save_to_dir(&out_dir).expect("write model files");
    println!("# wrote {}", out_dir.display());

    // Spot-print the headline crossover the models encode: measured cost of
    // one `contains` per variant at small vs large sizes.
    println!();
    println!("# measured contains cost (ns) by list variant");
    println!("variant   \t@size10\t@size1000");
    for kind in cs_collections::ListKind::ALL {
        let v = models.list.variant(kind).expect("calibrated");
        println!(
            "{:10}\t{:.1}\t{:.1}",
            kind.to_string(),
            v.op_cost(CostDimension::Time, OpKind::Contains, 10.0),
            v.op_cost(CostDimension::Time, OpKind::Contains, 1000.0)
        );
    }
}
