//! Regenerates every table and figure of the vPIM paper as text tables.
//!
//! ```text
//! Usage: figures [--paper] [EXPERIMENT...]
//!
//! Experiments: table1 table2 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!              fig15 boot manager memovh ablations adaptive pheap
//!              metrics summary all quick
//!
//! `quick` (the default) runs everything except the long Fig. 8 full sweep
//! (it runs Fig. 8 on a representative application subset). `all` runs the
//! complete Fig. 8. `adaptive` (the static-vs-adaptive frontend ablation,
//! DESIGN.md §16) only runs when named explicitly, keeping `quick`/`all`
//! output stable; with `ADAPTIVE_BENCH_OUT` set it also writes the gate's
//! JSON artifact. `pheap` (the persistent-heap durability bench, DESIGN.md
//! §17) is likewise explicit-only and writes its gate artifact when
//! `PHEAP_BENCH_OUT` is set. `--paper` switches to paper-sized datasets.
//! ```

use vpim_bench::{experiments, render, BenchEnv, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let scale = if paper { Scale::Paper } else { Scale::Quick };
    let mut wanted: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    if wanted.is_empty() {
        wanted.push("quick".to_string());
    }

    let env = BenchEnv::new(scale);
    println!(
        "vPIM reproduction harness — scale: {scale:?} (machine: 8 ranks x 60 DPUs, virtual time)\n"
    );

    let run = |name: &str| wanted.iter().any(|w| w == name || w == "all" || w == "quick");

    if run("table1") {
        println!("{}", render::table1());
    }
    if run("table2") {
        println!("{}", render::table2());
    }
    if run("fig8") || run("summary") {
        // App names given on the command line restrict the sweep; `quick`
        // uses a representative subset covering every behaviour class the
        // paper discusses; `all`/`fig8` run all 16.
        let named: Vec<&str> = wanted
            .iter()
            .filter(|w| prim::by_name(w).is_some())
            .map(String::as_str)
            .collect();
        let subset: Vec<&str> = if !named.is_empty() {
            named
        } else if wanted.iter().any(|w| w == "all" || w == "fig8") {
            Vec::new()
        } else {
            vec!["VA", "GEMV", "SEL", "BFS", "RED", "NW", "TRNS", "SCAN-SSA"]
        };
        eprintln!("[running fig8 ({} apps)...]", if subset.is_empty() { 16 } else { subset.len() });
        let rows = experiments::fig8(&env, &subset);
        println!("{}", render::fig8(&rows));
        for dpus in experiments::FIG8_DPUS {
            println!("{}", render::summary_line(dpus, &experiments::fig8_summary(&rows, dpus)));
        }
        println!();
    }
    if run("fig9") {
        eprintln!("[running fig9...]");
        println!("{}", render::fig9(&experiments::fig9(&env)));
    }
    if run("fig10") {
        eprintln!("[running fig10...]");
        println!("{}", render::fig10(&experiments::fig10(&env)));
    }
    if run("fig11") {
        eprintln!("[running fig11...]");
        println!("{}", render::fig11(&experiments::fig11(&env)));
    }
    if run("fig12") {
        eprintln!("[running fig12...]");
        println!("{}", render::fig12(&experiments::fig12(&env)));
    }
    if run("fig13") {
        eprintln!("[running fig13...]");
        println!("{}", render::fig13(&experiments::fig13(&env)));
    }
    if run("fig14") {
        eprintln!("[running fig14...]");
        println!("{}", render::fig14(&experiments::fig14(&env)));
    }
    if run("fig15") || run("fig16") {
        eprintln!("[running fig15/16...]");
        println!("{}", render::fig15(&experiments::fig15(&env)));
    }
    if run("boot") {
        println!("{}", render::boot(&experiments::boot_experiment(&env)));
    }
    if run("manager") {
        println!("{}", render::manager(&experiments::manager_experiment(&env)));
    }
    if run("memovh") {
        println!("{}", render::memovh());
    }
    if run("metrics") {
        eprintln!("[running metrics dump...]");
        println!("{}", render::metrics_dump(&experiments::metrics_dump(&env)));
    }
    // Explicit-only: the adaptive ablation re-runs five workloads twice,
    // and its acceptance asserts are a gate, not part of the default
    // figure set — `quick`/`all` output stays byte-stable without it.
    if wanted.iter().any(|w| w == "adaptive") {
        eprintln!("[running adaptive ablation...]");
        let rows = experiments::ablation_adaptive(&env);
        println!("{}", render::adaptive(&rows));
        if let Ok(path) = std::env::var("ADAPTIVE_BENCH_OUT") {
            std::fs::write(&path, render::adaptive_json(&rows)).expect("write ADAPTIVE_BENCH_OUT");
        }
    }
    // Explicit-only for the same reason: the durability bench asserts the
    // crash-recovery acceptance bars (lossless, repair-free, bit-identical
    // with one device and two) and feeds `ci/pheap-gate.sh`.
    if wanted.iter().any(|w| w == "pheap") {
        eprintln!("[running pheap durability bench...]");
        let rows = experiments::bench_pheap(&env);
        println!("{}", render::pheap(&rows));
        if let Ok(path) = std::env::var("PHEAP_BENCH_OUT") {
            std::fs::write(&path, render::pheap_json(&rows)).expect("write PHEAP_BENCH_OUT");
        }
    }
    if run("ablations") {
        eprintln!("[running ablations...]");
        println!(
            "{}",
            render::ablations(
                &experiments::ablation_backend_threads(&env),
                &experiments::ablation_prefetch_pages(&env),
                &experiments::ablation_batch_pages(&env),
            )
        );
    }
}
