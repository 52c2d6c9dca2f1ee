//! `vpim-benchmark`: the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! vpim-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//! vpim-benchmark suite [--seed N] [--workload W] [--seconds S] [--runs N] [--smoke] --out-dir DIR
//! vpim-benchmark compare A.json B.json [--runs]
//! vpim-benchmark manifest
//! ```
//!
//! `run` is what `BENCHMARK.json`'s command reaches through `run.sh`: one
//! workload in this process, every metric printed by name, and as the last
//! line of standard output the JSON object the driver reads.

mod catalog;
mod compare;
mod host;
mod json;
mod replay;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::Workload;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take no value. `--runs` takes a count for `suite` and none
/// for `compare`, so it consumes the next argument only if it is a number.
const SWITCHES: [&str; 1] = ["--smoke"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if !a.starts_with("--") {
                args.words.push(a);
            } else if SWITCHES.contains(&a.as_str())
                || (a == "--runs" && raw.peek().is_none_or(|v| v.parse::<usize>().is_err()))
            {
                args.flags.push((a, None));
            } else {
                let value = raw.next();
                args.flags.push((a, value));
            }
        }
        args
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v)),
            Some((_, None)) => Err(format!("{flag} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{flag}: cannot read '{v}'"))
            })
            .transpose()
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.value("--workload")?
            .map(|name| {
                Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (one of {})", known.join(", "))
                })
            })
            .transpose()
    }

    fn out_dir(&self) -> Result<Option<PathBuf>, String> {
        let dir = self.value("--out-dir")?.map(PathBuf::from);
        if let Some(d) = &dir {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        Ok(dir)
    }
}

fn dispatch(args: &Args) -> Result<bool, String> {
    let seconds = args
        .parsed::<f64>("--seconds")?
        .unwrap_or(catalog::RUN_SECONDS as f64);
    let seed = args
        .parsed::<u64>("--seed")?
        .unwrap_or(catalog::DEFAULT_SEED);
    match args.words.first().map(String::as_str) {
        Some("run") => {
            let opts = run::RunOpts {
                workload: args.workload()?.ok_or("run needs --workload")?,
                seed,
                seconds,
                trace: args.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
                smoke: args.has("--smoke"),
                out_dir: args.out_dir()?,
            };
            let record = run::run(&opts)?;
            record.print();
            println!("{}", record.driver_line().encode());
            Ok(record.correct())
        }
        Some("suite") => suite::run(&suite::SuiteOpts {
            seed,
            seconds,
            workload: args.workload()?,
            runs: args.parsed::<usize>("--runs")?.unwrap_or(1).max(1),
            smoke: args.has("--smoke"),
            out_dir: args.out_dir()?.ok_or("suite needs --out-dir")?,
        }),
        Some("compare") => match args.words.as_slice() {
            [_, a, b] => compare::run(a.as_ref(), b.as_ref(), args.has("--runs")),
            _ => Err("compare needs two result files".into()),
        },
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            Ok(true)
        }
        other => Err(format!(
            "unknown command {other:?} (run, suite, compare, manifest)"
        )),
    }
}

fn main() -> ExitCode {
    match dispatch(&Args::parse(std::env::args().skip(1))) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vpim-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
