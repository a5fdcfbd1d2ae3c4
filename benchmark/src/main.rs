//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line as the
//! last line of standard output, and writes a stamped copy under
//! `benchmark/results/`. Exits 0 when every check passed, 1 when one
//! failed, and 2 on a usage or harness error (without a result line).

use cachemap_perfbench::run::{self, Options};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            o.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = num()?,
            "--seconds" => o.seconds = num()?.clamp(1, 60),
            "--trace" => o.trace = num()? != 0,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = parse(&args).and_then(|o| run::run(&o));
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <map-paper|serve-hits|serve-churn> --seed <n> --seconds <s> --trace <0|1> [--bless]"
            );
            return ExitCode::from(2);
        }
    };
    let line = match report.result_line() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for n in &report.notes {
        println!("{n}");
    }
    if let Ok(metrics) = report.metrics() {
        for (name, value, unit) in metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    match report.write_file(&cachemap_perfbench::bench_dir().join("results")) {
        Ok(path) => println!("result file: {}", path.display()),
        Err(e) => eprintln!("perfbench: result file not written: {e}"),
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
