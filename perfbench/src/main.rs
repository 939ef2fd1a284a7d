//! Command line: `msaw-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Prints the run's report lines, then one JSON result line, and exits
//! non-zero when an op failed or an output check did not hold.

use std::process::ExitCode;
use std::time::{Duration, UNIX_EPOCH};

use msaw_perfbench::{host, run_workload, Opts, Outcome};

struct Args {
    workload: String,
    opts: Opts,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts { seed: 0, window: Duration::from_secs(10), trace: false, tiny: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(secs.is_finite() && secs >= 0.0) {
                    return Err(bad("a number of seconds"));
                }
                opts.window = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, opts })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("msaw-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run_workload(&args.workload, &args.opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("msaw-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in out.report.iter().chain(&out.metric_lines()) {
        println!("{line}");
    }
    report_overhead(&args, &out);
    for failure in &out.check_failures {
        println!("check failed: {failure}");
    }
    println!("{}", out.json(args.opts.trace));
    if out.correct() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What ties an untraced result to the traced runs that may compare
/// with it: the same executable (size and modification time) and the
/// same window length. `None` when the executable cannot be stat'ed.
fn build_key(opts: &Opts) -> Option<String> {
    let exe = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
    let built = exe.modified().ok()?.duration_since(UNIX_EPOCH).ok()?.as_nanos();
    Some(format!("build={}-{built} seconds={}", exe.len(), opts.window.as_secs_f64()))
}

/// Untraced runs keep their op median in `STATE_DIR/results/`, under
/// [`build_key`]; a traced run of the same workload and seed, from the
/// same build and window length, reports how much slower its traced ops
/// were.
fn report_overhead(args: &Args, out: &Outcome) {
    let path = std::path::Path::new(host::STATE_DIR)
        .join("results")
        .join(format!("{}-seed{}.txt", args.workload, args.opts.seed));
    let key = build_key(&args.opts);
    if args.opts.trace {
        let traced = out.layer("trace.op_p50_ms");
        let untraced = std::fs::read_to_string(&path).ok().and_then(|s| {
            let (stored, p50) = s.trim().split_once('\n')?;
            (Some(stored) == key.as_deref()).then(|| p50.trim().parse::<f64>().ok())?
        });
        match (traced, untraced) {
            (Some(t), Some(u)) => println!(
                "trace overhead: op_p50_ms {t} traced vs {u} untraced ({:+.2}%)",
                100.0 * (t / u - 1.0)
            ),
            _ => println!(
                "trace overhead: no untraced run of this workload, seed, build and window length \
                 to compare"
            ),
        }
    } else if let (Some(p50), Some(key)) = (out.e2e("op_p50_ms"), key) {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, format!("{key}\n{p50}\n")));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}
