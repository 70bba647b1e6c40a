//! `bfl` — command-line front-end for Boolean Fault tree Logic.
//!
//! ```text
//! bfl check  --ft FILE --failed A,B,C 'FORMULA-or-QUERY' [--json]
//! bfl run    --ft FILE SPECFILE [--json]
//! bfl sat    --ft FILE 'FORMULA'
//! bfl count  --ft FILE 'FORMULA'
//! bfl mcs    --ft FILE [ELEMENT]
//! bfl mps    --ft FILE [ELEMENT]
//! bfl cex    --ft FILE --failed A,B,C 'FORMULA'
//! bfl ibe    --ft FILE 'FORMULA'
//! bfl render --ft FILE --failed A,B,C
//! bfl dot    --ft FILE [--failed A,B,C]
//! bfl prob   --ft FILE
//! bfl serve  --addr HOST:PORT --workers N
//! bfl client --addr HOST:PORT ['JSON-LINE' ...]
//! ```
//!
//! Every command runs through one `AnalysisSession` configured by the
//! common options; `run` evaluates a whole spec file in one pass over
//! shared BDD caches.
//!
//! Fault trees are read in the Galileo dialect (see the `bfl-fault-tree`
//! documentation); formulas/queries in the BFL DSL (see `bfl-core`).

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

mod cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(output.as_bytes())
                .and_then(|()| stdout.flush())
            {
                // A reader that stops early (`bfl mcs … | head -1`)
                // closes the pipe; that ends the output, not the run.
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: cannot write output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
