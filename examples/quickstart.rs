//! Quickstart: build a fault tree, open an `AnalysisSession`, ask BFL
//! questions about it.
//!
//! Run with: `cargo run --example quickstart`

use bfl::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the fault tree of the paper's Fig. 1: existence of COVID-19
    // pathogens (CP) or a COVID-19 reservoir (CR) on the workplace.
    let mut builder = FaultTreeBuilder::new();
    builder.basic_events(["IW", "H3", "IT", "H2"])?;
    builder.gate("CP", GateType::And, ["IW", "H3"])?;
    builder.gate("CR", GateType::And, ["IT", "H2"])?;
    builder.gate("CP/R", GateType::Or, ["CP", "CR"])?;
    let tree = builder.build("CP/R")?;

    // The session owns the tree — no lifetimes — and shares one BDD
    // cache across every question below.
    let session = AnalysisSession::new(tree);

    // Layer-2 query: does the failure of CP always lead to the top event?
    let q = parse_query("forall CP => \"CP/R\"")?;
    println!(
        "forall CP => CP/R          : {}",
        session.check_query(&q)?.holds
    );

    // Layer-1 formula checked against a concrete status vector: is
    // {IW, H3} a minimal cut set?
    let phi = parse_formula("MCS(\"CP/R\")")?;
    let b = StatusVector::from_failed_names(session.tree(), &["IW", "H3"]);
    println!(
        "(IW, H3) is an MCS         : {}",
        session.check_vector(&b, &phi)?.holds
    );

    // Enumerate all minimal cut sets and path sets (bottom-up ZDD
    // families; path sets on the dual tree).
    println!(
        "minimal cut sets           : {:?}",
        session.minimal_cut_sets("CP/R")?
    );
    println!(
        "minimal path sets          : {:?}",
        session.minimal_path_sets("CP/R")?
    );

    // What-if scenario via evidence: the MCSs given that H2 cannot occur.
    let phi = parse_formula("MCS(\"CP/R\")[H2 := 0]")?;
    let vectors = session.satisfying_vectors(&phi)?;
    println!(
        "MCS given H2 impossible    : {:?}",
        session.vectors_to_failed_sets(&vectors)
    );

    // Batches evaluate in one pass and return a structured report.
    let spec = Spec::parse(
        "cp-fatal:  forall CP => \"CP/R\"\n\
         cr-fatal:  forall CR => \"CP/R\"\n\
         idp:       IDP(CP, CR)\n",
    )?;
    print!("\n{}", session.run(&spec)?);

    Ok(())
}
