//! Consistency analysis of XML data exchange settings (Section 4).
//!
//! Shows (a) the paper's introductory inconsistent setting, (b) how
//! consistency can hinge on whether problematic source patterns are
//! avoidable, (c) the polynomial nested-relational fast path versus the
//! general automata-based procedure, and (d) the 3SAT-to-consistency
//! reduction used for the NP-hardness of restricted consistency
//! (Proposition 4.4 flavour), and (e) which settings are *chase-free*: their
//! per-document consistency check is source conformance alone, because the
//! chase is provably the identity on every canonical pre-solution.
//!
//! Run with `cargo run --example consistency_analysis`.

use xml_data_exchange::core::consistency::{
    check_consistency, check_consistency_general, check_consistency_nested_relational,
};
use xml_data_exchange::core::gadgets::consistency_np;
use xml_data_exchange::core::gadgets::three_sat::CnfFormula;
use xml_data_exchange::core::setting::{books_to_writers_setting, DataExchangeSetting};
use xml_data_exchange::core::{classify_setting, CompiledSetting};
use xml_data_exchange::{Dtd, Std};

fn section_4_example() -> DataExchangeSetting {
    // STD r2[one[two(@a = x)]] :- r with target DTD r2 → one|two: inconsistent
    // no matter what the source DTD is.
    let source = Dtd::builder("r").rule("r", "a*").build().unwrap();
    let target = Dtd::builder("r2")
        .rule("r2", "one|two")
        .rule("one", "eps")
        .rule("two", "eps")
        .build()
        .unwrap();
    let std = Std::parse("r2[one[two(@a=$x)]] :- r").unwrap();
    DataExchangeSetting::new(source, target, vec![std])
}

fn main() {
    println!("== 1. The inconsistent setting from Section 4 ==");
    let bad = section_4_example();
    let verdict = check_consistency(&bad);
    println!(
        "   target DTD forbids the pattern forced by the STD → consistent = {} ({:?} method)\n",
        verdict.consistent, verdict.method
    );

    println!("== 2. Consistency hinges on whether the source pattern is avoidable ==");
    let target = Dtd::builder("r2")
        .rule("r2", "one?")
        .rule("one", "eps")
        .build()
        .unwrap();
    let relaxed_source = Dtd::builder("db")
        .rule("db", "book*")
        .rule("book", "author*")
        .build()
        .unwrap();
    let forced_source = Dtd::builder("db")
        .rule("db", "book+")
        .rule("book", "author+")
        .build()
        .unwrap();
    let std = || Std::parse("r2[one[ghost]] :- db[book[author]]").unwrap();
    let avoidable = DataExchangeSetting::new(relaxed_source, target.clone(), vec![std()]);
    let unavoidable = DataExchangeSetting::new(forced_source, target, vec![std()]);
    println!(
        "   books may have no authors  → consistent = {}",
        check_consistency_general(&avoidable)
    );
    println!(
        "   every book has an author   → consistent = {}\n",
        check_consistency_general(&unavoidable)
    );

    println!("== 3. Nested-relational fast path vs general procedure ==");
    let clio = books_to_writers_setting();
    println!(
        "   Theorem 4.5 O(n·m²) algorithm: {}",
        check_consistency_nested_relational(&clio).unwrap()
    );
    println!(
        "   general automata procedure:    {}\n",
        check_consistency_general(&clio)
    );

    println!("== 4. 3SAT encoded as a consistency question (Proposition 4.4) ==");
    for (name, formula) in [
        (
            "satisfiable   (x1∨x2∨¬x3)∧(¬x2∨x3∨¬x4)",
            CnfFormula::paper_example(),
        ),
        ("unsatisfiable (x)∧(¬x)", CnfFormula::tiny_unsatisfiable()),
    ] {
        let setting = consistency_np::build(&formula);
        let consistent = check_consistency_general(&setting);
        println!(
            "   {name}: setting with {} STDs over {} element types → consistent = {consistent}",
            setting.stds.len(),
            setting.source_dtd.element_types().len(),
        );
        assert_eq!(consistent, consistency_np::expected_consistent(&formula));
    }

    println!("\n== 5. Chase-free settings: is a per-document check just `conforms`? ==");
    let writers_must_merge = {
        let mut setting = books_to_writers_setting();
        setting.target_dtd = Dtd::builder("bib")
            .rule("bib", "writer")
            .rule("writer", "work*")
            .attributes("writer", ["@name"])
            .attributes("work", ["@title", "@year"])
            .build()
            .unwrap();
        setting
    };
    for (name, setting) in [
        ("books → writers (Figure 2)", books_to_writers_setting()),
        ("one writer under bib      ", writers_must_merge),
    ] {
        let compiled = CompiledSetting::new(&setting);
        println!(
            "   {name}: classify_setting = {}",
            classify_setting(&setting)
        );
        println!(
            "   {name}: chase_free       = {} ({})",
            compiled.chase_free(),
            if compiled.chase_free() {
                "check = source conformance, no chase"
            } else {
                "check builds the canonical solution"
            }
        );
    }
}
