//! Golden bit-identity test for the DAX reader.
//!
//! Round-trips every benchmark generator through `to_dax`/`from_dax` at 30,
//! 400 and 2000 tasks, parses a set of hand-written documents that exercise
//! the corners of the DAX subset (multi-file edges, repeated files, `name=`
//! and `link="inout"` spellings, entities, non-parent producers, comments,
//! self-closing jobs, repeated attributes, the runtime/sigma clamps), and
//! folds the `to_bits` of every field of each parsed workflow — name, task
//! names, weights, external I/O, edges in order and the topological order —
//! into one FNV-1a hash per case. The pinned constants were recorded with
//! the original tag-list parser; any change to what the reader returns, down
//! to the last bit of a summed edge size, shows up here. A second set of
//! documents pins the tag scanner's corners (whitespace beyond ASCII, a `>`
//! inside a value, attribute spacing, unterminated markup) to their exact
//! outcome: a field hash, or the error text.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use budget_sched::prelude::*;
use budget_sched::workflow::dax::{from_dax, to_dax};
use common::hash;

/// DAX runtime <-> work conversion used by the `wfs` CLI.
const SPEED: f64 = 10.0;

/// Hand-written documents covering the reader's corner cases.
const CASES: &[(&str, &str)] = &[
    (
        "multi-file edge summed in the parent's listing order",
        r#"<adag name="multi">
  <job id="A" runtime="1.5">
    <uses file="f1" link="output" size="0.1"/>
    <uses file="f2" link="output" size="0.2"/>
    <uses file="f3" link="output" size="0.3"/>
    <uses file="ext" link="output" size="7"/>
  </job>
  <job id="B" runtime="2">
    <uses file="f3" link="input" size="0.3"/>
    <uses file="f1" link="input" size="0.1"/>
    <uses file="f2" link="input" size="0.2"/>
  </job>
  <job id="C" runtime="3"/>
  <child ref="B"><parent ref="A"/></child>
  <child ref="C"><parent ref="B"/><parent ref="A"/></child>
</adag>"#,
    ),
    (
        "a file listed twice on both sides",
        r#"<adag name="twice">
  <job id="A" runtime="1">
    <uses file="in" link="input" size="0.25"/>
    <uses file="in" link="input" size="0.5"/>
    <uses file="f" link="output" size="0.1"/>
    <uses file="f" link="output" size="0.7"/>
  </job>
  <job id="B" runtime="1">
    <uses file="f" link="input" size="0.1"/>
    <uses file="f" link="input" size="0.7"/>
    <uses file="out" link="output" size="3"/>
    <uses file="out" link="output" size="4"/>
  </job>
  <child ref="B"><parent ref="A"/></child>
</adag>"#,
    ),
    (
        "name= instead of file=, and link=inout",
        r#"<adag name="spellings">
  <job id="A" runtime="4">
    <uses name="raw" link="input" size="100"/>
    <uses name="mid" link="output" size="50"/>
    <uses file="log" link="inout" size="9"/>
  </job>
  <job id="B" runtime="5">
    <uses name="mid" size="50"/>
    <uses file="res" name="ignored" link="output" size="1"/>
    <uses file="log" link="output" size="2"/>
  </job>
  <child ref="B"><parent ref="A"/></child>
</adag>"#,
    ),
    (
        "entities in ids, names and file names",
        r#"<adag name="ents &amp; &lt;more&gt;">
  <job id="A&amp;1" name="split &quot;x&quot; &apos;y&apos;" runtime="1">
    <uses file="x&lt;y" link="output" size="11"/>
    <uses file="&amp;lt;" link="output" size="13"/>
  </job>
  <job id="B&gt;2" runtime="1">
    <uses file="x&lt;y" link="input" size="11"/>
    <uses file="&amp;lt;" link="input" size="13"/>
    <uses file="&lt;" link="input" size="17"/>
  </job>
  <child ref="B&gt;2"><parent ref="A&amp;1"/></child>
</adag>"#,
    ),
    (
        "a file produced by a job that is not a parent",
        r#"<adag name="nonparent">
  <job id="A" runtime="1">
    <uses file="shared" link="output" size="40"/>
    <uses file="own" link="output" size="5"/>
  </job>
  <job id="B" runtime="1">
    <uses file="own" link="input" size="5"/>
  </job>
  <job id="C" runtime="1">
    <uses file="shared" link="input" size="40"/>
    <uses file="fresh" link="input" size="3"/>
  </job>
  <child ref="B"><parent ref="A"/></child>
</adag>"#,
    ),
    (
        "comments, processing instructions and a doctype",
        r#"<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE adag>
<!-- <job id="FAKE" runtime="1"/> -->
<adag name="comments">
  <?pegasus note="<job id='ALSO_FAKE'>"?>
  <job id="A" runtime="2"><!-- inside --><uses file="o" link="output" size="8"/></job>
  text between tags is ignored
  <job id="B" runtime="3"><uses file="o" link="input" size="8"/></job>
  <!---->
  <child ref="B"><parent ref="A"/></child>
</adag>"#,
    ),
    (
        "self-closing jobs and repeated attributes",
        r#"<adag name="first" name="last">
  <job id="A" runtime="1" runtime="2.5" sigma="0.5" sigma="0.25"/>
  <uses file="a" link="input" link="output" size="1" size="6"/>
  <job id="B" name="bee" name="bea" runtime="1" />
  <uses file="a" link="input" size="6"/>
  <child ref="B"/>
  <parent ref="A"/>
</adag>"#,
    ),
    (
        "clamped runtime and sigma, dependencies declared before jobs",
        r#"<adag name="clamps">
  <child ref="C"><parent ref="A"/><parent ref="B"/></child>
  <job id="A" runtime="0" sigma="-3"/>
  <job id="B" runtime="-2" sigma="1e-3"/>
  <job id="C" runtime="1e-12" sigma="0">
    <uses file="big" link="input" size="1e18"/>
    <uses file="zero" link="input" size="0"/>
    <uses file="neg0" link="input" size="-0"/>
  </job>
  <child ref="A"></child>
</adag>"#,
    ),
];

type Generator = fn(GenConfig) -> Workflow;

/// One `(label, hash)` per generator instance and per hand-written case.
fn golden() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let generators: [(&str, Generator); 5] = [
        ("cybershake", cybershake),
        ("ligo", ligo),
        ("montage", montage),
        ("epigenomics", epigenomics),
        ("sipht", sipht),
    ];
    for (name, generate) in generators {
        for (i, n) in [30, 400, 2000].into_iter().enumerate() {
            let wf = generate(GenConfig::new(n, 17 + i as u64));
            let back = from_dax(&to_dax(&wf, SPEED), SPEED).unwrap();
            out.push((format!("{name}-{n}"), hash(&back)));
        }
    }
    for (label, doc) in CASES {
        let wf = from_dax(doc, SPEED).unwrap_or_else(|e| panic!("{label}: {e}"));
        out.push(((*label).to_string(), hash(&wf)));
    }
    out
}

/// Per-case hashes pinned from the original tag-list parser.
const PINNED: &[(&str, u64)] = &[
    ("cybershake-30", 5167632340660603746),
    ("cybershake-400", 2454077177716771583),
    ("cybershake-2000", 15943494963486780516),
    ("ligo-30", 11202543586754553872),
    ("ligo-400", 8106184351639523853),
    ("ligo-2000", 16286744865991363256),
    ("montage-30", 12501720227662182791),
    ("montage-400", 7190448631713735082),
    ("montage-2000", 9342284575761503696),
    ("epigenomics-30", 5702127420821325293),
    ("epigenomics-400", 5180089244680917140),
    ("epigenomics-2000", 7361544211905803328),
    ("sipht-30", 13848203011241327205),
    ("sipht-400", 4851792708918616447),
    ("sipht-2000", 17220102972692957655),
    (
        "multi-file edge summed in the parent's listing order",
        8034787922966431499,
    ),
    ("a file listed twice on both sides", 16529817325122405038),
    (
        "name= instead of file=, and link=inout",
        15058394121847256640,
    ),
    (
        "entities in ids, names and file names",
        17845275374291415957,
    ),
    (
        "a file produced by a job that is not a parent",
        12742795844276813189,
    ),
    (
        "comments, processing instructions and a doctype",
        7409097788877652230,
    ),
    (
        "self-closing jobs and repeated attributes",
        15868396158540380229,
    ),
    (
        "clamped runtime and sigma, dependencies declared before jobs",
        7284041469821780060,
    ),
];

#[test]
fn dax_reader_output_is_bit_identical_to_the_pinned_hashes() {
    let got = golden();
    let labels: Vec<&str> = got.iter().map(|(l, _)| l.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, pinned, "golden case list changed");
    for ((label, h), (_, want)) in got.iter().zip(PINNED) {
        assert_eq!(h, want, "{label}: DAX reader output moved");
    }
}

/// Tag-level corners of the scanner: the whitespace set (`char::is_whitespace`,
/// ASCII and beyond), the first `>` ending a tag, attribute spacing, and
/// unterminated markup. Each document is pinned to its outcome: the field
/// hash of the workflow, or the exact text of the error.
const TAG_CASES: &[(&str, &str, Result<u64, &str>)] = &[
    (
        "VT, FF, tab and CR between attributes",
        "<adag\tname=\"ws\">\n<job\u{0B}id=\"A\"\u{0C}runtime=\"2\"\tsigma=\"0.5\"\r/>\n\
         <job\rid=\"B\" runtime=\"1\"\u{0C}/>\n\
         <child\u{0B}ref=\"B\"><parent\u{0C}ref=\"A\"\u{0B}/></child\r>\n</adag>",
        Ok(7397018394954255814),
    ),
    (
        "U+0085, U+00A0, U+2028 and U+3000 inside tags",
        "<adag\u{3000}name=\"uni\">\n<job\u{85}id=\"A\"\u{A0}runtime=\"1\"\u{2028}/>\n\
         <job id=\"B\"\u{2028}runtime=\"3\"\u{3000}>\u{A0}<uses\u{85}file=\"f\"\u{3000}link=\"input\"\
         \u{A0}size=\"5\"/></job\u{A0}>\n<\u{2028}child ref=\"B\"\u{85}><parent ref=\"A\"/></child>\n</adag>",
        Ok(17984773753375684011),
    ),
    (
        "U+200B after a tag name is part of the name",
        "<adag name=\"zw\"><job id=\"A\" runtime=\"1\"/><job\u{200B}id=\"B\" runtime=\"1\"/></adag>",
        Ok(11953851655560300623),
    ),
    (
        "U+200B before a key is part of the key",
        "<adag name=\"zw\"><job id=\"A\"\u{200B}runtime=\"1\"/></adag>",
        Err("DAX syntax error: job without runtime"),
    ),
    (
        "a `>` inside a quoted value ends the tag",
        "<adag name=\"gt\"><job id=\"A>B\" runtime=\"1\"/></adag>",
        Err("DAX syntax error: unterminated value for `id`"),
    ),
    (
        "attributes with no space between them",
        "<adag name=\"tight\"><job id=\"A\"runtime=\"1\"sigma=\"0.5\"name=\"a\"/></adag>",
        Ok(14516451014188103319),
    ),
    (
        "a key with an inner space",
        "<adag name=\"k\"><job id=\"A\" run time=\"1\"/></adag>",
        Err("DAX syntax error: job without runtime"),
    ),
    (
        "spaces and newlines around `=`",
        "<adag name = \"eq\"><job id =\"A\" runtime= \"1\" sigma\t=\n\"2\"/></adag>",
        Ok(6647528235546173602),
    ),
    (
        "`< job>`, `/ >`, `</job >` and a doctype",
        "<!DOCTYPE adag SYSTEM \"dax.dtd\">\n<adag name=\"spaced\">\n\
         < job id=\"A\" runtime=\"1\">\n  <uses file=\"f\" link=\"output\" size=\"4\"/ >\n</job >\n\
         <job id=\"B\" runtime=\"2\"/ >\n<uses file=\"f\" link=\"input\" size=\"4\"//>\n\
         < child ref=\"B\">< parent ref=\"A\"/></ child>\n</adag >",
        Ok(17647505229388128610),
    ),
    ("`<job/ >` is a job without an id", "<adag name=\"s\"><job/ ></adag>", Err("DAX syntax error: job without id")),
    (
        "`</job >` closes the job",
        "<adag name=\"c\"><job id=\"A\" runtime=\"1\"></job ><uses file=\"f\"/></adag>",
        Err("DAX syntax error: <uses> outside a <job>"),
    ),
    ("an empty tag", "<adag name=\"e\">< \t></adag>", Err("DAX syntax error: empty tag")),
    ("an unquoted value", "<adag name=\"q\"><job id=A runtime=\"1\"/></adag>", Err("DAX syntax error: attribute `id` not quoted")),
    ("an unterminated tag", "<adag name=\"t\"><job id=\"A\" runtime=\"1\"", Err("DAX syntax error: unterminated tag")),
    (
        "an unterminated `<?`",
        "<?xml version=\"1.0\"<adag name=\"x\"><job id=\"A\" runtime=\"1\"/></adag>",
        Err("DAX syntax error: unterminated <?"),
    ),
    (
        "an unterminated `<!--`",
        "<adag name=\"x\"><!-- never closed <job id=\"A\" runtime=\"1\"/></adag>",
        Err("DAX syntax error: unterminated comment"),
    ),
];

/// Which error a document with several faults reports, and how `<child>`
/// and `<parent>` refs resolve: the first fault in document order wins, a
/// duplicate job id included, and of two unknown refs the parent's. Pinned
/// from the sequential reader.
const ORDER_CASES: &[(&str, &str, Result<u64, &str>)] = &[
    (
        "a duplicate job id before a syntax error",
        "<adag name=\"d\"><job id=\"A\" runtime=\"1\"/><job id=\"A\" runtime=\"2\"/>\
         <job id=B runtime=\"1\"/></adag>",
        Err("DAX declares job `A` twice"),
    ),
    (
        "a syntax error before a duplicate job id",
        "<adag name=\"d\"><job id=\"A\" runtime=\"1\"/><job id=B/><job id=\"A\" runtime=\"2\"/></adag>",
        Err("DAX syntax error: attribute `id` not quoted"),
    ),
    (
        "a duplicate job whose <uses> is out of range",
        "<adag name=\"d\"><job id=\"A\" runtime=\"1\"/><job id=\"A\" runtime=\"1\">\
         <uses file=\"f\" size=\"-1\"/></job></adag>",
        Err("DAX declares job `A` twice"),
    ),
    (
        "a duplicate job whose runtime is out of range",
        "<adag name=\"d\"><job id=\"A\" runtime=\"1\"/><job id=\"A\" runtime=\"NaN\"/></adag>",
        Err("DAX job `A`: runtime=\"NaN\" is out of range, expected a finite number of seconds"),
    ),
    (
        "a duplicate job id after unknown refs",
        "<adag name=\"d\"><child ref=\"X\"><parent ref=\"Y\"/></child>\
         <job id=\"A\" runtime=\"1\"/><job id=\"A\" runtime=\"1\"/></adag>",
        Err("DAX declares job `A` twice"),
    ),
    (
        "an unknown parent before an unknown child",
        "<adag name=\"u\"><job id=\"A\" runtime=\"1\"/><child ref=\"X\"><parent ref=\"Y\"/></child></adag>",
        Err("DAX references unknown job `Y`"),
    ),
    (
        "unknown refs in declaration order",
        "<adag name=\"u\"><job id=\"A\" runtime=\"1\"/><child ref=\"A\"><parent ref=\"Z1\"/></child>\
         <child ref=\"Z2\"><parent ref=\"A\"/></child></adag>",
        Err("DAX references unknown job `Z1`"),
    ),
    (
        "an unknown child without parents",
        "<adag name=\"u\"><job id=\"A\" runtime=\"1\"/><child ref=\"Z\"></child></adag>",
        Ok(14119856887927060308),
    ),
    (
        "a ref to a job declared later",
        "<adag name=\"u\"><child ref=\"B\"><parent ref=\"A\"/></child>\
         <job id=\"A\" runtime=\"1\"/><job id=\"B\" runtime=\"1\"/></adag>",
        Ok(17641006754227261296),
    ),
];

/// Parses each case and compares its field hash or error text with the pin.
fn assert_outcomes(cases: &[(&str, &str, Result<u64, &str>)]) {
    for (label, doc, want) in cases {
        let got = from_dax(doc, SPEED)
            .map(|wf| hash(&wf))
            .map_err(|e| e.to_string());
        assert_eq!(
            got.as_ref().copied().map_err(String::as_str),
            *want,
            "{label}"
        );
    }
}

#[test]
fn dax_tag_corner_cases_are_pinned() {
    assert_outcomes(TAG_CASES);
}

#[test]
fn dax_error_order_and_ref_resolution_are_pinned() {
    assert_outcomes(ORDER_CASES);
}
