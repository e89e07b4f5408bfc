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
//! to the last bit of a summed edge size, shows up here.

// Helper fns in integration-test files miss the tests-only exemption.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use budget_sched::prelude::*;
use budget_sched::workflow::dax::{from_dax, to_dax};

/// DAX runtime <-> work conversion used by the `wfs` CLI.
const SPEED: f64 = 10.0;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn workflow(&mut self, wf: &Workflow) {
        self.str(&wf.name);
        self.word(wf.task_count() as u64);
        for t in wf.tasks() {
            self.word(u64::from(t.id.0));
            self.str(&t.name);
            self.f(t.weight.mean);
            self.f(t.weight.std_dev);
            self.f(t.external_input);
            self.f(t.external_output);
        }
        self.word(wf.edge_count() as u64);
        for e in wf.edges() {
            self.word(u64::from(e.from.0));
            self.word(u64::from(e.to.0));
            self.f(e.size);
        }
        for t in wf.task_ids() {
            for &e in wf.in_edges(t).iter().chain(wf.out_edges(t)) {
                self.word(u64::from(e.0));
            }
        }
        for t in wf.topological_order() {
            self.word(u64::from(t.0));
        }
    }
}

fn hash(wf: &Workflow) -> u64 {
    let mut h = Fnv::new();
    h.workflow(wf);
    h.0
}

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
