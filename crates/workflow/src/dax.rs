//! DAX interchange: read and write the Pegasus DAX (Directed Acyclic graph
//! XML) dialect that the paper's benchmark suite ships in.
//!
//! Only the subset the WorkflowGenerator emits is supported — `<job>`
//! elements with `runtime` and `<uses file=... link=in|output size=...>`
//! children, plus `<child>/<parent>` dependency declarations. Data sizes on
//! edges are recovered the standard way: an edge `(P, C)` carries the bytes
//! of every file `P` lists as *output* and `C` lists as *input*.
//!
//! DAX runtimes are seconds on a reference machine; weights are
//! `runtime × reference_speed`. Standard DAX has no weight variance; the
//! writer emits a non-standard `sigma` attribute (ignored by other tools)
//! which the reader honours when present.
//!
//! The parser is hand-rolled for this subset (attributes in double quotes,
//! no entity support beyond the five predefined ones) to keep the crate
//! dependency-free — see DESIGN.md §6. It reads the document in one pass
//! that borrows tag names and values from the input and interns file names
//! into dense ids, so its cost is linear in the document plus the number of
//! (output, consumer) file matches — see DESIGN.md §7 "DAX ingest".

use crate::graph::{Workflow, WorkflowBuilder};
use crate::task::{StochasticWeight, TaskId};
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

/// Errors raised while parsing a DAX document.
#[derive(Debug, Clone, PartialEq)]
pub enum DaxError {
    /// Syntax error with a human-readable description.
    Syntax(String),
    /// A `<child>`/`<parent>` reference names an unknown job id.
    UnknownJob(String),
    /// Two `<job>` elements share an id.
    DuplicateJob(String),
    /// A numeric attribute of a job is out of range: a `runtime` or
    /// `sigma` that is not finite (or overflows once scaled to work units,
    /// or once the two are added into the conservative weight), or a
    /// `<uses>` `size` that is not finite and non-negative.
    BadValue {
        /// Id of the job the attribute belongs to.
        job: String,
        /// `runtime`, `sigma` or `size`.
        field: &'static str,
        /// The attribute's text as written in the document.
        value: String,
    },
    /// The resulting graph is not a valid workflow.
    Graph(String),
}

impl std::fmt::Display for DaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaxError::Syntax(m) => write!(f, "DAX syntax error: {m}"),
            DaxError::UnknownJob(id) => write!(f, "DAX references unknown job `{id}`"),
            DaxError::DuplicateJob(id) => write!(f, "DAX declares job `{id}` twice"),
            DaxError::BadValue { job, field, value } => {
                let expected = if *field == "size" {
                    "a finite, non-negative number of bytes"
                } else {
                    "a finite number of seconds"
                };
                write!(f, "DAX job `{job}`: {field}=\"{value}\" is out of range, expected {expected}")
            }
            DaxError::Graph(m) => write!(f, "DAX graph invalid: {m}"),
        }
    }
}

impl std::error::Error for DaxError {}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Decode the five predefined entities. A value without `&` is borrowed
/// as is.
fn xml_unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    Cow::Owned(
        s.replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", "\"")
            .replace("&apos;", "'")
            .replace("&amp;", "&"),
    )
}

/// Serialize a workflow as a DAX document. `reference_speed` converts
/// weights (work units) into DAX runtimes (seconds): `runtime = w̄/speed`.
pub fn to_dax(wf: &Workflow, reference_speed: f64) -> String {
    assert!(reference_speed > 0.0, "reference speed must be positive");
    use std::fmt::Write;
    let mut s = String::with_capacity(256 * wf.task_count());
    let _ = writeln!(s, r#"<?xml version="1.0" encoding="UTF-8"?>"#);
    let _ = writeln!(
        s,
        r#"<adag xmlns="http://pegasus.isi.edu/schema/DAX" version="2.1" name="{}" jobCount="{}">"#,
        xml_escape(&wf.name),
        wf.task_count()
    );
    for t in wf.tasks() {
        let runtime = t.weight.mean / reference_speed;
        let sigma = t.weight.std_dev / reference_speed;
        let _ = writeln!(
            s,
            r#"  <job id="ID{:05}" name="{}" runtime="{runtime:.6}" sigma="{sigma:.6}">"#,
            t.id.0,
            xml_escape(&t.name)
        );
        if t.external_input > 0.0 {
            let _ = writeln!(
                s,
                r#"    <uses file="ext_in_{}" link="input" size="{:.0}"/>"#,
                t.id.0, t.external_input
            );
        }
        for &e in wf.in_edges(t.id) {
            let edge = wf.edge(e);
            let _ = writeln!(
                s,
                r#"    <uses file="d_{}_{}" link="input" size="{:.0}"/>"#,
                edge.from.0, edge.to.0, edge.size
            );
        }
        for &e in wf.out_edges(t.id) {
            let edge = wf.edge(e);
            let _ = writeln!(
                s,
                r#"    <uses file="d_{}_{}" link="output" size="{:.0}"/>"#,
                edge.from.0, edge.to.0, edge.size
            );
        }
        if t.external_output > 0.0 {
            let _ = writeln!(
                s,
                r#"    <uses file="ext_out_{}" link="output" size="{:.0}"/>"#,
                t.id.0, t.external_output
            );
        }
        let _ = writeln!(s, "  </job>");
    }
    for t in wf.task_ids() {
        let preds: Vec<_> = wf.predecessors(t).collect();
        if preds.is_empty() {
            continue;
        }
        let _ = writeln!(s, r#"  <child ref="ID{:05}">"#, t.0);
        for p in preds {
            let _ = writeln!(s, r#"    <parent ref="ID{:05}"/>"#, p.0);
        }
        let _ = writeln!(s, "  </child>");
    }
    s.push_str("</adag>\n");
    s
}

fn syntax(m: &str) -> DaxError {
    DaxError::Syntax(m.to_string())
}

/// Cursor over the tags of a document. Tag names and raw attribute values
/// are slices of the document; nothing is copied.
struct TagScanner<'a> {
    doc: &'a str,
    pos: usize,
    /// Attributes of the current tag in document order, values still escaped.
    attrs: Vec<(&'a str, &'a str)>,
}

impl<'a> TagScanner<'a> {
    fn new(doc: &'a str) -> Self {
        Self { doc, pos: 0, attrs: Vec::new() }
    }

    /// Advance to the next tag, skipping text, comments and processing
    /// instructions. Returns the tag's name and whether it is a closing tag
    /// (`</name>`); its attributes are left in `self.attrs`.
    fn next_tag(&mut self) -> Result<Option<(&'a str, bool)>, DaxError> {
        loop {
            let Some(lt) = self.doc[self.pos..].find('<') else {
                return Ok(None);
            };
            self.pos += lt;
            let rest = &self.doc[self.pos..];
            if rest.starts_with("<?") {
                self.pos += rest.find("?>").ok_or_else(|| syntax("unterminated <?"))? + 2;
            } else if rest.starts_with("<!--") {
                self.pos += rest.find("-->").ok_or_else(|| syntax("unterminated comment"))? + 3;
            } else {
                let end = rest.find('>').ok_or_else(|| syntax("unterminated tag"))?;
                self.pos += end + 1;
                return self.split_tag(rest[1..end].trim()).map(Some);
            }
        }
    }

    /// Split the text between `<` and `>` into a name and attributes.
    fn split_tag(&mut self, inner: &'a str) -> Result<(&'a str, bool), DaxError> {
        if inner.is_empty() {
            return Err(syntax("empty tag"));
        }
        let closing = inner.starts_with('/');
        let body = inner.trim_start_matches('/').trim_end_matches('/').trim();
        let (name, mut a) = body.split_at(body.find(char::is_whitespace).unwrap_or(body.len()));
        self.attrs.clear();
        loop {
            a = a.trim_start();
            let Some(eq) = a.find('=') else { break };
            let key = a[..eq].trim();
            let Some(value) = a[eq + 1..].trim_start().strip_prefix('"') else {
                return Err(syntax(&format!("attribute `{key}` not quoted")));
            };
            let close = value
                .find('"')
                .ok_or_else(|| syntax(&format!("unterminated value for `{key}`")))?;
            self.attrs.push((key, &value[..close]));
            a = &value[close + 1..];
        }
        Ok((name, closing))
    }

    /// Raw text of attribute `key` of the current tag; a repeated attribute
    /// resolves to its last occurrence.
    fn raw(&self, key: &str) -> Option<&'a str> {
        self.attrs.iter().rev().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Attribute `key`, unescaped.
    fn value(&self, key: &str) -> Option<Cow<'a, str>> {
        self.raw(key).map(xml_unescape)
    }

    /// Attribute `key` as a number (`bad` is the syntax error otherwise).
    /// The raw text is parsed: no entity decodes to a character a number
    /// can contain, so this agrees with parsing the unescaped text.
    fn number(&self, key: &str, bad: &str) -> Result<Option<f64>, DaxError> {
        self.raw(key).map(|v| v.parse().map_err(|_| syntax(bad))).transpose()
    }

    /// A [`DaxError::BadValue`] for attribute `field` of job `job`.
    fn bad_value(&self, job: &str, field: &'static str) -> DaxError {
        DaxError::BadValue {
            job: job.to_string(),
            field,
            value: self.raw(field).unwrap_or_default().to_string(),
        }
    }
}

/// An empty slot in the per-file last-consumer and per-child edge maps.
const NONE: u32 = u32::MAX;

/// `len` as the next dense job or file id (`NONE` stays reserved).
fn dense_id(len: usize) -> Result<u32, DaxError> {
    u32::try_from(len)
        .ok()
        .filter(|&id| id < NONE)
        .ok_or_else(|| syntax("more than 2^32 - 1 jobs or files"))
}

/// One `<job>`: its id, task name and weight, and its runs of the flat
/// `(file id, size)` input and output lists.
struct Job<'a> {
    id: Cow<'a, str>,
    name: Cow<'a, str>,
    weight: StochasticWeight,
    inputs: Range<usize>,
    outputs: Range<usize>,
}

/// Values grouped by a dense key: `items[start[k]..start[k + 1]]` are the
/// values of key `k`, in insertion order.
struct Groups {
    start: Vec<usize>,
    items: Vec<u32>,
}

impl Groups {
    fn new(keys: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut start = vec![0; keys + 1];
        for (k, _) in pairs.clone() {
            start[k as usize + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut items = vec![0; start[keys]];
        for (k, v) in pairs {
            items[next[k as usize]] = v;
            next[k as usize] += 1;
        }
        Self { start, items }
    }

    fn of(&self, k: u32) -> &[u32] {
        &self.items[self.start[k as usize]..self.start[k as usize + 1]]
    }
}

/// Everything the single pass over a document collects, borrowing from it.
#[derive(Default)]
struct Document<'a> {
    name: Cow<'a, str>,
    jobs: Vec<Job<'a>>,
    job_ids: HashMap<Cow<'a, str>, u32>,
    file_ids: HashMap<Cow<'a, str>, u32>,
    /// Per file id: some job lists the file as output / as input.
    produced: Vec<bool>,
    consumed: Vec<bool>,
    inputs: Vec<(u32, f64)>,
    outputs: Vec<(u32, f64)>,
    /// `(parent, child)` job references in declaration order.
    deps: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    /// `<uses>` attach to the last job until its `</job>`; a self-closing
    /// `<job/>` does not end it.
    in_job: bool,
}

impl<'a> Document<'a> {
    /// Read every tag of `doc` once. `reference_speed` scales runtimes.
    fn read(doc: &'a str, reference_speed: f64) -> Result<Self, DaxError> {
        let mut d = Document { name: Cow::Borrowed("dax"), ..Document::default() };
        let mut scan = TagScanner::new(doc);
        let mut current_child: Option<Cow<'a, str>> = None;
        while let Some((tag, closing)) = scan.next_tag()? {
            match (tag, closing) {
                ("adag", false) => {
                    if let Some(n) = scan.value("name") {
                        d.name = n;
                    }
                }
                ("job", false) => d.add_job(&scan, reference_speed)?,
                ("job", true) => d.in_job = false,
                ("uses", false) => d.add_use(&scan)?,
                ("child", false) => {
                    current_child =
                        Some(scan.value("ref").ok_or_else(|| syntax("<child> without ref"))?);
                }
                ("child", true) => current_child = None,
                ("parent", false) => {
                    let child =
                        current_child.clone().ok_or_else(|| syntax("<parent> outside <child>"))?;
                    let parent =
                        scan.value("ref").ok_or_else(|| syntax("<parent> without ref"))?;
                    d.deps.push((parent, child));
                }
                _ => {}
            }
        }
        Ok(d)
    }

    /// Append the job of the current `<job>` tag.
    fn add_job(&mut self, scan: &TagScanner<'a>, reference_speed: f64) -> Result<(), DaxError> {
        let id = scan.value("id").ok_or_else(|| syntax("job without id"))?;
        let runtime =
            scan.number("runtime", "bad runtime")?.ok_or_else(|| syntax("job without runtime"))?;
        let sigma = scan.number("sigma", "bad sigma")?.unwrap_or(0.0);
        let mean = (runtime * reference_speed).max(1e-9);
        if !(runtime.is_finite() && mean.is_finite()) {
            return Err(scan.bad_value(&id, "runtime"));
        }
        let std_dev = (sigma * reference_speed).max(0.0);
        if !(sigma.is_finite() && std_dev.is_finite() && (mean + std_dev).is_finite()) {
            return Err(scan.bad_value(&id, "sigma"));
        }
        let index = dense_id(self.jobs.len())?;
        match self.job_ids.entry(id.clone()) {
            Entry::Occupied(_) => return Err(DaxError::DuplicateJob(id.into_owned())),
            Entry::Vacant(slot) => slot.insert(index),
        };
        self.jobs.push(Job {
            name: scan.value("name").unwrap_or_else(|| id.clone()),
            id,
            weight: StochasticWeight::new(mean, std_dev),
            inputs: self.inputs.len()..self.inputs.len(),
            outputs: self.outputs.len()..self.outputs.len(),
        });
        self.in_job = true;
        Ok(())
    }

    /// Append the current `<uses>` tag to the last job's inputs or outputs.
    fn add_use(&mut self, scan: &TagScanner<'a>) -> Result<(), DaxError> {
        let Some(job) = self.jobs.last_mut().filter(|_| self.in_job) else {
            return Err(syntax("<uses> outside a <job>"));
        };
        let file = scan
            .value("file")
            .or_else(|| scan.value("name"))
            .ok_or_else(|| syntax("<uses> without file"))?;
        let size = scan.number("size", "bad size")?.unwrap_or(0.0);
        if !(size.is_finite() && size >= 0.0) {
            return Err(scan.bad_value(&job.id, "size"));
        }
        let next = dense_id(self.file_ids.len())?;
        let file = *self.file_ids.entry(file).or_insert(next);
        if file == next {
            self.produced.push(false);
            self.consumed.push(false);
        }
        if scan.value("link").as_deref() == Some("output") {
            self.produced[file as usize] = true;
            self.outputs.push((file, size));
            job.outputs.end = self.outputs.len();
        } else {
            self.consumed[file as usize] = true;
            self.inputs.push((file, size));
            job.inputs.end = self.inputs.len();
        }
        Ok(())
    }

    /// The dependencies as `(parent, child)` job indices, in order.
    fn edges(&self) -> Result<Vec<(u32, u32)>, DaxError> {
        let job_of = |r: &Cow<'a, str>| {
            self.job_ids.get(r.as_ref()).copied().ok_or_else(|| DaxError::UnknownJob(r.to_string()))
        };
        self.deps.iter().map(|(parent, child)| Ok((job_of(parent)?, job_of(child)?))).collect()
    }

    /// The bytes each edge carries: the parent's outputs that the child
    /// lists as input, summed in the parent's listing order.
    ///
    /// Works parent by parent: map the parent's children to their edges,
    /// walk its outputs in order and credit each child that consumes the
    /// file, through a file → distinct consumers index. Every edge thus
    /// folds its matching outputs in the parent's order, starting from
    /// `f64`'s own `Sum` identity — the same sum as filtering the parent's
    /// outputs per edge, bit for bit. Cost: O(jobs + edges + Σ over output
    /// entries of the file's consumer count).
    fn edge_sizes(&self, edges: &[(u32, u32)]) -> Vec<f64> {
        let mut consumer_pairs = Vec::with_capacity(self.inputs.len());
        let mut last_consumer = vec![NONE; self.file_ids.len()];
        for (j, job) in (0u32..).zip(&self.jobs) {
            for &(f, _) in &self.inputs[job.inputs.clone()] {
                if last_consumer[f as usize] != j {
                    last_consumer[f as usize] = j;
                    consumer_pairs.push((f, j));
                }
            }
        }
        let consumers = Groups::new(self.file_ids.len(), consumer_pairs.iter().copied());
        let by_parent =
            Groups::new(self.jobs.len(), (0u32..).zip(edges).map(|(e, &(p, _))| (p, e)));
        let mut sizes = vec![std::iter::empty::<f64>().sum::<f64>(); edges.len()];
        let mut edge_to = vec![NONE; self.jobs.len()];
        for (p, job) in (0u32..).zip(&self.jobs) {
            let children = by_parent.of(p);
            for &e in children {
                edge_to[edges[e as usize].1 as usize] = e;
            }
            for &(f, size) in &self.outputs[job.outputs.clone()] {
                for &c in consumers.of(f) {
                    let e = edge_to[c as usize];
                    if e != NONE {
                        sizes[e as usize] += size;
                    }
                }
            }
            for &e in children {
                edge_to[edges[e as usize].1 as usize] = NONE;
            }
        }
        sizes
    }
}

/// Parse a DAX document into a workflow. `reference_speed` converts
/// runtimes back into work units.
///
/// A `runtime` at or below zero is clamped to 1e-9 work units and a
/// negative `sigma` to 0; a `runtime` or `sigma` that is not finite, or
/// overflows once scaled, and a `size` that is not finite and non-negative
/// are [`DaxError::BadValue`]s. Job ids must be unique
/// ([`DaxError::DuplicateJob`]).
pub fn from_dax(doc: &str, reference_speed: f64) -> Result<Workflow, DaxError> {
    assert!(reference_speed > 0.0, "reference speed must be positive");
    let d = Document::read(doc, reference_speed)?;
    let edges = d.edges()?;
    let sizes = d.edge_sizes(&edges);

    // Job order defines task ids. External I/O: inputs no job produces,
    // outputs no job consumes.
    let overflow = |what: String| DaxError::Graph(format!("{what} overflows an f64 byte count"));
    let mut b = WorkflowBuilder::new(d.name);
    for job in &d.jobs {
        let ext_in: f64 = d.inputs[job.inputs.clone()]
            .iter()
            .filter(|(f, _)| !d.produced[*f as usize])
            .map(|(_, s)| s)
            .sum();
        let ext_out: f64 = d.outputs[job.outputs.clone()]
            .iter()
            .filter(|(f, _)| !d.consumed[*f as usize])
            .map(|(_, s)| s)
            .sum();
        if !(ext_in.is_finite() && ext_out.is_finite()) {
            return Err(overflow(format!("external data of job `{}`", job.id)));
        }
        let t = b.add_task(job.name.clone(), job.weight);
        if ext_in > 0.0 {
            b.set_external_input(t, ext_in);
        }
        if ext_out > 0.0 {
            b.set_external_output(t, ext_out);
        }
    }
    for (&(p, c), &size) in edges.iter().zip(&sizes) {
        if !size.is_finite() {
            let (p, c) = (&d.jobs[p as usize].id, &d.jobs[c as usize].id);
            return Err(overflow(format!("edge `{p}` -> `{c}`")));
        }
        b.add_edge(TaskId(p), TaskId(c), size).map_err(|e| DaxError::Graph(e.to_string()))?;
    }
    b.build().map_err(|e| DaxError::Graph(e.to_string()))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact-constant assertions are intentional in tests
mod tests {
    use super::*;
    use crate::gen::{cybershake, montage, GenConfig};

    const SPEED: f64 = 10.0;

    #[test]
    fn roundtrip_preserves_structure_and_weights() {
        for wf in [montage(GenConfig::new(30, 1)), cybershake(GenConfig::new(30, 2))] {
            let dax = to_dax(&wf, SPEED);
            let back = from_dax(&dax, SPEED).unwrap();
            assert_eq!(back.task_count(), wf.task_count());
            assert_eq!(back.edge_count(), wf.edge_count());
            for (a, b) in wf.tasks().iter().zip(back.tasks()) {
                assert_eq!(a.name, b.name);
                assert!((a.weight.mean - b.weight.mean).abs() < 1e-3, "{}", a.name);
                assert!((a.weight.std_dev - b.weight.std_dev).abs() < 1e-3);
                assert!((a.external_input - b.external_input).abs() < 1.0);
                assert!((a.external_output - b.external_output).abs() < 1.0);
            }
            // Same edge *set* with (approximately) the same sizes — the
            // reader rebuilds edges grouped by child, so order may differ.
            let canon = |w: &Workflow| {
                let mut v: Vec<(u32, u32, i64)> =
                    w.edges().iter().map(|e| (e.from.0, e.to.0, e.size.round() as i64)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(canon(&wf), canon(&back));
        }
    }

    #[test]
    fn parses_a_hand_written_pegasus_style_dax() {
        let doc = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- generated by hand -->
<adag xmlns="http://pegasus.isi.edu/schema/DAX" name="mini" jobCount="3">
  <job id="A" name="preprocess" runtime="10.0">
    <uses file="raw.dat" link="input" size="1000000"/>
    <uses file="mid.dat" link="output" size="500000"/>
  </job>
  <job id="B" name="analyze" runtime="20.0">
    <uses file="mid.dat" link="input" size="500000"/>
    <uses file="res.dat" link="output" size="1000"/>
  </job>
  <job id="C" name="archive" runtime="1.5">
    <uses file="res.dat" link="input" size="1000"/>
    <uses file="final.tgz" link="output" size="2000"/>
  </job>
  <child ref="B"><parent ref="A"/></child>
  <child ref="C"><parent ref="B"/></child>
</adag>"#;
        let wf = from_dax(doc, SPEED).unwrap();
        assert_eq!(wf.name, "mini");
        assert_eq!(wf.task_count(), 3);
        assert_eq!(wf.edge_count(), 2);
        assert_eq!(wf.task(crate::TaskId(0)).name, "preprocess");
        assert_eq!(wf.task(crate::TaskId(0)).weight.mean, 100.0); // 10 s × 10
        assert_eq!(wf.task(crate::TaskId(0)).weight.std_dev, 0.0);
        assert_eq!(wf.edges()[0].size, 500000.0);
        assert_eq!(wf.task(crate::TaskId(0)).external_input, 1000000.0);
        assert_eq!(wf.task(crate::TaskId(2)).external_output, 2000.0);
    }

    #[test]
    fn unknown_ref_rejected() {
        let doc = r#"<adag name="x">
  <job id="A" name="a" runtime="1"/>
  <child ref="B"><parent ref="A"/></child>
</adag>"#;
        assert_eq!(from_dax(doc, 1.0).unwrap_err(), DaxError::UnknownJob("B".into()));
    }

    #[test]
    fn cyclic_dax_rejected() {
        let doc = r#"<adag name="x">
  <job id="A" name="a" runtime="1"/>
  <job id="B" name="b" runtime="1"/>
  <child ref="B"><parent ref="A"/></child>
  <child ref="A"><parent ref="B"/></child>
</adag>"#;
        assert!(matches!(from_dax(doc, 1.0).unwrap_err(), DaxError::Graph(_)));
    }

    #[test]
    fn malformed_xml_rejected() {
        assert!(matches!(from_dax("<adag", 1.0), Err(DaxError::Syntax(_))));
        assert!(matches!(
            from_dax(r#"<adag name="x"><job id="A" runtime=bad/></adag>"#, 1.0),
            Err(DaxError::Syntax(_))
        ));
        assert!(matches!(
            from_dax(r#"<adag><uses file="f"/></adag>"#, 1.0),
            Err(DaxError::Syntax(_))
        ));
        // No jobs at all -> empty workflow -> graph error.
        assert!(matches!(from_dax(r#"<adag name="e"></adag>"#, 1.0), Err(DaxError::Graph(_))));
    }

    /// Job `A` (attributes `attrs`) feeds `B` through file `f` of size `size`.
    fn pair(attrs: &str, size: &str) -> String {
        format!(
            r#"<adag name="h">
  <job id="A" {attrs}><uses file="f" link="output" size="{size}"/></job>
  <job id="B" runtime="1"><uses file="f" link="input" size="{size}"/></job>
  <child ref="B"><parent ref="A"/></child>
</adag>"#
        )
    }

    #[test]
    fn out_of_range_numbers_are_typed_errors() {
        let cases = [
            (r#"runtime="NaN""#, "1", "runtime", "NaN"),
            (r#"runtime="inf""#, "1", "runtime", "inf"),
            (r#"runtime="-inf""#, "1", "runtime", "-inf"),
            (r#"runtime="1e308""#, "1", "runtime", "1e308"), // overflows once scaled
            (r#"runtime="1" sigma="inf""#, "1", "sigma", "inf"),
            (r#"runtime="1" sigma="NaN""#, "1", "sigma", "NaN"),
            (r#"runtime="1e307" sigma="1e307""#, "1", "sigma", "1e307"), // sum overflows
            (r#"runtime="1""#, "NaN", "size", "NaN"),
            (r#"runtime="1""#, "-5", "size", "-5"),
            (r#"runtime="1""#, "inf", "size", "inf"),
        ];
        for (attrs, size, field, value) in cases {
            let err = from_dax(&pair(attrs, size), SPEED).unwrap_err();
            let want = DaxError::BadValue { job: "A".into(), field, value: value.into() };
            assert_eq!(err, want, "{attrs} size={size}");
            assert!(err.to_string().contains(&format!("job `A`: {field}=")), "{err}");
        }
    }

    #[test]
    fn runtime_and_sigma_clamps_are_kept() {
        for (attrs, mean, std_dev) in [
            (r#"runtime="0""#, 1e-9, 0.0),
            (r#"runtime="-2" sigma="-3""#, 1e-9, 0.0),
            (r#"runtime="1" sigma="-0.5""#, 10.0, 0.0),
        ] {
            let wf = from_dax(&pair(attrs, "-0"), SPEED).unwrap();
            let w = wf.task(crate::TaskId(0)).weight;
            assert_eq!((w.mean, w.std_dev), (mean, std_dev), "{attrs}");
        }
    }

    #[test]
    fn duplicate_job_id_rejected() {
        let doc = r#"<adag name="d">
  <job id="A" runtime="1"/>
  <job id="A" runtime="2"/>
</adag>"#;
        assert_eq!(from_dax(doc, 1.0).unwrap_err(), DaxError::DuplicateJob("A".into()));
    }

    #[test]
    fn overflowing_byte_sums_are_graph_errors() {
        let edge = r#"<adag name="o">
  <job id="A" runtime="1">
    <uses file="f" link="output" size="1e308"/><uses file="g" link="output" size="1e308"/>
  </job>
  <job id="B" runtime="1">
    <uses file="f" link="input" size="1e308"/><uses file="g" link="input" size="1e308"/>
  </job>
  <child ref="B"><parent ref="A"/></child>
</adag>"#;
        let external = r#"<adag name="o">
  <job id="A" runtime="1">
    <uses file="f" link="input" size="1e308"/><uses file="g" link="input" size="1e308"/>
  </job>
</adag>"#;
        for doc in [edge, external] {
            assert!(matches!(from_dax(doc, 1.0), Err(DaxError::Graph(_))), "{doc}");
        }
    }

    #[test]
    fn escapes_survive_roundtrip() {
        use crate::{StochasticWeight, WorkflowBuilder};
        let mut b = WorkflowBuilder::new("name <with> \"specials\" & stuff");
        b.add_task("task <1>", StochasticWeight::new(5.0, 1.0));
        let wf = b.build().unwrap();
        let back = from_dax(&to_dax(&wf, 1.0), 1.0).unwrap();
        assert_eq!(back.name, wf.name);
        assert_eq!(back.task(crate::TaskId(0)).name, "task <1>");
    }

    #[test]
    fn comments_and_pis_are_skipped() {
        let doc = r#"<?xml version="1.0"?>
<!-- a comment with <job id="FAKE"> inside -->
<adag name="c"><job id="A" name="a" runtime="2"/></adag>"#;
        let wf = from_dax(doc, 1.0).unwrap();
        assert_eq!(wf.task_count(), 1);
    }
}
