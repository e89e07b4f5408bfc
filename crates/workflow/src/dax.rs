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
//! dependency-free — see DESIGN.md §6. A byte-level scanner reads each tag
//! once: a tag ends at its first `>`, and whitespace is exactly
//! `char::is_whitespace`, decoded only for bytes at or above 0x80. The pass
//! borrows tag names and values from the input and hashes nothing; job and
//! file ids are then interned into dense ids, in document order, by maps
//! sized from the counts, and each `<child>`/`<parent>` ref is looked up
//! once. The cost is linear in the document plus the number of (output,
//! consumer) file matches — see DESIGN.md §7 "DAX ingest".

use crate::graph::{Groups, Workflow, WorkflowBuilder};
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
    /// The reference speed that converts runtimes into work units is not
    /// a finite number above zero.
    BadReferenceSpeed(f64),
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
            DaxError::BadReferenceSpeed(speed) => {
                let expected = "expected a finite number > 0";
                write!(f, "DAX reference speed {speed} is out of range, {expected}")
            }
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
///
/// # Panics
///
/// If `reference_speed` is not above zero.
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

/// Byte length of the whitespace character (exactly `char::is_whitespace`)
/// that starts at byte `i` of `s`, or 0 if none does or `i` is past the end.
/// Any byte may be asked about: an ASCII byte is its own character, a
/// continuation byte (0x80–0xBF) starts no character, and a lead byte (0xC0
/// and up) starts a multi-byte character, which is decoded and tested.
#[inline]
fn whitespace_at(s: &str, i: usize) -> usize {
    match s.as_bytes().get(i) {
        Some(b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r') => 1,
        None | Some(0..=0xBF) => 0,
        Some(_) => wide_whitespace_at(s, i),
    }
}

#[cold]
#[inline(never)]
fn wide_whitespace_at(s: &str, i: usize) -> usize {
    let c = s.get(i..).and_then(|r| r.chars().next());
    c.filter(|c| c.is_whitespace()).map_or(0, char::len_utf8)
}

/// [`whitespace_at`] for the character that ends at byte `j` (exclusive),
/// a char boundary; 0 at `j == 0`.
#[inline]
fn whitespace_before(s: &str, j: usize) -> usize {
    match j.checked_sub(1).and_then(|i| s.as_bytes().get(i)) {
        Some(b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r') => 1,
        None | Some(0..=0x7F) => 0,
        Some(_) => wide_whitespace_before(s, j),
    }
}

#[cold]
#[inline(never)]
fn wide_whitespace_before(s: &str, j: usize) -> usize {
    let c = s.get(..j).and_then(|r| r.chars().next_back());
    c.filter(|c| c.is_whitespace()).map_or(0, char::len_utf8)
}

/// First byte at or after `i` that does not start a whitespace character.
#[inline]
fn skip_whitespace(s: &str, mut i: usize) -> usize {
    loop {
        match whitespace_at(s, i) {
            0 => return i,
            n => i += n,
        }
    }
}

/// `end` moved back over whitespace characters, but not below `start`.
#[inline]
fn trim_whitespace_end(s: &str, start: usize, mut end: usize) -> usize {
    while end > start {
        match whitespace_before(s, end) {
            0 => break,
            n => end -= n,
        }
    }
    end
}

/// Position of the first byte at or after `from` that is one of `set`
/// (ASCII bytes), read eight bytes at a time. The bytes of a word equal to
/// `c` are the zero bytes of `word ^ c·0x0101…01`; the zero-byte test
/// `(v − 0x0101…01) & !v & 0x8080…80` flags the first of them exactly (a
/// borrow can only flag bytes above it), so the lowest flag over `set` is
/// the first match. The last bytes, short of a word, are read one by one.
#[inline]
fn find_any<const N: usize>(s: &str, from: usize, set: [u8; N]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let b = s.as_bytes();
    let mut at = from;
    while let Some(chunk) = b.get(at..at + 8) {
        let mut bytes = [0; 8];
        bytes.copy_from_slice(chunk);
        let word = u64::from_le_bytes(bytes);
        let flags = set.iter().fold(0, |flags, &c| {
            let v = word ^ (ONES * u64::from(c));
            flags | (v.wrapping_sub(ONES) & !v & HIGHS)
        });
        if flags != 0 {
            return Some(at + (flags.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    b.get(at..)?.iter().position(|c| set.contains(c)).map(|k| at + k)
}

/// Powers of ten that are exact in an `f64`, up to the largest scale a
/// decimal of [`parse_number`]'s fast path can have.
const EXACT_POWERS_OF_TEN: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// `s` as an `f64`: the value `str::parse` returns, or `None` where it
/// fails. A plain decimal (an optional `-`, up to 15 digits, at most one
/// `.`) is read directly: its digits form an integer below 2^53 and its
/// scale is a power of ten up to 1e15, both exact in an `f64`, so their
/// IEEE quotient is the correctly rounded value, which is what `str::parse`
/// returns (Clinger's fast path). Anything else goes to `str::parse`.
fn parse_number(s: &str) -> Option<f64> {
    let (negative, digits) = match s.as_bytes() {
        [b'-', rest @ ..] => (true, rest),
        all => (false, all),
    };
    let (mut mantissa, mut count, mut scale, mut point) = (0u64, 0, 0, false);
    for &c in digits {
        match c {
            b'0'..=b'9' if count < 15 => {
                mantissa = mantissa * 10 + u64::from(c - b'0');
                count += 1;
                scale += usize::from(point);
            }
            b'.' if !point => point = true,
            _ => return s.parse().ok(),
        }
    }
    if count == 0 {
        return s.parse().ok();
    }
    // Below 10^15 < 2^53, so the conversion is exact.
    let value = mantissa as f64 / EXACT_POWERS_OF_TEN[scale];
    Some(if negative { -value } else { value })
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
        let doc = self.doc;
        loop {
            let Some(lt) = find_any(doc, self.pos, [b'<']) else {
                return Ok(None);
            };
            let rest = &doc.as_bytes()[lt..];
            if rest.starts_with(b"<?") {
                self.pos = lt + doc[lt..].find("?>").ok_or_else(|| syntax("unterminated <?"))? + 2;
            } else if rest.starts_with(b"<!--") {
                let end = doc[lt..].find("-->").ok_or_else(|| syntax("unterminated comment"))?;
                self.pos = lt + end + 3;
            } else {
                return self.tag(lt + 1).map(Some);
            }
        }
    }

    /// Read the tag whose text starts at byte `start` and ends at the first
    /// `>` (even one inside a quoted value), in one pass over its bytes. The
    /// rules: the text is trimmed, and a tag with no text is an error; a
    /// leading `/` marks a closing tag; leading and trailing runs of `/` are
    /// dropped and the rest trimmed again; the name runs to the first
    /// whitespace; then each attribute is a key (trimmed, up to the next
    /// `=`) and a value in double quotes, and text after the last value is
    /// ignored. A tag with no `>` after it is unterminated, whatever else is
    /// wrong with it.
    fn tag(&mut self, start: usize) -> Result<(&'a str, bool), DaxError> {
        let doc = self.doc;
        let b = doc.as_bytes();
        let unterminated = |at: usize, err: DaxError| match find_any(doc, at, [b'>']) {
            Some(_) => err,
            None => syntax("unterminated tag"),
        };
        let lo = skip_whitespace(doc, start);
        match b.get(lo) {
            None => return Err(syntax("unterminated tag")),
            Some(b'>') => return Err(syntax("empty tag")),
            Some(_) => {}
        }
        let closing = b[lo] == b'/';
        let mut slashes = lo;
        while b.get(slashes) == Some(&b'/') {
            slashes += 1;
        }
        let name_start = skip_whitespace(doc, slashes);
        // The name runs to the first whitespace or `>`; it is cut back to
        // the trimmed end below, once the `>` is known.
        let mut name_end = name_start;
        while let Some(&c) = b.get(name_end) {
            if c == b'>' || whitespace_at(doc, name_end) > 0 {
                break;
            }
            name_end += 1;
        }
        self.attrs.clear();
        let mut at = name_end;
        let gt = loop {
            at = skip_whitespace(doc, at);
            let Some(eq) = find_any(doc, at, [b'=', b'>']) else {
                return Err(syntax("unterminated tag"));
            };
            if b[eq] == b'>' {
                break eq;
            }
            let key = &doc[at..trim_whitespace_end(doc, at, eq)];
            let open = skip_whitespace(doc, eq + 1);
            if b.get(open) != Some(&b'"') {
                return Err(unterminated(open, syntax(&format!("attribute `{key}` not quoted"))));
            }
            match find_any(doc, open + 1, [b'"', b'>']) {
                Some(close) if b[close] == b'"' => {
                    self.attrs.push((key, &doc[open + 1..close]));
                    at = close + 1;
                }
                Some(_) => return Err(syntax(&format!("unterminated value for `{key}`"))),
                None => return Err(syntax("unterminated tag")),
            }
        };
        self.pos = gt + 1;
        // The name ends no later than the trimmed text: whitespace, then a
        // run of `/` come off the end, never past the leading run of `/`.
        // (Whitespace before that run would already have ended the name.)
        let text_end = trim_whitespace_end(doc, lo, gt);
        let body_end = b[slashes..text_end]
            .iter()
            .rposition(|&c| c != b'/')
            .map_or(slashes, |k| slashes + k + 1);
        Ok((&doc[name_start..name_end.min(body_end.max(name_start))], closing))
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
        self.raw(key).map(|v| parse_number(v).ok_or_else(|| syntax(bad))).transpose()
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

/// One `<job>`: its id, task name and weight, and its run of
/// [`Document::uses`].
struct Job<'a> {
    id: Cow<'a, str>,
    name: Cow<'a, str>,
    weight: StochasticWeight,
    uses: Range<usize>,
}

/// One `<uses>`: the file, its size, and whether the job lists it as output.
struct Use<'a> {
    file: Cow<'a, str>,
    size: f64,
    output: bool,
}

/// Everything the pass over a document collects, borrowing from it. No id
/// is hashed during the pass: [`Index::new`] interns them afterwards, into
/// maps sized from the counts.
#[derive(Default)]
struct Document<'a> {
    name: Cow<'a, str>,
    jobs: Vec<Job<'a>>,
    uses: Vec<Use<'a>>,
    /// The `ref` of each `<child>` element.
    children: Vec<Cow<'a, str>>,
    /// Per `<parent>`, in declaration order: its `ref` and its `<child>`
    /// element (an index into `children`).
    deps: Vec<(Cow<'a, str>, usize)>,
    /// `<uses>` attach to the last job until its `</job>`; a self-closing
    /// `<job/>` does not end it.
    in_job: bool,
}

impl<'a> Document<'a> {
    /// Read every tag of `doc` once. `reference_speed` scales runtimes.
    /// Returns what was read before the first error, and that error; a
    /// duplicate job id read before it comes first (see [`Index::new`]).
    fn read(doc: &'a str, reference_speed: f64) -> (Self, Result<(), DaxError>) {
        let mut d = Document { name: Cow::Borrowed("dax"), ..Document::default() };
        let read = d.read_tags(doc, reference_speed);
        (d, read)
    }

    /// The loop of [`Self::read`], stopping at the first error.
    fn read_tags(&mut self, doc: &'a str, reference_speed: f64) -> Result<(), DaxError> {
        let mut scan = TagScanner::new(doc);
        let mut current_child = None;
        while let Some((tag, closing)) = scan.next_tag()? {
            match (tag, closing) {
                ("adag", false) => {
                    if let Some(n) = scan.value("name") {
                        self.name = n;
                    }
                }
                ("job", false) => self.add_job(&scan, reference_speed)?,
                ("job", true) => self.in_job = false,
                ("uses", false) => self.add_use(&scan)?,
                ("child", false) => {
                    let child = scan.value("ref").ok_or_else(|| syntax("<child> without ref"))?;
                    self.children.push(child);
                    current_child = Some(self.children.len() - 1);
                }
                ("child", true) => current_child = None,
                ("parent", false) => {
                    let child = current_child.ok_or_else(|| syntax("<parent> outside <child>"))?;
                    let parent =
                        scan.value("ref").ok_or_else(|| syntax("<parent> without ref"))?;
                    self.deps.push((parent, child));
                }
                _ => {}
            }
        }
        Ok(())
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
        dense_id(self.jobs.len())?;
        self.jobs.push(Job {
            name: scan.value("name").unwrap_or_else(|| id.clone()),
            id,
            weight: StochasticWeight::new(mean, std_dev),
            uses: self.uses.len()..self.uses.len(),
        });
        self.in_job = true;
        Ok(())
    }

    /// Append the current `<uses>` tag to the last job's run.
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
        let output = scan.value("link").as_deref() == Some("output");
        self.uses.push(Use { file, size, output });
        job.uses.end = self.uses.len();
        Ok(())
    }

    /// The dependencies as `(parent, child)` job indices, in order: each
    /// `<child>` element's ref is looked up once, each `<parent>` ref once.
    /// The first reference to an undeclared job, parent before child, is
    /// the error.
    fn edges(&self, index: &Index<'_>) -> Result<Vec<(u32, u32)>, DaxError> {
        let job_of = |id: &Cow<'a, str>| index.jobs.get(id.as_ref()).copied();
        let children: Vec<Option<u32>> = self.children.iter().map(job_of).collect();
        self.deps
            .iter()
            .map(|(parent, child)| {
                let p = job_of(parent).ok_or_else(|| DaxError::UnknownJob(parent.to_string()))?;
                let c = children[*child]
                    .ok_or_else(|| DaxError::UnknownJob(self.children[*child].to_string()))?;
                Ok((p, c))
            })
            .collect()
    }
}

/// The document's job and file ids as dense indices, and each job's
/// inputs and outputs as `(file id, size)` runs of two flat lists.
struct Index<'d> {
    jobs: HashMap<&'d str, u32>,
    files: usize,
    /// Per file id: some job lists the file as output / as input.
    produced: Vec<bool>,
    consumed: Vec<bool>,
    inputs: Vec<(u32, f64)>,
    outputs: Vec<(u32, f64)>,
    /// Per job: its runs of `inputs` and `outputs`.
    runs: Vec<(Range<usize>, Range<usize>)>,
}

impl<'d> Index<'d> {
    /// Intern the ids of `d` in document order, so that the first duplicate
    /// job id, or the file past the dense ids, is the one a sequential
    /// reader meets first. The maps are sized from the counts and keep
    /// std's keyed hasher: ids are untrusted input, and a fixed-key hash
    /// would let a document aim collisions.
    fn new(d: &'d Document<'_>) -> Result<Self, DaxError> {
        let mut jobs = HashMap::with_capacity(d.jobs.len());
        let mut files = HashMap::with_capacity(d.uses.len());
        let (mut produced, mut consumed) = (Vec::new(), Vec::new());
        let (mut inputs, mut outputs) = (Vec::new(), Vec::new());
        let mut runs = Vec::with_capacity(d.jobs.len());
        for (j, job) in (0u32..).zip(&d.jobs) {
            match jobs.entry(job.id.as_ref()) {
                Entry::Occupied(_) => return Err(DaxError::DuplicateJob(job.id.to_string())),
                Entry::Vacant(slot) => slot.insert(j),
            };
            let run = (inputs.len(), outputs.len());
            for u in &d.uses[job.uses.clone()] {
                let next = dense_id(files.len())?;
                let file = *files.entry(u.file.as_ref()).or_insert(next);
                if file == next {
                    produced.push(false);
                    consumed.push(false);
                }
                if u.output {
                    produced[file as usize] = true;
                    outputs.push((file, u.size));
                } else {
                    consumed[file as usize] = true;
                    inputs.push((file, u.size));
                }
            }
            runs.push((run.0..inputs.len(), run.1..outputs.len()));
        }
        Ok(Index { jobs, files: files.len(), produced, consumed, inputs, outputs, runs })
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
        let mut last_consumer = vec![NONE; self.files];
        for (j, (inputs, _)) in (0u32..).zip(&self.runs) {
            for &(f, _) in &self.inputs[inputs.clone()] {
                if last_consumer[f as usize] != j {
                    last_consumer[f as usize] = j;
                    consumer_pairs.push((f, j));
                }
            }
        }
        let consumers = Groups::new(self.files, consumer_pairs.iter().copied());
        let by_parent =
            Groups::new(self.runs.len(), (0u32..).zip(edges).map(|(e, &(p, _))| (p, e)));
        let mut sizes = vec![std::iter::empty::<f64>().sum::<f64>(); edges.len()];
        let mut edge_to = vec![NONE; self.runs.len()];
        for (p, (_, outputs)) in (0u32..).zip(&self.runs) {
            let children = by_parent.of(p);
            for &e in children {
                edge_to[edges[e as usize].1 as usize] = e;
            }
            for &(f, size) in &self.outputs[outputs.clone()] {
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
/// ([`DaxError::DuplicateJob`]). A `reference_speed` that is not finite and
/// above zero is a [`DaxError::BadReferenceSpeed`].
pub fn from_dax(doc: &str, reference_speed: f64) -> Result<Workflow, DaxError> {
    if !(reference_speed.is_finite() && reference_speed > 0.0) {
        return Err(DaxError::BadReferenceSpeed(reference_speed));
    }
    let (d, read) = Document::read(doc, reference_speed);
    let index = Index::new(&d)?;
    read?;
    let edges = d.edges(&index)?;
    let sizes = index.edge_sizes(&edges);

    // Job order defines task ids. External I/O: inputs no job produces,
    // outputs no job consumes.
    let overflow = |what: String| DaxError::Graph(format!("{what} overflows an f64 byte count"));
    let mut b = WorkflowBuilder::new(d.name.clone());
    for (job, (inputs, outputs)) in d.jobs.iter().zip(&index.runs) {
        let ext_in: f64 = index.inputs[inputs.clone()]
            .iter()
            .filter(|(f, _)| !index.produced[*f as usize])
            .map(|(_, s)| s)
            .sum();
        let ext_out: f64 = index.outputs[outputs.clone()]
            .iter()
            .filter(|(f, _)| !index.consumed[*f as usize])
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

    /// A tag's name, closing flag and `(key, raw value)` attributes.
    type Tag<'a> = (&'a str, bool, Vec<(&'a str, &'a str)>);

    /// The tag splitter the byte scanner replaced, kept as its oracle: it
    /// takes the text between `<` and `>` already trimmed.
    fn split_tag_oracle(inner: &str) -> Result<Tag<'_>, DaxError> {
        if inner.is_empty() {
            return Err(syntax("empty tag"));
        }
        let closing = inner.starts_with('/');
        let body = inner.trim_start_matches('/').trim_end_matches('/').trim();
        let (name, mut a) = body.split_at(body.find(char::is_whitespace).unwrap_or(body.len()));
        let mut attrs = Vec::new();
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
            attrs.push((key, &value[..close]));
            a = &value[close + 1..];
        }
        Ok((name, closing, attrs))
    }

    #[test]
    fn byte_scanner_reads_every_short_tag_like_the_oracle() {
        // Markup, two letters, every ASCII whitespace byte (VT included,
        // which `u8::is_ascii_whitespace` leaves out), a two-byte
        // whitespace char and a three-byte char that is not whitespace.
        const ALPHABET: [char; 16] = [
            '<', '>', '/', '=', '"', '&', 'a', 'b', ' ', '\t', '\n', '\u{0B}', '\u{0C}', '\r',
            '\u{85}', '\u{200B}',
        ];
        const MAX_LEN: usize = 5;
        let mut digits = Vec::with_capacity(MAX_LEN);
        let mut doc = String::new();
        let mut checked = 0usize;
        loop {
            // Each string as an unterminated tag, then closed by a `>`;
            // each also padded, so that whole words of it are searched.
            for close in ["", ">", "        ", ">        "] {
                doc.clear();
                doc.push('<');
                doc.extend(digits.iter().map(|&d: &usize| ALPHABET[d]));
                doc.push_str(close);
                let mut scan = TagScanner::new(&doc);
                let got = scan.next_tag().map(|tag| {
                    let (name, closing) = tag.expect("the document starts with a tag");
                    (name, closing, scan.attrs.clone())
                });
                let want = match doc.find('>') {
                    Some(gt) => split_tag_oracle(doc[1..gt].trim()),
                    None => Err(syntax("unterminated tag")),
                };
                assert_eq!(got, want, "{doc:?}");
                checked += 1;
            }
            // Next string: count up in base 16, then grow by one digit.
            match digits.iter().rposition(|&d| d + 1 < ALPHABET.len()) {
                Some(i) => {
                    digits[i] += 1;
                    digits[i + 1..].fill(0);
                }
                None if digits.len() < MAX_LEN => {
                    digits.fill(0);
                    digits.push(0);
                }
                None => break,
            }
        }
        assert_eq!(checked, 4 * (0..=MAX_LEN as u32).map(|k| 16usize.pow(k)).sum::<usize>());
    }

    #[test]
    fn parse_number_agrees_with_str_parse_to_the_bit() {
        let same = |s: &str| {
            let want = s.parse::<f64>().ok().map(f64::to_bits);
            assert_eq!(parse_number(s).map(f64::to_bits), want, "{s:?}");
        };
        // Every string of up to five characters over digits, `.` and `-`.
        const ALPHABET: &[u8] = b"0123456789.-";
        let mut strings = vec![String::new()];
        for _ in 0..5 {
            let longer: Vec<String> = strings
                .iter()
                .filter(|s| s.len() == strings.last().map_or(0, String::len))
                .flat_map(|s| ALPHABET.iter().map(move |&c| format!("{s}{}", c as char)))
                .collect();
            strings.extend(longer);
        }
        strings.iter().for_each(|s| same(s));
        // Fifteen digits and more, around the fast path's limit, with the
        // point at every place; and what only `str::parse` reads.
        let digits = "98765432109876543210";
        for len in 14..=17 {
            for point in 0..=len {
                let (int, frac) = digits[..len].split_at(point);
                for s in [format!("{int}.{frac}"), format!("-{int}.{frac}"), format!("0.{frac}")] {
                    same(&s);
                }
            }
        }
        let others = ["", "-", ".", "-.", "+1", "1e5", "1E-3", "inf", "-inf", "NaN", "1.2.3", " 1"];
        others.into_iter().for_each(same);
    }

    #[test]
    fn reference_speed_must_be_finite_and_positive() {
        let doc = r#"<adag name="s"><job id="A" runtime="1"/></adag>"#;
        for speed in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = from_dax(doc, speed).unwrap_err();
            let DaxError::BadReferenceSpeed(s) = err else { panic!("{err:?}") };
            assert_eq!(s.to_bits(), speed.to_bits());
            assert!(err.to_string().starts_with("DAX reference speed "), "{err}");
        }
        assert_eq!(from_dax(doc, f64::MIN_POSITIVE).unwrap().task_count(), 1);
    }

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
