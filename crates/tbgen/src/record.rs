//! Parsing of driver `$fdisplay` records.
//!
//! Record lines look like `scenario: 2, a = 13, b = x, y = 255`. The
//! checker track consumes the *input* fields (what the DUT actually saw)
//! and compares its reference outputs against the *output* fields.

use correctbench_verilog::logic::LogicVec;

/// One parsed record line.
#[derive(Clone, PartialEq, Debug)]
pub struct Record {
    /// Scenario index the record belongs to.
    pub scenario: usize,
    /// `(signal, printed value)` pairs in line order.
    pub fields: Vec<(String, FieldValue)>,
}

/// A printed signal value: decimal, or unknown (`x`, `z`, `X`).
#[derive(Clone, PartialEq, Debug)]
pub enum FieldValue {
    /// Fully-known decimal value.
    Known(u128),
    /// The simulator printed an unknown marker.
    Unknown,
}

impl FieldValue {
    /// Converts to a [`LogicVec`] of `width` bits.
    pub fn to_logic(&self, width: usize) -> LogicVec {
        match self {
            FieldValue::Known(v) => LogicVec::from_u128(width, *v),
            FieldValue::Unknown => LogicVec::filled_x(width),
        }
    }

    /// `true` when the printed value equals `other`'s printed form.
    pub fn matches(&self, other: &FieldValue) -> bool {
        self == other
    }
}

impl Record {
    /// The value of `signal`, if the record carries it.
    pub fn field(&self, signal: &str) -> Option<&FieldValue> {
        self.fields
            .iter()
            .find(|(n, _)| n == signal)
            .map(|(_, v)| v)
    }
}

/// Resolves a fixed set of signal names against a stream of records.
///
/// Judging reads the same few signals out of every record. A binding
/// assigns each distinct name a slot once; then, per record, a single
/// pass over the printed fields ([`RecordBinding::bind`]) fills the slot
/// table with the **first occurrence** of each bound name — exactly
/// [`Record::field`]'s resolution, amortized to one hash lookup per
/// printed field instead of one linear scan per `(signal, record)`
/// pair. The table is rebuilt from scratch for every record, so a
/// long-lived session and a fresh interpreted judge resolve any stream
/// identically (including malformed streams with duplicated or
/// reordered fields).
#[derive(Clone, Debug, Default)]
pub struct RecordBinding {
    slots: std::collections::HashMap<String, usize>,
    /// Per slot: index of the field in the currently bound record.
    found: Vec<Option<u32>>,
}

impl RecordBinding {
    /// Registers `name`, returning its slot (repeats share one slot).
    pub fn slot(&mut self, name: &str) -> usize {
        let next = self.slots.len();
        let id = *self.slots.entry(name.to_string()).or_insert(next);
        self.found.resize(self.slots.len(), None);
        id
    }

    /// Indexes `rec`'s fields; afterwards [`RecordBinding::field`]
    /// answers for this record.
    pub fn bind(&mut self, rec: &Record) {
        self.found.clear();
        self.found.resize(self.slots.len(), None);
        for (fi, (name, _)) in rec.fields.iter().enumerate() {
            if let Some(&slot) = self.slots.get(name) {
                let entry = &mut self.found[slot];
                if entry.is_none() {
                    *entry = Some(fi as u32);
                }
            }
        }
    }

    /// The value bound to `slot`, read out of `rec` — which must be the
    /// record last passed to [`RecordBinding::bind`].
    pub fn field<'r>(&self, slot: usize, rec: &'r Record) -> Option<&'r FieldValue> {
        self.found
            .get(slot)
            .copied()
            .flatten()
            .map(|fi| &rec.fields[fi as usize].1)
    }
}

/// Parses every record line in `lines`; non-record lines are skipped
/// (generated testbenches sometimes emit extra debug output).
pub fn parse_records(lines: &[String]) -> Vec<Record> {
    lines.iter().filter_map(|l| parse_record(l)).collect()
}

/// Parses one line, or `None` if it is not a record.
pub fn parse_record(line: &str) -> Option<Record> {
    let rest = line.strip_prefix("scenario: ")?;
    let mut parts = rest.split(", ");
    let scenario: usize = parts.next()?.trim().parse().ok()?;
    let mut fields = Vec::new();
    for part in parts {
        let (name, value) = part.split_once(" = ")?;
        let value = value.trim();
        let fv = if value.eq_ignore_ascii_case("x") || value.eq_ignore_ascii_case("z") {
            FieldValue::Unknown
        } else {
            FieldValue::Known(value.parse().ok()?)
        };
        fields.push((name.trim().to_string(), fv));
    }
    Some(Record { scenario, fields })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_record() {
        let r = parse_record("scenario: 3, a = 13, b = 0, y = 255").expect("record");
        assert_eq!(r.scenario, 3);
        assert_eq!(r.field("a"), Some(&FieldValue::Known(13)));
        assert_eq!(r.field("y"), Some(&FieldValue::Known(255)));
        assert_eq!(r.field("nope"), None);
    }

    #[test]
    fn parse_unknowns() {
        let r = parse_record("scenario: 1, q = x, d = 7").expect("record");
        assert_eq!(r.field("q"), Some(&FieldValue::Unknown));
        let v = r.field("q").expect("q").to_logic(4);
        assert!(v.is_fully_unknown());
    }

    #[test]
    fn non_records_skipped() {
        let lines = vec![
            "debug: hello".to_string(),
            "scenario: 1, a = 1, y = 2".to_string(),
            "".to_string(),
            "scenario: 2, a = 3, y = 4".to_string(),
        ];
        let rs = parse_records(&lines);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[1].scenario, 2);
    }

    #[test]
    fn binding_matches_field_resolution() {
        let a = parse_record("scenario: 1, a = 1, b = 2, y = 3").expect("record");
        let shifted = parse_record("scenario: 2, b = 5, a = 4, y = 6").expect("record");
        // Duplicated field: Record::field resolves to the first
        // occurrence; the binding must agree even mid-stream.
        let dup = parse_record("scenario: 3, b = 9, b = 8").expect("record");
        let mut binding = RecordBinding::default();
        let b = binding.slot("b");
        let missing = binding.slot("nope");
        assert_eq!(binding.slot("b"), b, "repeated names share a slot");
        for rec in [&a, &shifted, &dup, &a] {
            binding.bind(rec);
            assert_eq!(binding.field(b, rec), rec.field("b"));
            assert_eq!(binding.field(missing, rec), None);
        }
    }

    #[test]
    fn malformed_records_rejected() {
        assert!(parse_record("scenario: , a = 1").is_none());
        assert!(parse_record("scenario: 1, a 1").is_none());
        assert!(parse_record("scenario: 1, a = 12junk").is_none());
    }
}
