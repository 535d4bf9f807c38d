//! The one TOML-subset parser, fed the three config dialects that used to
//! carry a parser each: a fault spec, `claims.toml`, `simlint.toml`.

use simkit::faults::FaultSpec;
use simkit::toml::items;
use simkit::toml::Item;
use simkit::toml::Kind;
use simkit::toml::Value;

fn parsed(text: &str) -> Vec<Item<'_>> {
    items(text)
        .collect::<Result<_, _>>()
        .expect("well-formed input")
}

fn num(raw: &str) -> Value {
    Value::Num(raw.to_string())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

#[test]
fn one_line_one_item_table() {
    // (input line, what it parses to); every dialect's shapes are here.
    let cases: &[(&str, Kind)] = &[
        // fault spec: bare top-level pair, tables, floats, integer lists
        (
            "seed = 18446744073709551615",
            Kind::Pair("seed", num("18446744073709551615")),
        ),
        ("[disk]", Kind::Table("disk")),
        (
            "read_soft = 0.001   # comment",
            Kind::Pair("read_soft", num("0.001")),
        ),
        (
            "fail_reads = [1, 2, 3]",
            Kind::Pair(
                "fail_reads",
                Value::Array(vec![num("1"), num("2"), num("3")]),
            ),
        ),
        (
            "bad_read_records = []",
            Kind::Pair("bad_read_records", Value::Array(vec![])),
        ),
        // claims.toml: array-of-tables header, strings, a `#` in a string
        ("[[claim]]", Kind::ArrayTable("claim")),
        ("[[ claim ]]  # spaced", Kind::ArrayTable("claim")),
        (
            "resource = \"tape*\"",
            Kind::Pair("resource", text("tape*")),
        ),
        (
            "note = \"tape-limited (#5.2)\"  # the real comment",
            Kind::Pair("note", text("tape-limited (#5.2)")),
        ),
        ("by = 4", Kind::Pair("by", num("4"))),
        // simlint.toml: string arrays, trailing comma, `#` and `,` inside
        (
            "library = [\"simkit\", \"wafl\",]",
            Kind::Pair("library", Value::Array(vec![text("simkit"), text("wafl")])),
        ),
        (
            "allow = [\"a.rs::f#1\", \"b,c\"] # why",
            Kind::Pair("allow", Value::Array(vec![text("a.rs::f#1"), text("b,c")])),
        ),
        ("on = true", Kind::Pair("on", Value::Bool(true))),
        ("off=false", Kind::Pair("off", Value::Bool(false))),
    ];
    for (line, want) in cases {
        let got = parsed(line);
        assert_eq!(got.len(), 1, "{line}");
        assert_eq!(&got[0].kind, want, "{line}");
        assert_eq!(got[0].line, 1, "{line}");
    }
    // Blank and comment-only lines produce nothing but still count.
    let got = parsed("# header\n\n   \n[tape]  # section\n\nmedia_soft = 0.5\n");
    assert_eq!(got.len(), 2);
    assert_eq!((got[0].line, got[1].line), (4, 6));
}

#[test]
fn malformed_lines_carry_their_line_number() {
    let cases: &[(&str, usize, &str)] = &[
        ("[disk]\nread_soft 0.1\n", 2, "key = value"),
        ("seed = 1\n\n# c\n[tape\n", 4, "unterminated"),
        ("[[claim]]\nop = \"unterminated\n", 2, "malformed string"),
        ("[[claim]]\nop = Physical Dump\n", 2, "bad value"),
        ("[crates]\n\nlibrary = [\"a\", \"b\"\n", 3, "single-line"),
        ("[crates]\nlibrary = [\"a\", \"b]\n", 2, "malformed string"),
        ("a = 1\nb = 2\nc = 0x10\n", 3, "bad value"),
    ];
    for (input, line, reason) in cases {
        let err = items(input)
            .collect::<Result<Vec<_>, _>>()
            .expect_err("malformed input");
        assert_eq!(err.line, *line, "{input:?}: {err}");
        assert!(err.reason.contains(reason), "{input:?}: {err}");
        assert!(err.to_string().starts_with(&format!("line {line}: ")));
    }
    // Items before the bad line are still delivered, in order.
    let mut it = items("ok = 1\nbroken\n");
    assert!(matches!(it.next(), Some(Ok(Item { line: 1, .. }))));
    assert!(matches!(it.next(), Some(Err(e)) if e.line == 2));
}

#[test]
fn value_accessors_name_what_they_found() {
    assert_eq!(num("42").u64(), Ok(42));
    assert_eq!(num("0.5").f64(), Ok(0.5));
    assert!(num("0.5").u64().unwrap_err().contains("bad integer"));
    assert!(text("x").f64().unwrap_err().contains("expected a number"));
    assert!(num("1").str().unwrap_err().contains("expected a string"));
    assert_eq!(text("x").str(), Ok("x"));
    let list = Value::Array(vec![num("1"), num("2")]);
    assert_eq!(list.list(Value::u64), Ok(vec![1, 2]));
    assert!(list.list(Value::str).is_err());
    assert!(num("1").list(Value::u64).unwrap_err().contains("list"));
}

#[test]
fn the_checked_in_configs_parse() {
    let claims = parsed(include_str!("../../../claims.toml"));
    let headers = claims
        .iter()
        .filter(|i| i.kind == Kind::ArrayTable("claim"))
        .count();
    assert_eq!(headers, 18, "claims.toml holds the 18 gated claims");
    assert!(claims
        .iter()
        .all(|i| !matches!(i.kind, Kind::Table(_) | Kind::Pair(_, Value::Array(_)))));

    let lint = parsed(include_str!("../../../simlint.toml"));
    let tables: Vec<&Kind> = lint
        .iter()
        .map(|i| &i.kind)
        .filter(|k| matches!(k, Kind::Table(_)))
        .collect();
    assert_eq!(
        tables,
        [&Kind::Table("crates"), &Kind::Table("escape_hatch")]
    );
    for item in &lint {
        if let Kind::Pair(key, value) = &item.kind {
            let names = value
                .list(Value::str)
                .unwrap_or_else(|e| panic!("{key}: {e}"));
            assert!(!names.is_empty(), "{key} is empty");
        }
    }
}

#[test]
fn fault_specs_read_through_the_same_parser() {
    // The module-doc example of `simkit::faults`, verbatim in shape.
    let spec = FaultSpec::from_toml(
        "seed = 42\n\n[disk]\nread_soft = 0.001  # per IO\n\n[tape]\nmedia_soft = 0.0005\n\
         offline_ops = 3\nhard_write_records = [100]\n\n[raid]\nfail_disk_after = 5000\n",
    )
    .expect("doc example parses");
    assert_eq!(spec.seed, 42);
    assert_eq!(spec.disk.read_soft, 0.001);
    assert_eq!(spec.tape.hard_write_records, vec![100]);
    assert_eq!(spec.raid.fail_disk_after, Some(5000));
    // Semantic and syntactic errors alike name their line.
    for (input, line) in [
        ("seed = 1\n[disk]\nread_soft = \"high\"\n", 3),
        ("seed = 1\n[nvram]\n", 2),
        ("[tape]\noffline_ops = 3\nmedia_soft = maybe\n", 3),
        ("[[tape]]\n", 1),
    ] {
        let err = FaultSpec::from_toml(input).expect_err("bad spec");
        assert_eq!(err.line, line, "{input:?}: {err}");
    }
}
