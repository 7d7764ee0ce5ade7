//! Property-based tests over the core invariants of the stack, running on
//! the in-repo `maxson-testkit` harness (hermetic: no registry deps).
//!
//! A failing property prints its case seed; replay exactly that case with
//! `MAXSON_TESTKIT_SEED=<seed> cargo test <property_name>`.

use maxson_json::mison::MisonProjector;
use maxson_json::value::{JsonNumber, JsonValue};
use maxson_json::{parse, to_string, to_string_pretty, JsonPath};
use maxson_storage::encoding::{
    read_str, read_varint, rle_decode_i64_with, rle_encode_i64, unzigzag, write_bitmap, write_str,
    write_varint, zigzag, Bitmap,
};
use maxson_storage::file::{write_rows, NorcFile, WriteOptions};
use maxson_storage::{Cell, CmpOp, ColumnData, ColumnType, Field, Schema, SearchArgument};
use maxson_testkit::prop::{alphabet, check, Config, Gen};
use maxson_testkit::Rng;
use maxson_testkit::{prop_assert, prop_assert_eq, prop_assert_ne};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Arbitrary JSON values (bounded depth / width).
fn arb_json() -> Gen<JsonValue> {
    let mut string_chars = alphabet("a-zA-Z0-9");
    string_chars.extend([' ', '_', '-', '.', '"', '\\', '/', '\u{00e9}', '\u{4e16}']);
    let leaf = Gen::one_of(vec![
        Gen::just(JsonValue::Null),
        Gen::bool_any().map(JsonValue::Bool),
        Gen::i64_any().map(|i| JsonValue::Number(JsonNumber::Int(i))),
        Gen::f64_in(-1e9, 1e9).map(|f| JsonValue::Number(JsonNumber::Float(f))),
        Gen::string_of(&string_chars, 0..13).map(JsonValue::String),
    ]);
    let key = arb_key();
    Gen::recursive(leaf, 3, move |inner| {
        Gen::one_of(vec![
            Gen::vec_of(inner.clone(), 0..4).map(JsonValue::Array),
            Gen::vec_of(Gen::tuple2(key.clone(), inner), 0..4).map(JsonValue::Object),
        ])
    })
}

/// Object keys: `[a-z][a-z0-9_]{0,6}`.
fn arb_key() -> Gen<String> {
    let first = Gen::string_of(&alphabet("a-z"), 1..2);
    let rest = Gen::string_of(&alphabet("a-z0-9_"), 0..7);
    Gen::tuple2(first, rest).map(|(a, b)| format!("{a}{b}"))
}

/// Path-navigable flat objects with distinct keys.
fn arb_flat_object() -> Gen<JsonValue> {
    let mut value_chars = alphabet("a-zA-Z0-9");
    value_chars.extend([',', ':', '{', '}', '[', ']', ' ']);
    let key = Gen::tuple2(
        Gen::string_of(&alphabet("a-z"), 1..2),
        Gen::string_of(&alphabet("a-z0-9"), 0..6),
    )
    .map(|(a, b)| format!("{a}{b}"));
    let value = Gen::one_of(vec![
        Gen::i32_any().map(|i| JsonValue::Number(JsonNumber::Int(i64::from(i)))),
        Gen::string_of(&value_chars, 0..11).map(JsonValue::String),
        Gen::just(JsonValue::Null),
        Gen::bool_any().map(JsonValue::Bool),
    ]);
    // BTreeMap keeps keys distinct, matching the original btree_map strategy.
    Gen::vec_of(Gen::tuple2(key, value), 1..8).map(|pairs| {
        let map: std::collections::BTreeMap<String, JsonValue> = pairs.into_iter().collect();
        JsonValue::Object(map.into_iter().collect())
    })
}

fn arb_cell() -> Gen<Cell> {
    Gen::one_of(vec![
        Gen::just(Cell::Null),
        Gen::bool_any().map(Cell::Bool),
        Gen::i64_in(-1000..=999).map(Cell::Int),
        Gen::f64_in(-1000.0, 1000.0).map(Cell::Float),
        Gen::one_of(vec![
            Gen::string_of(&alphabet("a-z"), 0..7),
            Gen::i64_in(-1000..=999).map(|i| i.to_string()),
        ])
        .map(Cell::from),
    ])
}

// ---------------------------------------------------------------------
// JSON substrate (128 cases, mirroring the original proptest block)
// ---------------------------------------------------------------------

fn cfg128() -> Config {
    Config::with_cases(128)
}

#[test]
fn json_compact_round_trip() {
    check("json_compact_round_trip", &cfg128(), &arb_json(), |v| {
        let text = to_string(v);
        let back = parse(&text).expect("serializer output parses");
        prop_assert_eq!(&back, v);
        Ok(())
    });
}

#[test]
fn json_pretty_round_trip() {
    check("json_pretty_round_trip", &cfg128(), &arb_json(), |v| {
        let text = to_string_pretty(v);
        let back = parse(&text).expect("pretty output parses");
        prop_assert_eq!(&back, v);
        Ok(())
    });
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    check(
        "parser_never_panics_on_arbitrary_input",
        &cfg128(),
        &Gen::printable(64),
        |s| {
            let _ = parse(s); // must not panic
            Ok(())
        },
    );
}

#[test]
fn mison_matches_dom_on_flat_objects() {
    check(
        "mison_matches_dom_on_flat_objects",
        &cfg128(),
        &arb_flat_object(),
        |doc| {
            let text = to_string(doc);
            for (key, _) in doc.as_object().unwrap() {
                let path = JsonPath::parse(&format!("$.{key}")).unwrap();
                let dom = maxson_json::get_json_object(&text, &path);
                let mison = MisonProjector::project_path(&text, &path);
                prop_assert_eq!(mison, dom, "path $.{} over {}", key, text);
            }
            // A key that does not exist misses in both.
            let path = JsonPath::parse("$.zzzzzz9").unwrap();
            prop_assert_eq!(
                MisonProjector::project_path(&text, &path),
                maxson_json::get_json_object(&text, &path)
            );
            Ok(())
        },
    );
}

#[test]
fn path_eval_agrees_with_manual_navigation() {
    check(
        "path_eval_agrees_with_manual_navigation",
        &cfg128(),
        &arb_json(),
        |doc| {
            // Walk every leaf path the document reports and evaluate it.
            for path_text in doc.leaf_paths().into_iter().take(16) {
                let path = JsonPath::parse(&path_text).unwrap();
                let result = path.eval(doc);
                prop_assert!(result.is_some(), "leaf path {} must resolve", path_text);
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Encodings
// ---------------------------------------------------------------------

#[test]
fn varint_round_trip() {
    let gen = Gen::vec_of(Gen::u64_any(), 0..64);
    check("varint_round_trip", &cfg128(), &gen, |values| {
        let mut buf = Vec::new();
        for &v in values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in values {
            prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len());
        Ok(())
    });
}

#[test]
fn zigzag_round_trip() {
    check("zigzag_round_trip", &cfg128(), &Gen::i64_any(), |&v| {
        prop_assert_eq!(unzigzag(zigzag(v)), v);
        Ok(())
    });
}

#[test]
fn rle_round_trip() {
    let gen = Gen::vec_of(Gen::i64_in(-1000..=999), 0..200);
    check("rle_round_trip", &cfg128(), &gen, |values| {
        let mut buf = Vec::new();
        rle_encode_i64(values, &mut buf);
        let (mut pos, mut decoded) = (0, Vec::new());
        rle_decode_i64_with(&buf, &mut pos, values.len(), None, |v| {
            decoded.push(v);
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(&decoded, values);
        prop_assert_eq!(pos, buf.len());
        Ok(())
    });
}

#[test]
fn string_and_bitmap_round_trip() {
    let gen = Gen::tuple2(Gen::printable(32), Gen::vec_of(Gen::bool_any(), 0..70));
    check(
        "string_and_bitmap_round_trip",
        &cfg128(),
        &gen,
        |(s, bits)| {
            let mut buf = Vec::new();
            write_str(&mut buf, s);
            write_bitmap(&mut buf, bits);
            let mut pos = 0;
            prop_assert_eq!(read_str(&buf, &mut pos).unwrap(), s.clone());
            let mut decoded = Vec::new();
            Bitmap::read(&buf, &mut pos)
                .unwrap()
                .append_to(&mut decoded, None);
            prop_assert_eq!(&decoded, bits);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Cell ordering invariants
// ---------------------------------------------------------------------

#[test]
fn cell_total_cmp_is_antisymmetric_and_transitive() {
    let gen = Gen::tuple2(arb_cell(), Gen::tuple2(arb_cell(), arb_cell()));
    check(
        "cell_total_cmp_is_antisymmetric_and_transitive",
        &cfg128(),
        &gen,
        |(a, (b, c))| {
            use std::cmp::Ordering;
            prop_assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse());
            prop_assert_eq!(a.total_cmp(a), Ordering::Equal);
            // Transitivity: a<=b and b<=c => a<=c.
            if a.total_cmp(b) != Ordering::Greater && b.total_cmp(c) != Ordering::Greater {
                prop_assert_ne!(a.total_cmp(c), Ordering::Greater);
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Norc + SARG soundness (own config: filesystem-heavy, fewer cases)
// ---------------------------------------------------------------------

fn cfg24() -> Config {
    Config::with_cases(24)
}

/// Per-process subdirectory so parallel test binaries never collide on
/// file names; `case` keeps files distinct within one property run.
fn temp_file(name: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("maxson-proptest")
        .join(format!("pid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{case}.norc"))
}

#[test]
fn norc_round_trip_arbitrary_rows() {
    let row = Gen::tuple2(
        Gen::option_of(Gen::i64_any()),
        Gen::option_of(Gen::string_of(&alphabet("a-zA-Z0-9"), 0..9)),
    );
    let gen = Gen::tuple2(
        Gen::tuple2(Gen::u64_any(), Gen::vec_of(row, 0..60)),
        Gen::usize_in(1..=19),
    );
    check(
        "norc_round_trip_arbitrary_rows",
        &cfg24(),
        &gen,
        |((case, raw_rows), rg_size)| {
            let schema = Schema::new(vec![
                Field::new("i", ColumnType::Int64),
                Field::new("s", ColumnType::Utf8),
            ])
            .unwrap();
            let rows: Vec<Vec<Cell>> = raw_rows
                .iter()
                .map(|(i, s)| vec![Cell::from(*i), Cell::from(s.clone())])
                .collect();
            let path = temp_file("roundtrip", *case);
            write_rows(
                &path,
                schema,
                &rows,
                WriteOptions {
                    row_group_size: *rg_size,
                    ..Default::default()
                },
            )
            .unwrap();
            let file = NorcFile::open(&path).unwrap();
            prop_assert_eq!(file.read_all_rows().unwrap(), rows);
            std::fs::remove_file(&path).ok();
            Ok(())
        },
    );
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

/// `cell <op> literal` as the engine's `Filter` decides it: through
/// [`Cell::sql_cmp`], NULL and incomparable pairs satisfying nothing.
fn satisfies(cell: &Cell, op: CmpOp, literal: &Cell) -> bool {
    use std::cmp::Ordering;
    cell.sql_cmp(literal).is_some_and(|ord| match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::NotEq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::LtEq => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::GtEq => ord != Ordering::Less,
    })
}

#[test]
fn sarg_skipping_never_drops_qualifying_rows() {
    let gen = Gen::tuple2(
        Gen::tuple2(
            Gen::u64_any(),
            Gen::vec_of(Gen::option_of(Gen::i64_in(-50..=49)), 1..80),
        ),
        Gen::tuple2(
            Gen::tuple2(Gen::usize_in(1..=15), Gen::i64_in(-60..=59)),
            Gen::usize_in(0..=5),
        ),
    );
    check(
        "sarg_skipping_never_drops_qualifying_rows",
        &cfg24(),
        &gen,
        |((case, values), ((rg_size, lit), op_idx))| {
            let lit = *lit;
            let op = CMP_OPS[*op_idx];
            let schema = Schema::new(vec![Field::new("v", ColumnType::Int64)]).unwrap();
            let rows: Vec<Vec<Cell>> = values.iter().map(|v| vec![Cell::from(*v)]).collect();
            let path = temp_file("sarg", *case);
            write_rows(
                &path,
                schema,
                &rows,
                WriteOptions {
                    row_group_size: *rg_size,
                    ..Default::default()
                },
            )
            .unwrap();
            let file = NorcFile::open(&path).unwrap();
            let sarg = SearchArgument::new().with(0, op, Cell::Int(lit));
            let keep = sarg.keep_array(file.row_groups());
            let cols = file.read_columns(&[0], Some(&keep)).unwrap();
            // Collect the surviving values.
            let survived: Vec<Cell> = (0..cols[0].len()).map(|i| cols[0].get(i)).collect();
            // Every row that truly satisfies the predicate must be present.
            let qualifies = |c: &Cell| satisfies(c, op, &Cell::Int(lit));
            let expected: Vec<Cell> = rows
                .iter()
                .map(|r| r[0].clone())
                .filter(qualifies)
                .collect();
            let got: Vec<Cell> = survived.iter().filter(|c| qualifies(c)).cloned().collect();
            prop_assert_eq!(
                got,
                expected,
                "SARG {:?} {} dropped qualifying rows",
                op,
                lit
            );
            std::fs::remove_file(&path).ok();
            Ok(())
        },
    );
}

/// Algorithm 3 at row granularity: whatever the leaves — Int against Float,
/// literals beyond 2^53 (where `i64 -> f64` rounds), NaN, NULLs, `<>`,
/// Bool, a `Utf8` column, a string or NULL literal — every row the
/// conjunction holds for is selected, and a row failing a leaf the
/// selection does test is not.
#[test]
fn sarg_row_selection_never_drops_qualifying_rows() {
    const BIG: i64 = 1 << 53;
    let int = Gen::one_of(vec![
        Gen::i64_in(-5..=5),
        Gen::i64_in(BIG - 2..=BIG + 2),
        Gen::i64_in(-BIG - 2..=-BIG + 2),
    ]);
    let float = Gen::one_of(vec![
        Gen::f64_in(-5.0, 5.0),
        Gen::i64_in(-5..=5).map(|i| i as f64),
        Gen::just(f64::NAN),
        Gen::just(BIG as f64),
    ]);
    let text = Gen::one_of(vec![
        Gen::i64_in(-5..=5).map(|i| i.to_string()),
        Gen::just("abc".to_string()),
        Gen::just(" 3 ".to_string()),
    ]);
    let row = Gen::tuple2(
        Gen::tuple2(Gen::option_of(int.clone()), Gen::option_of(float.clone())),
        Gen::tuple2(
            Gen::option_of(Gen::bool_any()),
            Gen::option_of(text.clone()),
        ),
    );
    let literal = Gen::one_of(vec![
        int.map(Cell::Int),
        float.map(Cell::Float),
        Gen::bool_any().map(Cell::Bool),
        text.map(Cell::from),
        Gen::just(Cell::Null),
    ]);
    let leaf = Gen::tuple2(
        Gen::tuple2(Gen::usize_in(0..=3), Gen::usize_in(0..=5)),
        literal,
    );
    let gen = Gen::tuple2(Gen::vec_of(row, 0..60), Gen::vec_of(leaf, 1..4));
    check(
        "sarg_row_selection_never_drops_qualifying_rows",
        &cfg128(),
        &gen,
        |(rows, leaves)| {
            let types = [
                ColumnType::Int64,
                ColumnType::Float64,
                ColumnType::Bool,
                ColumnType::Utf8,
            ];
            let rows: Vec<[Cell; 4]> = rows
                .iter()
                .map(|((i, f), (b, s))| {
                    [
                        Cell::from(*i),
                        Cell::from(*f),
                        Cell::from(*b),
                        Cell::from(s.clone()),
                    ]
                })
                .collect();
            let mut data: Vec<ColumnData> = types.iter().map(|&ty| ColumnData::empty(ty)).collect();
            for row in &rows {
                for (col, cell) in data.iter_mut().zip(row) {
                    col.push(cell, "c").unwrap();
                }
            }
            let mut sarg = SearchArgument::new();
            for ((column, op), literal) in leaves {
                sarg = sarg.with(*column, CMP_OPS[*op], literal.clone());
            }
            let selected = sarg.select_rows(&[0, 1, 2, 3], &data);
            let tested = |leaf: &maxson_storage::sarg::SargLeaf| {
                types[leaf.column] != ColumnType::Utf8
                    && matches!(leaf.literal, Cell::Int(_) | Cell::Float(_) | Cell::Bool(_))
            };
            prop_assert_eq!(selected.is_some(), sarg.leaves.iter().any(tested));
            for (r, row) in rows.iter().enumerate() {
                let holds = |leaf: &maxson_storage::sarg::SargLeaf| {
                    satisfies(&row[leaf.column], leaf.op, &leaf.literal)
                };
                let is_selected = selected
                    .as_ref()
                    .is_none_or(|rows| rows.contains(&(r as u32)));
                if sarg.leaves.iter().all(holds) {
                    prop_assert!(is_selected, "row {r} {row:?} qualifies and was dropped");
                }
                if sarg.leaves.iter().any(|leaf| tested(leaf) && !holds(leaf)) {
                    prop_assert!(!is_selected, "row {r} {row:?} fails a tested leaf");
                }
            }
            prop_assert!(selected.is_none_or(|rows| rows.windows(2).all(|w| w[0] < w[1])));
            Ok(())
        },
    );
}

/// One decode path: for columns of all four types (unique strings that stay
/// plain, repetitive ones that dictionary-encode, NULLs everywhere), several
/// row groups, a keep-array with holes and any ascending selection — empty,
/// everything, or a scatter that crosses row-group edges — the selected read
/// is the unselected read gathered at the same rows, mapped or copied.
#[test]
fn selected_read_equals_unselected_read_gathered() {
    let row = Gen::tuple2(
        Gen::tuple2(
            Gen::option_of(Gen::i64_in(-3..=3)),
            Gen::option_of(Gen::f64_in(-1e6, 1e6)),
        ),
        Gen::tuple2(
            Gen::option_of(Gen::bool_any()),
            Gen::tuple2(
                Gen::option_of(Gen::string_of(&alphabet("a-z0-9\u{e9}"), 0..12)),
                Gen::option_of(Gen::usize_in(0..=2)),
            ),
        ),
    );
    let gen = Gen::tuple2(
        Gen::tuple2(Gen::u64_any(), Gen::vec_of(row, 1..120)),
        Gen::tuple2(Gen::usize_in(1..=15), Gen::usize_in(0..=3)),
    );
    check(
        "selected_read_equals_unselected_read_gathered",
        &cfg24(),
        &gen,
        |((case, raw_rows), (rg_size, density))| {
            let schema = Schema::new(vec![
                Field::new("i", ColumnType::Int64),
                Field::new("f", ColumnType::Float64),
                Field::new("b", ColumnType::Bool),
                Field::new("plain", ColumnType::Utf8),
                Field::new("dict", ColumnType::Utf8),
            ])
            .unwrap();
            let rows: Vec<Vec<Cell>> = raw_rows
                .iter()
                .enumerate()
                .map(|(n, ((i, f), (b, (plain, dict))))| {
                    vec![
                        Cell::from(*i),
                        Cell::from(*f),
                        Cell::from(*b),
                        Cell::from(plain.as_ref().map(|s| format!("{n}:{s}"))),
                        Cell::from(dict.map(|d| ["red", "green", ""][d])),
                    ]
                })
                .collect();
            let path = temp_file("selected", *case);
            let options = WriteOptions {
                row_group_size: *rg_size,
                ..Default::default()
            };
            write_rows(&path, schema, &rows, options).unwrap();
            let mut rng = Rng::seed_from_u64(*case);
            let groups = rows.len().div_ceil(*rg_size);
            let keep: Vec<bool> = (0..groups).map(|_| rng.gen_bool(0.7)).collect();
            let columns = [4, 0, 3, 1, 2];
            let file = NorcFile::open(&path).unwrap();
            let whole = file.read_columns(&columns, Some(&keep)).unwrap();
            // density 0 selects nothing, 3 everything.
            let selection: Vec<u32> = (0..whole[0].len() as u32)
                .filter(|_| rng.gen_bool(*density as f64 / 3.0))
                .collect();
            let at = file
                .read_columns_at(&columns, Some(&keep), Some(&selection))
                .unwrap();
            let gathered: Vec<ColumnData> = whole.iter().map(|c| c.gather(&selection)).collect();
            prop_assert_eq!(at, gathered, "keep {:?} rows {:?}", keep, selection);
            std::fs::remove_file(&path).ok();
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// SQL LIKE matcher vs a naive oracle (256 cases)
// ---------------------------------------------------------------------

fn cfg256() -> Config {
    Config::with_cases(256)
}

/// Reference implementation: dynamic programming over chars.
fn like_oracle(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let mut dp = vec![vec![false; p.len() + 1]; t.len() + 1];
    dp[0][0] = true;
    for j in 1..=p.len() {
        dp[0][j] = p[j - 1] == '%' && dp[0][j - 1];
    }
    for i in 1..=t.len() {
        for j in 1..=p.len() {
            dp[i][j] = match p[j - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => c == t[i - 1] && dp[i - 1][j - 1],
            };
        }
    }
    dp[t.len()][p.len()]
}

#[test]
fn like_match_agrees_with_dp_oracle() {
    let like_chars = ['a', 'b', '%', '_'];
    let gen = Gen::tuple2(
        Gen::string_of(&like_chars, 0..9),
        Gen::string_of(&like_chars, 0..7),
    );
    check(
        "like_match_agrees_with_dp_oracle",
        &cfg256(),
        &gen,
        |(text, pattern)| {
            prop_assert_eq!(
                maxson_engine::expr::like_match(text, pattern),
                like_oracle(text, pattern),
                "text={:?} pattern={:?}",
                text,
                pattern
            );
            Ok(())
        },
    );
}

#[test]
fn sql_parser_never_panics() {
    check(
        "sql_parser_never_panics",
        &cfg256(),
        &Gen::printable(80),
        |s| {
            let _ = maxson_engine::sql::parse_select(s); // must not panic
            Ok(())
        },
    );
}
