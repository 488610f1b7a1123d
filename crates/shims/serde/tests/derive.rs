//! The derives against each other: `Deserialize` reads what `Serialize` writes, and decode
//! errors name the path to the offending value.

use serde::{Deserialize, Serialize, Value};

fn to_json<T: Serialize>(v: &T) -> String {
    let mut out = String::new();
    v.serialize_json(&mut out);
    out
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Tagged(u8),
    Pair(u16, String),
    Square { side: u64 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Doc {
    shapes: Vec<Shape>,
    label: Option<String>,
    #[serde(default)]
    weights: Vec<f64>,
}

fn obj(entries: &[(&str, Value)]) -> Value {
    Value::Object(entries.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

#[test]
fn derived_deserialize_reads_what_derived_serialize_writes() {
    let shapes =
        vec![Shape::Dot, Shape::Tagged(7), Shape::Pair(9, "p".into()), Shape::Square { side: 3 }];
    let json = r#"["Dot",{"Tagged":7},{"Pair":[9,"p"]},{"Square":{"side":3}}]"#;
    assert_eq!(to_json(&shapes), json);
    let written = Value::Array(vec![
        text("Dot"),
        obj(&[("Tagged", Value::Integer(7))]),
        obj(&[("Pair", Value::Array(vec![Value::Integer(9), text("p")]))]),
        obj(&[("Square", obj(&[("side", Value::Integer(3))]))]),
    ]);
    // Unknown keys are ignored; an absent `Option` is `None`, an absent default is empty.
    let doc = obj(&[("shapes", written), ("unknown", Value::Bool(true))]);
    assert_eq!(Doc::from_value(&doc), Ok(Doc { shapes, label: None, weights: vec![] }));
}

#[test]
fn decode_errors_name_the_path_to_the_offending_value() {
    let error = |shape: Value| {
        let doc = obj(&[("shapes", Value::Array(vec![text("Dot"), shape]))]);
        Doc::from_value(&doc).unwrap_err().to_string()
    };
    assert_eq!(error(text("Circle")), "shapes[1]: unknown variant `Circle`");
    assert_eq!(error(text("Tagged")), "shapes[1]: variant `Tagged` needs fields");
    assert_eq!(error(obj(&[("Tagged", Value::Integer(300))])), "shapes[1]: 300 exceeds u8");
    assert_eq!(
        error(obj(&[("Pair", Value::Array(vec![Value::Integer(9), Value::Integer(5)]))])),
        "shapes[1][1]: expected a string, found a number"
    );
    assert_eq!(error(obj(&[("Square", obj(&[]))])), "shapes[1].side: missing field");
    assert_eq!(Doc::from_value(&obj(&[])).unwrap_err().to_string(), "shapes: missing field");
}
