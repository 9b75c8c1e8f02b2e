//! Fixture: bare panic sites on the serving path.
fn first(v: &[u8]) -> u8 {
    assert!(!v.is_empty(), "fixture");
    *v.first().unwrap()
}

fn second(v: &[u8]) -> u8 {
    v[1]
}

fn third(x: Option<u8>) -> u8 {
    x.unwrap()
}
