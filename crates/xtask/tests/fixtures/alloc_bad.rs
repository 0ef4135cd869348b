// Fixture: allocation inside a hot-path function fires; the same code in
// an unmarked function is silent.

pub fn cold_may_allocate() -> Vec<f64> {
    let mut v = Vec::new();
    v.push(1.0);
    v
}

// lint: hot-path
pub fn hot_must_not(out: &mut [f64]) {
    let scratch = vec![0.0f64; out.len()];
    let copied = scratch.to_vec();
    let boxed = Box::new(copied.clone());
    let doubled: Vec<f64> = boxed.iter().map(|x| x * 2.0).collect();
    let mut sized = Vec::with_capacity(doubled.len());
    sized.extend_from_slice(&doubled);
    out.copy_from_slice(&sized);
}
